//! # wn-energy — energy-harvesting frontend
//!
//! Models the power side of an intermittently powered device (paper §IV):
//!
//! * a [`Capacitor`] energy store (the paper uses 10 µF),
//! * synthetic harvested-power traces ([`PowerTrace`]) standing in for the
//!   paper's measured 1 kHz Wi-Fi RF voltage traces — stochastic RF
//!   bursts, solar-like, periodic and constant profiles, all seeded and
//!   reproducible ([`TraceKind`]),
//! * an [`EnergySupply`] that ties a trace and a capacitor to the core's
//!   clock: the device turns on when the capacitor reaches `v_on`, drains
//!   a constant energy per cycle while executing (the paper validates
//!   constant energy per instruction on an MSP430), and browns out at
//!   `v_off` — a **power outage**.
//!
//! The paper invokes each application 3 times on 9 different voltage
//! traces; [`PowerTrace::paper_suite`] builds the 9-trace ensemble.
//!
//! ```
//! use wn_energy::{EnergySupply, PowerTrace, SupplyConfig, TraceKind};
//!
//! let trace = PowerTrace::generate(TraceKind::RfBursty, 42, 30.0);
//! // Deployed devices start with a charged capacitor (configurable).
//! let mut supply = EnergySupply::new(trace, SupplyConfig::default());
//! supply.wait_for_power()?;
//! assert!(supply.is_on());
//! # Ok::<(), wn_energy::SupplyError>(())
//! ```

pub mod capacitor;
pub mod environment;
pub mod lattice;
pub mod stats;
pub mod supply;
pub mod trace;

pub use capacitor::Capacitor;
pub use environment::{EnvModel, HarvestStats};
pub use lattice::BlockLattice;
pub use stats::TraceStats;
pub use supply::memo_stats::{self, SupplyMemoStats};
pub use supply::{EnergySupply, PowerStatus, SupplyConfig, SupplyError};
pub use trace::{PowerTrace, TraceKind};
