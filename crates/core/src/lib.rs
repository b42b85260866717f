//! # wn-core — the What's Next architecture, end to end
//!
//! This is the top-level crate of the reproduction of *"The What's Next
//! Intermittent Computing Architecture"* (Ganesan, San Miguel, Enright
//! Jerger — HPCA 2019). It ties the substrates together:
//!
//! * [`wn_isa`] / [`wn_sim`] — the WN-RISC instruction set (with
//!   `MUL_ASP`, `*_ASV` and `SKM`) and its cycle-accurate Cortex-M0+-class
//!   simulator;
//! * [`wn_compiler`] — the pragma-driven anytime compiler (loop fission,
//!   SWP/SWV lowering, skim-point insertion);
//! * [`wn_energy`] / [`wn_intermittent`] — harvested-power traces,
//!   capacitor supply, and the Clank / NVP substrates with the skim-point
//!   restore path;
//! * [`wn_kernels`] — the six benchmarks of Table I plus the glucose
//!   scenario;
//! * [`wn_quality`] — NRMSE and runtime–quality curves;
//! * [`wn_hwmodel`] — the §V-D area/power model.
//!
//! and exposes the experiment layer:
//!
//! * [`PreparedRun`] — compile a kernel instance at a [`Technique`] and
//!   spin up cores with inputs injected;
//! * [`continuous`] — runtime–quality curves on continuous power (Fig. 9
//!   and the §V-E case studies);
//! * [`intermittent`] — runs on harvested power over Clank/NVP (Figs. 10
//!   and 11);
//! * [`experiments`] — one entry point per table and figure in the paper,
//!   each returning a typed, printable, CSV-able result;
//! * [`jobs`] — the deterministic fork–join pool the experiments fan out
//!   on (`--jobs N` / `WN_JOBS`, default: all cores).
//!
//! ## Quickstart
//!
//! ```
//! use wn_core::{PreparedRun, Technique};
//! use wn_kernels::{Benchmark, Scale};
//!
//! // Compile MatAdd with 8-bit anytime subword vectorization…
//! let instance = Benchmark::MatAdd.instance(Scale::Quick, 42);
//! let run = PreparedRun::new(&instance, Technique::swv(8))?;
//! // …execute to completion on continuous power…
//! let mut core = run.fresh_core()?;
//! core.run(u64::MAX)?;
//! // …and the fully refined output is exact.
//! assert_eq!(run.error_percent(&core)?, 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod continuous;
pub mod error;
pub mod experiments;
pub mod intermittent;
pub mod jobs;
pub mod prepared;
pub mod stream;

pub use error::WnError;
pub use prepared::{
    prepared_cache_stats, set_prepared_cache_capacity, PreparedCacheStats, PreparedRun,
};

// Re-export the pieces users need at the top level.
pub use wn_compiler::Technique;
pub use wn_kernels::{Benchmark, Scale};
pub use wn_quality::QualityCurve;
pub use wn_sim::{Core, CoreConfig};
