//! # wn-intermittent — checkpointing substrates and the intermittent executor
//!
//! The paper evaluates What's Next on two classes of intermittently
//! powered processors (§IV):
//!
//! * a **checkpoint-based volatile processor** running [`clank::Clank`] —
//!   a write-back buffer tracks idempotency (WAR) violations and forces
//!   checkpoints; a periodic watchdog also checkpoints; after a power
//!   outage, execution restores from the last checkpoint and re-executes
//!   lost work;
//! * a **non-volatile processor** ([`nvp::Nvp`]) implementing the
//!   backup-every-cycle policy — processor state survives outages and
//!   execution resumes in place with a small wake-up cost.
//!
//! On both, the **skim-point runtime** lives in the restore path
//! ([`executor::IntermittentExecutor`]): when power returns, the executor
//! first checks the non-volatile SKM register; if a skim point was set, it
//! jumps to the skim target instead of the restored PC, committing the
//! approximate output as-is (paper §III-C).
//!
//! ```
//! use wn_energy::{PowerTrace, SupplyConfig, TraceKind};
//! use wn_intermittent::{clank::Clank, executor::IntermittentExecutor};
//! use wn_isa::asm::assemble;
//! use wn_sim::{Core, CoreConfig};
//!
//! let program = assemble("MOV r0, #5\nMOV r1, #6\nMUL r2, r0, r1\nHALT")?;
//! let core = Core::new(&program, CoreConfig::default())?;
//! let trace = PowerTrace::generate(TraceKind::RfBursty, 1, 60.0);
//! let mut exec = IntermittentExecutor::new(
//!     core,
//!     &trace,
//!     SupplyConfig::default(),
//!     Clank::default(),
//! );
//! // `run` returns Ok only for completed runs; a short program under a
//! // fresh supply finishes without skimming.
//! let run = exec.run(600.0)?;
//! assert!(!run.skimmed);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checkpoint;
pub mod clank;
pub mod execution;
pub mod executor;
pub mod lockstep;
pub mod nvp;
pub mod progress;
pub mod substrate;
pub mod task;

pub use checkpoint::DiffCheckpoint;
pub use clank::{Clank, ClankConfig};
pub use execution::{Execution, Saved};
pub use executor::{ExecError, IntermittentExecutor, IntermittentRun};
pub use lockstep::{replay_run_clank, replay_run_nvp, StreamedDevice};
pub use nvp::{Nvp, NvpConfig};
pub use progress::{FaultFreeProfile, ProgressModel};
pub use substrate::Substrate;
pub use task::{Task, TaskConfig, TaskRegion};
