//! # wn-sim — cycle-accurate WN-RISC simulator
//!
//! A cycle-accurate simulator for the WN-RISC instruction set defined in
//! [`wn_isa`], modeling the ARM Cortex-M0+-class core that the What's Next
//! paper evaluates (HPCA 2019, §IV):
//!
//! * two-stage pipeline — modeled through per-instruction cycle costs
//!   (taken branches pay a refill penalty),
//! * no caches, no branch predictor,
//! * an **iterative multiplier**: 16 cycles for the full-precision 16×16
//!   multiply, `N` cycles for an `N`-bit `MUL_ASP` subword multiply,
//! * the **SWV adder** of Fig. 8: muxes in the carry chain partition the
//!   32-bit adder into 4-, 8- or 16-bit lanes,
//! * an optional 16-entry direct-mapped **memoization table** and **zero
//!   skipping** for multiplies (§V-E),
//! * a dedicated non-volatile **SKM register** written by skim points.
//!
//! The simulator is deliberately *mechanism-complete but policy-free*: it
//! executes one instruction per [`Core::step`] and reports what happened
//! ([`StepInfo`]); power, checkpointing and restore policies live in
//! `wn-intermittent`.
//!
//! ```
//! use wn_isa::asm::assemble;
//! use wn_sim::{Core, CoreConfig};
//!
//! let program = assemble("MOV r0, #6\nMOV r1, #7\nMUL r0, r0, r1\nHALT")?;
//! let mut core = Core::new(&program, CoreConfig::default())?;
//! let outcome = core.run(1_000)?;
//! assert!(outcome.halted);
//! assert_eq!(core.cpu.reg(wn_isa::Reg::R0), 42);
//! // MOV(1) + MOV(1) + MUL(16) + HALT(1)
//! assert_eq!(core.stats.cycles, 19);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod alu;
pub mod core;
pub mod cpu;
pub mod cycle_model;
pub mod error;
pub mod memo;
pub mod memory;
pub mod stats;
pub mod tape;
pub mod trace;

pub use crate::core::{
    BulkRun, Core, CoreConfig, HookBreak, HookKind, RunOutcome, StepEvent, StepHook, StepInfo,
    StopReason,
};
pub use crate::cpu::{Cpu, CpuSnapshot};
pub use crate::cycle_model::CycleModel;
pub use crate::error::SimError;
pub use crate::memo::{MemoConfig, MemoStats, MemoUnit};
pub use crate::memory::{AccessKind, MemAccess, Memory};
pub use crate::stats::{ExecStats, InstrClass};
pub use crate::tape::{Dispatch, ExecutionTape, TapePos, WalkCache};
pub use crate::trace::{ExecTrace, TraceEntry};
