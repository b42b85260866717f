//! Per-cohort kernel profiling: everything the solver needs that can
//! be measured *exactly*, from two fault-free executions.
//!
//! 1. A fused run of the precise path gives the compute cycle count,
//!    instruction count and skim arm point; task substrates record an
//!    [`ExecutionTape`] instead, whose per-step PCs attribute cycles to
//!    task regions.
//! 2. One [`run_intermittent`] under a continuous 1 W trace — four
//!    orders of magnitude above the ~6 mW execution drain, so the
//!    device never browns out — gives the substrate's own fault-free
//!    counters: checkpoints, commits, overhead cycles, and the
//!    committed output's error.
//!
//! Nothing in this module estimates; the expectations live in the
//! solver.

use std::ops::ControlFlow;

use wn_core::intermittent::{run_intermittent, SubstrateKind};
use wn_core::{PreparedRun, WnError};
use wn_energy::{PowerTrace, SupplyConfig};
use wn_sim::{
    Core, ExecutionTape, HookBreak, HookKind, SimError, StepEvent, StepHook, StepInfo, StopReason,
    TapeKind,
};

/// Step budget for the profiling tape; generous multiple of the
/// largest fleet-scale kernel.
const MAX_PROFILE_STEPS: u64 = 200_000_000;

/// Cycle budget for the fused profiling run: the step budget at the
/// costliest (16-cycle) instruction.
const MAX_PROFILE_CYCLES: u64 = 16 * MAX_PROFILE_STEPS;

/// Skim-point facts read off the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkimProfile {
    /// Compute cycles retired when the first `SKM` completes (the
    /// earliest point a post-outage restore can take the skim jump).
    pub arm_compute_cycles: u64,
    /// The skim target PC.
    pub target: u32,
}

/// Exact fault-free measurements for one (prepared kernel, substrate,
/// supply) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Compute cycles of the precise path (tape total; no substrate
    /// overhead).
    pub compute_cycles: u64,
    /// Instructions retired on the precise path.
    pub instructions: u64,
    /// Substrate overhead cycles under continuous power.
    pub overhead_ff: u64,
    /// Total executed cycles under continuous power
    /// (`compute + overhead`, as the simulator counts them).
    pub executed_ff: u64,
    /// Checkpoints taken under continuous power.
    pub checkpoints_ff: u64,
    /// Commits under continuous power.
    pub commits_ff: u64,
    /// Output NRMSE (%) of the fault-free committed output.
    pub error_percent_ff: f64,
    /// Task substrates: compute cycles of each dynamic region entry.
    pub region_entry_cycles: Vec<u64>,
    /// First skim arm, if the kernel plants one.
    pub skim: Option<SkimProfile>,
}

/// A wrapping constant-power trace (the `power_at` lookup wraps by
/// trace length, so one second of samples covers any run).
fn continuous_trace(power_w: f32) -> PowerTrace {
    PowerTrace::from_samples(vec![power_w; 1000])
}

/// Notes the first skim point a fused run retires. `SKM` always ends a
/// fused block, so the hook observes every one.
struct FirstSkim(Option<SkimProfile>);

impl StepHook for FirstSkim {
    const KIND: HookKind = HookKind::MemoryOps;

    fn on_step(&mut self, core: &mut Core, info: &StepInfo) -> ControlFlow<HookBreak, u64> {
        if let (None, StepEvent::SkimSet(target)) = (self.0, info.event) {
            self.0 = Some(SkimProfile {
                arm_compute_cycles: core.stats.cycles,
                target,
            });
        }
        ControlFlow::Continue(0)
    }

    fn block_budget(&self) -> u64 {
        u64::MAX
    }
}

/// Profiles `prepared` for the solver. Runs the precise path twice
/// (once fused, or on a tape for task substrates, and once under the
/// substrate with continuous power); both runs are deterministic.
pub fn profile_kernel(
    prepared: &PreparedRun,
    substrate: SubstrateKind,
    supply: &SupplyConfig,
) -> Result<KernelProfile, WnError> {
    let mut core = prepared.fresh_core()?;
    let (compute_cycles, instructions, skim, region_entry_cycles) =
        if matches!(substrate, SubstrateKind::Task(_)) {
            let tape = ExecutionTape::record(&mut core, MAX_PROFILE_STEPS)?.ok_or(WnError::Sim(
                SimError::CycleLimit {
                    limit: MAX_PROFILE_STEPS,
                },
            ))?;
            let skim = (0..tape.len())
                .find(|&i| tape.kind(i) == TapeKind::Skim)
                .map(|i| SkimProfile {
                    arm_compute_cycles: tape.span_cycles(0, i + 1),
                    target: tape.skim(i),
                });
            let entries = region_entries(prepared, &tape);
            (tape.total_cycles(), tape.len() as u64, skim, entries)
        } else {
            let mut first_skim = FirstSkim(None);
            let run = core.run_steps_hooked(MAX_PROFILE_CYCLES, &mut first_skim)?;
            if run.stop != StopReason::Halted {
                return Err(WnError::Sim(SimError::CycleLimit {
                    limit: MAX_PROFILE_CYCLES,
                }));
            }
            let stats = &core.stats;
            (stats.cycles, stats.instructions, first_skim.0, Vec::new())
        };

    let outcome = run_intermittent(prepared, substrate, &continuous_trace(1.0), *supply, 1e9)?;
    debug_assert_eq!(outcome.outages, 0, "continuous power must not brown out");

    Ok(KernelProfile {
        compute_cycles,
        instructions,
        overhead_ff: outcome.substrate.overhead_cycles,
        executed_ff: outcome.active_cycles,
        checkpoints_ff: outcome.substrate.checkpoints,
        commits_ff: outcome.substrate.commits,
        error_percent_ff: outcome.error_percent,
        region_entry_cycles,
        skim,
    })
}

/// Splits the tape's compute cycles into dynamic task-region entries:
/// each maximal run of consecutive steps whose PCs fall in the same
/// [`TaskSpan`](wn_compiler::TaskSpan) is one entry. Matches the task
/// substrate's own region attribution (`partition_point` over span
/// starts).
fn region_entries(prepared: &PreparedRun, tape: &ExecutionTape) -> Vec<u64> {
    let spans = &prepared.compiled.tasks;
    if spans.is_empty() {
        return vec![tape.total_cycles()];
    }
    let region_of = |pc: u32| -> usize {
        spans
            .partition_point(|r| r.start_pc <= pc)
            .saturating_sub(1)
    };
    let mut entries = Vec::new();
    let mut cur = region_of(tape.pc(0));
    let mut acc = 0u64;
    for i in 0..tape.len() {
        let region = region_of(tape.pc(i));
        if region != cur {
            entries.push(acc);
            acc = 0;
            cur = region;
        }
        acc += tape.cost(i);
    }
    if acc > 0 {
        entries.push(acc);
    }
    entries
}

/// Deterministic skim-path replay: executes the precise path until
/// `jump_at_compute_cycles` cycles have retired (the expected progress
/// when the decisive outage hits), takes the armed skim jump, and runs
/// the commit tail to `HALT`. Returns the tail's compute cycles and
/// the committed approximate output's error. `None` when the skim
/// point was not yet armed at the jump position (the run would simply
/// resume refinement — callers fall back to the precise model).
pub fn skim_replay(
    prepared: &PreparedRun,
    jump_at_compute_cycles: u64,
) -> Result<Option<(u64, f64)>, WnError> {
    let mut core = prepared.fresh_core()?;
    let mut cycles = 0u64;
    let mut steps = 0u64;
    while cycles < jump_at_compute_cycles && !core.is_halted() {
        let info = core.step().map_err(WnError::Sim)?;
        cycles += info.cycles;
        steps += 1;
        if steps > MAX_PROFILE_STEPS {
            return Err(WnError::Sim(wn_sim::SimError::CycleLimit {
                limit: MAX_PROFILE_STEPS,
            }));
        }
    }
    let Some(target) = core.cpu.skm else {
        return Ok(None);
    };
    if core.is_halted() {
        return Ok(None);
    }
    core.cpu.pc = target;
    core.cpu.skm = None;
    let tail = core.run(u64::MAX).map_err(WnError::Sim)?.cycles;
    let error = prepared
        .error_percent_checked(&core)?
        .unwrap_or(f64::INFINITY);
    Ok(Some((tail, error)))
}
