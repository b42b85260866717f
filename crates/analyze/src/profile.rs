//! Per-cohort kernel profiling: everything the solver needs that can
//! be measured *exactly*, from two fault-free executions.
//!
//! 1. A fused run of the precise path gives the compute cycle count,
//!    instruction count and skim arm point; for task substrates it also
//!    attributes cycles to task regions, its blocks fenced to the
//!    current region so every region change is single-stepped.
//! 2. One [`run_intermittent`] under a continuous 1 W trace — four
//!    orders of magnitude above the ~6 mW execution drain, so the
//!    device never browns out — gives the substrate's own fault-free
//!    counters: checkpoints, commits, overhead cycles, and the
//!    committed output's error.
//!
//! Nothing in this module estimates; the expectations live in the
//! solver.

use std::ops::ControlFlow;

use wn_compiler::TaskSpan;
use wn_core::intermittent::{run_intermittent, SubstrateKind};
use wn_core::{PreparedRun, WnError};
use wn_energy::{PowerTrace, SupplyConfig};
use wn_sim::{Core, HookBreak, HookKind, SimError, StepEvent, StepHook, StepInfo, StopReason};

/// Step budget for the profiling runs; generous multiple of the
/// largest fleet-scale kernel.
const MAX_PROFILE_STEPS: u64 = 200_000_000;

/// Cycle budget for the fused profiling run: the step budget at the
/// costliest (16-cycle) instruction.
const MAX_PROFILE_CYCLES: u64 = 16 * MAX_PROFILE_STEPS;

/// Skim-point facts of the fault-free precise path.
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

/// Observes the fused profiling run: notes the first skim point
/// (`SKM` always ends a fused block, so [`StepHook::on_step`] sees every
/// one) and splits the compute cycles into dynamic task-region entries —
/// each maximal run of consecutive instructions in one
/// [`TaskSpan`], matching the task substrate's own region attribution
/// (`partition_point` over span starts). The fence keeps every fused
/// block inside the current span, so only a single-stepped instruction
/// can leave it.
struct Profiler<'a> {
    /// The task spans; empty outside task substrates, which fences
    /// nothing.
    spans: &'a [TaskSpan],
    /// Index of the span the pc is in.
    cur: usize,
    /// Cycles of the current entry so far.
    acc: u64,
    entries: Vec<u64>,
    skim: Option<SkimProfile>,
}

/// Index of the span containing `pc` (the task substrate's rule).
fn span_of(spans: &[TaskSpan], pc: u32) -> usize {
    spans
        .partition_point(|r| r.start_pc <= pc)
        .saturating_sub(1)
}

impl<'a> Profiler<'a> {
    fn new(spans: &'a [TaskSpan], entry: u32) -> Profiler<'a> {
        Profiler {
            spans,
            cur: span_of(spans, entry),
            acc: 0,
            entries: Vec::new(),
            skim: None,
        }
    }

    /// The region entries, the last one closed.
    fn finish(mut self) -> Vec<u64> {
        if self.acc > 0 {
            self.entries.push(self.acc);
        }
        self.entries
    }
}

impl StepHook for Profiler<'_> {
    const KIND: HookKind = HookKind::MemoryOps;

    fn on_step(&mut self, core: &mut Core, info: &StepInfo) -> ControlFlow<HookBreak, u64> {
        if let (None, StepEvent::SkimSet(target)) = (self.skim, info.event) {
            self.skim = Some(SkimProfile {
                arm_compute_cycles: core.stats.cycles,
                target,
            });
        }
        self.acc += info.cycles;
        let span = span_of(self.spans, core.cpu.pc);
        if span != self.cur {
            self.entries.push(std::mem::take(&mut self.acc));
            self.cur = span;
        }
        ControlFlow::Continue(0)
    }

    fn block_budget(&self) -> u64 {
        u64::MAX
    }

    fn block_fence(&self) -> (u32, u32) {
        match self.spans.get(self.cur) {
            // An empty span at pc 0 admits nothing.
            Some(r) => r
                .end_pc
                .checked_sub(1)
                .map_or((1, 0), |last| (r.start_pc, last)),
            None => (0, u32::MAX),
        }
    }

    fn on_block(
        &mut self,
        _block: u32,
        _costs: &[u64],
        cycles: u64,
        tail_extra: u64,
        _reads: &[u32],
    ) {
        self.acc += cycles + tail_extra;
    }
}

/// Profiles `prepared` for the solver. Runs the precise path twice
/// (once fused, and once under the substrate with continuous power);
/// both runs are deterministic.
pub fn profile_kernel(
    prepared: &PreparedRun,
    substrate: SubstrateKind,
    supply: &SupplyConfig,
) -> Result<KernelProfile, WnError> {
    let (compute_cycles, instructions, skim, region_entry_cycles) =
        fused_profile(prepared, substrate)?;

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

/// The fused run of the precise path: compute cycles, instructions,
/// the first skim point, and — for task substrates — the compute
/// cycles of each dynamic region entry (one entry for an undecomposed
/// kernel).
fn fused_profile(
    prepared: &PreparedRun,
    substrate: SubstrateKind,
) -> Result<(u64, u64, Option<SkimProfile>, Vec<u64>), WnError> {
    let tasked = matches!(substrate, SubstrateKind::Task(_));
    let spans: &[TaskSpan] = if tasked {
        &prepared.compiled.tasks
    } else {
        &[]
    };
    let mut core = prepared.fresh_core()?;
    let mut profiler = Profiler::new(spans, core.cpu.pc);
    let run = core.run_steps_hooked(MAX_PROFILE_CYCLES, &mut profiler)?;
    if run.stop != StopReason::Halted {
        return Err(WnError::Sim(SimError::CycleLimit {
            limit: MAX_PROFILE_CYCLES,
        }));
    }
    let skim = profiler.skim;
    // A task build without spans never changes span: one entry.
    let entries = if tasked {
        profiler.finish()
    } else {
        Vec::new()
    };
    Ok((core.stats.cycles, core.stats.instructions, skim, entries))
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

#[cfg(test)]
mod tests {
    use super::*;
    use wn_compiler::Technique;
    use wn_core::{Benchmark, Scale};
    use wn_intermittent::TaskConfig;
    use wn_sim::{Core, StepEvent};

    /// The per-instruction attribution the fused profile replaced, from
    /// a single-stepped run: total cycles, retirements, the first skim
    /// point, and one entry per maximal run of consecutive retirements
    /// whose pcs fall in the same span.
    fn stepped_profile(
        prepared: &PreparedRun,
        mut core: Core,
    ) -> (u64, u64, Option<SkimProfile>, Vec<u64>) {
        let spans = &prepared.compiled.tasks;
        let (mut cycles, mut steps, mut skim) = (0u64, 0u64, None);
        let (mut entries, mut acc) = (Vec::new(), 0u64);
        let mut cur = (!spans.is_empty()).then(|| span_of(spans, core.cpu.pc));
        while !core.is_halted() {
            if let Some(c) = cur {
                let region = span_of(spans, core.cpu.pc);
                if region != c {
                    entries.push(acc);
                    acc = 0;
                    cur = Some(region);
                }
            }
            let info = core.step().unwrap();
            cycles += info.cycles;
            acc += info.cycles;
            steps += 1;
            if let (None, StepEvent::SkimSet(target)) = (&skim, info.event) {
                skim = Some(SkimProfile {
                    arm_compute_cycles: cycles,
                    target,
                });
            }
        }
        if acc > 0 {
            entries.push(acc);
        }
        (cycles, steps, skim, entries)
    }

    #[test]
    fn fused_task_profile_matches_a_stepped_run() {
        let task = SubstrateKind::Task(TaskConfig::default());
        let mut fused = 0;
        for b in Benchmark::ALL {
            for technique in [Technique::Precise, Technique::swp(8), b.technique(8)] {
                let Ok(prepared) =
                    PreparedRun::cached_with_tasks(b, Scale::Quick, 7, technique, true)
                else {
                    continue; // SWP does not apply to SWV benchmarks
                };
                let ctx = format!("{} {technique:?}", b.name());
                let want = stepped_profile(&prepared, prepared.fresh_core().unwrap());
                assert!(want.3.len() > 1, "{ctx}: decomposed into tasks");
                assert_eq!(fused_profile(&prepared, task).unwrap(), want, "{ctx}");
                fused += 1;
            }
        }
        assert!(fused >= 12, "every benchmark, precise and anytime");
    }
}
