//! Intermittent-power runs over Clank, NVP (paper §V-B, §V-C) and the
//! checkpoint-free Task substrate (Alpaca-style; ROADMAP item 3).

use wn_energy::{EnergySupply, PowerTrace, SupplyConfig};
use wn_intermittent::substrate::{Substrate, SubstrateStats};
use wn_intermittent::{
    Clank, ClankConfig, IntermittentExecutor, IntermittentRun, Nvp, NvpConfig, StreamedDevice,
    Task, TaskConfig, TaskRegion,
};
use wn_sim::{ExecutionTape, SimError, TapePos};
use wn_telemetry::RunReport;

use crate::error::WnError;
use crate::prepared::PreparedRun;

/// Which substrate an intermittent run executes on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubstrateKind {
    /// Checkpoint-based volatile processor (Clank).
    Clank(ClankConfig),
    /// Backup-every-cycle non-volatile processor.
    Nvp(NvpConfig),
    /// Checkpoint-free task substrate: statically decomposed idempotent
    /// tasks with privatized WAR arrays, committed at task boundaries.
    /// Requires a task-decomposed binary ([`PreparedRun::tasked`] /
    /// [`PreparedRun::cached_with_tasks`]); on a plain binary it
    /// degrades to one whole-program task, which is only safe for
    /// kernels without read-modify-write outputs.
    Task(TaskConfig),
}

impl SubstrateKind {
    /// Clank with default parameters.
    pub fn clank() -> SubstrateKind {
        SubstrateKind::Clank(ClankConfig::default())
    }

    /// NVP with default parameters.
    pub fn nvp() -> SubstrateKind {
        SubstrateKind::Nvp(NvpConfig::default())
    }

    /// Task substrate with default parameters.
    pub fn task() -> SubstrateKind {
        SubstrateKind::Task(TaskConfig::default())
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SubstrateKind::Clank(_) => "clank",
            SubstrateKind::Nvp(_) => "nvp",
            SubstrateKind::Task(_) => "task",
        }
    }
}

/// Builds the Task substrate for a prepared run from the region table
/// its compilation emitted ([`wn_compiler::TaskSpan`] rows become
/// [`TaskRegion`]s; an empty table degrades to one whole-program task).
pub fn task_substrate(prepared: &PreparedRun, config: TaskConfig) -> Task {
    let regions = prepared
        .compiled
        .tasks
        .iter()
        .map(|s| TaskRegion {
            start_pc: s.start_pc,
            end_pc: s.end_pc,
            is_commit: s.is_commit,
            privatized_words: s.privatized_words,
        })
        .collect();
    Task::new(config, regions)
}

/// Outcome of one intermittent benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntermittentOutcome {
    /// Wall-clock time to produce the output, in seconds (including dark
    /// periods) — the paper's "runtime" for Figs. 10/11.
    pub time_s: f64,
    /// Powered-on execution time in seconds.
    pub on_time_s: f64,
    /// Cycles executed, including re-execution and substrate overheads.
    pub active_cycles: u64,
    /// Power outages along the way.
    pub outages: u64,
    /// Whether the run finished via a skim jump (approximate output
    /// taken as-is).
    pub skimmed: bool,
    /// Output NRMSE (%) against golden at the moment the result was
    /// committed.
    pub error_percent: f64,
    /// Substrate counters (checkpoints, lost cycles, overheads).
    pub substrate: SubstrateStats,
}

/// A supply configuration scaled to quick benchmark instances: a smaller
/// capacitor gives ≈5k-cycle on-periods so even small kernels span many
/// power cycles, preserving the paper's outage-dominated regime (the
/// paper's workloads run 15–750 on-periods; quick kernels land in the
/// same band here).
pub fn quick_supply() -> SupplyConfig {
    SupplyConfig {
        capacitance_f: 1e-6,
        ..SupplyConfig::default()
    }
}

/// A supply sized for the checkpoint-free task substrate. Task-based
/// systems require the energy buffer to cover the *largest task*: a
/// task that cannot finish on one full charge re-executes from its
/// entry on every power cycle and never commits (Alpaca's
/// non-termination condition — an oversized task is a programmer error
/// there, and a buffer-sizing error here). This sizes the capacitor so
/// one full charge (`v_on` down to `v_off` on the default electrical
/// model) grants 1.2× `task_cycles` — callers pass the workload's
/// largest task, or its total cycle count as a static upper bound. The
/// resulting buffers land in the tens-to-hundreds of µF, the
/// supercapacitor territory real task-based deployments use.
pub fn task_supply_for(task_cycles: u64) -> SupplyConfig {
    let base = SupplyConfig {
        capacitance_f: 1e-6,
        ..SupplyConfig::default()
    };
    // One full charge holds ½·C·(v_on² − v_off²) joules and each cycle
    // costs `pj_per_cycle`, so granted cycles are linear in C.
    let cycles_per_farad =
        (base.v_on * base.v_on - base.v_off * base.v_off) / (2.0 * base.pj_per_cycle * 1e-12);
    SupplyConfig {
        capacitance_f: 1.2 * task_cycles as f64 / cycles_per_farad,
        ..base
    }
}

/// Measures the largest task region of a task-decomposed build: runs a
/// fresh core to completion, attributing each retired instruction's
/// cycles to the [`TaskSpan`](wn_compiler::TaskSpan) its PC falls in,
/// and returns the maximum per-region dynamic cycle count. Feed the
/// result to [`task_supply_for`] to size an energy buffer that is
/// guaranteed to make progress (every task fits one charge) without
/// dwarfing the whole run. For builds without task spans this is the
/// total cycle count (the whole program is one region).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn max_task_cycles(prepared: &PreparedRun) -> Result<u64, WnError> {
    let spans = &prepared.compiled.tasks;
    let mut core = prepared.fresh_core()?;
    if spans.is_empty() {
        return Ok(core.run(u64::MAX)?.cycles);
    }
    let region_of = |pc: u32| -> usize {
        spans
            .partition_point(|r| r.start_pc <= pc)
            .saturating_sub(1)
    };
    let mut cur = region_of(core.cpu.pc);
    let (mut acc, mut max) = (0u64, 0u64);
    while !core.is_halted() {
        let region = region_of(core.cpu.pc);
        if region != cur {
            max = max.max(acc);
            acc = 0;
            cur = region;
        }
        acc += core.step()?.cycles;
    }
    Ok(max.max(acc))
}

/// Runs one prepared kernel on a substrate under a power trace.
///
/// Skim handling is exactly the paper's: the WN binaries set the SKM
/// register at subword-level boundaries; on the restore after an outage
/// the executor jumps to the skim target and the approximate output is
/// committed. Precise binaries contain no `SKM` and always run to their
/// natural completion.
///
/// # Errors
///
/// Propagates supply, simulation and quality errors.
pub fn run_intermittent(
    prepared: &PreparedRun,
    substrate: SubstrateKind,
    trace: &PowerTrace,
    supply: SupplyConfig,
    wall_limit_s: f64,
) -> Result<IntermittentOutcome, WnError> {
    let core = prepared.fresh_core()?;
    let (run, error_percent) = match substrate {
        SubstrateKind::Clank(cfg) => {
            let mut exec = IntermittentExecutor::new(core, trace, supply, Clank::new(cfg));
            let run = exec.run(wall_limit_s)?;
            (run, prepared.error_percent(exec.core())?)
        }
        SubstrateKind::Nvp(cfg) => {
            let mut exec = IntermittentExecutor::new(core, trace, supply, Nvp::new(cfg));
            let run = exec.run(wall_limit_s)?;
            (run, prepared.error_percent(exec.core())?)
        }
        SubstrateKind::Task(cfg) => {
            let substrate = task_substrate(prepared, cfg);
            let mut exec = IntermittentExecutor::new(core, trace, supply, substrate);
            let run = exec.run(wall_limit_s)?;
            (run, prepared.error_percent(exec.core())?)
        }
    };
    Ok(outcome(&run, error_percent))
}

/// [`run_intermittent`] under every trace of `traces` at once, as one
/// cohort replaying one streamed tape of the fault-free trajectory:
/// the outcomes, in trace order, are the per-trace runs' bit for bit,
/// and so is the error returned (the first failing trace's).
///
/// The tape is recorded a window at a time. Each round advances every
/// device to the recorded end, drops what lies behind the earliest
/// position any device can still restore to, and records the next
/// window; a device that skims leaves the tape on a core of its own and
/// finishes in the round it does. Task cohorts and memoizing builds run
/// per trace, as does a cohort whose recording faults.
///
/// # Errors
///
/// As [`run_intermittent`].
pub fn run_intermittent_cohort(
    prepared: &PreparedRun,
    substrate: SubstrateKind,
    traces: &[PowerTrace],
    supply: SupplyConfig,
    wall_limit_s: f64,
) -> Result<Vec<IntermittentOutcome>, WnError> {
    let live = || {
        traces
            .iter()
            .map(|trace| run_intermittent(prepared, substrate, trace, supply, wall_limit_s))
            .collect()
    };
    // Memoization makes dispatch costs depend on each device's history.
    if prepared.core_config.memo.is_some() {
        return live();
    }
    let streamed = match substrate {
        SubstrateKind::Clank(cfg) => {
            stream_cohort(prepared, traces, supply, wall_limit_s, || Clank::new(cfg))
        }
        SubstrateKind::Nvp(cfg) => {
            stream_cohort(prepared, traces, supply, wall_limit_s, || Nvp::new(cfg))
        }
        SubstrateKind::Task(_) => return live(),
    };
    streamed.unwrap_or_else(|_| live())
}

/// The rounds of [`run_intermittent_cohort`]: `Err` only when recording
/// the trajectory faults, per-device results otherwise.
fn stream_cohort<S: Substrate>(
    prepared: &PreparedRun,
    traces: &[PowerTrace],
    supply: SupplyConfig,
    wall_limit_s: f64,
    substrate: impl Fn() -> S,
) -> Result<Result<Vec<IntermittentOutcome>, WnError>, SimError> {
    let mut tape = match prepared.fresh_core() {
        Ok(master) => ExecutionTape::stream(&master),
        Err(e) => return Ok(Err(e)),
    };
    let mut devices: Vec<Option<StreamedDevice<S>>> = traces
        .iter()
        .map(|trace| {
            let supply = EnergySupply::new(trace.clone(), supply);
            Some(StreamedDevice::new(supply, substrate(), wall_limit_s))
        })
        .collect();
    let mut results: Vec<Option<Result<IntermittentOutcome, WnError>>> =
        traces.iter().map(|_| None).collect();
    // The fault-free output's error, for devices that finish on the tape.
    let mut tape_error: Option<Result<f64, WnError>> = None;
    loop {
        let mut floor = None;
        for (slot, result) in devices.iter_mut().zip(&mut results) {
            let Some(device) = slot else { continue };
            let run = match device.advance(&tape) {
                Ok(None) => {
                    let here = device
                        .restore_floor()
                        .expect("a waiting device is on the tape");
                    floor = Some(floor.map_or(here, |f: TapePos| f.min(here)));
                    continue;
                }
                Ok(Some(run)) => run,
                Err(e) => {
                    *slot = None;
                    *result = Some(Err(e.into()));
                    continue;
                }
            };
            let error_percent = match slot.take().and_then(StreamedDevice::into_core) {
                Some(core) => prepared.error_percent(&core),
                None => tape_error
                    .get_or_insert_with(|| prepared.error_percent(tape.recorder()))
                    .clone(),
            };
            *result = Some(error_percent.map(|e| outcome(&run, e)));
        }
        let Some(floor) = floor else { break };
        tape.evict(floor);
        tape.extend()?;
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every device finished"))
        .collect())
}

/// The outcome of a completed run whose output scores `error_percent`.
fn outcome(run: &IntermittentRun, error_percent: f64) -> IntermittentOutcome {
    IntermittentOutcome {
        time_s: run.total_time_s,
        on_time_s: run.on_time_s,
        active_cycles: run.active_cycles,
        outages: run.outages,
        skimmed: run.skimmed,
        error_percent,
        substrate: run.substrate,
    }
}

/// [`run_intermittent`] with telemetry: traces the run into a fresh
/// [`RunReport`] (labelled `benchmark/technique/substrate`) and returns
/// it alongside the outcome, which is identical to the untraced run's
/// (tracing observes, it never changes what executes). Callers that
/// trace many runs merge the reports themselves, in a fixed order; the
/// traced Fig. 10/11 grid ([`crate::experiments::fig10::run`]) merges
/// them in grid-index order.
///
/// # Errors
///
/// As [`run_intermittent`].
pub fn run_intermittent_reported(
    prepared: &PreparedRun,
    substrate: SubstrateKind,
    trace: &PowerTrace,
    supply: SupplyConfig,
    wall_limit_s: f64,
) -> Result<(IntermittentOutcome, RunReport), WnError> {
    let label = format!(
        "{}/{}/{}",
        prepared.instance.ir.name,
        prepared.technique(),
        substrate.name()
    );
    let core = prepared.fresh_core()?;
    match substrate {
        SubstrateKind::Clank(cfg) => {
            let exec = IntermittentExecutor::new(core, trace, supply, Clank::new(cfg));
            reported_run(prepared, exec, wall_limit_s, label)
        }
        SubstrateKind::Nvp(cfg) => {
            let exec = IntermittentExecutor::new(core, trace, supply, Nvp::new(cfg));
            reported_run(prepared, exec, wall_limit_s, label)
        }
        SubstrateKind::Task(cfg) => {
            let substrate = task_substrate(prepared, cfg);
            let exec = IntermittentExecutor::new(core, trace, supply, substrate);
            reported_run(prepared, exec, wall_limit_s, label)
        }
    }
}

fn reported_run<S: Substrate>(
    prepared: &PreparedRun,
    mut exec: IntermittentExecutor<S>,
    wall_limit_s: f64,
    label: String,
) -> Result<(IntermittentOutcome, RunReport), WnError> {
    let mut report = RunReport::new(&label);
    let run = exec.run_with_sink(wall_limit_s, &mut report)?;
    report.set_totals(
        run.total_time_s,
        run.on_time_s,
        run.active_cycles,
        run.outages,
    );
    report.set_classes(
        exec.core()
            .stats
            .classes()
            .map(|(class, instructions, cycles)| (class.name(), instructions, cycles)),
    );
    report.set_substrate(
        run.substrate.commits,
        run.substrate.privatized_words,
        run.substrate.reexecuted_cycles,
    );
    let error_percent = prepared.error_percent(exec.core())?;
    Ok((outcome(&run, error_percent), report))
}

/// The median of a slice (averaging the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in medians"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_compiler::Technique;
    use wn_energy::TraceKind;
    use wn_kernels::{Benchmark, Scale};

    fn trace(seed: u64) -> PowerTrace {
        PowerTrace::generate(TraceKind::RfBursty, seed, 60.0)
    }

    #[test]
    fn median_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn precise_run_is_exact_but_slow() {
        let inst = Benchmark::Home.instance(Scale::Quick, 30);
        let run = PreparedRun::new(&inst, Technique::Precise).unwrap();
        let out = run_intermittent(
            &run,
            SubstrateKind::nvp(),
            &trace(1),
            quick_supply(),
            3600.0,
        )
        .unwrap();
        assert_eq!(out.error_percent, 0.0);
        assert!(!out.skimmed);
    }

    #[test]
    fn reported_run_matches_plain_run() {
        let inst = Benchmark::Home.instance(Scale::Quick, 30);
        let run = PreparedRun::new(&inst, Technique::Precise).unwrap();
        let plain = run_intermittent(
            &run,
            SubstrateKind::clank(),
            &trace(1),
            quick_supply(),
            3600.0,
        )
        .unwrap();
        let (reported, report) = run_intermittent_reported(
            &run,
            SubstrateKind::clank(),
            &trace(1),
            quick_supply(),
            3600.0,
        )
        .unwrap();
        // Tracing only observes: identical outcome.
        assert_eq!(plain, reported);
        // The report is coherent with the outcome and labelled.
        assert_eq!(report.label, "home/precise/clank");
        assert_eq!(report.outages, reported.outages);
        assert_eq!(report.active_cycles, reported.active_cycles);
        assert!(report.completed && !report.skimmed);
        assert!(report.lease.grants > 0);
        assert!(report.classes.iter().any(|r| r.class == "alu"));
        let doc = report.to_json();
        assert!(doc.contains("\"schema\":\"wn-run-report-v1\""));
        assert!(doc.contains("\"label\":\"home/precise/clank\""));
    }

    #[test]
    fn wn_skims_and_finishes_faster_on_outage_heavy_supply() {
        let inst = Benchmark::Conv2d.instance(Scale::Quick, 31);
        let precise = PreparedRun::new(&inst, Technique::Precise).unwrap();
        let wn = PreparedRun::new(&inst, Technique::swp(4)).unwrap();
        let p = run_intermittent(
            &precise,
            SubstrateKind::nvp(),
            &trace(2),
            quick_supply(),
            3600.0,
        )
        .unwrap();
        let w =
            run_intermittent(&wn, SubstrateKind::nvp(), &trace(2), quick_supply(), 3600.0).unwrap();
        assert!(p.outages > 0, "precise run must span outages");
        assert!(w.skimmed, "WN run should finish via skim");
        assert!(
            w.time_s < p.time_s,
            "skimmed WN faster: {} vs {}",
            w.time_s,
            p.time_s
        );
        assert!(w.error_percent > 0.0 && w.error_percent < 30.0);
    }

    #[test]
    fn clank_pays_reexecution_nvp_does_not() {
        let inst = Benchmark::Home.instance(Scale::Quick, 32);
        let run = PreparedRun::new(&inst, Technique::Precise).unwrap();
        let c = run_intermittent(
            &run,
            SubstrateKind::clank(),
            &trace(3),
            quick_supply(),
            3600.0,
        )
        .unwrap();
        let n = run_intermittent(
            &run,
            SubstrateKind::nvp(),
            &trace(3),
            quick_supply(),
            3600.0,
        )
        .unwrap();
        assert!(c.active_cycles > n.active_cycles);
        assert_eq!(c.error_percent, 0.0);
        assert_eq!(n.error_percent, 0.0);
    }
}
