//! The sharded fleet runner.
//!
//! Devices are numbered `0..total` across the scenario's cohorts and
//! processed in shards of `shard_size`. Each shard fans its devices
//! across a [`JobPool`]; results come back in device-index order (the
//! pool's contract), are folded into per-cohort aggregates in that
//! order, and shards run strictly sequentially — so the aggregate state
//! after shard *k* is a pure function of the scenario, whatever the
//! `--jobs` width. A checkpoint written after each shard carries that
//! state bit-exactly (see [`crate::codec`]), which makes a killed and
//! resumed sweep byte-identical to an uninterrupted one.
//!
//! Memory stays bounded by the shard: a device's power trace is
//! synthesized inside its job and dropped with it, and only one shard's
//! outcome vector is ever alive.

use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use wn_core::error::WnError;
use wn_core::intermittent::{run_intermittent, IntermittentOutcome, SubstrateKind};
use wn_core::jobs::JobPool;
use wn_core::prepared::PreparedRun;
use wn_energy::SupplyError;
use wn_intermittent::ExecError;
use wn_telemetry::json::Obj;
use wn_telemetry::Histogram;

use crate::agg::MetricAgg;
use crate::batch::{self, FleetEngine};
use crate::checkpoint::{self, Checkpoint};
use crate::codec::{StateReader, StateWriter};
use crate::report::FleetReport;
use crate::scenario::FleetScenario;

/// How one device's run ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceFate {
    /// Produced an output (possibly via a skim jump).
    Completed,
    /// The harvester never delivered enough energy to finish charging.
    Starved,
    /// The simulated wall-clock budget expired first.
    TimedOut,
}

/// One device's outcome, as folded into cohort aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceOutcome {
    /// Global device index.
    pub device: u64,
    /// Index into the scenario's cohorts.
    pub cohort: usize,
    pub fate: DeviceFate,
    /// Completed via skim jump (approximate output committed).
    pub skimmed: bool,
    /// Wall-clock completion time, seconds (completed devices only).
    pub time_s: f64,
    /// Powered-on execution time, seconds.
    pub on_time_s: f64,
    /// Output NRMSE (%) against golden.
    pub error_percent: f64,
    /// Power outages survived.
    pub outages: u64,
    /// Checkpoints taken by the substrate.
    pub checkpoints: u64,
    /// Task-boundary commits.
    pub commits: u64,
    /// Useful fraction of executed cycles:
    /// `1 − (lost + overhead) / active`.
    pub forward_progress: f64,
}

/// Per-cohort mergeable aggregate: outcome counters plus streaming
/// metrics over the completed devices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CohortAggregate {
    pub devices: u64,
    pub completed: u64,
    pub skimmed: u64,
    pub starved: u64,
    pub timed_out: u64,
    /// Completion time, seconds.
    pub time: MetricAgg,
    /// Powered-on time, seconds.
    pub on_time: MetricAgg,
    /// Output NRMSE, percent.
    pub qor: MetricAgg,
    /// Forward-progress ratio in `[0, 1]`.
    pub progress: MetricAgg,
    /// Outages per completed run.
    pub outages: MetricAgg,
    /// Checkpoints per completed run.
    pub checkpoints: MetricAgg,
    /// Commits per completed run.
    pub commits: MetricAgg,
    /// Completion times on wn-telemetry's decade buckets (comparable
    /// with run-report duration histograms).
    pub time_hist: Histogram,
}

impl CohortAggregate {
    pub fn new() -> CohortAggregate {
        CohortAggregate::default()
    }

    /// Folds one device in (the runner calls this in device-index
    /// order).
    pub fn record(&mut self, d: &DeviceOutcome) {
        self.devices += 1;
        match d.fate {
            DeviceFate::Starved => self.starved += 1,
            DeviceFate::TimedOut => self.timed_out += 1,
            DeviceFate::Completed => {
                self.completed += 1;
                if d.skimmed {
                    self.skimmed += 1;
                }
                self.time.record(d.time_s);
                self.on_time.record(d.on_time_s);
                self.qor.record(d.error_percent);
                self.progress.record(d.forward_progress);
                self.outages.record(d.outages as f64);
                self.checkpoints.record(d.checkpoints as f64);
                self.commits.record(d.commits as f64);
                self.time_hist.record(d.time_s);
            }
        }
    }

    /// Merges another aggregate in (shard order for determinism).
    pub fn merge(&mut self, other: &CohortAggregate) {
        self.devices += other.devices;
        self.completed += other.completed;
        self.skimmed += other.skimmed;
        self.starved += other.starved;
        self.timed_out += other.timed_out;
        self.time.merge(&other.time);
        self.on_time.merge(&other.on_time);
        self.qor.merge(&other.qor);
        self.progress.merge(&other.progress);
        self.outages.merge(&other.outages);
        self.checkpoints.merge(&other.checkpoints);
        self.commits.merge(&other.commits);
        self.time_hist.merge(&other.time_hist);
    }

    /// Fraction of devices that produced an output.
    pub fn completion_rate(&self) -> f64 {
        if self.devices == 0 {
            0.0
        } else {
            self.completed as f64 / self.devices as f64
        }
    }

    pub(crate) fn save(&self, w: &mut StateWriter) {
        w.u64(self.devices);
        w.u64(self.completed);
        w.u64(self.skimmed);
        w.u64(self.starved);
        w.u64(self.timed_out);
        self.time.save(w);
        self.on_time.save(w);
        self.qor.save(w);
        self.progress.save(w);
        self.outages.save(w);
        self.checkpoints.save(w);
        self.commits.save(w);
        let (counts, count, sum_s, min_s, max_s) = self.time_hist.raw_parts();
        for c in counts {
            w.u64(c);
        }
        w.u64(count);
        w.f64(sum_s);
        w.f64(min_s);
        w.f64(max_s);
    }

    pub(crate) fn load(r: &mut StateReader) -> Option<CohortAggregate> {
        let devices = r.u64()?;
        let completed = r.u64()?;
        let skimmed = r.u64()?;
        let starved = r.u64()?;
        let timed_out = r.u64()?;
        let time = MetricAgg::load(r)?;
        let on_time = MetricAgg::load(r)?;
        let qor = MetricAgg::load(r)?;
        let progress = MetricAgg::load(r)?;
        let outages = MetricAgg::load(r)?;
        let checkpoints = MetricAgg::load(r)?;
        let commits = MetricAgg::load(r)?;
        let mut counts = [0u64; Histogram::BUCKETS];
        for c in &mut counts {
            *c = r.u64()?;
        }
        let time_hist = Histogram::from_raw_parts(counts, r.u64()?, r.f64()?, r.f64()?, r.f64()?);
        Some(CohortAggregate {
            devices,
            completed,
            skimmed,
            starved,
            timed_out,
            time,
            on_time,
            qor,
            progress,
            outages,
            checkpoints,
            commits,
            time_hist,
        })
    }
}

/// Fleet runner options.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Worker count; `None` uses the global pool width (`WN_JOBS`).
    pub jobs: Option<usize>,
    /// Execution engine (lockstep tape replay by default; results are
    /// byte-identical across engines).
    pub engine: FleetEngine,
    /// Checkpoint file: written atomically after every shard, consumed
    /// by `resume`.
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` if it exists and matches the scenario
    /// fingerprint (a stale or foreign checkpoint is an error, not a
    /// silent restart).
    pub resume: bool,
    /// Append one JSON line per completed shard (progress stream).
    pub shard_log: Option<PathBuf>,
    /// Stop after this many *newly run* shards — deterministic stand-in
    /// for a mid-sweep kill in tests and CI.
    pub stop_after_shards: Option<usize>,
}

/// Live progress of one completed shard, handed to [`run_fleet_with`]
/// observers *after* the shard's aggregates are folded in and its
/// checkpoint (if configured) is durably stored — so anything an
/// observer publishes is already resumable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardProgress<'a> {
    /// Shard index just completed (0-based).
    pub shard: usize,
    /// Total shards in the sweep.
    pub shard_count: usize,
    /// The `wn-fleet-shard-v1` JSON line summarizing the shard — the
    /// same line `shard_log` appends, so subscribers and log readers
    /// see identical bytes.
    pub line: &'a str,
}

/// What a fleet run produced.
#[derive(Debug)]
pub enum FleetStatus {
    /// All shards done.
    Complete(FleetReport),
    /// Stopped early by [`FleetOptions::stop_after_shards`] or a pause
    /// flag; the checkpoint (if configured) holds `shards_done` shards
    /// of state.
    Paused {
        shards_done: usize,
        shard_count: usize,
    },
}

impl FleetStatus {
    /// The report, if the run completed.
    pub fn report(self) -> Option<FleetReport> {
        match self {
            FleetStatus::Complete(r) => Some(r),
            FleetStatus::Paused { .. } => None,
        }
    }
}

/// Errors from the fleet runner.
#[derive(Debug)]
pub enum FleetError {
    /// A device hit a fatal (non-population) error: compile failure,
    /// simulator fault, bad configuration.
    Device { device: u64, source: WnError },
    /// Checkpoint file problems: unreadable, unparsable, or from a
    /// different scenario.
    Checkpoint(String),
    /// Shard-log or checkpoint I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Device { device, source } => {
                write!(f, "device {device} failed: {source}")
            }
            FleetError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            FleetError::Io(e) => write!(f, "fleet i/o error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Device { source, .. } => Some(source),
            FleetError::Io(e) => Some(e),
            FleetError::Checkpoint(_) => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

/// Runs (or resumes) a fleet sweep.
///
/// # Errors
///
/// Returns [`FleetError::Device`] on the first fatal device error,
/// [`FleetError::Checkpoint`] on a mismatched resume file, or an I/O
/// error from checkpoint/shard-log writes. Starved and timed-out
/// devices are *outcomes*, not errors.
pub fn run_fleet(
    scenario: &FleetScenario,
    options: &FleetOptions,
) -> Result<FleetStatus, FleetError> {
    run_fleet_with(scenario, options, None, |_| {})
}

/// As [`run_fleet`], with the two hooks a long-running service needs:
///
/// * `pause` — checked at every shard boundary (after the shard's
///   checkpoint is stored); when set, the sweep returns
///   [`FleetStatus::Paused`] instead of starting the next shard. This
///   is how `wn-serve` turns SIGTERM into a byte-exactly resumable
///   pause. Resuming requires a configured checkpoint path — pausing
///   without one discards the in-memory aggregates.
/// * `observe` — called once per completed shard with its
///   [`ShardProgress`], after durable state (checkpoint, shard log) is
///   written; progress subscribers stream these lines live.
///
/// # Errors
///
/// As [`run_fleet`].
pub fn run_fleet_with<F: FnMut(&ShardProgress<'_>)>(
    scenario: &FleetScenario,
    options: &FleetOptions,
    pause: Option<&AtomicBool>,
    mut observe: F,
) -> Result<FleetStatus, FleetError> {
    let shard_count = scenario.shard_count();
    let total = scenario.total_devices();
    let fingerprint = scenario.fingerprint();

    // Pausing without a checkpoint path would discard every aggregate
    // accumulated so far — reject the combination up front instead of
    // silently returning `Paused` with nowhere to resume from.
    if options.stop_after_shards.is_some() && options.checkpoint.is_none() {
        return Err(FleetError::Checkpoint(
            "stop_after_shards requires a checkpoint path \
             (pausing without one discards all progress)"
                .into(),
        ));
    }

    let mut cohorts: Vec<CohortAggregate> = vec![CohortAggregate::new(); scenario.cohorts.len()];
    let mut next_shard = 0usize;
    if options.resume {
        let path = options.checkpoint.as_ref().ok_or_else(|| {
            FleetError::Checkpoint("resume requested without a checkpoint path".into())
        })?;
        if path.exists() {
            let ckpt = checkpoint::load(path)?;
            if ckpt.fingerprint != fingerprint {
                return Err(FleetError::Checkpoint(format!(
                    "checkpoint {} is from a different scenario \
                     (fingerprint {:016x}, expected {:016x})",
                    path.display(),
                    ckpt.fingerprint,
                    fingerprint
                )));
            }
            if ckpt.cohorts.len() != cohorts.len() {
                return Err(FleetError::Checkpoint(
                    "checkpoint cohort count does not match scenario".into(),
                ));
            }
            // A resume past the end would run no shard and report the
            // partial aggregates as a complete sweep.
            if ckpt.shard_count != shard_count || ckpt.shards_done > shard_count {
                return Err(FleetError::Checkpoint(format!(
                    "checkpoint {} says {} of {} shards are done, \
                     but the scenario has {shard_count}",
                    path.display(),
                    ckpt.shards_done,
                    ckpt.shard_count
                )));
            }
            cohorts = ckpt.cohorts;
            next_shard = ckpt.shards_done;
        }
    }

    let pool = match options.jobs {
        Some(n) => JobPool::with_jobs(n),
        None => JobPool::global(),
    };
    // Lockstep plans are built once per sweep; cohorts the replay
    // cannot mirror bit-exactly fall back to the scalar path inside.
    let plans = match options.engine {
        FleetEngine::Scalar => None,
        FleetEngine::Batched { .. } => Some(batch::build_plans(scenario)),
    };

    for (ran, shard) in (next_shard..shard_count).enumerate() {
        let lo = shard as u64 * scenario.shard_size as u64;
        let hi = (lo + scenario.shard_size as u64).min(total);
        let outcomes = run_shard(scenario, options.engine, plans.as_deref(), &pool, lo, hi)
            .map_err(|(device, source)| FleetError::Device { device, source })?;
        // Index order: the pool returns job-index order, which is
        // device order within the shard.
        for d in &outcomes {
            cohorts[d.cohort].record(d);
        }
        // Durable state first: a kill between the two writes loses the
        // (reconstructible) log line for this shard, not the other way
        // round — logging first would duplicate the line after a
        // `--resume`, since the checkpoint still says the shard is
        // pending.
        if let Some(path) = &options.checkpoint {
            checkpoint::store(
                path,
                &Checkpoint {
                    fingerprint,
                    shards_done: shard + 1,
                    shard_count,
                    cohorts: cohorts.clone(),
                },
            )?;
        }
        let line = shard_line(scenario, shard, &outcomes);
        if let Some(log) = &options.shard_log {
            append_line(log, &line)?;
        }
        observe(&ShardProgress {
            shard,
            shard_count,
            line: &line,
        });
        let pause_requested = pause.is_some_and(|p| p.load(Ordering::SeqCst));
        let stop_requested = options.stop_after_shards.is_some_and(|n| ran + 1 >= n);
        if (stop_requested || pause_requested) && shard + 1 < shard_count {
            return Ok(FleetStatus::Paused {
                shards_done: shard + 1,
                shard_count,
            });
        }
    }

    Ok(FleetStatus::Complete(FleetReport::new(scenario, cohorts)))
}

/// Fans one shard's devices `lo..hi` across the pool under the chosen
/// engine, returning outcomes in device order either way.
fn run_shard(
    scenario: &FleetScenario,
    engine: FleetEngine,
    plans: Option<&[batch::CohortPlan]>,
    pool: &JobPool,
    lo: u64,
    hi: u64,
) -> Result<Vec<DeviceOutcome>, (u64, WnError)> {
    let n = (hi - lo) as usize;
    match (engine, plans) {
        (FleetEngine::Batched { chunk }, Some(plans)) => {
            // Chunked jobs amortize pool dispatch over the (cheap)
            // per-device replays; flattening job-index order preserves
            // device order because chunks are contiguous.
            let chunk = chunk.max(1);
            let batches = pool.run(n.div_ceil(chunk), |j| {
                let start = lo + (j * chunk) as u64;
                let end = (start + chunk as u64).min(hi);
                (start..end)
                    .map(|device| batch::simulate_device_batched(scenario, plans, device))
                    .collect::<Result<Vec<DeviceOutcome>, (u64, WnError)>>()
            })?;
            Ok(batches.into_iter().flatten().collect())
        }
        _ => pool.run(n, |i| simulate_device(scenario, lo + i as u64)),
    }
}

/// Assembles a completed device's outcome from its run totals. Shared
/// by the scalar and lockstep engines so the two fold bit-identical
/// values — including the forward-progress clamp — into aggregates.
pub(crate) fn completed_outcome(
    device: u64,
    cohort: usize,
    out: &IntermittentOutcome,
) -> DeviceOutcome {
    let wasted = out.substrate.lost_cycles + out.substrate.overhead_cycles;
    // `active_cycles` counts executed instruction cycles; `wasted`
    // includes checkpoint/restore overheads charged on top of them, so
    // the raw ratio can exceed 1 on overhead-dominated runs. Clamp at
    // the source: forward progress is a fraction in [0, 1].
    let forward_progress = if out.active_cycles == 0 {
        0.0
    } else {
        (1.0 - wasted as f64 / out.active_cycles as f64).clamp(0.0, 1.0)
    };
    DeviceOutcome {
        device,
        cohort,
        fate: DeviceFate::Completed,
        skimmed: out.skimmed,
        time_s: out.time_s,
        on_time_s: out.on_time_s,
        error_percent: out.error_percent,
        outages: out.outages,
        checkpoints: out.substrate.checkpoints,
        commits: out.substrate.commits,
        forward_progress,
    }
}

/// A starved or timed-out device's outcome (all metrics zero).
pub(crate) fn incomplete_outcome(device: u64, cohort: usize, fate: DeviceFate) -> DeviceOutcome {
    DeviceOutcome {
        device,
        cohort,
        fate,
        skimmed: false,
        time_s: 0.0,
        on_time_s: 0.0,
        error_percent: 0.0,
        outages: 0,
        checkpoints: 0,
        commits: 0,
        forward_progress: 0.0,
    }
}

/// Simulates one device end to end: derive its seeds, synthesize its
/// environment, run it on its cohort's substrate.
///
/// # Errors
///
/// Fatal errors only (tagged with the device index); starvation and
/// wall-clock expiry are outcomes.
pub(crate) fn simulate_device(
    scenario: &FleetScenario,
    device: u64,
) -> Result<DeviceOutcome, (u64, WnError)> {
    let cohort = scenario.cohort_of(device);
    let spec = &scenario.cohorts[cohort];
    // One compilation per cohort (inputs are a cohort-level property;
    // the population varies the *environment* per device). Task cohorts
    // get the task-decomposed build; the checkpoint substrates keep the
    // plain one, so their cache entries (and results) are untouched.
    let substrate = spec.substrate.kind();
    let prepared = PreparedRun::cached_with_tasks(
        spec.benchmark,
        scenario.scale,
        scenario.cohort_input_seed(cohort),
        spec.technique,
        matches!(substrate, SubstrateKind::Task(_)),
    )
    .map_err(|e| (device, e))?;
    let trace = spec
        .env
        .synthesize(scenario.device_seed(device), scenario.trace_duration_s);
    match run_intermittent(
        &prepared,
        substrate,
        &trace,
        spec.supply(),
        scenario.wall_limit_s,
    ) {
        Ok(out) => Ok(completed_outcome(device, cohort, &out)),
        // Population phenomena, not failures: a dark environment or a
        // too-small budget is exactly what fleet sweeps measure.
        Err(WnError::Exec(ExecError::WallClock { .. })) => {
            Ok(incomplete_outcome(device, cohort, DeviceFate::TimedOut))
        }
        Err(WnError::Exec(ExecError::Supply(SupplyError::Starved { .. }))) => {
            Ok(incomplete_outcome(device, cohort, DeviceFate::Starved))
        }
        Err(e) => Err((device, e)),
    }
}

/// Renders one `wn-fleet-shard-v1` JSON line summarizing a shard — the
/// progress unit both the `--shard-jsonl` log and `wn-serve`
/// subscription streams carry.
fn shard_line(scenario: &FleetScenario, shard: usize, outcomes: &[DeviceOutcome]) -> String {
    let completed = outcomes
        .iter()
        .filter(|d| d.fate == DeviceFate::Completed)
        .count() as u64;
    Obj::new()
        .str("schema", "wn-fleet-shard-v1")
        .str("scenario", &scenario.name)
        .u64("shard", shard as u64)
        .u64("devices", outcomes.len() as u64)
        .u64("first_device", outcomes.first().map_or(0, |d| d.device))
        .u64("completed", completed)
        .u64(
            "starved",
            outcomes
                .iter()
                .filter(|d| d.fate == DeviceFate::Starved)
                .count() as u64,
        )
        .u64(
            "timed_out",
            outcomes
                .iter()
                .filter(|d| d.fate == DeviceFate::TimedOut)
                .count() as u64,
        )
        .finish()
}

/// Appends one line to a JSONL file, creating it if needed.
fn append_line(path: &std::path::Path, line: &str) -> Result<(), FleetError> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> FleetScenario {
        FleetScenario::parse(
            r#"
[fleet]
name = "tiny"
seed = 5
shard_size = 8
wall_limit_s = 600.0
trace_duration_s = 20.0

[[cohort]]
count = 12
benchmark = "matadd"
technique = "anytime8"
substrate = "clank"
environment = "rf-bursty"

[[cohort]]
count = 6
benchmark = "home"
technique = "precise"
substrate = "nvp"
environment = "solar"
"#,
        )
        .unwrap()
    }

    #[test]
    fn fleet_runs_and_counts_every_device() {
        let s = tiny_scenario();
        let report = run_fleet(&s, &FleetOptions::default())
            .unwrap()
            .report()
            .unwrap();
        let total: u64 = report.cohorts.iter().map(|c| c.devices).sum();
        assert_eq!(total, 18);
        for c in &report.cohorts {
            assert_eq!(
                c.completed + c.starved + c.timed_out,
                c.devices,
                "every device has exactly one fate"
            );
        }
        // The RF default environment powers quick kernels: someone
        // must finish, and completed metrics must be populated.
        let c0 = &report.cohorts[0];
        assert!(c0.completed > 0, "rf cohort completed none");
        assert_eq!(c0.time.count(), c0.completed);
        assert_eq!(c0.time_hist.count(), c0.completed);
    }

    #[test]
    fn jobs_width_does_not_change_aggregates() {
        let s = tiny_scenario();
        let one = run_fleet(
            &s,
            &FleetOptions {
                jobs: Some(1),
                ..Default::default()
            },
        )
        .unwrap()
        .report()
        .unwrap();
        let four = run_fleet(
            &s,
            &FleetOptions {
                jobs: Some(4),
                ..Default::default()
            },
        )
        .unwrap()
        .report()
        .unwrap();
        assert_eq!(one.cohorts, four.cohorts);
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.to_csv(), four.to_csv());
    }

    #[test]
    fn device_outcomes_are_deterministic() {
        let s = tiny_scenario();
        let a = simulate_device(&s, 3).unwrap();
        let b = simulate_device(&s, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cohort, 0);
        assert_eq!(simulate_device(&s, 14).unwrap().cohort, 1);
    }

    /// Acceptance property at report granularity: scalar and batched
    /// engines render byte-identical JSON and CSV at several chunk
    /// widths (including a width that straddles shard boundaries).
    #[test]
    fn engines_produce_identical_reports_at_any_chunk_width() {
        let s = tiny_scenario();
        let run = |engine| {
            run_fleet(
                &s,
                &FleetOptions {
                    engine,
                    ..Default::default()
                },
            )
            .unwrap()
            .report()
            .unwrap()
        };
        let scalar = run(FleetEngine::Scalar);
        for chunk in [1, 4, 33] {
            let batched = run(FleetEngine::Batched { chunk });
            assert_eq!(scalar.cohorts, batched.cohorts, "chunk {chunk}");
            assert_eq!(scalar.to_json(), batched.to_json(), "chunk {chunk}");
            assert_eq!(scalar.to_csv(), batched.to_csv(), "chunk {chunk}");
        }
    }

    #[test]
    fn stop_after_shards_without_checkpoint_is_an_error() {
        let s = tiny_scenario();
        let r = run_fleet(
            &s,
            &FleetOptions {
                stop_after_shards: Some(1),
                ..Default::default()
            },
        );
        match r {
            Err(FleetError::Checkpoint(msg)) => {
                assert!(msg.contains("checkpoint path"), "{msg}")
            }
            other => panic!("expected a Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn resume_from_truncated_checkpoint_is_a_checkpoint_error() {
        let s = tiny_scenario();
        let dir = std::env::temp_dir().join(format!("wn-fleet-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let opts = FleetOptions {
            checkpoint: Some(path.clone()),
            stop_after_shards: Some(1),
            ..Default::default()
        };
        assert!(matches!(
            run_fleet(&s, &opts).unwrap(),
            FleetStatus::Paused { shards_done: 1, .. }
        ));
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &doc[..doc.len() / 3]).unwrap();
        let r = run_fleet(
            &s,
            &FleetOptions {
                checkpoint: Some(path),
                resume: true,
                ..Default::default()
            },
        );
        match r {
            Err(FleetError::Checkpoint(_)) => {}
            other => panic!("expected a Checkpoint error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint that claims more shards than the sweep has (bit
    /// damage, or a count from another scenario) must be refused: the
    /// resume would run no shard and report partial aggregates as a
    /// complete sweep.
    #[test]
    fn resume_past_the_end_of_the_sweep_is_refused() {
        let s = tiny_scenario();
        let dir = std::env::temp_dir().join(format!("wn-fleet-past-end-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let pause = FleetOptions {
            checkpoint: Some(path.clone()),
            stop_after_shards: Some(1),
            ..Default::default()
        };
        let resume = FleetOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..Default::default()
        };
        assert!(matches!(
            run_fleet(&s, &pause).unwrap(),
            FleetStatus::Paused { shards_done: 1, .. }
        ));
        let paused = checkpoint::load(&path).unwrap();
        for damaged in [
            Checkpoint {
                shards_done: 99,
                ..paused.clone()
            },
            Checkpoint {
                shard_count: 99,
                ..paused.clone()
            },
        ] {
            checkpoint::store(&path, &damaged).unwrap();
            match run_fleet(&s, &resume) {
                Err(FleetError::Checkpoint(m)) => assert!(m.contains("shards are done"), "{m}"),
                other => panic!("expected a Checkpoint error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pause_flag_checkpoints_and_resume_is_byte_identical() {
        let s = tiny_scenario();
        let dir = std::env::temp_dir().join(format!("wn-fleet-pause-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let whole = run_fleet(&s, &FleetOptions::default())
            .unwrap()
            .report()
            .unwrap();

        // Pause after the first shard via the service-style flag
        // (SIGTERM path): the observer arms it once shard 0 is durable.
        let pause = AtomicBool::new(false);
        let mut seen: Vec<String> = Vec::new();
        let opts = FleetOptions {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let status = run_fleet_with(&s, &opts, Some(&pause), |p: &ShardProgress<'_>| {
            seen.push(p.line.to_string());
            pause.store(true, Ordering::SeqCst);
        })
        .unwrap();
        assert!(matches!(status, FleetStatus::Paused { shards_done: 1, .. }));
        assert_eq!(seen.len(), 1, "observer saw exactly the completed shard");
        assert!(seen[0].contains("wn-fleet-shard-v1"));

        // Resume without the flag: the finished report is byte-identical
        // to the uninterrupted run.
        let resumed = run_fleet(
            &s,
            &FleetOptions {
                checkpoint: Some(path),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap()
        .report()
        .unwrap();
        assert_eq!(whole.to_json(), resumed.to_json());
        assert_eq!(whole.to_csv(), resumed.to_csv());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observer_lines_match_the_shard_log() {
        let s = tiny_scenario();
        let dir = std::env::temp_dir().join(format!("wn-fleet-observe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("shards.jsonl");
        let mut seen: Vec<String> = Vec::new();
        let opts = FleetOptions {
            shard_log: Some(log.clone()),
            ..Default::default()
        };
        run_fleet_with(&s, &opts, None, |p: &ShardProgress<'_>| {
            assert_eq!(p.shard_count, s.shard_count());
            seen.push(p.line.to_string());
        })
        .unwrap();
        let logged: Vec<String> = std::fs::read_to_string(&log)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(
            seen, logged,
            "subscribers and log readers see the same bytes"
        );
        assert_eq!(seen.len(), s.shard_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregate_state_round_trips_through_codec() {
        let s = tiny_scenario();
        let report = run_fleet(&s, &FleetOptions::default())
            .unwrap()
            .report()
            .unwrap();
        for c in &report.cohorts {
            let mut w = StateWriter::new();
            c.save(&mut w);
            let mut r = StateReader::new(w.as_str());
            let back = CohortAggregate::load(&mut r).unwrap();
            assert_eq!(&back, c);
            assert!(r.is_empty());
        }
    }
}
