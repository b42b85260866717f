//! `fleet-mixed`: the `predict_scale` population (clank/nvp/task cohorts
//! under rf/solar/piezo harvesters), re-seeded, swept by `run_fleet` on
//! the default batched engine and then predicted by `predict_fleet`.
//! Lockstep replay, per-device trace synthesis and the supply dominate;
//! the task cohort always runs on the scalar executor, so a change to
//! one engine shows against the other inside one run.
//!
//! The traced pass re-executes the sweep from outside: it builds the
//! same per-cohort plans, replays or executes every device and folds
//! the outcomes through the public aggregate and report types, timing
//! each call. Its report must equal `run_fleet`'s byte for byte, which
//! shows the outside decomposition covers the same work.

use std::path::Path;
use std::time::Instant;

use wn_analyze::{profile_kernel, CohortPrediction, CohortQuery};
use wn_core::error::WnError;
use wn_core::intermittent::{run_intermittent, IntermittentOutcome, SubstrateKind};
use wn_core::jobs::JobPool;
use wn_core::prepared::{prepared_cache_stats, set_prepared_cache_capacity, PreparedRun};
use wn_energy::{memo_stats, EnergySupply, SupplyError};
use wn_fleet::checkpoint::{self, Checkpoint};
use wn_fleet::{
    check_scenario, predict_fleet, run_fleet, CohortAggregate, CohortForecast, DeviceFate,
    DeviceOutcome, FleetOptions, FleetReport, FleetScenario, FleetStatus, PredictReport,
};
use wn_intermittent::{replay_run_clank, replay_run_nvp, ExecError};
use wn_sim::{Core, ExecutionTape, WalkCache};

use crate::common::{fnv1a64, median, timed_setup, Counts, Ledger, Spans};
use crate::{Args, Outcome, DEFAULT_SEED, JOBS};

/// The population, read from the checkout and re-seeded per run.
const SCENARIO: &str = "scenarios/predict_scale.toml";

/// FNV-1a 64 of the fleet report JSON and the predict report JSON for
/// [`SCENARIO`] at [`DEFAULT_SEED`] (the bytes `experiments fleet` and
/// `experiments predict` write for it).
const DIGESTS: [u64; 2] = [0xa15b_fdd3_cef3_85c7, 0xd1b5_86be_ecc8_bdb8];

/// The runner's backstop on recorded trajectory length: cohorts whose
/// tape would exceed it run on the scalar executor.
const TAPE_STEP_CAP: u64 = 8_000_000;

/// Devices per pool job, as the batched engine chunks them.
const CHUNK: usize = 32;

pub fn load_scenario(root: &Path, seed: u64) -> FleetScenario {
    let text = std::fs::read_to_string(root.join(SCENARIO)).expect("read population scenario");
    let mut scenario = FleetScenario::parse(&text).expect("population scenario parses");
    scenario.seed = seed;
    scenario
}

fn options(jobs: usize) -> FleetOptions {
    FleetOptions {
        jobs: Some(jobs),
        ..FleetOptions::default()
    }
}

/// Every cohort compiled and every checkpoint-substrate tape recorded:
/// what a sweep builds before its first device. The compile cache is
/// emptied first so each repetition compiles from scratch.
fn setup(scenario: &FleetScenario) {
    let capacity = prepared_cache_stats().capacity;
    set_prepared_cache_capacity(1);
    set_prepared_cache_capacity(capacity);
    check_scenario(scenario).expect("population cohorts prepare");
    for (cohort, spec) in scenario.cohorts.iter().enumerate() {
        if matches!(spec.substrate.kind(), SubstrateKind::Task(_)) {
            continue;
        }
        let prepared = PreparedRun::cached(
            spec.benchmark,
            scenario.scale,
            scenario.cohort_input_seed(cohort),
            spec.technique,
        )
        .expect("cohort compiles");
        let mut core = prepared.fresh_core().expect("cohort core");
        ExecutionTape::record(&mut core, TAPE_STEP_CAP).expect("tape records");
    }
}

/// Every device has exactly one fate and every cohort has its devices.
pub fn check_report(ledger: &mut Ledger, scenario: &FleetScenario, report: &FleetReport) {
    ledger.check(report.cohorts.len() == scenario.cohorts.len(), || {
        format!("report has {} cohorts", report.cohorts.len())
    });
    for (agg, spec) in report.cohorts.iter().zip(&scenario.cohorts) {
        ledger.check(
            agg.devices == spec.count
                && agg.completed + agg.starved + agg.timed_out == agg.devices
                && agg.skimmed <= agg.completed
                && agg.time.count() == agg.completed,
            || format!("cohort {}: fates do not partition its devices", spec.name),
        );
    }
}

fn check_predict(ledger: &mut Ledger, scenario: &FleetScenario, predicted: &PredictReport) {
    ledger.check(
        predicted.fingerprint == scenario.fingerprint()
            && predicted.cohorts.len() == scenario.cohorts.len()
            && predicted.unsupported() == 0,
        || "prediction does not cover every cohort".to_string(),
    );
}

pub fn sweep(scenario: &FleetScenario, jobs: usize, ledger: &mut Ledger) -> Option<FleetReport> {
    let report = match run_fleet(scenario, &options(jobs)) {
        Ok(FleetStatus::Complete(report)) => Some(report),
        Ok(FleetStatus::Paused { .. }) => None,
        Err(e) => {
            ledger.check(false, || format!("run_fleet: {e}"));
            return None;
        }
    };
    ledger.check(report.is_some(), || "run_fleet paused".to_string());
    report
}

pub fn run(args: &Args) -> Outcome {
    let scenario = load_scenario(&args.root, args.seed);
    let mut out = Outcome::new(format!("{:016x}", scenario.fingerprint()));
    let setup_s = timed_setup(|| setup(&scenario));
    out.metrics.insert("setup_s", setup_s);

    let devices = scenario.total_devices() as f64;
    let (mut results, mut sweeps, mut predicts) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(String, String)> = None;
    let t0 = Instant::now();
    while results.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let report = sweep(&scenario, JOBS, &mut out.ledger);
        let swept = t.elapsed().as_secs_f64();
        let predicted = predict_fleet(&scenario);
        let total = t.elapsed().as_secs_f64();
        sweeps.push(swept);
        predicts.push(total - swept);
        results.push(total);
        let predicted = match predicted {
            Ok(p) => p,
            Err(e) => {
                out.ledger.check(false, || format!("predict_fleet: {e}"));
                continue;
            }
        };
        let Some(report) = report else { continue };
        check_report(&mut out.ledger, &scenario, &report);
        check_predict(&mut out.ledger, &scenario, &predicted);
        let bytes = (report.to_json(), predicted.to_json());
        match &first {
            None => {
                if args.seed == DEFAULT_SEED {
                    for (what, doc, digest) in [
                        ("fleet", &bytes.0, DIGESTS[0]),
                        ("predict", &bytes.1, DIGESTS[1]),
                    ] {
                        let got = fnv1a64(doc.as_bytes());
                        out.ledger.check(got == digest, || {
                            format!("{what} report digest {got:016x}, recorded {digest:016x}")
                        });
                    }
                }
                first = Some(bytes);
            }
            Some(first) => {
                out.ledger.check(*first == bytes, || {
                    "a repeated sweep changed its report".to_string()
                });
            }
        }
    }
    out.metrics.insert("result_s", median(&results));
    out.metrics.insert(
        "devices_per_s",
        devices * sweeps.len() as f64 / sweeps.iter().sum::<f64>(),
    );
    out.note("sweeps", sweeps.len());
    out.note("sweep_s_median", format!("{:.4}", median(&sweeps)));
    out.note(
        "predict_ms_median",
        format!("{:.3}", 1e3 * median(&predicts)),
    );
    out
}

/// How one cohort's devices execute: lockstep replay over the cohort's
/// recorded trajectory where the runner would use it, otherwise the
/// scalar intermittent executor per device.
struct Plan {
    prepared: PreparedRun,
    tape: Option<TapePlan>,
}

struct TapePlan {
    master: Core,
    tape: ExecutionTape,
    walk_cache: WalkCache,
    tape_error_percent: f64,
}

/// Compiles a cohort's kernel as the runner does (task-decomposed for
/// the task substrate) and records its tape where replay applies.
fn plan(spans: &mut Spans, scenario: &FleetScenario, cohort: usize) -> Plan {
    let spec = &scenario.cohorts[cohort];
    let instance = spec
        .benchmark
        .instance(scenario.scale, scenario.cohort_input_seed(cohort));
    let substrate = spec.substrate.kind();
    let prepared = spans.time("compiler.compile_ms", || match substrate {
        SubstrateKind::Task(_) => PreparedRun::tasked(&instance, spec.technique),
        _ => PreparedRun::new(&instance, spec.technique),
    });
    let prepared = prepared.expect("cohort compiles");
    if matches!(substrate, SubstrateKind::Task(_)) {
        return Plan {
            prepared,
            tape: None,
        };
    }
    let master = prepared.fresh_core().expect("cohort core");
    let mut recorder = master.clone();
    let tape = spans.time("sim.tape_record_ms", || {
        ExecutionTape::record(&mut recorder, TAPE_STEP_CAP)
    });
    let tape = match tape {
        Ok(Some(tape)) => Some(TapePlan {
            tape_error_percent: prepared
                .error_percent(&recorder)
                .expect("score fault-free output"),
            master,
            tape,
            walk_cache: WalkCache::new(),
        }),
        _ => None,
    };
    Plan { prepared, tape }
}

/// A completed device's outcome, built as the runner builds it (its
/// constructor is private to `wn-fleet`), forward-progress clamp included.
fn completed(
    device: u64,
    cohort: usize,
    out: &IntermittentOutcome,
    counts: &mut Counts,
) -> DeviceOutcome {
    counts.record(out);
    let wasted = out.substrate.lost_cycles + out.substrate.overhead_cycles;
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

/// A starved or timed-out device's outcome: every metric zero.
fn incomplete(device: u64, cohort: usize, fate: DeviceFate) -> DeviceOutcome {
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

/// One device end to end: synthesize its trace, then replay it on the
/// cohort's tape or run it on the scalar executor.
fn device(
    spans: &mut Spans,
    counts: &mut Counts,
    scenario: &FleetScenario,
    plans: &[Plan],
    device: u64,
) -> Result<DeviceOutcome, WnError> {
    let cohort = scenario.cohort_of(device);
    let spec = &scenario.cohorts[cohort];
    let substrate = spec.substrate.kind();
    let limit = scenario.wall_limit_s;
    let trace = spans.time("energy.synth_s", || {
        spec.env
            .synthesize(scenario.device_seed(device), scenario.trace_duration_s)
    });
    let Plan { prepared, tape } = &plans[cohort];
    let run = match tape {
        None => {
            let layer = match substrate {
                SubstrateKind::Clank(_) => "intermittent.exec_clank_s",
                SubstrateKind::Nvp(_) => "intermittent.exec_nvp_s",
                SubstrateKind::Task(_) => "intermittent.exec_task_s",
            };
            spans.time(layer, || {
                run_intermittent(prepared, substrate, &trace, spec.supply(), limit)
            })
        }
        Some(TapePlan {
            master,
            tape,
            walk_cache,
            tape_error_percent,
        }) => {
            let supply = EnergySupply::new(trace, spec.supply());
            counts.replayed += 1;
            let replay = spans.time("intermittent.replay_s", || match substrate {
                SubstrateKind::Clank(cfg) => {
                    replay_run_clank(tape, master, walk_cache, supply, cfg, limit)
                }
                SubstrateKind::Nvp(cfg) => {
                    replay_run_nvp(tape, master, walk_cache, supply, cfg, limit)
                }
                SubstrateKind::Task(_) => unreachable!("task cohorts never get a tape plan"),
            });
            replay.map_err(WnError::Exec).and_then(|(run, handed)| {
                let error_percent = match &handed {
                    Some(core) => {
                        counts.handoffs += 1;
                        prepared.error_percent(core)?
                    }
                    None => *tape_error_percent,
                };
                Ok(IntermittentOutcome {
                    time_s: run.total_time_s,
                    on_time_s: run.on_time_s,
                    active_cycles: run.active_cycles,
                    outages: run.outages,
                    skimmed: run.skimmed,
                    error_percent,
                    substrate: run.substrate,
                })
            })
        }
    };
    match run {
        Ok(o) => Ok(completed(device, cohort, &o, counts)),
        Err(WnError::Exec(ExecError::WallClock { .. })) => {
            Ok(incomplete(device, cohort, DeviceFate::TimedOut))
        }
        Err(WnError::Exec(ExecError::Supply(SupplyError::Starved { .. }))) => {
            Ok(incomplete(device, cohort, DeviceFate::Starved))
        }
        Err(e) => Err(e),
    }
}

/// The sweep re-executed from outside at [`JOBS`] workers, every layer
/// call timed. With `checkpoints`, each shard's state is stored there as
/// the daemon stores it.
pub fn decompose(
    out: &mut Outcome,
    scenario: &FleetScenario,
    checkpoints: Option<&Path>,
) -> (FleetReport, Counts) {
    let t = Instant::now();
    let plans: Vec<Plan> = (0..scenario.cohorts.len())
        .map(|c| plan(&mut out.spans, scenario, c))
        .collect();
    out.thread_secs += t.elapsed().as_secs_f64();

    let pool = JobPool::with_jobs(JOBS);
    let total = scenario.total_devices();
    let shard_count = scenario.shard_count();
    let mut cohorts = vec![CohortAggregate::new(); scenario.cohorts.len()];
    let mut counts = Counts::default();
    for shard in 0..shard_count {
        let lo = shard as u64 * scenario.shard_size as u64;
        let hi = (lo + scenario.shard_size as u64).min(total);
        let t = Instant::now();
        let chunks = pool
            .run(((hi - lo) as usize).div_ceil(CHUNK), |j| {
                let (mut spans, mut counts) = (Spans::new(), Counts::default());
                let start = lo + (j * CHUNK) as u64;
                let outcomes = (start..(start + CHUNK as u64).min(hi))
                    .map(|d| device(&mut spans, &mut counts, scenario, &plans, d))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok::<_, WnError>((outcomes, spans, counts))
            })
            .expect("devices simulate");
        out.thread_secs += JOBS as f64 * t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut outcomes = Vec::with_capacity((hi - lo) as usize);
        for (o, spans, c) in chunks {
            out.spans.merge(&spans);
            counts.add(&c);
            outcomes.extend(o);
        }
        out.spans.time("fleet.aggregate_ms", || {
            for d in &outcomes {
                cohorts[d.cohort].record(d);
            }
        });
        if let Some(dir) = checkpoints {
            let ckpt = Checkpoint {
                fingerprint: scenario.fingerprint(),
                shards_done: shard + 1,
                shard_count,
                cohorts: cohorts.clone(),
            };
            let path = dir.join(format!("{:016x}.ckpt.json", scenario.fingerprint()));
            out.spans
                .time("fleet.checkpoint_ms", || checkpoint::store(&path, &ckpt))
                .expect("store shard checkpoint");
        }
        out.thread_secs += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let report = FleetReport::new(scenario, cohorts);
    out.spans
        .time("fleet.report_ms", || (report.to_json(), report.to_csv()));
    out.thread_secs += t.elapsed().as_secs_f64();
    (report, counts)
}

/// Exact-count and ratio metrics of a decomposed sweep.
pub fn count_metrics(out: &mut Outcome, report: &FleetReport, counts: &Counts) {
    out.count_metrics(counts);
    let agg = report.fleet_aggregate();
    let m = &mut out.metrics;
    m.insert(
        "intermittent.handoff_ratio",
        counts.handoffs as f64 / counts.replayed.max(1) as f64,
    );
    m.insert("fleet.completed", agg.completed as f64);
    m.insert("fleet.skimmed", agg.skimmed as f64);
    for (spec, c) in report.specs.iter().zip(&report.cohorts) {
        out.notes.push((
            format!("fates {}", spec.name),
            format!(
                "completed={} skimmed={} starved={} timed_out={}",
                c.completed, c.skimmed, c.starved, c.timed_out
            ),
        ));
    }
}

/// Prediction re-executed from outside: compile, profile and solve each
/// cohort, checked against `predict_fleet`'s models.
pub fn decompose_predict(out: &mut Outcome, scenario: &FleetScenario, predicted: &PredictReport) {
    let t = Instant::now();
    for (cohort, spec) in scenario.cohorts.iter().enumerate() {
        let instance = spec
            .benchmark
            .instance(scenario.scale, scenario.cohort_input_seed(cohort));
        let substrate = spec.substrate.kind();
        let prepared = out
            .spans
            .time("compiler.compile_ms", || match substrate {
                SubstrateKind::Task(_) => PreparedRun::tasked(&instance, spec.technique),
                _ => PreparedRun::new(&instance, spec.technique),
            })
            .expect("cohort compiles");
        let supply = spec.supply();
        out.spans
            .time("analyze.profile_ms", || {
                profile_kernel(&prepared, substrate, &supply)
            })
            .expect("cohort profiles");
        let query = CohortQuery {
            prepared: &prepared,
            substrate,
            supply,
            env: spec.env,
            devices: spec.count,
            wall_limit_s: scenario.wall_limit_s,
        };
        let model = out
            .spans
            .time("analyze.solve_ms", || wn_analyze::predict(&query));
        let same = match (model, &predicted.cohorts[cohort]) {
            (Ok(CohortPrediction::Predicted(a)), CohortForecast::Predicted { model: b, .. }) => {
                a == *b
            }
            _ => false,
        };
        out.ledger.check(same, || {
            format!("cohort {}: outside prediction differs", spec.name)
        });
    }
    out.thread_secs += t.elapsed().as_secs_f64();
}

/// Order matters: the jobs-1 sweep runs first in the fresh process, so
/// the supply memo counters start from empty tables and repeat exactly;
/// the traced pass and the untraced jobs-2 sweep then run warm alike.
pub fn traced(args: &Args) -> Outcome {
    let scenario = load_scenario(&args.root, args.seed);
    let mut out = Outcome::new(format!("{:016x}", scenario.fingerprint()));
    let devices = scenario.total_devices() as f64;

    memo_stats::reset();
    let t = Instant::now();
    let serial = sweep(&scenario, 1, &mut out.ledger);
    let jobs1_wall = t.elapsed().as_secs_f64();
    let memo = memo_stats::snapshot();

    let t = Instant::now();
    let (report, counts) = decompose(&mut out, &scenario, None);
    let traced_wall = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let parallel = sweep(&scenario, JOBS, &mut out.ledger);
    let jobs2_wall = t.elapsed().as_secs_f64();

    let predicted = predict_fleet(&scenario).expect("population predicts");
    check_predict(&mut out.ledger, &scenario, &predicted);
    decompose_predict(&mut out, &scenario, &predicted);

    check_report(&mut out.ledger, &scenario, &report);
    for (what, other) in [("jobs-1", &serial), ("jobs-2", &parallel)] {
        out.ledger.check(
            other
                .as_ref()
                .is_some_and(|o| o.to_json() == report.to_json()),
            || format!("traced report differs from the untraced {what} run_fleet report"),
        );
    }
    count_metrics(&mut out, &report, &counts);
    out.memo_metrics(&memo);
    let m = &mut out.metrics;
    m.insert("fleet.jobs1_devices_per_s", devices / jobs1_wall);
    m.insert("fleet.scaling_2v1", jobs1_wall / jobs2_wall);
    m.insert("trace_overhead", traced_wall / jobs2_wall);
    out.finish_spans();
    out.note("jobs1_wall_s", format!("{jobs1_wall:.3}"));
    out.note("traced_wall_s", format!("{traced_wall:.3}"));
    out.note("jobs2_wall_s", format!("{jobs2_wall:.3}"));
    out
}
