//! `paper-sweep`: the paper's Clank (Fig. 10) and NVP (Fig. 11) speedup
//! figures at the paper's methodology — long single-device runs on
//! full-size kernels, where core retirement and the scalar intermittent
//! executor do almost all the work. Lockstep replay, trace synthesis for
//! populations, aggregation and the daemon do none.

use std::time::Instant;

use wn_compiler::Technique;
use wn_core::experiments::fig10::{self, SpeedupFigure, SpeedupRow};
use wn_core::experiments::ExperimentConfig;
use wn_core::intermittent::{self, run_intermittent, IntermittentOutcome, SubstrateKind};
use wn_core::jobs::JobPool;
use wn_core::prepared::{prepared_cache_stats, set_prepared_cache_capacity, PreparedRun};
use wn_energy::{memo_stats, PowerTrace};
use wn_kernels::Benchmark;

use crate::common::{fnv1a64, median, timed_setup, Counts, Ledger};
use crate::{Args, Outcome, DEFAULT_SEED, JOBS};

/// FNV-1a 64 of `fig10.csv` and `fig11.csv` at [`DEFAULT_SEED`]: the
/// bytes `experiments fig10 --paper` and `experiments fig11 --paper`
/// write.
const DIGESTS: [u64; 2] = [0x7e89_44d8_1b0b_ae1e, 0xd1eb_9ce3_4668_d6bb];

/// Builds per benchmark: precise, 8-bit, 4-bit.
const VARIANTS: usize = 3;

fn technique(benchmark: Benchmark, variant: usize) -> Technique {
    match variant {
        0 => Technique::Precise,
        1 => benchmark.technique(8),
        _ => benchmark.technique(4),
    }
}

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::paper()
    }
}

/// Device runs (one build under one trace) in both figures.
fn device_runs(config: &ExperimentConfig) -> usize {
    2 * Benchmark::ALL.len() * VARIANTS * config.traces * config.invocations
}

/// Compiles every build and synthesizes the trace ensemble: the work
/// the figures pay before their first intermittent run. The compile
/// cache is emptied first so each repetition compiles from scratch.
fn setup(config: &ExperimentConfig) -> Vec<PowerTrace> {
    let capacity = prepared_cache_stats().capacity;
    set_prepared_cache_capacity(1);
    set_prepared_cache_capacity(capacity);
    for benchmark in Benchmark::ALL {
        for v in 0..VARIANTS {
            PreparedRun::cached(
                benchmark,
                config.scale,
                config.seed,
                technique(benchmark, v),
            )
            .expect("paper builds compile");
        }
    }
    config.trace_ensemble()
}

/// Structural checks at any seed; byte digests at the default seed.
fn check_figures(args: &Args, ledger: &mut Ledger, figures: &[SpeedupFigure; 2]) {
    for (fig, digest) in figures.iter().zip(DIGESTS) {
        ledger.check(fig.rows.len() == 2 * Benchmark::ALL.len(), || {
            format!("{}: {} rows", fig.substrate, fig.rows.len())
        });
        ledger.check(
            fig.rows.iter().all(|r| {
                r.speedup.is_finite()
                    && r.speedup > 0.0
                    && r.nrmse_percent.is_finite()
                    && (0.0..=1.0).contains(&r.skim_rate)
            }),
            || format!("{}: a row is out of range", fig.substrate),
        );
        if args.seed == DEFAULT_SEED {
            let got = fnv1a64(fig.to_csv().as_bytes());
            ledger.check(got == digest, || {
                format!(
                    "{}.csv digest {got:016x}, recorded {digest:016x}",
                    fig.substrate
                )
            });
        }
    }
}

/// Both figures through the public experiments API.
fn run_figures(config: &ExperimentConfig, ledger: &mut Ledger) -> Option<[SpeedupFigure; 2]> {
    match (fig10::run_fig10(config), fig10::run_fig11(config)) {
        (Ok(a), Ok(b)) => {
            ledger.check(true, String::new);
            Some([a, b])
        }
        (a, b) => {
            let (ea, eb) = (a.err(), b.err());
            ledger.check(false, || format!("paper sweep failed: {ea:?} / {eb:?}"));
            None
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let config = config(args.seed);
    let mut out = Outcome::new(format!("paper-config-seed-{}", config.seed));
    let setup_s = timed_setup(|| {
        setup(&config);
    });
    out.metrics.insert("setup_s", setup_s);

    let t0 = Instant::now();
    let mut walls = Vec::new();
    // One sweep outlasts a typical run window; shorter sweeps repeat
    // until `--seconds` is used up.
    while walls.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let figures = run_figures(&config, &mut out.ledger);
        walls.push(t.elapsed().as_secs_f64());
        if let Some(figures) = figures {
            check_figures(args, &mut out.ledger, &figures);
        }
    }
    out.metrics.insert("result_s", median(&walls));
    out.metrics.insert(
        "devices_per_s",
        (walls.len() * device_runs(&config)) as f64 / walls.iter().sum::<f64>(),
    );
    out.note("sweeps", walls.len());
    out
}

/// Every build under every trace on `substrate`, timed per run.
fn traced_grid(
    out: &mut Outcome,
    config: &ExperimentConfig,
    builds: &[PreparedRun],
    traces: &[PowerTrace],
    substrate: SubstrateKind,
) -> Vec<IntermittentOutcome> {
    let layer = match substrate {
        SubstrateKind::Clank(_) => "intermittent.exec_clank_s",
        SubstrateKind::Nvp(_) => "intermittent.exec_nvp_s",
        SubstrateKind::Task(_) => "intermittent.exec_task_s",
    };
    let n = traces.len();
    let t = Instant::now();
    let results = JobPool::with_jobs(JOBS)
        .run(builds.len() * n, |i| {
            let t = Instant::now();
            run_intermittent(
                &builds[i / n],
                substrate,
                &traces[i % n],
                config.supply,
                config.wall_limit_s,
            )
            .map(|o| (o, t.elapsed().as_secs_f64()))
        })
        .expect("paper runs succeed");
    out.thread_secs += JOBS as f64 * t.elapsed().as_secs_f64();
    results
        .into_iter()
        .map(|(o, secs)| {
            out.spans.add(layer, secs);
            o
        })
        .collect()
}

/// Reassembles a figure from grid outcomes as `fig10::run` does, so the
/// traced pass is checked byte for byte against the untraced one.
fn figure(substrate: &'static str, outcomes: &[IntermittentOutcome], n: usize) -> SpeedupFigure {
    let mut rows = Vec::new();
    for (b, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let variant = |v: usize| &outcomes[(b * VARIANTS + v) * n..(b * VARIANTS + v + 1) * n];
        let times = |o: &[IntermittentOutcome]| o.iter().map(|o| o.time_s).collect::<Vec<_>>();
        let precise = intermittent::median(&times(variant(0)));
        for (v, bits) in [(1usize, 8u8), (2, 4)] {
            let o = variant(v);
            let errors: Vec<f64> = o.iter().map(|o| o.error_percent).collect();
            rows.push(SpeedupRow {
                benchmark,
                bits,
                speedup: precise / intermittent::median(&times(o)),
                nrmse_percent: intermittent::median(&errors),
                skim_rate: o.iter().filter(|o| o.skimmed).count() as f64 / o.len() as f64,
            });
        }
    }
    SpeedupFigure { substrate, rows }
}

/// The traced pass runs first, in a fresh process, so its exact counts
/// start from empty caches; the untraced pass after it gives the wall
/// time the trace overhead is measured against.
pub fn traced(args: &Args) -> Outcome {
    let config = config(args.seed);
    let mut out = Outcome::new(format!("paper-config-seed-{}", config.seed));
    memo_stats::reset();
    let t_all = Instant::now();

    let t = Instant::now();
    let traces = out.spans.time("energy.synth_s", || config.trace_ensemble());
    let mut builds = Vec::new();
    for benchmark in Benchmark::ALL {
        for v in 0..VARIANTS {
            let instance = benchmark.instance(config.scale, config.seed);
            let build = out.spans.time("compiler.compile_ms", || {
                PreparedRun::new(&instance, technique(benchmark, v)).expect("paper builds compile")
            });
            builds.push(build);
        }
    }
    out.thread_secs += t.elapsed().as_secs_f64();

    let clank = traced_grid(&mut out, &config, &builds, &traces, SubstrateKind::clank());
    let nvp = traced_grid(&mut out, &config, &builds, &traces, SubstrateKind::nvp());
    let traced_wall = t_all.elapsed().as_secs_f64();
    let memo = memo_stats::snapshot();
    let n = traces.len();
    let traced_figures = [figure("clank", &clank, n), figure("nvp", &nvp, n)];

    setup(&config);
    let t = Instant::now();
    let untraced = run_figures(&config, &mut out.ledger);
    let untraced_wall = t.elapsed().as_secs_f64();
    if let Some(figures) = &untraced {
        check_figures(args, &mut out.ledger, figures);
        for (a, b) in traced_figures.iter().zip(figures) {
            out.ledger.check(a.to_csv() == b.to_csv(), || {
                format!(
                    "{}: traced figure differs from the untraced one",
                    a.substrate
                )
            });
        }
    }

    let mut counts = Counts::default();
    for o in clank.iter().chain(&nvp) {
        counts.record(o);
    }
    out.count_metrics(&counts);
    out.metrics
        .insert("trace_overhead", traced_wall / untraced_wall);
    out.memo_metrics(&memo);
    out.finish_spans();
    out.note("traced_wall_s", format!("{traced_wall:.3}"));
    out.note("untraced_wall_s", format!("{untraced_wall:.3}"));
    out
}
