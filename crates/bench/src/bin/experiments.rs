//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! # Quick pass over everything (small kernels, 3 traces):
//! cargo run --release -p wn-bench --bin experiments -- all
//!
//! # One experiment at the paper's methodology (full sizes, 9 traces x 3):
//! cargo run --release -p wn-bench --bin experiments -- fig10 --paper
//!
//! # Same, with every intermittent run traced (adds results/run_report.json):
//! cargo run --release -p wn-bench --bin experiments -- all --telemetry
//!
//! # Provenance of the last run (reads results/manifest.json):
//! cargo run --release -p wn-bench --bin experiments -- report
//!
//! # Time the executor into results/BENCH_executor.json:
//! cargo run --release -p wn-bench --bin experiments -- bench
//! ```
//!
//! Results are printed in the paper's terms and written as CSV (plus PGM
//! images for Figs. 2/16) under `results/`; every invocation also writes
//! a `results/manifest.json` provenance record (config, seed, jobs,
//! wall-clock, artifact list).

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use wn_bench::manifest::{self, BenchRecord, RunManifest, MANIFEST_FILE};
use wn_bench::{read_artifact, results_dir, write_artifact};
use wn_core::experiments::{
    fig01, fig02, fig03, fig09, fig10, fig12, fig13, fig14, fig15, fig17, table1, ExperimentConfig,
};
use wn_core::intermittent::SubstrateKind;
use wn_core::jobs;
use wn_telemetry::json::{self, Value};
use wn_telemetry::RunReport;

const USAGE: &str = "usage: experiments <all|table1|fig01|fig02|fig03|fig09|fig10|fig11|fig12|fig13|fig14|fig15|fig17|task|area_power|report|bench|bench-fleet> [--paper] [--jobs N] [--telemetry] [--epoch N]\n       experiments fleet <scenario.toml|.json> [--check] [--jobs N] [--resume] [--shard-jsonl] [--stop-after-shards N] [--epoch N]\n       experiments predict <scenario.toml|.json> [--validate] [--jobs N] [--epoch N]";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let telemetry_on = args.iter().any(|a| a == "--telemetry");
    match parse_jobs(&args) {
        Ok(Some(n)) => jobs::set_global_jobs(n),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    // Flag wins over environment; resolved once and passed down.
    let env_epoch = env::var("WN_EPOCH").ok();
    let epoch = match parse_flag_value(&args, "--epoch")
        .and_then(|flag| manifest::resolve_epoch(flag.as_deref(), env_epoch.as_deref()))
    {
        Ok(epoch) => epoch,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut which: Vec<&str> = Vec::new();
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if let Some(flag) = a.strip_prefix("--") {
            // Space-form value flags consume the next argument.
            skip_value =
                !flag.contains('=') && matches!(flag, "jobs" | "epoch" | "stop-after-shards");
            continue;
        }
        which.push(a.as_str());
    }
    let which = if which.is_empty() { vec!["all"] } else { which };

    // Provenance-only subcommands bypass the experiment loop.
    if which == ["report"] {
        return report();
    }
    if which == ["bench"] {
        return bench(&args, epoch);
    }
    if which == ["bench-fleet"] {
        return bench_fleet(&args, epoch);
    }
    if which.first() == Some(&"fleet") {
        return fleet(&args, &which[1..], epoch);
    }
    if which.first() == Some(&"predict") {
        return predict(&args, &which[1..], epoch);
    }

    let config = if paper {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::quick()
    };
    println!(
        "configuration: {:?} scale, {} traces x {} invocations, {} jobs{}{}\n",
        config.scale,
        config.traces,
        config.invocations,
        jobs::global_jobs(),
        if telemetry_on { ", telemetry on" } else { "" },
        if paper {
            " (paper methodology — this takes a while)"
        } else {
            ""
        }
    );

    let total = Instant::now();
    let mut failed = false;
    let mut artifacts: Vec<String> = Vec::new();
    // Traced runs in the order the experiments ran them (each
    // experiment returns its own in grid order), folded once at the end.
    let mut traced: Vec<RunReport> = Vec::new();
    for name in &which {
        let run_all = *name == "all";
        let names: Vec<&str> = if run_all {
            vec![
                "table1",
                "fig01",
                "fig02",
                "fig03",
                "fig09",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "fig14",
                "fig15",
                "fig17",
                "area_power",
            ]
        } else {
            vec![name]
        };
        for n in names {
            println!("==== {n} ====");
            let start = Instant::now();
            if let Err(e) = run_one(n, &config, &mut artifacts, telemetry_on, &mut traced) {
                eprintln!("{n} failed: {e}");
                failed = true;
            }
            println!("({n}: {:.2}s)\n", start.elapsed().as_secs_f64());
        }
    }
    if telemetry_on {
        if let Err(e) = save_telemetry(RunReport::aggregate(traced), &mut artifacts) {
            eprintln!("telemetry report failed: {e}");
            failed = true;
        }
    }
    let wall_s = total.elapsed().as_secs_f64();
    let manifest = RunManifest {
        command: args.join(" "),
        unix_time_s: manifest::unix_time_s(epoch),
        scale: format!("{:?}", config.scale).to_lowercase(),
        traces: config.traces as u64,
        invocations: config.invocations as u64,
        seed: config.seed,
        jobs: jobs::global_jobs() as u64,
        telemetry: telemetry_on,
        wall_s,
        artifacts,
    };
    if let Err(e) = save(MANIFEST_FILE, &manifest.to_json(), &mut Vec::new()) {
        eprintln!("manifest write failed: {e}");
        failed = true;
    }
    println!("total: {wall_s:.2}s");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses `--flag VALUE` / `--flag=VALUE` from the argument list.
fn parse_flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix(&prefix) {
            return Ok(Some(v.to_string()));
        }
        if arg == flag {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

/// Parses `--jobs N` / `--jobs=N` from the argument list.
fn parse_jobs(args: &[String]) -> Result<Option<usize>, String> {
    parse_flag_value(args, "--jobs")?
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--jobs needs a positive integer, got `{v}`"))
        })
        .transpose()
}

/// Runs one experiment and saves its artifacts. With `traced` set, the
/// intermittent experiments append their runs' reports to `reports`.
fn run_one(
    name: &str,
    config: &ExperimentConfig,
    artifacts: &mut Vec<String>,
    traced: bool,
    reports: &mut Vec<RunReport>,
) -> Result<(), Box<dyn std::error::Error>> {
    match name {
        "table1" => {
            let t = table1::run(config)?;
            println!("{t}");
            save("table1.csv", &t.to_csv(), artifacts)?;
        }
        "fig01" => {
            let f = fig01::run(config)?;
            println!("{f}");
            save("fig01.csv", &f.to_csv(), artifacts)?;
        }
        "fig02" => {
            let f = fig02::run(config)?;
            println!("{f}");
            save("fig02.csv", &f.to_csv(), artifacts)?;
            for (i, o) in f.outcomes.iter().enumerate() {
                save(&format!("fig02-{}.pgm", o.label), &f.to_pgm(i), artifacts)?;
            }
        }
        "fig03" => {
            let f = fig03::run(config)?;
            println!("{f}");
            save("fig03.csv", &f.to_csv(), artifacts)?;
        }
        "fig09" => {
            let f = fig09::run(config)?;
            println!("{f}");
            save("fig09.csv", &f.to_csv(), artifacts)?;
        }
        "fig10" => {
            let (f, runs) = fig10::run(config, SubstrateKind::clank(), traced)?;
            reports.extend(runs);
            println!("{f}");
            println!("paper: 1.78x (8-bit), 3.02x (4-bit) average on the volatile processor");
            save("fig10.csv", &f.to_csv(), artifacts)?;
        }
        "fig11" => {
            let (f, runs) = fig10::run(config, SubstrateKind::nvp(), traced)?;
            reports.extend(runs);
            println!("{f}");
            println!("paper: 1.41x (8-bit), 2.26x (4-bit) average on the NVP");
            save("fig11.csv", &f.to_csv(), artifacts)?;
        }
        // The checkpoint-free third column of the Fig. 10/11 grid.
        // Deliberately not part of `all`: the Task substrate sizes its
        // own supply (largest-task rule), so its artifact is additive
        // and the checkpoint-substrate artifact set stays byte-stable.
        "task" => {
            let (f, runs) = fig10::run_task(config, traced)?;
            reports.extend(runs);
            println!("{f}");
            save("fig_task.csv", &f.to_csv(), artifacts)?;
        }
        "fig12" => {
            let f = fig12::run(config)?;
            println!("{f}");
            println!("paper: outputs 1.08x (8-bit) / 1.24x (4-bit) earlier with vectorized loads");
            save("fig12.csv", &f.to_csv(), artifacts)?;
        }
        "fig13" => {
            let f = fig13::run(config)?;
            println!("{f}");
            println!("paper: 1.31->1.42x (8-bit), 1.7->1.97x (4-bit), 1.11x precise");
            save("fig13.csv", &f.to_csv(), artifacts)?;
        }
        "fig14" => {
            let f = fig14::run(config)?;
            println!("{f}");
            save("fig14.csv", &f.to_csv(), artifacts)?;
        }
        "fig15" => {
            let f = fig15::run(config)?;
            println!("{f}");
            save("fig15.csv", &f.to_csv(), artifacts)?;
            for bits in [1u8, 2, 3, 4] {
                if let Some(pgm) = f.to_pgm(bits) {
                    save(&format!("fig16-{bits}bit.pgm"), &pgm, artifacts)?;
                }
            }
        }
        "fig17" => {
            let f = fig17::run(config)?;
            println!("{f}");
            save("fig17.csv", &f.to_csv(), artifacts)?;
        }
        "area_power" => {
            let got = wn_hwmodel::AreaPowerReport::from_defaults();
            let paper = wn_hwmodel::AreaPowerReport::paper_values();
            println!("modeled:\n{got}");
            println!("paper:\n{paper}");
            save(
                "area_power.csv",
                &format!(
                    "metric,modeled,paper\nfmax_ghz,{:.3},{:.3}\ncore_area_overhead_percent,{:.4},{:.4}\nadder_power_overhead_percent,{:.3},{:.3}\nmemo_vs_multiplier_percent,{:.2},{:.2}\n",
                    got.fmax_ghz, paper.fmax_ghz,
                    got.core_area_overhead_percent, paper.core_area_overhead_percent,
                    got.adder_power_overhead_percent, paper.adder_power_overhead_percent,
                    got.memo_vs_multiplier_percent, paper.memo_vs_multiplier_percent,
                ),
                artifacts,
            )?;
        }
        other => return Err(format!("unknown experiment `{other}`\n{USAGE}").into()),
    }
    Ok(())
}

/// Writes the traced runs' aggregate as `run_report.json` /
/// `run_report.csv` artifacts.
fn save_telemetry(
    aggregate: Option<RunReport>,
    artifacts: &mut Vec<String>,
) -> std::io::Result<()> {
    println!("==== telemetry ====");
    match aggregate {
        Some(report) => {
            println!(
                "{} intermittent runs: {} outages, {} checkpoints, {} events",
                report.runs,
                report.outages,
                report.checkpoint_causes.iter().sum::<u64>(),
                report.counts.total(),
            );
            save("run_report.json", &report.to_json(), artifacts)?;
            save("run_report.csv", &report.to_csv(), artifacts)?;
        }
        None => println!("no intermittent runs traced"),
    }
    println!();
    Ok(())
}

/// `experiments report`: prints the provenance of the last invocation
/// from `results/manifest.json`, plus the aggregate run report when one
/// was emitted.
fn report() -> ExitCode {
    let doc = match read_artifact(MANIFEST_FILE) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!(
                "no manifest ({e}): run `experiments all --telemetry` (or any experiment) first"
            );
            return ExitCode::FAILURE;
        }
    };
    let Some(m) = RunManifest::from_json(&doc) else {
        eprintln!("results/{MANIFEST_FILE} is not a run-manifest document");
        return ExitCode::FAILURE;
    };
    println!("last run: experiments {}", m.command);
    println!(
        "  config:    {} scale, {} traces x {} invocations, seed {}, {} jobs",
        m.scale, m.traces, m.invocations, m.seed, m.jobs
    );
    println!(
        "  telemetry: {}",
        if m.telemetry { "enabled" } else { "disabled" }
    );
    println!("  wall:      {:.2}s", m.wall_s);
    println!("  artifacts: {}", m.artifacts.len());
    for a in &m.artifacts {
        println!("    {a}");
    }
    match read_artifact("run_report.json").map(|doc| json::parse(&doc)) {
        Ok(Ok(doc)) if doc.get("schema").and_then(Value::as_str) == Some("wn-run-report-v1") => {
            println!(
                "run report ({}):",
                doc.get("label").and_then(Value::as_str).unwrap_or("?")
            );
            for key in [
                "runs",
                "outages",
                "active_cycles",
                "events_recorded",
                "completed",
                "skimmed",
                "total_time_s",
                "on_time_s",
            ] {
                match doc.get(key) {
                    Some(Value::Num(v)) if key.ends_with("_s") => println!("  {key}: {v:.4}"),
                    Some(Value::Num(v)) => println!("  {key}: {v}"),
                    Some(Value::Bool(b)) => println!("  {key}: {b}"),
                    _ => {}
                }
            }
        }
        Ok(_) => {
            eprintln!("results/run_report.json exists but is not a wn-run-report-v1 document");
            return ExitCode::FAILURE;
        }
        Err(_) => println!("no run report (re-run with --telemetry to emit one)"),
    }
    ExitCode::SUCCESS
}

/// `experiments bench`: min-of-30 wall-clock of the fixed executor
/// workload (matmul + Clank + RF-bursty), untraced vs traced, written to
/// `BENCH_executor.json` in the results directory.
fn bench(args: &[String], epoch: Option<f64>) -> ExitCode {
    use wn_core::intermittent::quick_supply;
    use wn_core::prepared::PreparedRun;
    use wn_energy::{PowerTrace, TraceKind};
    use wn_intermittent::{Clank, IntermittentExecutor, Substrate};
    use wn_kernels::{Benchmark, Scale};

    let instance = Benchmark::MatMul.instance(Scale::Quick, 42);
    let prepared = PreparedRun::new(&instance, wn_core::Technique::Precise).unwrap();
    let trace = PowerTrace::generate(TraceKind::RfBursty, 42, 120.0);
    let mut instructions = 0u64;
    let mut fused_instructions = 0u64;
    let mut ckpt_words_saved = 0u64;
    let mut ckpt_words_full = 0u64;
    let mut time = |traced: bool| {
        let mut best = f64::INFINITY;
        for _ in 0..30 {
            let core = prepared.fresh_core().unwrap();
            let mut exec =
                IntermittentExecutor::new(core, &trace, quick_supply(), Clank::default());
            let t0 = Instant::now();
            if traced {
                let mut sink = RunReport::new("bench");
                exec.run_with_sink(3600.0, &mut sink).unwrap();
            } else {
                exec.run(3600.0).unwrap();
            }
            best = best.min(t0.elapsed().as_secs_f64());
            instructions = exec.core().stats.instructions;
            if !traced {
                fused_instructions = exec.core().fused_instructions();
                let stats = exec.substrate().stats();
                ckpt_words_saved = stats.checkpoint_words_saved;
                ckpt_words_full = stats.checkpoint_words_full;
            }
        }
        best
    };
    let untraced_s = time(false);
    let traced_s = time(true);
    let overhead_percent = (traced_s / untraced_s - 1.0) * 100.0;
    // Share of dynamic instructions retired through the fused
    // block-dispatch fast path (vs single-stepped at block boundaries,
    // lease tails, and watchdog horizons).
    let block_dispatch_percent = if instructions > 0 {
        fused_instructions as f64 / instructions as f64 * 100.0
    } else {
        0.0
    };
    // Differential checkpointing: NV words actually written vs what full
    // snapshots would have written, reported as bytes saved.
    let ckpt_bytes_saved = 4.0 * ckpt_words_full.saturating_sub(ckpt_words_saved) as f64;
    println!(
        "untraced min {:.3} ms ({:.1} M instr/s), traced min {:.3} ms ({overhead_percent:+.1}%)",
        untraced_s * 1e3,
        instructions as f64 / untraced_s / 1e6,
        traced_s * 1e3,
    );
    println!(
        "block dispatch {block_dispatch_percent:.1}% of instructions, \
         checkpoint bytes saved {ckpt_bytes_saved:.0} ({ckpt_words_saved} of {ckpt_words_full} words written)",
    );
    // Each run is one serial executor: the timed work uses one thread.
    let mut record = BenchRecord::new("executor", &command_line(args), 1, epoch);
    record.push("untraced_min_ms", untraced_s * 1e3, "ms");
    record.push(
        "untraced_minstr_per_s",
        instructions as f64 / untraced_s / 1e6,
        "M instr/s",
    );
    record.push("traced_min_ms", traced_s * 1e3, "ms");
    record.push("traced_overhead_percent", overhead_percent, "%");
    record.push("block_dispatch_percent", block_dispatch_percent, "%");
    record.push("checkpoint_words_saved", ckpt_words_saved as f64, "words");
    record.push("checkpoint_words_full", ckpt_words_full as f64, "words");
    record.push("checkpoint_bytes_saved", ckpt_bytes_saved, "bytes");
    write_record(&record)
}

/// `experiments bench-fleet`: fleet-runner throughput at `--jobs 1`.
/// Times two 128-device populations on the scalar executor (each device
/// through `wn_fleet::simulate_device`, no aggregate fold) and through
/// `run_fleet`, whose planner puts both on the lockstep (batched)
/// engine — an anytime population (every completing device skims, so
/// nearly all diverge onto the scalar path) and a precise population
/// (no skim points, so every device finishes on the shared tape) —
/// plus a checkpoint-free Task population (re-execution breaks the
/// shared-trajectory premise, so it always runs the scalar path) — and
/// records devices/s for each regime into `BENCH_fleet.json`.
fn bench_fleet(args: &[String], epoch: Option<f64>) -> ExitCode {
    use wn_fleet::{run_fleet, simulate_device, FleetOptions, FleetScenario};

    let population = |technique: &str| {
        // Both checkpointing substrates, two environment families.
        FleetScenario::parse(&format!(
            r#"
[fleet]
name = "bench-fleet"
seed = 42
shard_size = 64
wall_limit_s = 600.0
trace_duration_s = 20.0

[[cohort]]
count = 64
benchmark = "matadd"
technique = "{technique}"
substrate = "clank"
environment = "rf-bursty"

[[cohort]]
count = 64
benchmark = "home"
technique = "{technique}"
substrate = "nvp"
environment = "solar"
day_s = 10.0
"#
        ))
        .unwrap()
    };
    let best_of_10 = |sweep: &dyn Fn()| {
        let mut best = f64::INFINITY;
        for _ in 0..10 {
            let t0 = Instant::now();
            sweep();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let time = |scenario: &FleetScenario| {
        best_of_10(&|| {
            let options = FleetOptions {
                jobs: Some(1),
                ..Default::default()
            };
            assert!(run_fleet(scenario, &options).unwrap().report().is_some());
        })
    };
    // The scalar reference: every device, serially, through the
    // runner's scalar path.
    let time_scalar = |scenario: &FleetScenario| {
        best_of_10(&|| {
            for device in 0..scenario.total_devices() {
                if let Err((device, e)) = simulate_device(scenario, device) {
                    panic!("device {device} failed: {e}");
                }
            }
        })
    };
    let mut record = BenchRecord::new("fleet", &command_line(args), 1, epoch);
    wn_energy::memo_stats::reset();
    for (prefix, technique) in [("", "anytime8"), ("precise_", "precise")] {
        let scenario = population(technique);
        let devices = scenario.total_devices();
        // Warm the per-cohort compilation cache off the clock.
        time_scalar(&scenario);
        let scalar_s = time_scalar(&scenario);
        let batched_s = time(&scenario);
        let scalar = devices as f64 / scalar_s;
        let batched = devices as f64 / batched_s;
        let speedup = scalar_s / batched_s;
        println!(
            "fleet bench [{technique}]: scalar {scalar:.0} devices/s, \
             batched {batched:.0} devices/s ({speedup:.2}x), {devices} devices at --jobs 1",
        );
        record.push(
            &format!("{prefix}scalar_devices_per_s"),
            scalar,
            "devices/s",
        );
        record.push(
            &format!("{prefix}batched_devices_per_s"),
            batched,
            "devices/s",
        );
        record.push(&format!("{prefix}batched_speedup"), speedup, "x");
    }
    {
        // The Task population: same two benchmarks, task-decomposed
        // binaries on the checkpoint-free substrate. Capacitors follow
        // the largest-task rule (matadd anytime8 needs ≈5 µF, home
        // ≈3.2 µF on quick instances). Task cohorts fall back to the
        // scalar engine by construction, so one timing suffices.
        let scenario = FleetScenario::parse(
            r#"
[fleet]
name = "bench-fleet-task"
seed = 42
shard_size = 64
wall_limit_s = 600.0
trace_duration_s = 20.0

[[cohort]]
count = 64
benchmark = "matadd"
technique = "anytime8"
substrate = "task"
capacitance_uf = 6.8
environment = "rf-bursty"

[[cohort]]
count = 64
benchmark = "home"
technique = "anytime8"
substrate = "task"
capacitance_uf = 6.8
environment = "solar"
day_s = 10.0
"#,
        )
        .unwrap();
        let devices = scenario.total_devices();
        time(&scenario); // warm compile cache
        let task_s = time(&scenario);
        let task = devices as f64 / task_s;
        println!("fleet bench [task]: {task:.0} devices/s, {devices} devices at --jobs 1");
        record.push("task_devices_per_s", task, "devices/s");
    }
    {
        // Supply fast-forward effectiveness across every timed run above
        // (deterministic populations ⇒ deterministic counts). Recorded
        // so CI can flag a silent fall-back to the per-sample paths.
        let memo = wn_energy::memo_stats::snapshot();
        println!("fleet bench supply-memo: {}", memo.to_line());
        record.push("supply_memo_hits", memo.memo_hits as f64, "lookups");
        record.push(
            "supply_charge_ff_steps",
            memo.charge_ff_steps as f64,
            "steps",
        );
        record.push(
            "supply_discharge_ext_events",
            memo.discharge_ext_events as f64,
            "events",
        );
    }
    write_record(&record)
}

/// `experiments fleet <scenario>`: sharded multi-device population
/// sweep. Reads a TOML/JSON scenario, runs it through
/// [`wn_fleet::run_fleet`] (checkpointing after every shard), and
/// writes `fleet_<name>.json` / `fleet_<name>.csv` artifacts plus the
/// usual manifest. `--resume` picks up from the checkpoint; the report
/// bytes are identical to an uninterrupted run at any `--jobs` width.
fn fleet(args: &[String], operands: &[&str], epoch: Option<f64>) -> ExitCode {
    use wn_fleet::{run_fleet, FleetOptions, FleetStatus};

    let [path] = operands else {
        eprintln!("fleet needs exactly one scenario file\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let scenario = match load_scenario(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // `--check`: parse + prepare + fingerprint, never run. Shares the
    // preparation path with `predict`, so a scenario rejected here is
    // rejected identically by `fleet`, `fleet --check`, and `predict`.
    if args.iter().any(|a| a == "--check") {
        return match wn_fleet::check_scenario(&scenario) {
            Ok(c) => {
                println!(
                    "ok: scenario `{}` (fingerprint {:016x}): {} devices in {} cohorts, {} shards",
                    c.name, c.fingerprint, c.total_devices, c.cohorts, c.shard_count
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // Deterministic kill point for resume tests: flag wins, then env.
    let stop_after_shards = match parse_flag_value(args, "--stop-after-shards") {
        Ok(v) => match v.or_else(|| env::var("WN_FLEET_STOP_AFTER_SHARDS").ok()) {
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => {
                    eprintln!("--stop-after-shards needs a positive integer, got `{v}`");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let results = results_dir();
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("cannot create {}: {e}", results.display());
        return ExitCode::FAILURE;
    }
    let stem = scenario_stem(&scenario.name);
    let shard_jsonl = args.iter().any(|a| a == "--shard-jsonl");
    let options = FleetOptions {
        jobs: None, // the global pool, already sized by --jobs / WN_JOBS
        checkpoint: Some(results.join(format!("fleet_{stem}.ckpt.json"))),
        resume: args.iter().any(|a| a == "--resume"),
        shard_log: shard_jsonl.then(|| results.join(format!("fleet_{stem}.shards.jsonl"))),
        stop_after_shards,
    };
    println!(
        "fleet `{}`: {} devices in {} cohorts, {} shards of {}, {} jobs",
        scenario.name,
        scenario.total_devices(),
        scenario.cohorts.len(),
        scenario.shard_count(),
        scenario.shard_size,
        jobs::global_jobs(),
    );

    let total = Instant::now();
    let report = match run_fleet(&scenario, &options) {
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            return ExitCode::FAILURE;
        }
        Ok(FleetStatus::Paused {
            shards_done,
            shard_count,
        }) => {
            println!(
                "paused after shard {shards_done}/{shard_count} \
                 (checkpoint written; rerun with --resume to finish)"
            );
            return ExitCode::SUCCESS;
        }
        Ok(FleetStatus::Complete(report)) => report,
    };

    let agg = report.fleet_aggregate();
    println!(
        "fleet: {}/{} devices completed ({:.1}%), {} skimmed, {} starved, {} timed out",
        agg.completed,
        agg.devices,
        agg.completion_rate() * 100.0,
        agg.skimmed,
        agg.starved,
        agg.timed_out,
    );
    if let (Some(p50), Some(p99)) = (
        agg.time.sketch.quantile(0.5),
        agg.time.sketch.quantile(0.99),
    ) {
        println!("completion time p50 {p50:.3}s, p99 {p99:.3}s");
    }
    for (spec, c) in report.specs.iter().zip(report.cohorts.iter()) {
        println!(
            "  {}: {}/{} completed, mean time {}",
            spec.name,
            c.completed,
            c.devices,
            c.time
                .stats
                .mean()
                .map_or("n/a".to_string(), |m| format!("{m:.3}s")),
        );
    }

    let mut artifacts = Vec::new();
    let mut failed = false;
    for (name, contents) in [
        (format!("fleet_{stem}.json"), report.to_json()),
        (format!("fleet_{stem}.csv"), report.to_csv()),
    ] {
        if let Err(e) = save(&name, &contents, &mut artifacts) {
            eprintln!("artifact write failed: {e}");
            failed = true;
        }
    }
    // Diagnostics on stderr (artifacts and stdout stay byte-stable):
    // the fleet smoke CI step greps this line and asserts memo hits > 0,
    // so a silent fall-back to the per-sample supply paths cannot pass
    // as a false-positive "no regression".
    eprintln!(
        "fleet-supply-memo: {}",
        wn_energy::memo_stats::snapshot().to_line()
    );
    let wall_s = total.elapsed().as_secs_f64();
    let manifest = RunManifest {
        command: args.join(" "),
        unix_time_s: manifest::unix_time_s(epoch),
        scale: format!("{:?}", scenario.scale).to_lowercase(),
        traces: scenario.total_devices(), // one synthesized trace per device
        invocations: 1,
        seed: scenario.seed,
        jobs: jobs::global_jobs() as u64,
        telemetry: false,
        wall_s,
        artifacts,
    };
    if let Err(e) = save(MANIFEST_FILE, &manifest.to_json(), &mut Vec::new()) {
        eprintln!("manifest write failed: {e}");
        failed = true;
    }
    println!("total: {wall_s:.2}s");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes a `BENCH_*.json` record into the results directory.
fn write_record(record: &BenchRecord) -> ExitCode {
    match record.write() {
        Ok(path) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("BENCH record write failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The command line a bench record's provenance names.
fn command_line(args: &[String]) -> String {
    format!("experiments {}", args.join(" "))
}

fn save(name: &str, contents: &str, artifacts: &mut Vec<String>) -> std::io::Result<()> {
    let path = write_artifact(name, contents)?;
    println!("wrote {}", path.display());
    artifacts.push(name.to_string());
    Ok(())
}

/// Reads and parses a scenario file. Shared by `fleet`, `fleet
/// --check`, and `predict`, so a bad scenario produces the identical
/// error text whichever path encounters it.
fn load_scenario(path: &str) -> Result<wn_fleet::FleetScenario, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read scenario `{path}`: {e}");
        ExitCode::FAILURE
    })?;
    wn_fleet::FleetScenario::parse(&text).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// File-name stem for a scenario's artifacts (shared grammar with
/// `fleet_<stem>.json`).
fn scenario_stem(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// `experiments predict <scenario> [--validate]`: analytic per-cohort
/// prediction through wn-analyze. Writes `predict_<name>.json` /
/// `predict_<name>.csv` (`wn-analyze-report-v1`, shaped like the fleet
/// report) and `BENCH_analyze.json` with the prediction latency. With
/// `--validate` the same scenario is also swept by the real fleet
/// runner and the two reports are cross-checked under the tolerance
/// bands documented in DESIGN.md §13; any band violation fails the
/// invocation.
fn predict(args: &[String], operands: &[&str], epoch: Option<f64>) -> ExitCode {
    use wn_fleet::{predict_fleet, run_fleet, validate, CohortForecast, FleetOptions, FleetStatus};

    let [path] = operands else {
        eprintln!("predict needs exactly one scenario file\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let scenario = match load_scenario(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let results = results_dir();
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("cannot create {}: {e}", results.display());
        return ExitCode::FAILURE;
    }
    println!(
        "predict `{}`: {} devices in {} cohorts",
        scenario.name,
        scenario.total_devices(),
        scenario.cohorts.len(),
    );

    let total = Instant::now();
    let t_predict = Instant::now();
    let report = match predict_fleet(&scenario) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("predict failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let predict_ms = t_predict.elapsed().as_secs_f64() * 1e3;

    for (spec, c) in report.specs.iter().zip(report.cohorts.iter()) {
        match c {
            CohortForecast::Unsupported { reason } => {
                println!("  {}: unsupported ({reason})", spec.name);
            }
            CohortForecast::Predicted { aggregate, model } => {
                println!(
                    "  {}: {}/{} predicted complete, mean time {}, outages {:.1}, \
                     checkpoints {:.1}, commits {:.1}{}",
                    spec.name,
                    aggregate.completed,
                    aggregate.devices,
                    aggregate
                        .time
                        .stats
                        .mean()
                        .map_or("n/a".to_string(), |m| format!("{m:.3}s")),
                    model.outages,
                    model.checkpoints,
                    model.commits,
                    if model.via_skim { ", via skim" } else { "" },
                );
            }
        }
    }
    if report.unsupported() > 0 {
        println!(
            "  ({} cohort(s) unsupported by the analytic model — reported, not skipped)",
            report.unsupported()
        );
    }

    let stem = scenario_stem(&scenario.name);
    let mut artifacts = Vec::new();
    let mut failed = false;
    for (name, contents) in [
        (format!("predict_{stem}.json"), report.to_json()),
        (format!("predict_{stem}.csv"), report.to_csv()),
    ] {
        if let Err(e) = save(&name, &contents, &mut artifacts) {
            eprintln!("artifact write failed: {e}");
            failed = true;
        }
    }

    let mut record = BenchRecord::new(
        "analyze",
        &command_line(args),
        jobs::global_jobs() as u64,
        epoch,
    );
    record.push("predict_ms", predict_ms, "ms");
    record.push("cohorts", scenario.cohorts.len() as f64, "cohorts");
    record.push("devices", scenario.total_devices() as f64, "devices");

    let validated = args.iter().any(|a| a == "--validate");
    if validated {
        let t_fleet = Instant::now();
        let fleet_report = match run_fleet(&scenario, &FleetOptions::default()) {
            Ok(FleetStatus::Complete(r)) => r,
            Ok(FleetStatus::Paused { .. }) => {
                eprintln!("fleet run paused unexpectedly (no stop requested)");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("fleet run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let fleet_ms = t_fleet.elapsed().as_secs_f64() * 1e3;
        let speedup = fleet_ms / predict_ms.max(1e-9);
        record.push("fleet_ms", fleet_ms, "ms");
        record.push("speedup", speedup, "x");
        let v = validate(&report, &fleet_report);
        println!(
            "validate: {} checks, {} disagreements; predict {predict_ms:.1} ms vs \
             fleet {fleet_ms:.1} ms ({speedup:.0}x)",
            v.checks,
            v.failures.len(),
        );
        for f in &v.failures {
            eprintln!("  disagreement: {f}");
        }
        if !v.passed() {
            eprintln!("validation failed: prediction outside tolerance bands");
            failed = true;
        }
    }

    if write_record(&record) == ExitCode::FAILURE {
        failed = true;
    }

    let wall_s = total.elapsed().as_secs_f64();
    let manifest = RunManifest {
        command: args.join(" "),
        unix_time_s: manifest::unix_time_s(epoch),
        scale: format!("{:?}", scenario.scale).to_lowercase(),
        // Pure prediction synthesizes no traces; --validate sweeps one
        // per device, exactly like `experiments fleet`.
        traces: if validated {
            scenario.total_devices()
        } else {
            0
        },
        invocations: 1,
        seed: scenario.seed,
        jobs: jobs::global_jobs() as u64,
        telemetry: false,
        wall_s,
        artifacts,
    };
    if let Err(e) = save(MANIFEST_FILE, &manifest.to_json(), &mut Vec::new()) {
        eprintln!("manifest write failed: {e}");
        failed = true;
    }
    println!("total: {wall_s:.2}s");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
