//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|fleet-mixed|serve-churn> --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the workload once with spans around every
//! call into a layer's public functions (timed here, from outside the
//! program) and prints the per-layer metrics. The last line of standard
//! output is the result object; everything before it is the human log.

mod common;
mod fleet;
mod heap;
mod paper;
mod probe;
mod serve;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::SystemTime;

use common::{peak_rss_mb, Counts, Ledger, Spans, END_TO_END, PER_LAYER};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The seed whose outputs are pinned by recorded digests.
pub const DEFAULT_SEED: u64 = 42;

/// Worker threads for every figure, fleet and daemon run. Fixed, not the
/// host's core count, so runs on different hosts do the same work split.
pub const JOBS: usize = 2;

/// A traced workload whose spans leave more than this share of its
/// thread time unexplained is flagged in the log.
const ACCEPTABLE_UNACCOUNTED: f64 = 0.10;

const WORKLOADS: [&str; 3] = ["paper-sweep", "fleet-mixed", "serve-churn"];

/// Parsed command line plus the directories a run may touch.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The repository checkout the run starts in.
    pub root: PathBuf,
    /// Per-process scratch directory inside the checkout's build dir.
    pub scratch: PathBuf,
}

/// What a workload run produced.
pub struct Outcome {
    pub ledger: Ledger,
    /// Scenario fingerprint or configuration identity (provenance).
    pub fingerprint: String,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures for the log only.
    pub notes: Vec<(String, String)>,
    /// Traced runs: layer busy time, and the thread time it is measured
    /// against (wall time × worker threads of each phase).
    pub spans: Spans,
    pub thread_secs: f64,
}

impl Outcome {
    pub fn new(fingerprint: String) -> Outcome {
        Outcome {
            ledger: Ledger::default(),
            fingerprint,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            spans: Spans::new(),
            thread_secs: 0.0,
        }
    }

    /// Turns span totals into per-layer metrics (`_ms` layers in
    /// milliseconds) and derives the synthesis share of thread time.
    pub fn finish_spans(&mut self) {
        for (layer, secs) in self.spans.iter() {
            let value = if layer.ends_with("_ms") {
                1e3 * secs
            } else {
                secs
            };
            self.metrics.insert(layer, value);
        }
        let share = self.spans.get("energy.synth_s") / self.thread_secs;
        self.metrics.insert("energy.synth_share", share);
    }

    /// Exact counts of the traced runs, and the simulation rate over the
    /// layers that executed them.
    pub fn count_metrics(&mut self, c: &Counts) {
        let exec_s: f64 = [
            "intermittent.replay_s",
            "intermittent.exec_clank_s",
            "intermittent.exec_nvp_s",
            "intermittent.exec_task_s",
        ]
        .iter()
        .map(|l| self.spans.get(l))
        .sum();
        let m = &mut self.metrics;
        m.insert("sim.mcycles", c.cycles as f64 / 1e6);
        m.insert("sim.mcycles_per_s", c.cycles as f64 / 1e6 / exec_s);
        m.insert("energy.outages", c.outages as f64);
        m.insert("intermittent.checkpoints", c.checkpoints as f64);
        m.insert("intermittent.commits", c.commits as f64);
        m.insert(
            "intermittent.wasted_ratio",
            c.wasted as f64 / c.cycles.max(1) as f64,
        );
    }

    /// Supply memo counters taken over one pass.
    pub fn memo_metrics(&mut self, memo: &wn_energy::SupplyMemoStats) {
        let lookups = memo.memo_hits + memo.memo_misses;
        self.metrics
            .insert("energy.charge_ff_steps", memo.charge_ff_steps as f64);
        self.metrics.insert(
            "energy.memo_hit_ratio",
            memo.memo_hits as f64 / lookups.max(1) as f64,
        );
    }

    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.notes.push((name.to_string(), value.to_string()));
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n       perfbench --self-test",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, seed, seconds, trace))
}

/// Size and modification time of the repository's files: everything in
/// its subdirectories outside the build directories, and the top-level
/// manifests, documents and records (a file a caller redirects output to
/// is not the repository's). A run must leave all of them as it found
/// them.
fn tree_snapshot(root: &Path) -> BTreeMap<PathBuf, (u64, Option<SystemTime>)> {
    const SKIP: [&str; 3] = [".git", ".bench_build", "target"];
    let tracked_top = |name: &str| {
        [".toml", ".lock", ".md", ".json"]
            .iter()
            .any(|ext| name.ends_with(ext))
    };
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                if dir != root || !SKIP.iter().any(|s| entry.file_name() == *s) {
                    stack.push(path);
                }
            } else if dir != root || tracked_top(&entry.file_name().to_string_lossy()) {
                out.insert(path, (meta.len(), meta.modified().ok()));
            }
        }
    }
    out
}

fn git(root: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(root)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

fn provenance(args: &Args, outcome: &Outcome) -> String {
    let revision = git(&args.root, &["rev-parse", "HEAD"])
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"git_revision\": \"{revision}\", \"cores\": {cores}, \"jobs\": {JOBS}, \"profile\": \"{profile}\", \"fingerprint\": \"{}\"}}}}",
        args.workload, u8::from(args.trace), args.seed, args.seconds, outcome.fingerprint
    )
}

/// Prints the traced layer table and derives `unaccounted_share`.
fn layer_table(args: &Args, outcome: &mut Outcome) {
    let capacity = outcome.thread_secs;
    let accounted = outcome.spans.total();
    let unaccounted = 1.0 - accounted / capacity;
    println!(
        "layer busy time, {} ({capacity:.3} thread-s measured):",
        args.workload
    );
    for (layer, secs) in outcome.spans.iter() {
        println!(
            "  {layer:<28} {secs:>10.4} s  {:>6.2}%",
            100.0 * secs / capacity
        );
    }
    println!(
        "  {:<28} {:>10.4} s  {:>6.2}%",
        "(unaccounted)",
        capacity - accounted,
        100.0 * unaccounted
    );
    if unaccounted > ACCEPTABLE_UNACCOUNTED {
        println!(
            "  FLAG: {:.1}% of {} is outside every span (acceptable: {:.0}%)",
            100.0 * unaccounted,
            args.workload,
            100.0 * ACCEPTABLE_UNACCOUNTED
        );
    }
    outcome.metrics.insert("unaccounted_share", unaccounted);
}

fn result_line(correct: bool, ledger: &Ledger, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed(),
        body.join(", ")
    )
}

fn run_workload(args: &Args) -> Outcome {
    match (args.workload.as_str(), args.trace) {
        ("paper-sweep", false) => paper::run(args),
        ("paper-sweep", true) => paper::traced(args),
        ("fleet-mixed", false) => fleet::run(args),
        ("fleet-mixed", true) => fleet::traced(args),
        ("serve-churn", false) => serve::run(args),
        ("serve-churn", true) => serve::traced(args),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Runs every workload in child processes (both modes) and asserts that
/// `git status --porcelain` reads the same before and after.
fn self_test(root: &Path) -> ExitCode {
    let Some(before) = git(root, &["status", "--porcelain"]) else {
        eprintln!("perfbench: --self-test needs a git checkout");
        return ExitCode::FAILURE;
    };
    let exe = std::env::current_exe().expect("current executable path");
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .current_dir(root)
                .output()
                .expect("spawn benchmark child");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let passed = out.status.success() && last.starts_with("{\"correct\": true");
            println!(
                "self-test {workload} trace={trace}: {}",
                if passed { "ok" } else { "FAILED" }
            );
            ok &= passed;
        }
    }
    let after = git(root, &["status", "--porcelain"]).unwrap_or_default();
    if after != before {
        println!("self-test: git status changed:\n--- before\n{before}--- after\n{after}");
        ok = false;
    }
    println!("self-test: {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Caps glibc's malloc arenas at the worker count. Left alone, glibc
/// hands each new thread (pool workers are spawned per shard, the daemon
/// spawns one per connection) one of up to 8 × cores arenas, and which
/// arenas fragment decides peak RSS: `serve-churn` read between 81 and
/// 104 MB from run to run, against 64 ± 2 MB with the cap.
fn pin_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only tunes the allocator; it is called before
        // this process starts any other thread, and takes plain integers.
        unsafe {
            mallopt(M_ARENA_MAX, JOBS as i32);
        }
    }
}

fn main() -> ExitCode {
    pin_malloc_arenas();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = std::env::current_dir().expect("working directory");
    // The benchmark reads the population scenario from the checkout; a
    // directory without the repository's crates cannot be benchmarked.
    if !root.join("crates").is_dir() || !root.join("scenarios/predict_scale.toml").is_file() {
        eprintln!("perfbench: run from the repository root (no crates/ or scenarios/ here)");
        return ExitCode::from(2);
    }
    if argv.first().map(String::as_str) == Some("--self-test") {
        return self_test(&root);
    }
    let (workload, seed, seconds, trace) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let scratch = root
        .join(".bench_build")
        .join(format!("perfbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    // Anything the libraries would write under the default results
    // directory lands in scratch instead.
    std::env::set_var("WN_RESULTS_DIR", scratch.join("results"));
    wn_core::jobs::set_global_jobs(JOBS);
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        root,
        scratch,
    };

    let before = tree_snapshot(&args.root);
    let mut outcome = run_workload(&args);
    if args.trace {
        probe::fill(&mut outcome, &args);
    }
    let after = tree_snapshot(&args.root);
    let changed: BTreeSet<_> = before
        .keys()
        .chain(after.keys())
        .filter(|p| before.get(*p) != after.get(*p))
        .collect();
    outcome.ledger.check(changed.is_empty(), || {
        format!("run modified checkout files: {changed:?}")
    });
    // Best effort: a leftover scratch directory is inside the ignored
    // build directory and harms nothing.
    let _ = std::fs::remove_dir_all(&args.scratch);

    if !args.trace {
        outcome.metrics.insert("peak_heap_mb", heap::peak_mb());
        outcome.note("peak_rss_mb", format!("{:.3}", peak_rss_mb()));
    }
    println!("{}", provenance(&args, &outcome));
    for (name, value) in &outcome.notes {
        println!("  {name:<32} {value}");
    }
    let table: &[(&str, &str)] = if args.trace {
        layer_table(&args, &mut outcome);
        PER_LAYER
    } else {
        END_TO_END
    };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let finite = outcome
            .ledger
            .check(value.is_finite(), || format!("{name} is not finite"));
        metrics.push((name, unit, if finite { value } else { 0.0 }));
        println!("  {name:<32} {value:>14.6} {unit}");
    }
    let failed_ratio = outcome.ledger.failed() as f64 / outcome.ledger.attempted.max(1) as f64;
    println!(
        "  {:<32} {failed_ratio:>14.6} ({} of {})",
        "failed_ratio",
        outcome.ledger.failed(),
        outcome.ledger.attempted
    );
    let correct = outcome.ledger.failed() == 0;
    println!("{}", result_line(correct, &outcome.ledger, &metrics));
    ExitCode::SUCCESS
}
