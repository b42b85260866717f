//! Shared pieces: the per-layer metric table, span accumulation, order
//! statistics, digests and the run ledger every workload fills in.

use std::collections::BTreeMap;
use std::time::Instant;

use wn_core::intermittent::IntermittentOutcome;

/// Every per-layer metric a traced run prints, with its unit. The time of
/// a layer a workload never enters is taken on the layer probe
/// ([`crate::probe`]); its counts read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiler.compile_ms", "ms"),
    ("sim.tape_record_ms", "ms"),
    ("sim.mcycles", "Mcycles"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("energy.synth_s", "s"),
    ("energy.synth_share", "share"),
    ("energy.outages", "count"),
    ("energy.memo_hit_ratio", "ratio"),
    ("energy.charge_ff_steps", "count"),
    ("intermittent.replay_s", "s"),
    ("intermittent.handoff_ratio", "ratio"),
    ("intermittent.exec_clank_s", "s"),
    ("intermittent.exec_nvp_s", "s"),
    ("intermittent.exec_task_s", "s"),
    ("intermittent.checkpoints", "count"),
    ("intermittent.commits", "count"),
    ("intermittent.wasted_ratio", "ratio"),
    ("fleet.completed", "count"),
    ("fleet.skimmed", "count"),
    ("fleet.aggregate_ms", "ms"),
    ("fleet.report_ms", "ms"),
    ("fleet.checkpoint_ms", "ms"),
    ("fleet.jobs1_devices_per_s", "1/s"),
    ("fleet.scaling_2v1", "ratio"),
    ("analyze.profile_ms", "ms"),
    ("analyze.solve_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.report_fetch_ms", "ms"),
    ("serve.journal_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("unaccounted_share", "share"),
    ("trace_overhead", "ratio"),
];

/// Every end-to-end metric an untraced run prints, with its unit. Each
/// is defined for every workload, on that workload's own unit of work:
///
/// * `setup_s` — median of [`SETUP_REPS`] set-ups (compile, trace ensembles or
///   tape plans, daemon start);
/// * `result_s` — median host time from request to result: the two
///   figures, one population report plus its prediction, or one cold
///   submission's report;
/// * `devices_per_s` — simulated device runs completed per host second;
/// * `peak_heap_mb` — the most heap the process held at once (peak RSS
///   is printed in the log).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("result_s", "s"),
    ("devices_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Busy time per layer, in seconds of one thread. Parallel phases add
/// the busy time of every worker, so a layer can exceed wall time.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    secs: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans::default()
    }

    /// Runs `f`, charging its duration to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(layer, t0.elapsed().as_secs_f64());
        out
    }

    pub fn add(&mut self, layer: &'static str, secs: f64) {
        *self.secs.entry(layer).or_insert(0.0) += secs;
    }

    pub fn merge(&mut self, other: &Spans) {
        for (k, v) in &other.secs {
            self.add(k, *v);
        }
    }

    pub fn get(&self, layer: &str) -> f64 {
        self.secs.get(layer).copied().unwrap_or(0.0)
    }

    pub fn total(&self) -> f64 {
        self.secs.values().sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.secs.iter().map(|(k, v)| (*k, *v))
    }
}

/// Exact event counts over a set of intermittent runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub cycles: u64,
    /// Cycles lost to outages plus substrate overhead.
    pub wasted: u64,
    pub outages: u64,
    pub checkpoints: u64,
    pub commits: u64,
    /// Devices replayed on a tape, and those handed back to the scalar
    /// executor with a diverged core.
    pub replayed: u64,
    pub handoffs: u64,
}

impl Counts {
    pub fn record(&mut self, o: &IntermittentOutcome) {
        self.cycles += o.active_cycles;
        self.wasted += o.substrate.lost_cycles + o.substrate.overhead_cycles;
        self.outages += o.outages;
        self.checkpoints += o.substrate.checkpoints;
        self.commits += o.substrate.commits;
    }

    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.wasted += o.wasted;
        self.outages += o.outages;
        self.checkpoints += o.checkpoints;
        self.commits += o.commits;
        self.replayed += o.replayed;
        self.handoffs += o.handoffs;
    }
}

/// The median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// On an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest order statistic with at least ten samples above it, and
/// the percentile it sits at; `None` with fewer than 11 samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 11 {
        return None;
    }
    let rank = n - 11;
    Some((s[rank], 100.0 * (rank + 1) as f64 / n as f64))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a 64 over `bytes` (the digest the workloads pin outputs with).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Attempted operations, failed ones and the reasons, for the result
/// line's `attempted`/`failed` and the human log.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation; a failure is reported on stderr at once.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
        ok
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times; the median duration in seconds.
pub fn timed_setup(mut setup: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            setup();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}
