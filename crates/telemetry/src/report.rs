//! Online run reports: aggregate an event stream into counts,
//! histograms, and breakdowns without buffering it.

use crate::event::{CheckpointCause, Event, EventKind, KIND_COUNT, KIND_NAMES};
use crate::json::{self, Obj};
use crate::sink::EventSink;

/// Decade-bucket duration histogram (seconds) with running min/max/sum.
///
/// Buckets: `< 1 µs`, then one per decade up to `>= 10 s`. Durations in
/// an intermittent run span microsecond leases to multi-second
/// recharges, so decades are the natural resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; Histogram::BUCKETS],
    count: u64,
    sum_s: f64,
    min_s: f64,
    max_s: f64,
}

impl Histogram {
    /// Number of buckets: below the first edge, between consecutive
    /// edges, and at-or-above the last edge.
    pub const BUCKETS: usize = Self::EDGES_S.len() + 1;

    /// Decade edges, in seconds.
    pub const EDGES_S: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

    pub fn new() -> Self {
        Histogram {
            counts: [0; Self::BUCKETS],
            count: 0,
            sum_s: 0.0,
            min_s: f64::INFINITY,
            max_s: f64::NEG_INFINITY,
        }
    }

    /// Record one duration (seconds). Non-finite samples are ignored.
    pub fn record(&mut self, d_s: f64) {
        if !d_s.is_finite() {
            return;
        }
        let bucket = Self::EDGES_S.iter().take_while(|&&e| d_s >= e).count();
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum_s += d_s;
        self.min_s = self.min_s.min(d_s);
        self.max_s = self.max_s.max(d_s);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
        self.min_s = self.min_s.min(other.min_s);
        self.max_s = self.max_s.max(other.max_s);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn counts(&self) -> &[u64; Self::BUCKETS] {
        &self.counts
    }

    pub fn mean_s(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_s / self.count as f64)
    }

    pub fn min_s(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min_s)
    }

    pub fn max_s(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max_s)
    }

    /// The full internal state `(counts, count, sum_s, min_s, max_s)` —
    /// for callers that persist a histogram and rebuild it with
    /// [`Histogram::from_raw_parts`] (e.g. fleet checkpoints).
    pub fn raw_parts(&self) -> ([u64; Self::BUCKETS], u64, f64, f64, f64) {
        (self.counts, self.count, self.sum_s, self.min_s, self.max_s)
    }

    /// Rebuilds a histogram from [`Histogram::raw_parts`] state.
    pub fn from_raw_parts(
        counts: [u64; Self::BUCKETS],
        count: u64,
        sum_s: f64,
        min_s: f64,
        max_s: f64,
    ) -> Histogram {
        Histogram {
            counts,
            count,
            sum_s,
            min_s,
            max_s,
        }
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .raw(
                "edges_s",
                json::array(Self::EDGES_S.iter().map(|e| json::num(*e))),
            )
            .raw(
                "counts",
                json::array(self.counts.iter().map(|c| c.to_string())),
            )
            .u64("count", self.count)
            .f64("mean_s", self.mean_s().unwrap_or(f64::NAN))
            .f64("min_s", self.min_s().unwrap_or(f64::NAN))
            .f64("max_s", self.max_s().unwrap_or(f64::NAN))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-kind event counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventCounts {
    counts: [u64; KIND_COUNT],
}

impl EventCounts {
    pub fn bump(&mut self, kind: &EventKind) {
        self.counts[kind.index()] += 1;
    }

    pub fn of(&self, kind_index: usize) -> u64 {
        self.counts[kind_index]
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn merge(&mut self, other: &EventCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    pub fn to_json(&self) -> String {
        let mut obj = Obj::new();
        for (name, count) in KIND_NAMES.iter().zip(self.counts.iter()) {
            obj = obj.u64(name, *count);
        }
        obj.finish()
    }
}

/// Lease-loop totals: how the executor spent its energy grants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LeaseStats {
    pub grants: u64,
    pub granted_cycles: u64,
    pub settled_cycles: u64,
    pub settled_instructions: u64,
}

impl LeaseStats {
    pub fn merge(&mut self, other: &LeaseStats) {
        self.grants += other.grants;
        self.granted_cycles += other.granted_cycles;
        self.settled_cycles += other.settled_cycles;
        self.settled_instructions += other.settled_instructions;
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("grants", self.grants)
            .u64("granted_cycles", self.granted_cycles)
            .u64("settled_cycles", self.settled_cycles)
            .u64("settled_instructions", self.settled_instructions)
            .finish()
    }
}

/// Per-instruction-class row of the cycle breakdown (fed from the
/// simulator's `ExecStats` by the caller, so this crate stays
/// dependency-free).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRow {
    pub class: String,
    pub instructions: u64,
    pub cycles: u64,
}

/// Aggregated view of one run (or, after [`RunReport::merge`], of many).
///
/// Implements [`EventSink`], so it can be handed straight to
/// `IntermittentExecutor::run_with_sink` and builds itself online:
/// counts, on/off-period histograms, outage inter-arrival stats,
/// checkpoint-cause breakdown, and lease totals. Scalars that only the
/// executor knows (final times, class breakdown) are filled in
/// afterwards via [`RunReport::set_totals`] / [`RunReport::set_classes`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub label: String,
    /// How many runs were merged into this report (1 for a single run).
    pub runs: u64,
    pub completed: bool,
    pub skimmed: bool,
    pub total_time_s: f64,
    pub on_time_s: f64,
    pub active_cycles: u64,
    pub outages: u64,
    pub counts: EventCounts,
    /// Checkpoint counts by cause: violation, capacity, watchdog, skim, other.
    pub checkpoint_causes: [u64; 5],
    /// State words written to checkpoint storage (differential
    /// checkpoints log only dirty words, so this is typically far below
    /// `checkpoints * CpuSnapshot::WORDS`).
    pub checkpoint_words: u64,
    pub restore_cycles: u64,
    /// Task-boundary commits (checkpoint-free substrates; zero for
    /// Clank/NVP, so existing reports only gain zero-valued columns).
    pub commits: u64,
    /// Shadow words copied back to their masters by commit sequences.
    pub privatized_words: u64,
    /// Cycles re-executed from task entries after outages.
    pub reexecuted_cycles: u64,
    pub lease: LeaseStats,
    /// Durations of powered-on periods (power-on → outage).
    pub on_periods: Histogram,
    /// Durations of recharge gaps (outage → power-on).
    pub off_periods: Histogram,
    /// Gaps between consecutive outages.
    pub outage_interarrival: Histogram,
    /// Per-instruction-class cycle breakdown.
    pub classes: Vec<ClassRow>,
    last_power_on_s: Option<f64>,
    last_outage_s: Option<f64>,
}

const CAUSE_NAMES: [&str; 5] = ["violation", "capacity", "watchdog", "skim", "other"];

fn cause_slot(cause: CheckpointCause) -> usize {
    match cause {
        CheckpointCause::Violation => 0,
        CheckpointCause::Capacity => 1,
        CheckpointCause::Watchdog => 2,
        CheckpointCause::Skim => 3,
        CheckpointCause::Other => 4,
    }
}

impl RunReport {
    pub fn new(label: &str) -> Self {
        RunReport {
            label: label.to_string(),
            runs: 1,
            ..RunReport::default()
        }
    }

    /// Fill in the end-of-run scalars from the executor's result.
    pub fn set_totals(
        &mut self,
        total_time_s: f64,
        on_time_s: f64,
        active_cycles: u64,
        outages: u64,
    ) {
        self.total_time_s = total_time_s;
        self.on_time_s = on_time_s;
        self.active_cycles = active_cycles;
        self.outages = outages;
    }

    /// Fill in the per-class cycle breakdown (rows with zero
    /// instructions are skipped).
    pub fn set_classes<I: IntoIterator<Item = (&'static str, u64, u64)>>(&mut self, rows: I) {
        self.classes = rows
            .into_iter()
            .filter(|&(_, instructions, _)| instructions > 0)
            .map(|(class, instructions, cycles)| ClassRow {
                class: class.to_string(),
                instructions,
                cycles,
            })
            .collect();
    }

    /// Fill in the checkpoint-free substrate counters from the
    /// executor's `SubstrateStats`-shaped result (all zero on
    /// checkpoint substrates).
    pub fn set_substrate(&mut self, commits: u64, privatized_words: u64, reexecuted_cycles: u64) {
        self.commits = commits;
        self.privatized_words = privatized_words;
        self.reexecuted_cycles = reexecuted_cycles;
    }

    pub fn checkpoints_of(&self, cause: CheckpointCause) -> u64 {
        self.checkpoint_causes[cause_slot(cause)]
    }

    /// Folds `reports` left to right into one cross-run report: the
    /// first, relabelled `"aggregate"`, absorbs the rest in order. Float
    /// totals depend on that order, so callers pass runs in a fixed one
    /// (never thread-completion order). `None` when there are no runs.
    pub fn aggregate(reports: impl IntoIterator<Item = RunReport>) -> Option<RunReport> {
        let mut reports = reports.into_iter();
        let mut aggregate = reports.next()?;
        aggregate.label = "aggregate".to_string();
        for r in reports {
            aggregate.merge(&r);
        }
        Some(aggregate)
    }

    /// Fold another report into this one (for cross-run aggregation).
    /// Sums are merged; `completed`/`skimmed` become "any run did".
    pub fn merge(&mut self, other: &RunReport) {
        self.runs += other.runs;
        self.completed |= other.completed;
        self.skimmed |= other.skimmed;
        self.total_time_s += other.total_time_s;
        self.on_time_s += other.on_time_s;
        self.active_cycles += other.active_cycles;
        self.outages += other.outages;
        self.counts.merge(&other.counts);
        for (a, b) in self
            .checkpoint_causes
            .iter_mut()
            .zip(other.checkpoint_causes.iter())
        {
            *a += b;
        }
        self.checkpoint_words += other.checkpoint_words;
        self.restore_cycles += other.restore_cycles;
        self.commits += other.commits;
        self.privatized_words += other.privatized_words;
        self.reexecuted_cycles += other.reexecuted_cycles;
        self.lease.merge(&other.lease);
        self.on_periods.merge(&other.on_periods);
        self.off_periods.merge(&other.off_periods);
        self.outage_interarrival.merge(&other.outage_interarrival);
        for row in &other.classes {
            match self.classes.iter_mut().find(|r| r.class == row.class) {
                Some(mine) => {
                    mine.instructions += row.instructions;
                    mine.cycles += row.cycles;
                }
                None => self.classes.push(row.clone()),
            }
        }
    }

    pub fn to_json(&self) -> String {
        let mut causes = Obj::new();
        for (name, count) in CAUSE_NAMES.iter().zip(self.checkpoint_causes.iter()) {
            causes = causes.u64(name, *count);
        }
        Obj::new()
            .str("schema", "wn-run-report-v1")
            .str("label", &self.label)
            .u64("runs", self.runs)
            .bool("completed", self.completed)
            .bool("skimmed", self.skimmed)
            .f64("total_time_s", self.total_time_s)
            .f64("on_time_s", self.on_time_s)
            .u64("active_cycles", self.active_cycles)
            .u64("outages", self.outages)
            .u64("events_recorded", self.counts.total())
            .raw("event_counts", self.counts.to_json())
            .raw("checkpoint_causes", causes.finish())
            .u64("checkpoint_words", self.checkpoint_words)
            .u64("restore_cycles", self.restore_cycles)
            .u64("commits", self.commits)
            .u64("privatized_words", self.privatized_words)
            .u64("reexecuted_cycles", self.reexecuted_cycles)
            .raw("lease", self.lease.to_json())
            .raw("on_periods", self.on_periods.to_json())
            .raw("off_periods", self.off_periods.to_json())
            .raw("outage_interarrival", self.outage_interarrival.to_json())
            .raw(
                "classes",
                json::array(self.classes.iter().map(|r| {
                    Obj::new()
                        .str("class", &r.class)
                        .u64("instructions", r.instructions)
                        .u64("cycles", r.cycles)
                        .finish()
                })),
            )
            .finish()
    }

    /// Flat `key,value` CSV of the scalar fields plus per-kind counts,
    /// cause breakdown, and class rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("key,value\n");
        let mut push = |k: &str, v: String| {
            out.push_str(k);
            out.push(',');
            out.push_str(&v);
            out.push('\n');
        };
        push("label", self.label.clone());
        push("runs", self.runs.to_string());
        push("completed", self.completed.to_string());
        push("skimmed", self.skimmed.to_string());
        push("total_time_s", format!("{}", self.total_time_s));
        push("on_time_s", format!("{}", self.on_time_s));
        push("active_cycles", self.active_cycles.to_string());
        push("outages", self.outages.to_string());
        push("events_recorded", self.counts.total().to_string());
        for (i, name) in KIND_NAMES.iter().enumerate() {
            push(&format!("events.{name}"), self.counts.of(i).to_string());
        }
        for (name, count) in CAUSE_NAMES.iter().zip(self.checkpoint_causes.iter()) {
            push(&format!("checkpoints.{name}"), count.to_string());
        }
        push("checkpoint_words", self.checkpoint_words.to_string());
        push("restore_cycles", self.restore_cycles.to_string());
        push("commits", self.commits.to_string());
        push("privatized_words", self.privatized_words.to_string());
        push("reexecuted_cycles", self.reexecuted_cycles.to_string());
        push("lease.grants", self.lease.grants.to_string());
        push(
            "lease.granted_cycles",
            self.lease.granted_cycles.to_string(),
        );
        push(
            "lease.settled_cycles",
            self.lease.settled_cycles.to_string(),
        );
        push(
            "lease.settled_instructions",
            self.lease.settled_instructions.to_string(),
        );
        for row in &self.classes {
            push(
                &format!("class.{}.instructions", row.class),
                row.instructions.to_string(),
            );
            push(
                &format!("class.{}.cycles", row.class),
                row.cycles.to_string(),
            );
        }
        out
    }
}

impl EventSink for RunReport {
    fn record(&mut self, event: Event) {
        self.counts.bump(&event.kind);
        match event.kind {
            EventKind::PowerOn { waited_s } => {
                if waited_s > 0.0 {
                    self.off_periods.record(waited_s);
                }
                self.last_power_on_s = Some(event.t_s);
            }
            EventKind::Outage => {
                if let Some(on_at) = self.last_power_on_s.take() {
                    self.on_periods.record(event.t_s - on_at);
                }
                if let Some(prev) = self.last_outage_s {
                    self.outage_interarrival.record(event.t_s - prev);
                }
                self.last_outage_s = Some(event.t_s);
            }
            EventKind::Checkpoint { cause, words } => {
                self.checkpoint_causes[cause_slot(cause)] += 1;
                self.checkpoint_words += words;
            }
            EventKind::Restore { cost_cycles } => {
                self.restore_cycles += cost_cycles;
            }
            EventKind::LeaseGrant { cycles } => {
                self.lease.grants += 1;
                self.lease.granted_cycles += cycles;
            }
            EventKind::LeaseSettled {
                cycles,
                instructions,
            } => {
                self.lease.settled_cycles += cycles;
                self.lease.settled_instructions += instructions;
            }
            EventKind::RunEnd { skimmed } => {
                self.completed = true;
                self.skimmed = skimmed;
            }
            EventKind::RunStart | EventKind::SkimTaken { .. } | EventKind::SkimSkipped => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_s: f64, kind: EventKind) -> Event {
        Event { t_s, kind }
    }

    #[test]
    fn histogram_buckets_by_decade() {
        let mut h = Histogram::new();
        h.record(5e-7); // below first edge -> bucket 0
        h.record(2e-6); // [1e-6, 1e-5) -> bucket 1
        h.record(0.5); // [1e-1, 1) -> bucket 6
        h.record(50.0); // >= 10 -> last bucket
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 4);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[6], 1);
        assert_eq!(h.counts()[Histogram::BUCKETS - 1], 1);
        assert_eq!(h.min_s(), Some(5e-7));
        assert_eq!(h.max_s(), Some(50.0));
    }

    #[test]
    fn empty_histogram_serializes_null_stats() {
        let h = Histogram::new();
        let doc = h.to_json();
        assert!(doc.contains("\"mean_s\":null"));
        assert_eq!(h.mean_s(), None);
    }

    #[test]
    fn zero_event_report_serializes_without_nan() {
        // A run that recorded nothing (e.g. a workload that halts before
        // the first event) must still produce valid JSON/CSV: empty
        // histograms become null stats, never NaN or bare infinities.
        let r = RunReport::new("empty");
        let doc = r.to_json();
        for poison in ["NaN", "nan", "inf"] {
            assert!(!doc.contains(poison), "JSON contains {poison}: {doc}");
        }
        assert!(doc.contains("\"events_recorded\":0"));
        assert!(doc.contains("\"checkpoint_words\":0"));
        assert!(doc.contains("\"mean_s\":null"));
        let csv = r.to_csv();
        for poison in ["NaN", "nan", "inf"] {
            assert!(!csv.contains(poison), "CSV contains {poison}: {csv}");
        }
        assert!(csv.contains("events_recorded,0\n"));
    }

    #[test]
    fn report_accumulates_power_cycle_geometry() {
        let mut r = RunReport::new("test");
        r.record(ev(0.0, EventKind::RunStart));
        r.record(ev(0.0, EventKind::PowerOn { waited_s: 0.0 }));
        r.record(ev(0.004, EventKind::Outage));
        r.record(ev(0.010, EventKind::PowerOn { waited_s: 0.006 }));
        r.record(ev(0.013, EventKind::Outage));
        r.record(ev(0.020, EventKind::PowerOn { waited_s: 0.007 }));
        r.record(ev(0.021, EventKind::RunEnd { skimmed: true }));

        // Two on-periods (4 ms, 3 ms); two recharge gaps (waited > 0
        // only on the later two power-ons); one outage inter-arrival.
        assert_eq!(r.on_periods.count(), 2);
        assert_eq!(r.off_periods.count(), 2);
        assert_eq!(r.outage_interarrival.count(), 1);
        let gap = r.outage_interarrival.mean_s().unwrap();
        assert!((gap - 0.009).abs() < 1e-12, "gap {gap}");
        assert!(r.completed && r.skimmed);
        assert_eq!(r.counts.of(EventKind::Outage.index()), 2);
    }

    #[test]
    fn report_tracks_causes_leases_and_classes() {
        let mut r = RunReport::new("test");
        r.record(ev(
            0.0,
            EventKind::Checkpoint {
                cause: CheckpointCause::Watchdog,
                words: 18,
            },
        ));
        r.record(ev(
            0.0,
            EventKind::Checkpoint {
                cause: CheckpointCause::Skim,
                words: 2,
            },
        ));
        r.record(ev(0.0, EventKind::LeaseGrant { cycles: 100 }));
        r.record(ev(
            0.0,
            EventKind::LeaseSettled {
                cycles: 80,
                instructions: 40,
            },
        ));
        r.record(ev(0.0, EventKind::Restore { cost_cycles: 40 }));
        r.set_totals(1.0, 0.5, 123, 4);
        r.set_classes([("alu", 10, 10), ("load", 0, 0), ("store", 5, 15)]);

        assert_eq!(r.checkpoints_of(CheckpointCause::Watchdog), 1);
        assert_eq!(r.checkpoints_of(CheckpointCause::Skim), 1);
        assert_eq!(r.lease.grants, 1);
        assert_eq!(r.lease.settled_instructions, 40);
        assert_eq!(r.checkpoint_words, 20);
        assert_eq!(r.restore_cycles, 40);
        // Zero-instruction class rows are dropped.
        assert_eq!(r.classes.len(), 2);

        let doc = r.to_json();
        assert!(doc.contains("\"schema\":\"wn-run-report-v1\""));
        assert!(doc.contains("\"watchdog\":1"));
        assert!(doc.contains("\"class\":\"alu\""));
        let csv = r.to_csv();
        assert!(csv.starts_with("key,value\n"));
        assert!(csv.contains("checkpoints.skim,1\n"));
        assert!(csv.contains("class.store.cycles,15\n"));
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = RunReport::new("agg");
        a.record(ev(0.0, EventKind::Outage));
        a.set_totals(1.0, 0.6, 100, 1);
        a.set_classes([("alu", 1, 1)]);
        let mut b = RunReport::new("b");
        b.record(ev(0.0, EventKind::Outage));
        b.record(ev(0.1, EventKind::RunEnd { skimmed: false }));
        b.set_totals(2.0, 1.0, 200, 2);
        b.set_classes([("alu", 2, 2), ("mul", 3, 9)]);

        a.set_substrate(2, 16, 500);
        b.set_substrate(3, 8, 250);

        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.outages, 3);
        assert_eq!(a.commits, 5);
        assert_eq!(a.privatized_words, 24);
        assert_eq!(a.reexecuted_cycles, 750);
        assert!((a.total_time_s - 3.0).abs() < 1e-12);
        assert_eq!(a.active_cycles, 300);
        assert!(a.completed);
        assert_eq!(a.counts.of(EventKind::Outage.index()), 2);
        let alu = a.classes.iter().find(|r| r.class == "alu").unwrap();
        assert_eq!(alu.instructions, 3);
        assert!(a.classes.iter().any(|r| r.class == "mul"));
    }
}
