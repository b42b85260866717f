//! Provenance for experiment runs: the run manifest written next to the
//! artifacts, and the `BENCH_*.json` perf-trajectory records.
//!
//! Both are JSON documents built with [`wn_telemetry::json`]'s builder
//! and read back with its one total reader, [`json::parse`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use wn_telemetry::json::{self, Obj};

/// Schema tag stamped into every manifest.
pub const MANIFEST_SCHEMA: &str = "wn-run-manifest-v1";

/// Schema tag stamped into every `BENCH_*.json` record.
pub const BENCH_SCHEMA: &str = "wn-bench-record-v1";

/// File name the append-only bench history lives under (in the results
/// directory). One JSON line per `experiments bench` run, never
/// truncated, so the perf trajectory survives `BENCH_*.json` overwrites.
pub const HISTORY_FILE: &str = "bench_history.jsonl";

/// File name the manifest is written under (in the results directory).
pub const MANIFEST_FILE: &str = "manifest.json";

/// What one `experiments` invocation did: the command line, the
/// effective configuration, wall-clock, and every artifact written.
/// Serialized to `results/manifest.json` after each run and consumed by
/// the `experiments report` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The command line as invoked (program name elided).
    pub command: String,
    /// When the run finished ([`unix_time_s`]: seconds since the Unix
    /// epoch, or the pinned `--epoch`).
    pub unix_time_s: f64,
    /// Benchmark scale (`quick` / `paper`).
    pub scale: String,
    /// Voltage traces per configuration.
    pub traces: u64,
    /// Invocations per trace.
    pub invocations: u64,
    /// Master seed for inputs and traces.
    pub seed: u64,
    /// Worker threads the job pool fanned out on.
    pub jobs: u64,
    /// Whether the global telemetry collector was enabled.
    pub telemetry: bool,
    /// Host wall-clock of the whole invocation, in seconds.
    pub wall_s: f64,
    /// Artifact file names written, in order.
    pub artifacts: Vec<String>,
}

impl RunManifest {
    /// Serializes the manifest as one flat JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("schema", MANIFEST_SCHEMA)
            .str("command", &self.command)
            .f64("unix_time_s", self.unix_time_s)
            .str("scale", &self.scale)
            .u64("traces", self.traces)
            .u64("invocations", self.invocations)
            .u64("seed", self.seed)
            .u64("jobs", self.jobs)
            .bool("telemetry", self.telemetry)
            .f64("wall_s", self.wall_s)
            .raw(
                "artifacts",
                json::array(
                    self.artifacts
                        .iter()
                        .map(|a| format!("\"{}\"", json::escape(a))),
                ),
            )
            .finish()
    }

    /// Reads a manifest back from its JSON rendering. `None` when the
    /// document is not JSON, not a manifest (wrong/missing schema), or a
    /// required field is absent or mistyped.
    pub fn from_json(doc: &str) -> Option<RunManifest> {
        let m = json::parse(doc).ok()?;
        let str_field = |key: &str| m.get(key)?.as_str().map(String::from);
        let u64_field = |key: &str| m.get(key)?.as_u64();
        if m.get("schema")?.as_str()? != MANIFEST_SCHEMA {
            return None;
        }
        let artifacts = m
            .get("artifacts")?
            .as_arr()?
            .iter()
            .map(|a| a.as_str().map(String::from))
            .collect::<Option<_>>()?;
        Some(RunManifest {
            command: str_field("command")?,
            unix_time_s: m.get("unix_time_s")?.as_f64()?,
            scale: str_field("scale")?,
            traces: u64_field("traces")?,
            invocations: u64_field("invocations")?,
            seed: u64_field("seed")?,
            jobs: u64_field("jobs")?,
            telemetry: m.get("telemetry")?.as_bool()?,
            wall_s: m.get("wall_s")?.as_f64()?,
            artifacts,
        })
    }
}

/// One `BENCH_*.json` record: a named set of scalar metrics from a
/// timing run, written to the results directory next to
/// `bench_history.jsonl`. The `BENCH_*.json` files at the workspace
/// root are checked-in baselines that no command rewrites; CI compares
/// a fresh record against them.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record name; the file is written as `BENCH_<name>.json`.
    pub name: String,
    /// `(metric, value, unit)` rows.
    pub metrics: Vec<(String, f64, String)>,
}

impl BenchRecord {
    /// A new, empty record.
    pub fn new(name: &str) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Appends one metric row.
    pub fn push(&mut self, metric: &str, value: f64, unit: &str) {
        self.metrics
            .push((metric.to_string(), value, unit.to_string()));
    }

    /// Serializes the record: metric values at the top level (so naive
    /// extraction by metric name works), units in a parallel object.
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .str("schema", BENCH_SCHEMA)
            .str("name", &self.name)
            .f64("unix_time_s", unix_time_s());
        for (metric, value, _) in &self.metrics {
            obj = obj.f64(metric, *value);
        }
        let mut units = Obj::new();
        for (metric, _, unit) in &self.metrics {
            units = units.str(metric, unit);
        }
        obj.raw("units", units.finish()).finish()
    }

    /// Writes the record as `BENCH_<name>.json` in the results
    /// directory (`$WN_RESULTS_DIR` or `results/`, created on demand)
    /// and returns the path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the
    /// file.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        crate::write_artifact(&format!("BENCH_{}.json", self.name), &self.to_json())
    }

    /// Appends the record as one line to `bench_history.jsonl` in the
    /// given directory (created on demand) and returns the path.
    /// `BENCH_<name>.json` is overwritten per run; the history file is
    /// append-only, so successive runs on one checkout accumulate.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or appending.
    pub fn append_history_at(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        use std::io::Write;
        std::fs::create_dir_all(dir)?;
        let path = dir.join(HISTORY_FILE);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(file, "{}", self.to_json())?;
        Ok(path)
    }

    /// Appends to the history file in the results directory
    /// (`$WN_RESULTS_DIR` or `results/`).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or appending.
    pub fn append_history(&self) -> std::io::Result<std::path::PathBuf> {
        self.append_history_at(&crate::results_dir())
    }
}

/// Process-wide timestamp override, stored as `f64` bits; `u64::MAX`
/// (a NaN pattern no caller can set) means "not set".
static EPOCH_OVERRIDE: AtomicU64 = AtomicU64::new(u64::MAX);

/// Pins the timestamp stamped into manifests and bench records, so two
/// otherwise-identical runs produce byte-identical provenance documents
/// (the `--epoch` flag). Non-finite values are ignored.
pub fn set_epoch_override(epoch_s: f64) {
    if epoch_s.is_finite() {
        EPOCH_OVERRIDE.store(epoch_s.to_bits(), Ordering::Relaxed);
    }
}

/// Seconds since the Unix epoch (0.0 if the clock is before it) — or
/// the injected value, when [`set_epoch_override`] was called or
/// `WN_EPOCH` is set (flag wins over environment).
pub fn unix_time_s() -> f64 {
    let bits = EPOCH_OVERRIDE.load(Ordering::Relaxed);
    if bits != u64::MAX {
        return f64::from_bits(bits);
    }
    if let Some(v) = std::env::var("WN_EPOCH")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite())
    {
        return v;
    }
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        RunManifest {
            command: "all --jobs 4".to_string(),
            unix_time_s: 1_699_999_999.5,
            scale: "quick".to_string(),
            traces: 3,
            invocations: 1,
            seed: 42,
            jobs: 4,
            telemetry: true,
            wall_s: 12.5,
            artifacts: vec!["fig10.csv".to_string(), "table1.csv".to_string()],
        }
    }

    #[test]
    fn manifest_json_round_trips() {
        let m = manifest();
        let doc = m.to_json();
        assert!(doc.contains("\"schema\":\"wn-run-manifest-v1\""));
        assert_eq!(RunManifest::from_json(&doc), Some(m));
    }

    #[test]
    fn manifest_rejects_foreign_documents() {
        assert_eq!(RunManifest::from_json("{}"), None);
        assert_eq!(
            RunManifest::from_json("{\"schema\":\"wn-run-report-v1\"}"),
            None
        );
    }

    #[test]
    fn empty_artifact_list_round_trips() {
        let m = RunManifest {
            artifacts: vec![],
            ..manifest()
        };
        assert_eq!(RunManifest::from_json(&m.to_json()), Some(m));
    }

    /// Every truncation prefix and every single-bit flip of a manifest
    /// is refused or reads back as a manifest that re-serializes to
    /// exactly the damaged bytes — never a panic, never a guess.
    #[test]
    fn damaged_manifests_are_refused_or_exact() {
        let doc = manifest().to_json();
        let bytes = doc.as_bytes();
        let prefixes = (0..bytes.len()).map(|n| bytes[..n].to_vec());
        let flips = (0..bytes.len() * 8).map(|bit| {
            let mut b = bytes.to_vec();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        });
        // Damage that breaks UTF-8 fails the file read, before parsing.
        for text in prefixes
            .chain(flips)
            .filter_map(|b| String::from_utf8(b).ok())
        {
            if let Some(m) = RunManifest::from_json(&text) {
                assert_eq!(m.to_json(), text);
            }
        }
        for text in ["[".repeat(1 << 20), "{\"a\":".repeat(1 << 20)] {
            assert_eq!(RunManifest::from_json(&text), None);
        }
    }

    #[test]
    fn epoch_override_makes_documents_byte_identical() {
        // Process-wide and sticky, but no other test in this binary
        // asserts on `unix_time_s`, so pinning it here is safe.
        set_epoch_override(1_700_000_000.0);
        let m = RunManifest {
            unix_time_s: unix_time_s(),
            ..manifest()
        };
        assert_eq!(m.to_json(), m.to_json());
        assert!(m.to_json().contains("\"unix_time_s\":1700000000,"));
        let mut r = BenchRecord::new("executor");
        r.push("x", 1.0, "ms");
        assert_eq!(r.to_json(), r.to_json());
        // Non-finite injections are ignored, not stored.
        set_epoch_override(f64::NAN);
        assert_eq!(unix_time_s(), 1_700_000_000.0);
    }

    #[test]
    fn bench_record_exposes_metrics_at_top_level() {
        let mut r = BenchRecord::new("executor");
        r.push("epoch_min_ms", 2.065, "ms");
        r.push("epoch_minstr_per_s", 93.4, "M instr/s");
        let doc = r.to_json();
        assert!(doc.contains("\"schema\":\"wn-bench-record-v1\""));
        assert_eq!(
            json::parse(&doc).unwrap().get("epoch_min_ms"),
            Some(&json::Value::Num(2.065))
        );
        assert!(doc.contains("\"epoch_min_ms\":\"ms\""));
    }

    #[test]
    fn bench_history_appends_one_line_per_run() {
        let dir = std::env::temp_dir().join(format!("wn-bench-history-{}", std::process::id()));
        let mut r = BenchRecord::new("executor");
        r.push("untraced_min_ms", 1.5, "ms");
        let path = r.append_history_at(&dir).unwrap();
        r.append_history_at(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "append-only: one line per run");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            let record = json::parse(line).unwrap();
            assert_eq!(
                record.get("schema").and_then(json::Value::as_str),
                Some(BENCH_SCHEMA)
            );
            assert_eq!(
                record.get("untraced_min_ms").and_then(json::Value::as_f64),
                Some(1.5)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
