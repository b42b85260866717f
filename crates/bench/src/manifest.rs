//! Provenance for experiment runs: the run manifest written next to the
//! artifacts, and the `BENCH_*.json` perf-trajectory records.
//!
//! Both are JSON documents built with [`wn_telemetry::json`]'s builder
//! and read back with its one total reader, [`json::parse`].

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use wn_telemetry::json::{self, Obj};

/// Schema tag stamped into every manifest.
pub const MANIFEST_SCHEMA: &str = "wn-run-manifest-v1";

/// Schema tag stamped into every `BENCH_*.json` record.
pub const BENCH_SCHEMA: &str = "wn-bench-record-v1";

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
    /// epoch, or the pinned epoch from [`resolve_epoch`]).
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
    /// Whether the run was traced (`--telemetry`).
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
/// timing run, written to the results directory with the provenance
/// needed to compare it. The `BENCH_*.json` files at the workspace root
/// are checked-in baselines that no command rewrites; CI compares a
/// fresh record against them.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record name; the file is written as `BENCH_<name>.json`.
    pub name: String,
    /// `(metric, value, unit)` rows.
    pub metrics: Vec<(String, f64, String)>,
    /// The command line as invoked.
    pub command: String,
    /// Worker threads the timed work ran on.
    pub jobs: u64,
    /// The pinned timestamp from [`resolve_epoch`]; `None` stamps the
    /// time the record is serialized.
    pub epoch: Option<f64>,
}

impl BenchRecord {
    /// A new record with no metrics.
    pub fn new(name: &str, command: &str, jobs: u64, epoch: Option<f64>) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            metrics: Vec::new(),
            command: command.to_string(),
            jobs,
            epoch,
        }
    }

    /// Appends one metric row.
    pub fn push(&mut self, metric: &str, value: f64, unit: &str) {
        self.metrics
            .push((metric.to_string(), value, unit.to_string()));
    }

    /// Serializes the record: metric values at the top level (so naive
    /// extraction by metric name works), then a `provenance` object (git
    /// revision of the checkout, core count, `jobs`, build profile and
    /// command), then units in a parallel object.
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .str("schema", BENCH_SCHEMA)
            .str("name", &self.name)
            .f64("unix_time_s", unix_time_s(self.epoch));
        for (metric, value, _) in &self.metrics {
            obj = obj.f64(metric, *value);
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let provenance = Obj::new()
            .str("git_revision", &git_revision())
            .u64("cores", cores as u64)
            .u64("jobs", self.jobs)
            .str("profile", profile)
            .str("command", &self.command);
        let mut units = Obj::new();
        for (metric, _, unit) in &self.metrics {
            units = units.str(metric, unit);
        }
        obj.raw("provenance", provenance.finish())
            .raw("units", units.finish())
            .finish()
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
}

/// `git rev-parse HEAD` of the checkout this crate was built from, or
/// `"unknown"` when git or the checkout is unavailable.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(crate::workspace_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves the timestamp pin of one invocation, so two otherwise
/// identical runs write byte-identical provenance documents: the
/// `--epoch` flag value when given, else the `WN_EPOCH` environment
/// value, else `None`.
///
/// # Errors
///
/// The chosen value is not a finite number of seconds.
pub fn resolve_epoch(flag: Option<&str>, env: Option<&str>) -> Result<Option<f64>, String> {
    let Some((source, v)) = flag
        .map(|v| ("--epoch", v))
        .or(env.map(|v| ("WN_EPOCH", v)))
    else {
        return Ok(None);
    };
    match v.parse::<f64>() {
        Ok(epoch) if epoch.is_finite() => Ok(Some(epoch)),
        _ => Err(format!(
            "{source} needs a finite number of seconds, got `{v}`"
        )),
    }
}

/// The pinned epoch, or seconds since the Unix epoch now (0.0 if the
/// clock is before it).
pub fn unix_time_s(epoch: Option<f64>) -> f64 {
    epoch.unwrap_or_else(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
    })
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
        // The flag beats the environment; the environment alone pins.
        assert_eq!(
            resolve_epoch(Some("1700000000"), Some("5")),
            Ok(Some(1.7e9))
        );
        assert_eq!(
            resolve_epoch(Some("1700000000"), Some("x")),
            Ok(Some(1.7e9))
        );
        assert_eq!(resolve_epoch(None, Some("5")), Ok(Some(5.0)));
        assert_eq!(resolve_epoch(None, None), Ok(None));
        // A pin that is not a finite number is rejected, not ignored.
        for bad in ["NaN", "inf", "-inf", "1e999", "x", ""] {
            assert!(resolve_epoch(Some(bad), Some("5")).is_err(), "{bad}");
            assert!(resolve_epoch(None, Some(bad)).is_err(), "{bad}");
        }
        let epoch = Some(1.7e9);
        assert_eq!(unix_time_s(epoch), 1.7e9);
        let m = RunManifest {
            unix_time_s: unix_time_s(epoch),
            ..manifest()
        };
        assert!(m.to_json().contains("\"unix_time_s\":1700000000,"));
        let record = || {
            let mut r = BenchRecord::new("executor", "experiments bench", 1, epoch);
            r.push("x", 1.0, "ms");
            r.to_json()
        };
        assert_eq!(record(), record());
        assert!(record().contains("\"unix_time_s\":1700000000,"));
    }

    #[test]
    fn bench_record_exposes_metrics_at_top_level() {
        let mut r = BenchRecord::new("executor", "experiments bench", 1, None);
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

    /// Every key a CI gate compares, with the direction it compares in.
    const CI_KEYS: [(&str, &str); 7] = [
        ("untraced_min_ms", "lower"),
        ("batched_devices_per_s", "higher"),
        ("task_devices_per_s", "higher"),
        ("supply_memo_hits", "higher"),
        ("supply_charge_ff_steps", "higher"),
        ("supply_discharge_ext_events", "higher"),
        ("predict_ms", "lower"),
    ];

    #[test]
    fn bench_record_carries_provenance_and_stays_comparable() {
        let mut r = BenchRecord::new("gate", "experiments predict s.toml --jobs 2", 2, None);
        for (key, _) in CI_KEYS {
            r.push(key, 12.5, "u");
        }
        let doc = r.to_json();
        let provenance = json::parse(&doc)
            .unwrap()
            .get("provenance")
            .cloned()
            .unwrap();
        for key in ["git_revision", "cores", "jobs", "profile", "command"] {
            assert!(provenance.get(key).is_some(), "provenance lacks {key}");
        }
        assert_eq!(
            provenance.get("jobs").and_then(json::Value::as_u64),
            Some(2)
        );
        assert_eq!(
            provenance.get("command").and_then(json::Value::as_str),
            Some("experiments predict s.toml --jobs 2")
        );
        let profile = provenance.get("profile").and_then(json::Value::as_str);
        assert!(matches!(profile, Some("debug" | "release")));

        // The gate script still reads every compared key from such a
        // record (exit 2 would mean a key it cannot find).
        let dir = std::env::temp_dir().join(format!("wn-bench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_gate.json");
        std::fs::write(&path, &doc).unwrap();
        let script = crate::workspace_root().join("scripts/bench_compare.sh");
        for (key, direction) in CI_KEYS {
            let out = Command::new("sh")
                .arg(&script)
                .args([&path, &path])
                .args(["25", key, direction])
                .env("WN_BENCH_STRICT", "1")
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{key}: {stdout}");
            assert!(
                stdout.starts_with(&format!("{key}: baseline 12.500, candidate 12.500")),
                "{key}: {stdout}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
