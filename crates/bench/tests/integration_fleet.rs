//! End-to-end tests of `experiments fleet`: the CI smoke contract.
//!
//! Each test drives the real binary (`CARGO_BIN_EXE_experiments`) on
//! the checked-in smoke scenario with an isolated `WN_RESULTS_DIR`, and
//! asserts the acceptance properties: the report parses and matches its
//! checked-in golden (`golden/fleet_smoke.{json,csv}`), `--jobs` width
//! does not change a byte, and a mid-sweep stop + `--resume` reproduces
//! the uninterrupted report byte for byte.

use std::path::{Path, PathBuf};
use std::process::Command;

use wn_telemetry::json;

/// The top-level string field `key` of a JSON document (which must
/// parse).
fn str_field(doc: &str, key: &str) -> Option<String> {
    json::parse(doc)
        .expect("valid JSON")
        .get(key)?
        .as_str()
        .map(String::from)
}

fn scenario_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/fleet_smoke.toml")
        .canonicalize()
        .expect("smoke scenario exists")
}

fn temp_results(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wn-fleet-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `experiments fleet <smoke scenario> <extra args>` against a
/// results dir; panics with the captured output on failure.
fn run_fleet_cli(results: &Path, extra: &[&str]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.arg("fleet")
        .arg(scenario_path())
        .args(extra)
        .env("WN_RESULTS_DIR", results);
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "fleet CLI failed (args {extra:?}):\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

fn read(results: &Path, name: &str) -> String {
    std::fs::read_to_string(results.join(name))
        .unwrap_or_else(|e| panic!("missing artifact {name}: {e}"))
}

#[test]
fn smoke_run_emits_valid_report_and_manifest() {
    let results = temp_results("smoke");
    run_fleet_cli(&results, &["--jobs", "2", "--epoch", "1700000000"]);

    let report = read(&results, "fleet_smoke.json");
    assert_eq!(
        str_field(&report, "schema").as_deref(),
        Some("wn-fleet-report-v1")
    );
    assert_eq!(str_field(&report, "scenario").as_deref(), Some("smoke"));
    assert!(report.contains("\"devices\":320"));
    assert!(!report.contains("NaN") && !report.contains("inf"));

    let csv = read(&results, "fleet_smoke.csv");
    assert!(csv.starts_with("cohort,key,value\n"));
    assert!(csv.contains("_fleet,devices,320"));

    // The whole report, byte for byte: trace synthesis, the supply and
    // every executor feed these bytes.
    assert_eq!(
        report,
        include_str!("golden/fleet_smoke.json"),
        "fleet smoke report JSON drifted"
    );
    assert_eq!(
        csv,
        include_str!("golden/fleet_smoke.csv"),
        "fleet smoke report CSV drifted"
    );

    let manifest = read(&results, "manifest.json");
    assert_eq!(
        str_field(&manifest, "schema").as_deref(),
        Some("wn-run-manifest-v1")
    );
    assert!(manifest.contains("\"unix_time_s\":1700000000"));

    // `experiments report` reads the same manifest back.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("report")
        .env("WN_RESULTS_DIR", &results)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "report failed:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(stdout.contains("last run: experiments fleet"), "{stdout}");
    let artifacts = json::parse(&manifest).unwrap();
    let artifacts = artifacts
        .get("artifacts")
        .and_then(json::Value::as_arr)
        .unwrap();
    assert!(!artifacts.is_empty());
    for a in artifacts {
        let name = a.as_str().unwrap();
        assert!(
            stdout.contains(&format!("    {name}\n")),
            "{name} not listed:\n{stdout}"
        );
    }

    std::fs::remove_dir_all(&results).unwrap();
}

#[test]
fn jobs_width_does_not_change_report_bytes() {
    let one = temp_results("jobs1");
    let four = temp_results("jobs4");
    run_fleet_cli(&one, &["--jobs", "1"]);
    run_fleet_cli(&four, &["--jobs", "4"]);
    assert_eq!(
        read(&one, "fleet_smoke.json"),
        read(&four, "fleet_smoke.json"),
        "report JSON must be byte-identical at any --jobs width"
    );
    assert_eq!(
        read(&one, "fleet_smoke.csv"),
        read(&four, "fleet_smoke.csv")
    );
    std::fs::remove_dir_all(&one).unwrap();
    std::fs::remove_dir_all(&four).unwrap();
}

#[test]
fn stop_and_resume_reproduces_uninterrupted_report() {
    let whole = temp_results("whole");
    run_fleet_cli(&whole, &["--jobs", "2"]);

    let resumed = temp_results("resumed");
    // Simulated kill after the first of two shards: a checkpoint exists
    // but no report does.
    run_fleet_cli(&resumed, &["--jobs", "2", "--stop-after-shards", "1"]);
    assert!(
        resumed.join("fleet_smoke.ckpt.json").exists(),
        "pause must leave a checkpoint"
    );
    assert!(
        !resumed.join("fleet_smoke.json").exists(),
        "paused run must not emit a report"
    );
    run_fleet_cli(&resumed, &["--jobs", "2", "--resume"]);

    assert_eq!(
        read(&whole, "fleet_smoke.json"),
        read(&resumed, "fleet_smoke.json"),
        "resumed report must match the uninterrupted one byte for byte"
    );
    assert_eq!(
        read(&whole, "fleet_smoke.csv"),
        read(&resumed, "fleet_smoke.csv")
    );
    std::fs::remove_dir_all(&whole).unwrap();
    std::fs::remove_dir_all(&resumed).unwrap();
}

#[test]
fn shard_log_appends_one_line_per_shard() {
    let results = temp_results("shards");
    run_fleet_cli(&results, &["--jobs", "2", "--shard-jsonl"]);
    let log = read(&results, "fleet_smoke.shards.jsonl");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 3, "320 devices / 128 per shard = 3 lines");
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(
            str_field(line, "schema").as_deref(),
            Some("wn-fleet-shard-v1")
        );
        assert!(line.contains(&format!("\"shard\":{i}")));
        let expected = if i < 2 { 128 } else { 64 };
        assert!(line.contains(&format!("\"devices\":{expected}")));
    }
    std::fs::remove_dir_all(&results).unwrap();
}
