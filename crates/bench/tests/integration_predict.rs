//! End-to-end tests of `experiments predict`: the analyze-report
//! contract. Drives the real binary (`CARGO_BIN_EXE_experiments`) with
//! isolated `WN_RESULTS_DIR`s and asserts the acceptance properties:
//! the `wn-analyze-report-v1` document is shaped like the fleet
//! report, `--validate` agrees with the real fleet on the checked-in
//! smoke scenario, and a bad scenario fails byte-identically under
//! `fleet`, `fleet --check`, and `predict`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
    let dir = std::env::temp_dir().join(format!("wn-predict-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_cli(results: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("WN_RESULTS_DIR", results)
        .output()
        .expect("binary runs")
}

fn read(results: &Path, name: &str) -> String {
    std::fs::read_to_string(results.join(name))
        .unwrap_or_else(|e| panic!("missing artifact {name}: {e}"))
}

/// One pass over the happy path: the predict report is shaped like the
/// fleet report, and `--validate` passes the agreement gate against the
/// real fleet on the smoke scenario.
#[test]
fn predict_report_shape_and_validate_agreement() {
    // ---- plain predict: report shape --------------------------------
    let results = temp_results("shape");
    let scenario = scenario_path();
    let out = run_cli(
        &results,
        &[
            "predict",
            scenario.to_str().unwrap(),
            "--jobs",
            "2",
            "--epoch",
            "1700000000",
        ],
    );
    assert!(
        out.status.success(),
        "predict failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );

    let report = read(&results, "predict_smoke.json");
    assert_eq!(
        str_field(&report, "schema").as_deref(),
        Some("wn-analyze-report-v1")
    );
    assert_eq!(str_field(&report, "scenario").as_deref(), Some("smoke"));
    // Same aggregate grammar as the fleet report, plus the model block.
    for key in [
        "\"fleet\":{",
        "\"results\":{",
        "\"devices\":320",
        "\"completion_rate\":",
        "\"time_s\":",
        "\"error_percent\":",
        "\"outages\":",
        "\"checkpoints\":",
        "\"commits\":",
        "\"time_hist\":",
        "\"model\":{",
        "\"via_skim\":",
    ] {
        assert!(report.contains(key), "missing {key} in {report}");
    }
    assert!(!report.contains("NaN") && !report.contains("inf"));

    let csv = read(&results, "predict_smoke.csv");
    assert!(csv.starts_with("cohort,key,value\n"));
    assert!(csv.contains("_fleet,devices,320"));
    for line in csv.lines().skip(1) {
        assert_eq!(line.matches(',').count(), 2, "bad row: {line}");
    }

    let manifest = read(&results, "manifest.json");
    assert_eq!(
        str_field(&manifest, "schema").as_deref(),
        Some("wn-run-manifest-v1")
    );

    // ---- predict --validate: the agreement gate ---------------------
    let results = temp_results("validate");
    let out = run_cli(
        &results,
        &[
            "predict",
            scenario.to_str().unwrap(),
            "--validate",
            "--jobs",
            "2",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "validate failed:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        stdout.contains("0 disagreements"),
        "validation must agree on the smoke scenario:\n{stdout}"
    );

    // The bench record lands in the results directory, never over the
    // checked-in baseline, with the latency and speedup keys the CI
    // gate compares.
    let bench = read(&results, "BENCH_analyze.json");
    assert_eq!(
        str_field(&bench, "schema").as_deref(),
        Some("wn-bench-record-v1")
    );
    for key in ["\"predict_ms\":", "\"fleet_ms\":", "\"speedup\":"] {
        assert!(bench.contains(key), "missing {key} in {bench}");
    }
}

/// Satellite regression: a scenario the parser rejects must fail with
/// the *identical* error text — same bytes on stderr, same exit status
/// — whichever of the three front doors it walks through.
#[test]
fn bad_scenario_fails_identically_under_fleet_check_and_predict() {
    let dir = temp_results("bad");
    let bad = dir.join("bad.toml");
    std::fs::write(
        &bad,
        "[fleet]\n[[cohort]]\nbenchmark = \"home\"\nsubstrate = \"alpaca\"\n",
    )
    .unwrap();

    let mut seen = Vec::new();
    for args in [
        vec!["fleet", bad.to_str().unwrap()],
        vec!["fleet", bad.to_str().unwrap(), "--check"],
        vec!["predict", bad.to_str().unwrap()],
    ] {
        let out = run_cli(&dir, &args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            stderr.contains("`alpaca`") && stderr.contains("clank, nvp, task"),
            "{args:?} stderr must name the bad substrate and the valid set:\n{stderr}"
        );
        seen.push(stderr);
    }
    assert_eq!(seen[0], seen[1], "fleet vs fleet --check stderr differ");
    assert_eq!(seen[1], seen[2], "fleet --check vs predict stderr differ");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `fleet --check` parses, prepares, and fingerprints without running:
/// it must succeed on the smoke scenario, print the provenance line,
/// and write no report artifacts.
#[test]
fn fleet_check_dry_runs_without_artifacts() {
    let results = temp_results("check");
    let scenario = scenario_path();
    let out = run_cli(
        &results,
        &[
            "fleet",
            scenario.to_str().unwrap(),
            "--check",
            "--jobs",
            "2",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "--check failed:\n{stdout}");
    assert!(stdout.contains("ok: scenario `smoke`"), "{stdout}");
    assert!(stdout.contains("320 devices in 4 cohorts"), "{stdout}");
    assert!(
        !results.join("fleet_smoke.json").exists(),
        "--check must not write a report"
    );
    std::fs::remove_dir_all(&results).unwrap();
}
