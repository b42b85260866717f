//! End-to-end test of `experiments --telemetry`: each traced run
//! returns its own report and the reports are folded in grid order, so
//! the aggregate `run_report` is byte-identical at any `--jobs` width.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_results(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wn-telemetry-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `experiments fig10 --telemetry --jobs <jobs>` into `results`;
/// panics with the captured output on failure.
fn run_traced_fig10(results: &Path, jobs: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig10", "--telemetry", "--jobs", jobs])
        .env("WN_RESULTS_DIR", results)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "experiments fig10 --telemetry --jobs {jobs} failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn traced_run_report_is_byte_identical_across_jobs_widths() {
    let one = temp_results("jobs1");
    let two = temp_results("jobs2");
    run_traced_fig10(&one, "1");
    run_traced_fig10(&two, "2");
    for name in ["run_report.json", "run_report.csv"] {
        let read = |dir: &Path| {
            std::fs::read_to_string(dir.join(name))
                .unwrap_or_else(|e| panic!("missing artifact {name}: {e}"))
        };
        assert_eq!(
            read(&one),
            read(&two),
            "{name} differs between --jobs 1 and 2"
        );
    }
    let _ = std::fs::remove_dir_all(&one);
    let _ = std::fs::remove_dir_all(&two);
}
