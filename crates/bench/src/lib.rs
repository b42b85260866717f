//! # wn-bench — the experiment harness
//!
//! The **`experiments` binary** (`cargo run --release -p wn-bench --bin
//! experiments -- all`) regenerates every table and figure of the
//! paper's evaluation, printing the same rows/series the paper reports
//! and writing CSVs under `results/`. It is also the in-tree benchmark
//! harness: `bench` times the executor, `bench-fleet` the fleet runner
//! and `predict` the analytic predictor, each into a `BENCH_*.json`
//! record that CI compares with the checked-in baselines.
//!
//! The [`manifest`] module carries run provenance: the
//! `results/manifest.json` written after every `experiments` invocation
//! and the `BENCH_*.json` records.

use std::env;
use std::ffi::OsString;
use std::fs;
use std::path::{Path, PathBuf};

pub mod manifest;

/// Where experiment artifacts (CSV series, PGM images, bench records)
/// are written: `$WN_RESULTS_DIR` when set, otherwise `results/` under
/// the workspace root — **not** the current directory, which depends on
/// how cargo was invoked and used to scatter artifacts.
pub fn results_dir() -> PathBuf {
    results_dir_from(env::var_os("WN_RESULTS_DIR"))
}

/// [`results_dir`] for a given `WN_RESULTS_DIR` value: the override
/// when present, otherwise `results/` under the workspace root.
fn results_dir_from(override_dir: Option<OsString>) -> PathBuf {
    override_dir.map_or_else(|| workspace_root().join("results"), PathBuf::from)
}

/// The workspace root: the nearest ancestor of this crate's manifest
/// whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> PathBuf {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.contains("[workspace]"))
        })
        .unwrap_or(manifest_dir)
        .to_path_buf()
}

/// Writes an artifact into the results directory, creating it on demand.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    write_artifact_in(&results_dir(), name, contents)
}

/// [`write_artifact`] into an explicit directory.
fn write_artifact_in(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Reads back an artifact from the results directory.
///
/// # Errors
///
/// Returns any I/O error.
pub fn read_artifact(name: &str) -> std::io::Result<String> {
    fs::read_to_string(results_dir().join(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_workspace_rooted_and_overridable() {
        // Without the override, artifacts land under the workspace root
        // (which contains this crate), wherever cargo was invoked from.
        let default_dir = results_dir_from(None);
        assert!(default_dir.ends_with("results"));
        assert!(default_dir
            .parent()
            .unwrap()
            .join("crates")
            .join("bench")
            .is_dir());
        // The override is taken verbatim.
        let custom = env::temp_dir().join("wn-results-override");
        assert_eq!(results_dir_from(Some(custom.clone().into())), custom);
    }

    #[test]
    fn artifact_roundtrip_in_isolated_dir() {
        // An explicit directory keeps the test off the real results/
        // tree without touching the process environment.
        let dir = env::temp_dir().join(format!("wn-bench-test-{}", std::process::id()));
        let path = write_artifact_in(&dir, "__test.csv", "a,b\n1,2\n").unwrap();
        assert!(path.starts_with(&dir));
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        fs::remove_dir_all(&dir).unwrap();
    }
}
