//! Regression pin: the epoch-scheduler refactor must not move a single
//! byte of experiment output. The golden file is the quick-scale
//! `fig10.csv` produced by the pre-refactor per-instruction engine
//! (commit 65c7b7f); `run_fig10` under the lease engine must reproduce
//! it exactly — same speedups, same error percentages, same skim rates,
//! same formatting.
//!
//! The NVP companion, `fig11_quick.csv`, is the quick-scale `fig11.csv`
//! of the last engine that settled every fused block with the float
//! kernel (commit cc9d000): exact block settles on the ulp lattice must
//! reproduce it. The quick supply's small capacitor crosses energy
//! binades every power cycle, so it exercises the lattice's binade
//! bounds on the second substrate.

use wn_core::experiments::{fig10, ExperimentConfig};

#[test]
fn fig10_quick_csv_is_byte_identical_to_pre_refactor() {
    let golden = include_str!("golden/fig10_quick.csv");
    let fig = fig10::run_fig10(&ExperimentConfig::quick()).unwrap();
    assert_eq!(
        fig.to_csv(),
        golden,
        "fig10 quick CSV drifted from the pre-refactor engine's output"
    );
}

#[test]
fn fig11_quick_csv_is_byte_identical_to_the_float_kernel() {
    let golden = include_str!("golden/fig11_quick.csv");
    let fig = fig10::run_fig11(&ExperimentConfig::quick()).unwrap();
    assert_eq!(
        fig.to_csv(),
        golden,
        "fig11 quick CSV drifted from the float-kernel engine's output"
    );
}
