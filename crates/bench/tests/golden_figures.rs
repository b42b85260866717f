//! Golden-CSV regression pins for fig17 and table1 (companions to
//! `golden_fig10.rs`), plus the telemetry-transparency invariant:
//! tracing only *observes*, so a traced Fig. 10 grid must render the
//! same figure as an untraced one.
//!
//! The goldens are the quick-scale artifacts committed from the PR 2
//! engine.

use wn_core::experiments::{fig10, fig17, table1, ExperimentConfig};
use wn_core::intermittent::SubstrateKind;
use wn_telemetry::RunReport;

#[test]
fn fig17_table1_quick_csvs_match_golden_with_telemetry_on_and_off() {
    let config = ExperimentConfig::quick();

    assert_eq!(
        fig17::run(&config).unwrap().to_csv(),
        include_str!("golden/fig17_quick.csv"),
        "fig17 quick CSV drifted"
    );
    assert_eq!(
        table1::run(&config).unwrap().to_csv(),
        include_str!("golden/table1_quick.csv"),
        "table1 quick CSV drifted"
    );

    // Traced: the identical figure, plus one report per grid run.
    let (fig10_off, untraced) = fig10::run(&config, SubstrateKind::clank(), false).unwrap();
    let (fig10_on, traced) = fig10::run(&config, SubstrateKind::clank(), true).unwrap();
    assert_eq!(
        fig10_on.to_csv(),
        fig10_off.to_csv(),
        "telemetry must not change fig10"
    );
    assert!(untraced.is_empty(), "untraced runs report nothing");
    let runs = traced.len() as u64;
    let report = RunReport::aggregate(traced).expect("fig10 traces intermittent runs");
    assert_eq!(report.label, "aggregate");
    assert_eq!(report.runs, runs);
    assert!(report.runs > 0 && report.outages > 0);
}
