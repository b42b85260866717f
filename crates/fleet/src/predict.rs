//! The analytic predict path (`wn-analyze-report-v1`).
//!
//! [`predict_fleet`] answers the same question [`run_fleet`] answers by
//! simulation — per-cohort completion-time distributions, fates, and
//! substrate counter movements — but through wn-analyze's closed-form
//! model, at a cost of two fault-free runs per cohort instead of one
//! intermittent run per device. The report it renders is shaped like
//! the fleet's (`wn-fleet-report-v1`): same provenance header, same
//! cohort identity fields, same aggregate keys, so downstream tooling
//! reads either document with one parser. Cohorts the model cannot
//! handle appear with an `unsupported` reason — reported, never
//! silently skipped.
//!
//! [`validate`] cross-checks a predict report against a fleet report
//! for the same scenario under the documented tolerance bands (see
//! DESIGN.md §13 for why each band is where it is), and
//! [`check_scenario`] is the shared parse-and-prepare dry run both
//! `experiments fleet --check` and `experiments predict` start from.
//!
//! [`run_fleet`]: crate::runner::run_fleet

use wn_analyze::{CohortPrediction, CohortQuery, Prediction};
use wn_core::error::WnError;
use wn_core::intermittent::SubstrateKind;
use wn_core::prepared::PreparedRun;
use wn_telemetry::json::{self, Obj};

use crate::report::{self, FleetReport};
use crate::runner::{CohortAggregate, DeviceFate, DeviceOutcome};
use crate::scenario::FleetScenario;

pub const PREDICT_SCHEMA: &str = "wn-analyze-report-v1";

// ---------------------------------------------------------------------
// Validation tolerance bands.
//
// The sanity suite (crates/analyze/tests/predict_sanity.rs) measures
// 2–19 % mean-time disagreement across the substrate × environment
// matrix at 24-device ensembles; the bands below give roughly 2×
// headroom over the worst measured case so the gate catches model
// regressions, not ensemble noise.
// ---------------------------------------------------------------------

/// Predicted mean completion time must sit within this relative band
/// of the fleet's measured mean.
pub const MEAN_TIME_RTOL: f64 = 0.35;

/// Quantile agreement is stated in [`crate::agg::FixedSketch`] bucket
/// widths: predicted and measured quantiles must lie within this many
/// log-spaced buckets (each `10^(1/20) ≈ 1.12×`) of each other.
pub const QUANTILE_BANDS: f64 = 4.0;

/// Substrate counter means (outages, checkpoints, commits) must agree
/// within this relative band...
pub const COUNT_RTOL: f64 = 0.5;

/// ...or this absolute slack, whichever is larger (fault-free cohorts
/// have near-zero outage counts where a relative band is meaningless).
pub const COUNT_ATOL: f64 = 2.0;

/// Completion *rates* (fractions in `[0, 1]`) must agree within this
/// absolute band.
pub const COMPLETION_RATE_ATOL: f64 = 0.15;

/// What [`check_scenario`] learned without running anything: the
/// provenance a `--check` invocation prints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSummary {
    pub name: String,
    pub fingerprint: u64,
    pub total_devices: u64,
    pub cohorts: usize,
    pub shard_count: usize,
}

/// Parses nothing further — the scenario is already parsed — but walks
/// every cohort through kernel preparation (compile + input injection),
/// exactly the work a fleet run or a prediction would do first. A
/// scenario that passes here fails later only for environmental
/// reasons (disk, interrupts), not semantic ones.
///
/// # Errors
///
/// The first cohort whose kernel cannot be prepared.
pub fn check_scenario(scenario: &FleetScenario) -> Result<CheckSummary, WnError> {
    for (cohort, _) in scenario.cohorts.iter().enumerate() {
        prepare_cohort(scenario, cohort)?;
    }
    Ok(CheckSummary {
        name: scenario.name.clone(),
        fingerprint: scenario.fingerprint(),
        total_devices: scenario.total_devices(),
        cohorts: scenario.cohorts.len(),
        shard_count: scenario.shard_count(),
    })
}

/// One cohort's kernel, prepared the way the scalar fleet path prepares
/// it (task-decomposed iff the cohort runs the task substrate), so
/// predictions profile the exact artifact the fleet executes.
fn prepare_cohort(
    scenario: &FleetScenario,
    cohort: usize,
) -> Result<std::sync::Arc<PreparedRun>, WnError> {
    let spec = &scenario.cohorts[cohort];
    PreparedRun::cached_with_tasks(
        spec.benchmark,
        scenario.scale,
        scenario.cohort_input_seed(cohort),
        spec.technique,
        matches!(spec.substrate.kind(), SubstrateKind::Task(_)),
    )
}

/// One cohort's forecast: an aggregate shaped like the fleet's, or an
/// honest refusal.
#[derive(Debug, Clone, PartialEq)]
pub enum CohortForecast {
    /// wn-analyze declined this cohort; the reason is reported.
    Unsupported { reason: String },
    Predicted {
        /// The prediction folded into the same aggregate type the
        /// fleet runner folds outcomes into — quantile sketch,
        /// histogram and all — so the two reports render identically.
        aggregate: Box<CohortAggregate>,
        /// The analytic scalars behind the aggregate.
        model: Box<Prediction>,
    },
}

/// The analytic counterpart of [`FleetReport`]: same provenance, one
/// [`CohortForecast`] per cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictReport {
    pub scenario: String,
    pub seed: u64,
    pub fingerprint: u64,
    pub specs: Vec<crate::scenario::CohortSpec>,
    pub cohorts: Vec<CohortForecast>,
}

/// Predicts every cohort of a scenario. Runs [`check_scenario`] first,
/// so a scenario rejected by `fleet --check` is rejected here with the
/// same error.
///
/// # Errors
///
/// Kernel preparation or profiling failures; an *unsupported* cohort
/// is not an error.
pub fn predict_fleet(scenario: &FleetScenario) -> Result<PredictReport, WnError> {
    check_scenario(scenario)?;
    let mut cohorts = Vec::with_capacity(scenario.cohorts.len());
    for (i, spec) in scenario.cohorts.iter().enumerate() {
        let prepared = prepare_cohort(scenario, i)?;
        let q = CohortQuery {
            prepared: &prepared,
            substrate: spec.substrate.kind(),
            supply: spec.supply(),
            env: spec.env,
            devices: spec.count,
            wall_limit_s: scenario.wall_limit_s,
        };
        cohorts.push(match wn_analyze::predict(&q)? {
            CohortPrediction::Unsupported { reason } => CohortForecast::Unsupported { reason },
            CohortPrediction::Predicted(model) => CohortForecast::Predicted {
                aggregate: Box::new(aggregate_of(i, &model)),
                model,
            },
        });
    }
    Ok(PredictReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        fingerprint: scenario.fingerprint(),
        specs: scenario.cohorts.clone(),
        cohorts,
    })
}

/// Folds a prediction into the fleet's aggregate type by synthesizing
/// one [`DeviceOutcome`] per predicted device — completion times from
/// the quantile grid, counters from the model's expectations — through
/// the *same* `record` path the runner uses, so sketch buckets and
/// histogram boundaries match the fleet's by construction.
fn aggregate_of(cohort: usize, p: &Prediction) -> CohortAggregate {
    let mut agg = CohortAggregate::new();
    let mut device = 0u64;
    for &time_s in &p.times_s {
        agg.record(&DeviceOutcome {
            device,
            cohort,
            fate: DeviceFate::Completed,
            skimmed: p.skimmed > 0,
            time_s,
            on_time_s: p.on_time_s,
            error_percent: p.error_percent,
            outages: p.outages.round() as u64,
            checkpoints: p.checkpoints.round() as u64,
            commits: p.commits.round() as u64,
            forward_progress: p.forward_progress,
        });
        device += 1;
    }
    for (fate, n) in [
        (DeviceFate::Starved, p.starved),
        (DeviceFate::TimedOut, p.timed_out),
    ] {
        for _ in 0..n {
            agg.record(&DeviceOutcome {
                device,
                cohort,
                fate,
                skimmed: false,
                time_s: 0.0,
                on_time_s: 0.0,
                error_percent: 0.0,
                outages: 0,
                checkpoints: 0,
                commits: 0,
                forward_progress: 0.0,
            });
            device += 1;
        }
    }
    agg
}

impl PredictReport {
    /// Predicted cohorts merged in cohort order (unsupported cohorts
    /// contribute nothing — their devices are not forecast).
    pub fn fleet_aggregate(&self) -> CohortAggregate {
        let mut total = CohortAggregate::new();
        for c in &self.cohorts {
            if let CohortForecast::Predicted { aggregate, .. } = c {
                total.merge(aggregate);
            }
        }
        total
    }

    pub fn unsupported(&self) -> usize {
        self.cohorts
            .iter()
            .filter(|c| matches!(c, CohortForecast::Unsupported { .. }))
            .count()
    }

    pub fn to_json(&self) -> String {
        let cohorts = json::array(
            self.specs
                .iter()
                .zip(self.cohorts.iter())
                .map(|(spec, c)| cohort_json(spec, c)),
        );
        Obj::new()
            .str("schema", PREDICT_SCHEMA)
            .str("scenario", &self.scenario)
            .u64("seed", self.seed)
            .str("fingerprint", &format!("{:016x}", self.fingerprint))
            .u64("unsupported", self.unsupported() as u64)
            .raw("fleet", report::aggregate_json(&self.fleet_aggregate()))
            .raw("cohorts", cohorts)
            .finish()
    }

    /// Long-format CSV, same `cohort,key,value` grammar as the fleet
    /// report. Unsupported cohorts carry a single `unsupported,1`
    /// marker row (the reason string lives in the JSON document).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cohort,key,value\n");
        report::aggregate_csv("_fleet", &self.fleet_aggregate(), &mut out);
        for (spec, c) in self.specs.iter().zip(self.cohorts.iter()) {
            match c {
                CohortForecast::Unsupported { .. } => {
                    out.push_str(&format!("{},unsupported,1\n", spec.name));
                }
                CohortForecast::Predicted { aggregate, .. } => {
                    report::aggregate_csv(&spec.name, aggregate, &mut out);
                }
            }
        }
        out
    }
}

fn cohort_json(spec: &crate::scenario::CohortSpec, c: &CohortForecast) -> String {
    let o = report::spec_fields(Obj::new(), spec);
    match c {
        CohortForecast::Unsupported { reason } => o.str("unsupported", reason).finish(),
        CohortForecast::Predicted { aggregate, model } => o
            .raw("results", report::aggregate_json(aggregate))
            .raw("model", model_json(model))
            .finish(),
    }
}

/// The analytic scalars behind a predicted aggregate — everything the
/// aggregate's synthesized devices were built from.
fn model_json(p: &Prediction) -> String {
    Obj::new()
        .f64("mean_time_s", p.mean_time_s)
        .f64("sigma_time_s", p.sigma_time_s)
        .f64("on_time_s", p.on_time_s)
        .f64("completion_probability", p.completion_probability)
        .f64("outages", p.outages)
        .f64("checkpoints", p.checkpoints)
        .f64("commits", p.commits)
        .f64("reexecuted_cycles", p.reexecuted_cycles)
        .f64("executed_cycles", p.executed_cycles)
        .f64("dead_cycle_fraction", p.dead_cycle_fraction)
        .f64("forward_progress", p.forward_progress)
        .f64("error_percent", p.error_percent)
        .bool("via_skim", p.via_skim)
        .finish()
}

/// One validation run: every comparison made and every band violated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Validation {
    /// Comparisons performed (a gate that silently compared nothing
    /// would otherwise read as a pass).
    pub checks: usize,
    /// Human-readable band violations; empty means agreement.
    pub failures: Vec<String>,
}

impl Validation {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Cross-checks a predict report against a fleet report for the same
/// scenario, cohort by cohort, under the documented tolerance bands.
/// Unsupported cohorts are acknowledged (counted as a check) but carry
/// no numeric comparisons.
pub fn validate(predicted: &PredictReport, measured: &FleetReport) -> Validation {
    let mut v = Validation::default();
    if predicted.fingerprint != measured.fingerprint {
        v.failures.push(format!(
            "scenario fingerprints differ: predicted {:016x}, measured {:016x}",
            predicted.fingerprint, measured.fingerprint
        ));
        return v;
    }
    v.checks += 1;
    for ((spec, forecast), agg) in predicted
        .specs
        .iter()
        .zip(predicted.cohorts.iter())
        .zip(measured.cohorts.iter())
    {
        match forecast {
            CohortForecast::Unsupported { .. } => v.checks += 1,
            CohortForecast::Predicted {
                aggregate: pred, ..
            } => validate_cohort(&spec.name, pred, agg, &mut v),
        }
    }
    v
}

fn validate_cohort(name: &str, pred: &CohortAggregate, meas: &CohortAggregate, v: &mut Validation) {
    let mut check = |ok: bool, msg: String| {
        v.checks += 1;
        if !ok {
            v.failures.push(format!("{name}: {msg}"));
        }
    };

    check(
        pred.devices == meas.devices,
        format!(
            "device counts differ (predicted {}, measured {})",
            pred.devices, meas.devices
        ),
    );
    let (pr, mr) = (pred.completion_rate(), meas.completion_rate());
    check(
        (pr - mr).abs() <= COMPLETION_RATE_ATOL,
        format!("completion rate {pr:.3} vs {mr:.3} (band ±{COMPLETION_RATE_ATOL})"),
    );

    if pred.completed == 0 || meas.completed == 0 {
        // Fate-only agreement: nothing completed on one side, so there
        // are no time/counter distributions to compare — the rate check
        // above already caught any real disagreement.
        return;
    }

    if let (Some(p), Some(m)) = (pred.time.stats.mean(), meas.time.stats.mean()) {
        check(
            (p - m).abs() <= MEAN_TIME_RTOL * m.abs().max(1e-12),
            format!(
                "mean time {p:.4}s vs {m:.4}s (band ±{:.0}%)",
                MEAN_TIME_RTOL * 100.0
            ),
        );
    }
    for q in [0.25, 0.5, 0.75] {
        if let (Some(p), Some(m)) = (pred.time.sketch.quantile(q), meas.time.sketch.quantile(q)) {
            if p > 0.0 && m > 0.0 {
                let bands = (p / m).log10().abs() * crate::agg::FixedSketch::PER_DECADE as f64;
                check(
                    bands <= QUANTILE_BANDS,
                    format!(
                        "p{:.0} {p:.4}s vs {m:.4}s ({bands:.1} sketch bands apart, band {QUANTILE_BANDS})",
                        q * 100.0
                    ),
                );
            }
        }
    }
    for (key, p, m) in [
        (
            "outages",
            pred.outages.stats.mean(),
            meas.outages.stats.mean(),
        ),
        (
            "checkpoints",
            pred.checkpoints.stats.mean(),
            meas.checkpoints.stats.mean(),
        ),
        (
            "commits",
            pred.commits.stats.mean(),
            meas.commits.stats.mean(),
        ),
    ] {
        if let (Some(p), Some(m)) = (p, m) {
            let slack = (COUNT_RTOL * m.abs()).max(COUNT_ATOL);
            check(
                (p - m).abs() <= slack,
                format!("mean {key} {p:.1} vs {m:.1} (band ±{slack:.1})"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE_LIKE: &str = r#"
[fleet]
name = "predict-test"
seed = 11
shard_size = 64
wall_limit_s = 600.0
trace_duration_s = 20.0

[[cohort]]
count = 12
benchmark = "matadd"
technique = "precise"
environment = "rf-bursty"

[[cohort]]
count = 8
benchmark = "matadd"
technique = "anytime8"
substrate = "nvp"
environment = "solar"
day_s = 10.0
"#;

    #[test]
    fn predict_report_is_shaped_like_the_fleet_report() {
        let s = FleetScenario::parse(SMOKE_LIKE).unwrap();
        let r = predict_fleet(&s).unwrap();
        let doc = r.to_json();
        assert!(doc.contains(&format!("\"schema\":\"{PREDICT_SCHEMA}\"")));
        assert!(doc.contains("\"scenario\":\"predict-test\""));
        // The aggregate grammar matches the fleet report's exactly.
        for key in [
            "\"fleet\":{",
            "\"results\":{",
            "\"devices\":",
            "\"completion_rate\":",
            "\"time_s\":",
            "\"error_percent\":",
            "\"outages\":",
            "\"checkpoints\":",
            "\"commits\":",
            "\"time_hist\":",
            "\"model\":{",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert!(!doc.contains("NaN") && !doc.contains("inf"), "{doc}");

        let csv = r.to_csv();
        assert_eq!(csv.lines().next(), Some("cohort,key,value"));
        for line in csv.lines().skip(1) {
            assert_eq!(line.matches(',').count(), 2, "bad row: {line}");
        }
        assert!(csv.contains("_fleet,devices,20"));
    }

    #[test]
    fn check_scenario_reports_provenance_without_running() {
        let s = FleetScenario::parse(SMOKE_LIKE).unwrap();
        let c = check_scenario(&s).unwrap();
        assert_eq!(c.name, "predict-test");
        assert_eq!(c.total_devices, 20);
        assert_eq!(c.cohorts, 2);
        assert_eq!(c.fingerprint, s.fingerprint());
    }

    /// Satellite 6: a cohort wn-analyze declines must surface in the
    /// report as `unsupported` with the reason — present in the JSON,
    /// marked in the CSV, never dropped from the cohort list.
    #[test]
    fn unsupported_cohorts_are_reported_not_skipped() {
        let s = FleetScenario::parse(SMOKE_LIKE).unwrap();
        let r = PredictReport {
            scenario: s.name.clone(),
            seed: s.seed,
            fingerprint: s.fingerprint(),
            specs: s.cohorts[..1].to_vec(),
            cohorts: vec![CohortForecast::Unsupported {
                reason: "outside the static cost model".into(),
            }],
        };
        assert_eq!(r.unsupported(), 1);
        let doc = r.to_json();
        assert!(doc.contains("\"unsupported\":1"));
        assert!(doc.contains("outside the static cost model"), "{doc}");
        // Cohort identity fields stay present for unsupported cohorts.
        assert!(doc.contains("\"benchmark\":\"matadd\""));
        let csv = r.to_csv();
        assert!(csv.contains(",unsupported,1"));
    }

    #[test]
    fn validation_agrees_with_itself_and_catches_drift() {
        let s = FleetScenario::parse(SMOKE_LIKE).unwrap();
        let p = predict_fleet(&s).unwrap();
        // A predict report validated against a fleet report built from
        // its own aggregates must pass (identity agreement).
        let fleet = FleetReport::new(
            &s,
            p.cohorts
                .iter()
                .map(|c| match c {
                    CohortForecast::Predicted { aggregate, .. } => (**aggregate).clone(),
                    CohortForecast::Unsupported { .. } => CohortAggregate::new(),
                })
                .collect(),
        );
        let v = validate(&p, &fleet);
        assert!(v.passed(), "self-validation failed: {:?}", v.failures);
        assert!(v.checks > 2);

        // Doubling every measured completion time must trip the gate.
        let mut drifted = fleet.clone();
        for c in &mut drifted.cohorts {
            let mut agg = CohortAggregate::new();
            agg.devices = c.devices;
            agg.completed = c.completed;
            for _ in 0..c.completed {
                agg.time.record(2.0 * c.time.stats.mean().unwrap_or(1.0));
                agg.outages.record(c.outages.stats.mean().unwrap_or(0.0));
                agg.checkpoints
                    .record(c.checkpoints.stats.mean().unwrap_or(0.0));
                agg.commits.record(c.commits.stats.mean().unwrap_or(0.0));
            }
            *c = agg;
        }
        let v = validate(&p, &drifted);
        assert!(!v.passed(), "2x time drift must fail validation");
    }

    #[test]
    fn fingerprint_mismatch_fails_validation_immediately() {
        let s = FleetScenario::parse(SMOKE_LIKE).unwrap();
        let p = predict_fleet(&s).unwrap();
        let mut other = s.clone();
        other.seed = 999;
        let fleet = FleetReport::new(&other, vec![CohortAggregate::new(); 2]);
        let v = validate(&p, &fleet);
        assert!(!v.passed());
        assert!(v.failures[0].contains("fingerprint"));
    }
}
