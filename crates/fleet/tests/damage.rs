//! Damage tests for the fleet's persisted JSON formats: every
//! truncation prefix and every single-bit flip of a real document, and
//! hostile nesting. A reader either refuses the damage with a typed
//! error or accepts a document that still means exactly one value —
//! it never panics and never resumes from a guess.

use wn_energy::EnvModel;
use wn_fleet::agg::MetricAgg;
use wn_fleet::{Checkpoint, CohortAggregate, FleetError, FleetScenario, ScenarioError};
use wn_kernels::Scale;
use wn_telemetry::json::{self, Obj};

/// Every proper prefix and every single-bit flip of `doc`. Damage that
/// breaks UTF-8 is skipped: reading such a file fails before any
/// parser sees it.
fn damaged(doc: &str) -> impl Iterator<Item = String> + '_ {
    let bytes = doc.as_bytes();
    let prefixes = (0..bytes.len()).map(move |n| bytes[..n].to_vec());
    let flips = (0..bytes.len() * 8).map(move |bit| {
        let mut b = bytes.to_vec();
        b[bit / 8] ^= 1 << (bit % 8);
        b
    });
    prefixes
        .chain(flips)
        .filter_map(|b| String::from_utf8(b).ok())
}

/// One MiB of unclosed arrays, and of unclosed `{"a":` objects.
fn hostile_nesting() -> [String; 2] {
    ["[".repeat(1 << 20), "{\"a\":".repeat(1 << 20)]
}

/// A checkpoint with populated and empty cohorts.
fn sample() -> Checkpoint {
    let mut a = CohortAggregate::new();
    a.devices = 40;
    a.completed = 37;
    a.skimmed = 12;
    a.starved = 2;
    a.timed_out = 1;
    let mut time = MetricAgg::new();
    for i in 0..37 {
        let v = 0.01 + (i as f64 * 0.731).fract();
        time.record(v);
        a.time_hist.record(v);
    }
    a.time = time;
    Checkpoint {
        fingerprint: 0xdead_beef_0123_4567,
        shards_done: 3,
        shard_count: 9,
        cohorts: vec![a, CohortAggregate::new()],
    }
}

#[test]
fn damaged_checkpoints_are_refused_or_exact() {
    let doc = sample().to_json();
    let (mut accepted, mut refused) = (0, 0);
    for text in damaged(&doc) {
        match Checkpoint::from_json(&text) {
            Err(FleetError::Checkpoint(_)) => refused += 1,
            Err(other) => panic!("untyped checkpoint error {other:?} for {text}"),
            Ok(ckpt) => {
                assert_eq!(ckpt.to_json(), text, "accepted a non-canonical checkpoint");
                accepted += 1;
            }
        }
    }
    // A flipped digit that still spells a canonical checkpoint is the
    // only damage a reader cannot see; everything else is refused.
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn hostile_nesting_is_a_checkpoint_error() {
    for text in hostile_nesting() {
        assert!(matches!(
            Checkpoint::from_json(&text),
            Err(FleetError::Checkpoint(_))
        ));
    }
}

/// The scenario as a JSON document naming every field explicitly.
fn scenario_json(s: &FleetScenario) -> String {
    let cohorts = s.cohorts.iter().map(|c| {
        let o = Obj::new()
            .str("name", &c.name)
            .u64("count", c.count)
            .str("benchmark", c.benchmark.name())
            .str("technique", &c.technique.to_string())
            .str("substrate", c.substrate.name())
            .f64("capacitance_uf", c.capacitance_uf)
            .str("environment", c.env.name());
        match c.env {
            EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            } => o
                .f64("mean_power_uw", mean_power_w / 1e-6)
                .f64("burst_ms", mean_burst_ms)
                .f64("gap_ms", mean_gap_ms),
            EnvModel::SolarDiurnal {
                peak_power_w,
                day_s,
            } => o
                .f64("peak_power_uw", peak_power_w / 1e-6)
                .f64("day_s", day_s),
            EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                impulse_ms,
                mean_gap_ms,
            } => o
                .f64("baseline_uw", baseline_w / 1e-6)
                .f64("impulse_uw", impulse_w / 1e-6)
                .f64("impulse_ms", impulse_ms)
                .f64("gap_ms", mean_gap_ms),
        }
        .finish()
    });
    let fleet = Obj::new()
        .str("name", &s.name)
        .u64("seed", s.seed)
        .u64("shard_size", s.shard_size as u64)
        .f64("wall_limit_s", s.wall_limit_s)
        .f64("trace_duration_s", s.trace_duration_s)
        .str(
            "scale",
            match s.scale {
                Scale::Quick => "quick",
                Scale::Paper => "paper",
            },
        );
    Obj::new()
        .raw("fleet", fleet.finish())
        .raw("cohorts", json::array(cohorts))
        .finish()
}

fn smoke_scenario_json() -> String {
    let toml = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fleet_smoke.toml"),
    )
    .unwrap();
    let smoke = FleetScenario::parse(&toml).unwrap();
    let doc = scenario_json(&smoke);
    assert_eq!(FleetScenario::parse(&doc).unwrap(), smoke);
    doc
}

/// Scenarios are written by people, so `2.0` and `2` are the same
/// value: a damaged scenario that still parses must parse to a
/// scenario whose own rendering reads back to it.
#[test]
fn damaged_scenarios_are_refused_or_consistent() {
    let doc = smoke_scenario_json();
    for text in damaged(&doc) {
        if let Ok(s) = FleetScenario::parse(&text) {
            let again = scenario_json(&s);
            assert_eq!(
                FleetScenario::parse(&again).as_ref(),
                Ok(&s),
                "damaged:\n{text}\nre-rendered:\n{again}"
            );
        }
    }
}

#[test]
fn hostile_nesting_is_a_scenario_error() {
    for text in hostile_nesting() {
        assert!(matches!(
            FleetScenario::parse(&text),
            Err(ScenarioError::Message(_))
        ));
    }
}
