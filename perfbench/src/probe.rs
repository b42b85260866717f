//! The layer probe. A traced run prints every per-layer metric, but each
//! workload enters only some layers: the paper sweep never records a
//! tape, aggregates a population or talks to the daemon, and the fleet
//! never runs Clank or NVP devices on the scalar executor. Instead of a
//! time of 0 for a layer the workload never entered, a traced run times
//! that layer on a small fixed probe — the serve workload's 64-device
//! cold scenario — swept from outside with per-shard checkpoints, swept
//! by `run_fleet` at one and two workers, predicted, run on the scalar
//! Clank and NVP executors, and submitted once to a fresh daemon. The log
//! names the probe-timed layers; probe time never enters the workload's
//! layer sum.

use std::time::Instant;

use wn_core::intermittent::{run_intermittent, SubstrateKind};
use wn_core::prepared::PreparedRun;
use wn_fleet::{predict_fleet, FleetScenario};

use crate::common::PER_LAYER;
use crate::{fleet, serve, Args, Outcome, JOBS};

/// Devices per checkpoint cohort run on the scalar executor.
const SCALAR_DEVICES: u64 = 4;

/// Whether a per-layer metric is a time or a rate (the metrics a probe
/// can stand in for; counts and ratios describe the workload itself).
fn timed(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "1/s")
}

/// Times the first devices of each Clank and NVP cohort on the scalar
/// executor.
fn scalar_runs(probe: &mut Outcome, scenario: &FleetScenario) {
    let mut first = 0u64;
    for (cohort, spec) in scenario.cohorts.iter().enumerate() {
        let substrate = spec.substrate.kind();
        let layer = match substrate {
            SubstrateKind::Clank(_) => "intermittent.exec_clank_s",
            SubstrateKind::Nvp(_) => "intermittent.exec_nvp_s",
            SubstrateKind::Task(_) => {
                first += spec.count;
                continue;
            }
        };
        let instance = spec
            .benchmark
            .instance(scenario.scale, scenario.cohort_input_seed(cohort));
        let prepared = PreparedRun::new(&instance, spec.technique).expect("cohort compiles");
        for device in first..first + SCALAR_DEVICES.min(spec.count) {
            let trace = spec
                .env
                .synthesize(scenario.device_seed(device), scenario.trace_duration_s);
            let run = probe.spans.time(layer, || {
                run_intermittent(
                    &prepared,
                    substrate,
                    &trace,
                    spec.supply(),
                    scenario.wall_limit_s,
                )
            });
            probe
                .ledger
                .check(run.is_ok(), || format!("probe device {device} failed"));
        }
        first += spec.count;
    }
}

/// Fills every per-layer time or rate the workload left at 0 with the
/// probe's value.
pub fn fill(out: &mut Outcome, args: &Args) {
    let missing: Vec<&'static str> = PER_LAYER
        .iter()
        .filter(|(name, unit)| timed(unit) && out.metrics.get(name).copied().unwrap_or(0.0) == 0.0)
        .map(|(name, _)| *name)
        .collect();
    if missing.is_empty() {
        return;
    }
    let text = serve::cold_scenario(args.seed ^ 0x5052_4f42_4521);
    let scenario = FleetScenario::parse(&text).expect("probe scenario parses");
    let mut probe = Outcome::new(String::new());

    let ckpt = args.scratch.join("probe-ckpt");
    std::fs::create_dir_all(&ckpt).expect("create probe checkpoint dir");
    fleet::decompose(&mut probe, &scenario, Some(&ckpt));
    scalar_runs(&mut probe, &scenario);
    match predict_fleet(&scenario) {
        Ok(predicted) => fleet::decompose_predict(&mut probe, &scenario, &predicted),
        Err(e) => {
            probe
                .ledger
                .check(false, || format!("probe predict_fleet: {e}"));
        }
    }
    probe.finish_spans();
    let t = Instant::now();
    fleet::sweep(&scenario, 1, &mut probe.ledger);
    let jobs1 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    fleet::sweep(&scenario, JOBS, &mut probe.ledger);
    let jobs2 = t.elapsed().as_secs_f64();
    let devices = scenario.total_devices() as f64;
    probe
        .metrics
        .insert("fleet.jobs1_devices_per_s", devices / jobs1);
    probe.metrics.insert("fleet.scaling_2v1", jobs1 / jobs2);
    serve::probe(&mut probe, args, &text);

    let mut filled = Vec::new();
    for name in missing {
        if let Some(&value) = probe.metrics.get(name) {
            out.metrics.insert(name, value);
            filled.push(name);
        }
    }
    if filled.contains(&"fleet.jobs1_devices_per_s") {
        let scaling = probe.metrics["fleet.scaling_2v1"];
        out.metrics.insert("fleet.scaling_2v1", scaling);
        filled.push("fleet.scaling_2v1");
    }
    out.ledger.attempted += probe.ledger.attempted;
    out.ledger.failures.extend(probe.ledger.failures);
    out.note("probe-timed layers", filled.join(" "));
}
