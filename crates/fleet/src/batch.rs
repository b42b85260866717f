//! Lockstep cohort execution: batched tape replay for fleet sweeps.
//!
//! Within a cohort every device runs the *same compiled program on the
//! same inputs* — only the power trace (and hence outage placement)
//! differs. Both checkpoint substrates keep architectural state on the
//! fault-free trajectory: Clank rolls memory and registers back to the
//! exact checkpointed position, and NVP persists the exact interrupted
//! state, so no outage ever perturbs *what* executes — only *when*. That means
//! the whole cohort shares one instruction-by-instruction trajectory,
//! which this module records once per cohort as a
//! [`wn_sim::ExecutionTape`] (one entry per fused dispatch, with a
//! snapshot per window) and then replays per device as pure
//! supply/substrate bookkeeping ([`wn_intermittent::lockstep`]),
//! skipping per-device decode/execute/memory work entirely.
//!
//! The single way a device can leave the shared trajectory is a taken
//! skim jump. The replay runs on the ordinary
//! [`wn_intermittent::IntermittentExecutor`] power loop; at a restore
//! with the SKM register armed it reconstructs the device's
//! architectural state from the tape's nearest window snapshot at or
//! before the resume position and continues on that core in the same loop — the jump and
//! the approximate-region execution run exactly as in an unbatched
//! run. Cohorts the replay cannot mirror bit-exactly (memoization, a
//! tape beyond the step cap) fall back to the scalar executor
//! wholesale, and so does the whole Task substrate for now: replaying a
//! Task device over a tape across outages matches its live core
//! (`wn_intermittent`'s `task_replay_admits_the_blocks_a_core_admits`),
//! but whether an interrupted region's partial writes survive a skim
//! handoff — they are in the device's memory, not on the tape — is
//! still open (ROADMAP item 5).
//! `build_plans` is the only place that choice is made, from the
//! cohort alone; fleet reports are byte-identical to an all-scalar
//! sweep by construction.

use std::sync::Arc;

use wn_core::error::WnError;
use wn_core::intermittent::{IntermittentOutcome, SubstrateKind};
use wn_core::prepared::PreparedRun;
use wn_energy::{EnergySupply, SupplyError};
use wn_intermittent::{replay_run_clank, replay_run_nvp, ExecError};
use wn_sim::{Core, ExecutionTape, WalkCache};

use crate::runner::{completed_outcome, incomplete_outcome, simulate_device};
use crate::runner::{DeviceFate, DeviceOutcome};
use crate::scenario::FleetScenario;

/// Devices per lockstep batch job by default: large enough to amortize
/// job-pool dispatch, small enough to keep every worker fed on the
/// smoke-sized shards.
pub const DEFAULT_CHUNK: usize = 32;

/// Backstop on recorded trajectory length. Quick-scale kernels retire
/// well under a million instructions; a cohort beyond the cap (or one
/// that faults mid-trajectory) falls back to the scalar engine instead
/// of holding an unbounded tape.
const TAPE_STEP_CAP: u64 = 8_000_000;

/// Per-cohort execution plan, built once per sweep.
pub(crate) enum CohortPlan {
    /// Drive every device through [`simulate_device`].
    Scalar,
    /// Replay devices over the cohort's recorded trajectory.
    Tape(Box<TapePlan>),
}

/// Everything a lockstep replay needs, shared read-only across pool
/// workers.
pub(crate) struct TapePlan {
    prepared: Arc<PreparedRun>,
    /// Pristine core (inputs injected, fused-block table built) — the
    /// replayer consults its block table.
    master: Core,
    /// The whole trajectory, with the window snapshots handoffs
    /// reconstruct from; read-only, so sharing it across pool workers
    /// cannot change a byte of output.
    tape: ExecutionTape,
    /// NRMSE of the fault-free trajectory's output. A device that
    /// retires the whole tape commits exactly the master's memory, so
    /// its score is this cohort-level constant.
    tape_error_percent: f64,
}

/// Builds one [`CohortPlan`] per cohort. Infallible by design: any
/// condition the tape replay cannot mirror bit-exactly — and any error
/// preparing the cohort — selects the scalar engine, which reproduces
/// (and correctly attributes) the behavior on the devices themselves.
pub(crate) fn build_plans(scenario: &FleetScenario) -> Vec<CohortPlan> {
    (0..scenario.cohorts.len())
        .map(|cohort| build_plan(scenario, cohort))
        .collect()
}

fn build_plan(scenario: &FleetScenario, cohort: usize) -> CohortPlan {
    let spec = &scenario.cohorts[cohort];
    match spec.substrate.kind() {
        SubstrateKind::Clank(_) | SubstrateKind::Nvp(_) => {}
        // A Task device re-executes an interrupted region from its
        // entry, which a tape replays exactly (a restore is a seek back
        // to the entry's position). What is open is the skim handoff:
        // the region's partial writes are in the device's memory but
        // not on the tape, so a core reconstructed from the tape may
        // differ from the device's unless those writes are provably
        // dead. Until that is settled Task cohorts run on the scalar
        // engine, pinned by the differential tests below.
        SubstrateKind::Task(_) => return CohortPlan::Scalar,
    }
    let Ok(prepared) = PreparedRun::cached(
        spec.benchmark,
        scenario.scale,
        scenario.cohort_input_seed(cohort),
        spec.technique,
    ) else {
        return CohortPlan::Scalar;
    };
    // Memoization mutates dispatch costs as the memo table warms, so a
    // re-executing (Clank) device's costs depend on its outage history.
    if prepared.core_config.memo.is_some() {
        return CohortPlan::Scalar;
    }
    let Ok(master) = prepared.fresh_core() else {
        return CohortPlan::Scalar;
    };
    let mut recorder = master.clone();
    let tape = match ExecutionTape::record(&mut recorder, TAPE_STEP_CAP) {
        Ok(Some(tape)) => tape,
        Ok(None) | Err(_) => return CohortPlan::Scalar,
    };
    // The recorder just retired the fault-free trajectory: its memory
    // holds the output every tape-completing device commits.
    let Ok(tape_error_percent) = prepared.error_percent(&recorder) else {
        return CohortPlan::Scalar;
    };
    CohortPlan::Tape(Box::new(TapePlan {
        prepared,
        master,
        tape,
        tape_error_percent,
    }))
}

/// [`simulate_device`]'s lockstep twin: identical outcome, different
/// engine. Devices in scalar-planned cohorts delegate to the scalar
/// path unchanged.
///
/// # Errors
///
/// Fatal errors only, tagged with the device index, exactly as the
/// scalar path tags them; starvation and wall-clock expiry are
/// outcomes.
pub(crate) fn simulate_device_batched(
    scenario: &FleetScenario,
    plans: &[CohortPlan],
    device: u64,
) -> Result<DeviceOutcome, (u64, WnError)> {
    let cohort = scenario.cohort_of(device);
    let plan = match &plans[cohort] {
        CohortPlan::Scalar => return simulate_device(scenario, device),
        CohortPlan::Tape(plan) => plan,
    };
    let spec = &scenario.cohorts[cohort];
    let trace = spec
        .env
        .synthesize(scenario.device_seed(device), scenario.trace_duration_s);
    let supply = EnergySupply::new(trace, spec.supply());
    let result = match spec.substrate.kind() {
        SubstrateKind::Clank(cfg) => replay_run_clank(
            &plan.tape,
            &plan.master,
            &WalkCache,
            supply,
            cfg,
            scenario.wall_limit_s,
        ),
        SubstrateKind::Nvp(cfg) => replay_run_nvp(
            &plan.tape,
            &plan.master,
            &WalkCache,
            supply,
            cfg,
            scenario.wall_limit_s,
        ),
        // Unreachable in practice — `build_plan` never emits a tape plan
        // for a Task cohort — but kept total so a future planner change
        // degrades to the scalar engine instead of panicking.
        SubstrateKind::Task(_) => return simulate_device(scenario, device),
    };
    match result {
        Ok((run, handed_core)) => {
            let error_percent = match &handed_core {
                // Diverged device: score the continuation's final core.
                Some(core) => plan.prepared.error_percent(core).map_err(|e| (device, e))?,
                // Tape-completing device: the cohort-level constant.
                None => plan.tape_error_percent,
            };
            let out = IntermittentOutcome {
                time_s: run.total_time_s,
                on_time_s: run.on_time_s,
                active_cycles: run.active_cycles,
                outages: run.outages,
                skimmed: run.skimmed,
                error_percent,
                substrate: run.substrate,
            };
            Ok(completed_outcome(device, cohort, &out))
        }
        Err(ExecError::WallClock { .. }) => {
            Ok(incomplete_outcome(device, cohort, DeviceFate::TimedOut))
        }
        Err(ExecError::Supply(SupplyError::Starved { .. })) => {
            Ok(incomplete_outcome(device, cohort, DeviceFate::Starved))
        }
        Err(e) => Err((device, WnError::Exec(e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_scenario() -> FleetScenario {
        FleetScenario::parse(
            r#"
[fleet]
name = "lockstep-mixed"
seed = 11
shard_size = 16
wall_limit_s = 600.0
trace_duration_s = 20.0

[[cohort]]
count = 10
benchmark = "matadd"
technique = "anytime8"
substrate = "clank"
environment = "rf-bursty"

[[cohort]]
count = 10
benchmark = "home"
technique = "anytime8"
substrate = "nvp"
environment = "solar"
day_s = 10.0

[[cohort]]
count = 6
benchmark = "matadd"
technique = "precise"
substrate = "clank"
capacitance_uf = 2.2
environment = "piezo"

[[cohort]]
count = 6
benchmark = "matadd"
technique = "precise"
substrate = "task"
environment = "rf-bursty"
"#,
        )
        .unwrap()
    }

    #[test]
    fn plans_record_a_tape_for_every_checkpoint_cohort() {
        let s = mixed_scenario();
        let plans = build_plans(&s);
        assert_eq!(plans.len(), 4);
        for (i, p) in plans.iter().take(3).enumerate() {
            match p {
                CohortPlan::Tape(plan) => assert!(plan.tape.is_complete(), "cohort {i}"),
                CohortPlan::Scalar => panic!("cohort {i} unexpectedly fell back to scalar"),
            }
        }
    }

    /// The explicit lockstep policy for the checkpoint-free substrate:
    /// Task cohorts plan onto the scalar engine (no tape is recorded for
    /// them), and the engine-equivalence test below proves the fallback
    /// produces bit-identical outcomes.
    #[test]
    fn task_cohorts_plan_onto_the_scalar_engine() {
        let s = mixed_scenario();
        let plans = build_plans(&s);
        assert!(matches!(plans[3], CohortPlan::Scalar));
    }

    /// The acceptance property at device granularity: every device in
    /// every cohort — Clank and NVP on the tape (completing, diverging
    /// via skim, starving, or timing out) and Task on the scalar
    /// fallback — produces the *bit-identical* outcome on both engines.
    #[test]
    fn batched_outcomes_equal_scalar_outcomes_for_every_device() {
        let s = mixed_scenario();
        let plans = build_plans(&s);
        let mut fates = std::collections::BTreeMap::new();
        for device in 0..s.total_devices() {
            let scalar = simulate_device(&s, device).unwrap();
            let batched = simulate_device_batched(&s, &plans, device).unwrap();
            assert_eq!(scalar, batched, "device {device} diverged between engines");
            *fates.entry(format!("{:?}", scalar.fate)).or_insert(0u32) += 1;
        }
        assert!(
            fates.get("Completed").copied().unwrap_or(0) > 0,
            "population must exercise the replay path: {fates:?}"
        );
    }
}
