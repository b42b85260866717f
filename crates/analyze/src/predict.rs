//! The analytic solver: per-cohort completion-time distributions,
//! expected substrate counter movements, and completion probability —
//! without simulating a single outage.
//!
//! The model (assumptions and exactness boundaries in DESIGN.md §13):
//!
//! * **Per-period budget.** One power cycle drains the capacitor from
//!   `v_on` to `v_off`, delivering `B = E_use / (ε − h_on/f)` executed
//!   cycles, where `E_use = ½C(v_on² − v_off²)`, `ε` is the per-cycle
//!   execution energy and `h_on` the expected harvest while executing.
//! * **Outage recurrence.** Each outage costs the substrate's expected
//!   dead cycles (discarded work + restore + re-taken persistence), so
//!   `n = ⌈(W − B) / (B − dead)⌉` outages complete a workload of `W`
//!   fault-free executed cycles.
//! * **Energy conservation.** Every harvested joule is absorbed (the
//!   capacitor idles below `v_on`, and drain far exceeds harvest while
//!   on), so completion time is the time the environment needs to
//!   deliver the total drained energy, less the stored-energy credit:
//!   `T ≈ (ε·executed − ΔE_stored) / P̄`.
//! * **Spread.** RF/piezo completion-time spread follows the
//!   renewal-reward CLT (`HarvestStats::harvest_variance_rate`);
//!   solar-diurnal spread is the deterministic seeded phase offset,
//!   handled by exact quadrature over the phase.
//! * **Skim.** An armed skim point turns the first post-arm restore
//!   into a jump: the device runs to the decisive outage, then executes
//!   the commit tail. The tail and its output error are measured by a
//!   deterministic replay, not estimated.

use wn_core::intermittent::SubstrateKind;
use wn_core::{PreparedRun, WnError};
use wn_energy::{EnvModel, HarvestStats, SupplyConfig};
use wn_intermittent::{FaultFreeProfile, ProgressModel};

use crate::dist::{inv_norm_cdf, quantile_sorted, solar_completion_times};
use crate::profile::{profile_kernel, skim_replay, KernelProfile};

/// The fleet's starvation guard: a device waiting longer than this for
/// `v_on` is declared starved. Mirrors `wn_energy::supply`.
const STARVATION_LIMIT_S: f64 = 3600.0;

/// Phase-quadrature resolution for solar cohorts.
const SOLAR_PHASES: usize = 256;

/// One cohort's prediction request.
pub struct CohortQuery<'a> {
    /// The prepared kernel — same artifact the fleet executes.
    pub prepared: &'a PreparedRun,
    pub substrate: SubstrateKind,
    pub supply: SupplyConfig,
    pub env: EnvModel,
    /// Devices in the cohort (sets the quantile grid).
    pub devices: u64,
    /// Per-device wall-clock limit, seconds.
    pub wall_limit_s: f64,
}

/// Predictor output for one cohort: either a prediction, or an honest
/// refusal with the reason.
#[derive(Debug, Clone, PartialEq)]
pub enum CohortPrediction {
    /// The model cannot handle this cohort; it must be *reported* as
    /// unsupported, never silently skipped.
    Unsupported {
        reason: String,
    },
    Predicted(Box<Prediction>),
}

/// Analytic prediction for one cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    pub devices: u64,
    /// Predicted device fates (sum to `devices`).
    pub completed: u64,
    pub skimmed: u64,
    pub starved: u64,
    pub timed_out: u64,
    /// `completed / devices`.
    pub completion_probability: f64,
    /// Completion times of the predicted-completed devices, sorted —
    /// the quantile grid `(i + 0.5) / devices` pushed through the
    /// family's time distribution. Feed these to a sketch to compare
    /// with the fleet's.
    pub times_s: Vec<f64>,
    /// Mean over `times_s` (conditional on completion, like the
    /// fleet's `StreamStats` mean).
    pub mean_time_s: f64,
    /// Model spread (normal σ for RF/piezo; sample σ of the phase
    /// quadrature for solar).
    pub sigma_time_s: f64,
    /// Powered-on execution time per device, seconds.
    pub on_time_s: f64,
    /// Expected outages per completed device.
    pub outages: f64,
    /// Expected checkpoints per completed device.
    pub checkpoints: f64,
    /// Expected commits per completed device.
    pub commits: f64,
    /// Expected re-executed (discarded) cycles per device.
    pub reexecuted_cycles: f64,
    /// Total executed cycles per device (compute + overhead + redo).
    pub executed_cycles: f64,
    /// `(lost + overhead) / executed` — complement of the fleet's
    /// forward-progress ratio.
    pub dead_cycle_fraction: f64,
    /// `1 − dead_cycle_fraction`.
    pub forward_progress: f64,
    /// Predicted output NRMSE (%): the fault-free error, or the
    /// skim-replay error when completion happens via skim.
    pub error_percent: f64,
    /// Whether completion goes through the skim jump.
    pub via_skim: bool,
    /// The exact fault-free measurements the solver consumed.
    pub profile: KernelProfile,
}

/// Predicts one cohort. Profiling cost: two fault-free runs of the
/// kernel; everything else is closed-form.
pub fn predict(q: &CohortQuery) -> Result<CohortPrediction, WnError> {
    if q.prepared.core_config.memo.is_some() {
        return Ok(CohortPrediction::Unsupported {
            reason: "memoization-enabled core: memo hit rates make block costs \
                     data-dependent, outside the static cost model"
                .into(),
        });
    }

    let profile = profile_kernel(q.prepared, q.substrate, &q.supply)?;
    let pm = progress_model(&q.substrate, &profile);
    Ok(CohortPrediction::Predicted(Box::new(solve(
        q, profile, pm,
    )?)))
}

fn progress_model(substrate: &SubstrateKind, p: &KernelProfile) -> ProgressModel {
    let ff = FaultFreeProfile {
        active_cycles: p.compute_cycles,
        instructions: p.instructions,
        overhead_cycles: p.overhead_ff,
        checkpoints: p.checkpoints_ff,
        commits: p.commits_ff,
        region_entry_cycles: p.region_entry_cycles.clone(),
    };
    match substrate {
        SubstrateKind::Clank(c) => ProgressModel::clank(c, &ff),
        SubstrateKind::Nvp(c) => ProgressModel::nvp(c, &ff),
        SubstrateKind::Task(c) => ProgressModel::task(c, &ff),
    }
}

/// Everything after profiling: pure arithmetic.
fn solve(
    q: &CohortQuery,
    profile: KernelProfile,
    pm: ProgressModel,
) -> Result<Prediction, WnError> {
    let sup = &q.supply;
    let clk = sup.clock_hz;
    let eps_j = sup.pj_per_cycle * 1e-12;
    let e_use = 0.5 * sup.capacitance_f * (sup.v_on * sup.v_on - sup.v_off * sup.v_off);
    let p_bar = q.env.stationary_mean_power_w();
    let h_on = q.env.active_power_w();
    // Executed cycles one full charge affords (harvest-while-on credit
    // included; infinite when harvest sustains the drain).
    let net_drain_j = eps_j - h_on / clk;
    let b = if net_drain_j > 0.0 {
        e_use / net_drain_j
    } else {
        f64::INFINITY
    };
    // Cold-boot charge time (scenarios default to start-charged).
    let t0 = if sup.start_charged || p_bar <= 0.0 {
        0.0
    } else {
        0.5 * sup.capacitance_f * sup.v_on * sup.v_on / p_bar
    };

    let w_ff = profile.executed_ff as f64;
    let overhead_ratio = w_ff / profile.compute_cycles.max(1) as f64;

    // ---- fault-free-on-first-charge fast path -------------------------
    if w_ff <= b {
        let t = t0 + w_ff / clk;
        return Ok(fill(
            q, &profile, &pm, /* n */ 0.0, w_ff, t, 0.0, /* skim */ None, b,
        ));
    }

    // ---- starvation / infeasibility gates ----------------------------
    if p_bar <= 0.0 || e_use / p_bar > STARVATION_LIMIT_S {
        // Recharging one period exceeds the supply's starvation guard.
        return Ok(all_fate(q, &profile, Fate::Starved));
    }
    let net = b - pm.dead_cycles_per_outage();

    // ---- skim path ----------------------------------------------------
    // An armed skim point converts the first post-arm restore into the
    // commit tail; the run no longer needs the full workload.
    if let Some(skim) = profile.skim {
        let s1_exec = skim.arm_compute_cycles as f64 * overhead_ratio;
        let k = if s1_exec <= b {
            Some(1.0)
        } else if net > 0.0 && pm.feasible(b) {
            Some(1.0 + ((s1_exec - b) / net).ceil())
        } else {
            None // arm unreachable: fall through to the precise gates
        };
        if let Some(k) = k {
            // Useful progress when the decisive outage lands, deflated
            // back to compute cycles for the replay.
            let u_exec = b + (k - 1.0) * net;
            let u_compute = ((u_exec / overhead_ratio) as u64)
                .clamp(skim.arm_compute_cycles, profile.compute_cycles);
            if let Some((tail_compute, tail_error)) = skim_replay(q.prepared, u_compute)? {
                let w_tail = pm.restore_cycles as f64 + tail_compute as f64 * overhead_ratio;
                let m = if w_tail <= b {
                    0.0
                } else if net > 0.0 {
                    ((w_tail - b) / net).ceil()
                } else {
                    return Ok(all_fate(q, &profile, Fate::TimedOut));
                };
                let n = k + m;
                let executed = k * b + w_tail + m * pm.dead_cycles_per_outage();
                let t_mean = completion_mean(executed, eps_j, e_use, p_bar, clk, t0);
                let frac = (u_compute + tail_compute) as f64 / profile.compute_cycles.max(1) as f64;
                return Ok(fill(
                    q,
                    &profile,
                    &pm,
                    n,
                    executed,
                    t_mean,
                    frac,
                    Some(tail_error),
                    b,
                ));
            }
        }
    }

    // ---- precise path -------------------------------------------------
    if !pm.feasible(b) {
        // The substrate can never advance past some atomic unit on one
        // charge: the simulator spins until the wall clock.
        return Ok(all_fate(q, &profile, Fate::TimedOut));
    }
    let n = ((w_ff - b) / net).ceil().max(1.0);
    let executed = w_ff + n * pm.dead_cycles_per_outage();
    let t_mean = completion_mean(executed, eps_j, e_use, p_bar, clk, t0);
    Ok(fill(q, &profile, &pm, n, executed, t_mean, 1.0, None, b))
}

/// Energy-conservation completion time: the environment must deliver
/// the drained energy minus the stored credit (start charged at
/// `v_on`, end mid-discharge in expectation).
fn completion_mean(executed: f64, eps_j: f64, e_use: f64, p_bar: f64, clk: f64, t0: f64) -> f64 {
    let on_time = executed / clk;
    let h_req = executed * eps_j - e_use / 2.0;
    t0 + (h_req / p_bar).max(on_time)
}

enum Fate {
    Starved,
    TimedOut,
}

/// Uniform-fate prediction (all devices starved or timed out).
fn all_fate(q: &CohortQuery, profile: &KernelProfile, fate: Fate) -> Prediction {
    let (starved, timed_out) = match fate {
        Fate::Starved => (q.devices, 0),
        Fate::TimedOut => (0, q.devices),
    };
    Prediction {
        devices: q.devices,
        completed: 0,
        skimmed: 0,
        starved,
        timed_out,
        completion_probability: 0.0,
        times_s: Vec::new(),
        mean_time_s: f64::NAN,
        sigma_time_s: f64::NAN,
        on_time_s: 0.0,
        outages: 0.0,
        checkpoints: 0.0,
        commits: 0.0,
        reexecuted_cycles: 0.0,
        executed_cycles: 0.0,
        dead_cycle_fraction: 1.0,
        forward_progress: 0.0,
        error_percent: f64::NAN,
        via_skim: false,
        profile: profile.clone(),
    }
}

/// Builds the full prediction once outage count, executed cycles and
/// the mean completion time are settled. `useful_fraction` scales the
/// fault-free checkpoint/commit counters for skim runs that execute
/// only part of the program; `skim_error` switches the error source.
#[allow(clippy::too_many_arguments)]
fn fill(
    q: &CohortQuery,
    profile: &KernelProfile,
    pm: &ProgressModel,
    n: f64,
    executed: f64,
    t_mean: f64,
    useful_fraction: f64,
    skim_error: Option<f64>,
    _b: f64,
) -> Prediction {
    let clk = q.supply.clock_hz;
    let on_time = executed / clk;
    let via_skim = skim_error.is_some();
    let frac = if via_skim { useful_fraction } else { 1.0 };

    // Counter expectations.
    let checkpoints = profile.checkpoints_ff as f64 * frac + n * pm.checkpoints_per_outage;
    let commits = profile.commits_ff as f64 * frac + n * pm.commits_per_outage;
    let lost = n * pm.loss_per_outage_cycles;
    let overhead = profile.overhead_ff as f64 * frac
        + n * (pm.restore_cycles as f64 + pm.extra_overhead_per_outage_cycles);
    let dead_fraction = if executed > 0.0 {
        ((lost + overhead) / executed).clamp(0.0, 1.0)
    } else {
        0.0
    };

    // Per-device completion times over the quantile grid.
    let (times, sigma) = completion_grid(q, t_mean, on_time, executed);
    let completed = times.iter().filter(|&&t| t <= q.wall_limit_s).count() as u64;
    let times_s: Vec<f64> = times
        .iter()
        .copied()
        .filter(|&t| t <= q.wall_limit_s)
        .collect();
    let mean_time_s = if times_s.is_empty() {
        f64::NAN
    } else {
        times_s.iter().sum::<f64>() / times_s.len() as f64
    };

    Prediction {
        devices: q.devices,
        completed,
        skimmed: if via_skim && n >= 1.0 { completed } else { 0 },
        starved: 0,
        timed_out: q.devices - completed,
        completion_probability: completed as f64 / q.devices.max(1) as f64,
        times_s,
        mean_time_s,
        sigma_time_s: sigma,
        on_time_s: on_time,
        outages: n,
        checkpoints,
        commits,
        reexecuted_cycles: lost,
        executed_cycles: executed,
        dead_cycle_fraction: dead_fraction,
        forward_progress: 1.0 - dead_fraction,
        error_percent: skim_error.unwrap_or(profile.error_percent_ff),
        via_skim,
        profile: profile.clone(),
    }
}

/// Per-device completion times on the `(i + 0.5) / devices` quantile
/// grid, plus the model's spread.
fn completion_grid(q: &CohortQuery, t_mean: f64, on_time: f64, executed: f64) -> (Vec<f64>, f64) {
    let devices = q.devices.max(1) as usize;
    match q.env {
        EnvModel::SolarDiurnal {
            peak_power_w,
            day_s,
        } => {
            let eps_j = q.supply.pj_per_cycle * 1e-12;
            let e_use = 0.5
                * q.supply.capacitance_f
                * (q.supply.v_on * q.supply.v_on - q.supply.v_off * q.supply.v_off);
            let h_req = (executed * eps_j - e_use / 2.0).max(0.0);
            if h_req == 0.0 {
                return (vec![t_mean; devices], 0.0);
            }
            let phases = solar_completion_times(peak_power_w, day_s, h_req, SOLAR_PHASES);
            let times: Vec<f64> = (0..devices)
                .map(|i| {
                    let s = quantile_sorted(&phases, (i as f64 + 0.5) / devices as f64);
                    s.max(on_time)
                })
                .collect();
            let mean = times.iter().sum::<f64>() / devices as f64;
            let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / devices as f64;
            (times, var.sqrt())
        }
        _ => {
            // Renewal CLT: harvested energy by time t is ≈ N(P̄t, v·t),
            // so T is ≈ normal with σ = sqrt(v·T̄)/P̄.
            let p_bar = q.env.stationary_mean_power_w();
            let vr = q.env.harvest_variance_rate();
            let sigma = if p_bar > 0.0 && t_mean.is_finite() {
                (vr * t_mean).sqrt() / p_bar
            } else {
                0.0
            };
            let times: Vec<f64> = (0..devices)
                .map(|i| {
                    let z = inv_norm_cdf((i as f64 + 0.5) / devices as f64);
                    (t_mean + z * sigma).max(on_time)
                })
                .collect();
            (times, sigma)
        }
    }
}
