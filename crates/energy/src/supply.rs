//! The device power supply: capacitor + harvester + on/off thresholds.

use std::fmt;

use crate::capacitor::Capacitor;
use crate::lattice::{BlockLattice, SettlePoint};
use crate::trace::{PowerTrace, SAMPLE_HZ};

/// Process-wide effectiveness counters for the supply's fast-forward
/// machinery (zero-run charge/discharge replay).
///
/// One immutable table backs the recharge path: the **wait-chain
/// table** (the replayed `waited += 1 ms` accumulator of
/// [`EnergySupply::wait_for_power`], built at compile time and shared
/// by every recharge wait in the process). Counters are relaxed
/// atomics: they never order anything, they only report. Fleet reports
/// never include them — they are diagnostics for `experiments
/// bench-fleet`, the fleet smoke CI check (which asserts the charge
/// fast-forward is actually active), and the `wn-serve` `stats` request.
pub mod memo_stats {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub(super) static WAIT_TABLE_HITS: AtomicU64 = AtomicU64::new(0);
    pub(super) static WAIT_TABLE_MISSES: AtomicU64 = AtomicU64::new(0);
    pub(super) static CHARGE_FF_SPRINTS: AtomicU64 = AtomicU64::new(0);
    pub(super) static CHARGE_FF_STEPS: AtomicU64 = AtomicU64::new(0);
    pub(super) static DISCHARGE_EXT_EVENTS: AtomicU64 = AtomicU64::new(0);

    /// Snapshot of the supply-memo counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SupplyMemoStats {
        /// Recharge waits whose return value came from the wait-chain
        /// table.
        pub memo_hits: u64,
        /// Recharge waits longer than the table, chained from its end.
        pub memo_misses: u64,
        /// Entries in the wait-chain table (fixed at compile time).
        pub memo_entries: u64,
        /// Zero-harvest charge sprints taken by `wait_for_power`.
        pub charge_ff_sprints: u64,
        /// 1 ms charge steps those sprints fast-forwarded through.
        pub charge_ff_steps: u64,
        /// Discharge segment-cache refreshes extended across a
        /// zero-power run (multi-sample budgets while on).
        pub discharge_ext_events: u64,
    }

    impl SupplyMemoStats {
        /// One-line `key=value` rendering for logs and bench output.
        pub fn to_line(&self) -> String {
            format!(
                "memo_hits={} memo_misses={} memo_entries={} charge_ff_sprints={} charge_ff_steps={} discharge_ext_events={}",
                self.memo_hits,
                self.memo_misses,
                self.memo_entries,
                self.charge_ff_sprints,
                self.charge_ff_steps,
                self.discharge_ext_events,
            )
        }
    }

    /// Reads the counters (relaxed; values are monotonic per process
    /// except across [`reset`]).
    pub fn snapshot() -> SupplyMemoStats {
        SupplyMemoStats {
            memo_hits: WAIT_TABLE_HITS.load(Relaxed),
            memo_misses: WAIT_TABLE_MISSES.load(Relaxed),
            memo_entries: super::WAIT_CHAIN_CAP as u64,
            charge_ff_sprints: CHARGE_FF_SPRINTS.load(Relaxed),
            charge_ff_steps: CHARGE_FF_STEPS.load(Relaxed),
            discharge_ext_events: DISCHARGE_EXT_EVENTS.load(Relaxed),
        }
    }

    /// Zeroes the hit/miss/fast-forward counters (the wait-chain table
    /// is immutable, so its entry count never changes).
    pub fn reset() {
        for c in [
            &WAIT_TABLE_HITS,
            &WAIT_TABLE_MISSES,
            &CHARGE_FF_SPRINTS,
            &CHARGE_FF_STEPS,
            &DISCHARGE_EXT_EVENTS,
        ] {
            c.store(0, Relaxed);
        }
    }
}

use std::sync::atomic::Ordering::Relaxed;

/// The longest recharge wait, in simulated seconds, before a supply
/// reports [`SupplyError::Starved`]: an hour without reaching `v_on`
/// means the harvester cannot sustain the device.
pub const STARVATION_LIMIT_S: f64 = 3600.0;

/// Wait-chain table: `W[k]` = the value of `wait_for_power`'s `waited`
/// accumulator after `k` iterations of `waited += 1e-3` starting from
/// `0.0` — a pure chain independent of trace, device, and start time,
/// so one table replays every recharge wait's return value exactly.
/// Built by the compiler (IEEE-754 addition rounds identically at
/// compile time and run time) and never written. Waits longer than the
/// table chain from its end.
const WAIT_CHAIN_CAP: usize = 1 << 16;
static WAIT_CHAIN: [f64; WAIT_CHAIN_CAP] = wait_chain();

const fn wait_chain() -> [f64; WAIT_CHAIN_CAP] {
    let mut table = [0.0; WAIT_CHAIN_CAP];
    let mut k = 1;
    while k < WAIT_CHAIN_CAP {
        table[k] = table[k - 1] + 1e-3;
        k += 1;
    }
    table
}

fn wait_chain_value(k: u64) -> f64 {
    if let Some(&w) = usize::try_from(k).ok().and_then(|k| WAIT_CHAIN.get(k)) {
        memo_stats::WAIT_TABLE_HITS.fetch_add(1, Relaxed);
        return w;
    }
    memo_stats::WAIT_TABLE_MISSES.fetch_add(1, Relaxed);
    let mut w = WAIT_CHAIN[WAIT_CHAIN_CAP - 1];
    for _ in (WAIT_CHAIN_CAP as u64 - 1)..k {
        w += 1e-3;
    }
    w
}

/// Cycle counts below this read `dt` and drain from the supply's
/// tables; settles are 1–300 cycles, so the hot path never divides.
pub(crate) const SETTLE_TABLE: usize = 256;

/// Electrical configuration of the supply.
///
/// Defaults model the paper's platform: a 10 µF capacitor, a 24 MHz core
/// clock, and constant energy per cycle. The turn-on / brown-out
/// thresholds (2.4 V / 1.8 V) give ≈12.6 µJ of usable energy per power
/// cycle — roughly two milliseconds of execution, the "few milliseconds at
/// a time" regime the paper describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyConfig {
    /// Storage capacitance in farads (paper: 10 µF).
    pub capacitance_f: f64,
    /// Voltage at which the device powers on.
    pub v_on: f64,
    /// Brown-out voltage at which the device loses power.
    pub v_off: f64,
    /// Rail voltage (harvest clamps here).
    pub v_max: f64,
    /// Core clock in hertz (paper: 24 MHz).
    pub clock_hz: f64,
    /// Execution energy per clock cycle, in picojoules.
    pub pj_per_cycle: f64,
    /// Start with the capacitor charged to `v_on` (a deployed device
    /// waiting for its next input), rather than from a cold first boot.
    /// Applies to every variant equally; runtime comparisons measure
    /// steady operation, as the paper's do.
    pub start_charged: bool,
}

impl Default for SupplyConfig {
    fn default() -> SupplyConfig {
        SupplyConfig {
            capacitance_f: 10e-6,
            v_on: 2.4,
            v_off: 1.8,
            v_max: 4.5,
            clock_hz: 24e6,
            pj_per_cycle: 250.0,
            start_charged: true,
        }
    }
}

impl SupplyConfig {
    /// Checks the configuration for electrical sanity: thresholds must be
    /// ordered `0 < v_off < v_on <= v_max`, and capacitance, clock and
    /// per-cycle energy must be positive finite numbers (energy may be
    /// zero). A config that fails this would otherwise produce NaN or
    /// infinite energy budgets deep inside a run.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyError::InvalidConfig`] naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SupplyError> {
        let invalid = |reason: &str| {
            Err(SupplyError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if !(self.capacitance_f.is_finite() && self.capacitance_f > 0.0) {
            return invalid("capacitance must be positive and finite");
        }
        if !(self.clock_hz.is_finite() && self.clock_hz > 0.0) {
            return invalid("clock must be positive and finite");
        }
        if !(self.pj_per_cycle.is_finite() && self.pj_per_cycle >= 0.0) {
            return invalid("energy per cycle must be non-negative and finite");
        }
        if !self.v_max.is_finite() || !self.v_on.is_finite() || !self.v_off.is_finite() {
            return invalid("voltage thresholds must be finite");
        }
        if !(self.v_off > 0.0 && self.v_off < self.v_on && self.v_on <= self.v_max) {
            return invalid("voltage thresholds must satisfy 0 < v_off < v_on <= v_max");
        }
        Ok(())
    }

    /// Usable energy per power cycle (between `v_on` and `v_off`), joules.
    pub fn usable_energy_j(&self) -> f64 {
        0.5 * self.capacitance_f * (self.v_on * self.v_on - self.v_off * self.v_off)
    }

    /// Approximate cycles executable per power-on period, ignoring harvest
    /// income while on.
    pub fn cycles_per_on_period(&self) -> u64 {
        (self.usable_energy_j() / (self.pj_per_cycle * 1e-12)) as u64
    }
}

/// Outcome of consuming cycles from the supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerStatus {
    /// Still powered.
    On,
    /// The capacitor crossed the brown-out threshold: **power outage**.
    Outage,
}

/// Errors from the supply.
#[derive(Debug, Clone, PartialEq)]
pub enum SupplyError {
    /// The trace supplies too little power to ever reach `v_on`
    /// (no progress after `waited_s` simulated seconds).
    Starved { waited_s: f64 },
    /// `consume_cycles` was called while the device was off.
    NotPowered,
    /// The electrical configuration is inconsistent (see
    /// [`SupplyConfig::validate`]).
    InvalidConfig {
        /// The violated constraint.
        reason: String,
    },
}

impl fmt::Display for SupplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupplyError::Starved { waited_s } => {
                write!(
                    f,
                    "harvester starved: v_on not reached after {waited_s:.1}s"
                )
            }
            SupplyError::NotPowered => write!(f, "cycles consumed while powered off"),
            SupplyError::InvalidConfig { reason } => {
                write!(f, "invalid supply configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for SupplyError {}

/// The energy supply driving an intermittent execution.
///
/// Time advances in two ways: [`EnergySupply::consume_cycles`] while the
/// device executes, and [`EnergySupply::wait_for_power`] while it is dark
/// and recharging. All of wall-clock time, outage counts and harvested
/// energy are tracked for the experiment harness.
#[derive(Debug, Clone)]
pub struct EnergySupply {
    cap: Capacitor,
    trace: PowerTrace,
    config: SupplyConfig,
    t_s: f64,
    on: bool,
    outages: u64,
    on_time_s: f64,
    /// Cached `cap.energy_at(v_off)`: the brown-out energy floor used to
    /// size leases in [`EnergySupply::grant_cycles`].
    e_off_j: f64,
    /// Exact brown-out threshold: the minimal stored energy whose
    /// computed voltage reaches `v_off`
    /// ([`Capacitor::voltage_threshold_energy`], one bisection per
    /// supply). `energy < e_outage_j` is bit-equivalent
    /// to `voltage() < v_off`, so [`EnergySupply::consume_cycles`] needs
    /// no `sqrt` per call.
    e_outage_j: f64,
    /// Cached `pj_per_cycle * 1e-12` — the exact first factor of the
    /// drain expression in [`EnergySupply::consume_cycles`], so
    /// [`EnergySupply::settle`] reproduces its rounding bit-for-bit.
    drain_per_cycle_j: f64,
    /// Harvested power of the trace sample `t_s` currently sits in, in
    /// watts — valid while `seg_budget_cycles > 0`.
    seg_power_w: f64,
    /// Conservative number of cycles that can elapse from `t_s` while
    /// provably staying strictly inside the cached sample. Decremented by
    /// [`EnergySupply::settle`]'s fast path; zeroed whenever time
    /// advances through any other path.
    seg_budget_cycles: u64,
    /// `dt_table[c]` = `c as f64 / clock_hz`, bit-identical to computing
    /// the division per call.
    dt_table: [f64; SETTLE_TABLE],
    /// `drain_table[c]` = `drain_per_cycle_j * c as f64`, the drain
    /// expression of [`EnergySupply::consume_cycles`] evaluated once per
    /// cycle count, so the settle kernel never converts or multiplies.
    drain_table: [f64; SETTLE_TABLE],
}

impl EnergySupply {
    /// Safety margin subtracted from every lease, in cycles. Covers the
    /// accumulated float rounding of splitting one lease into thousands
    /// of per-instruction settles (≈1 ulp each, ~6 orders of magnitude
    /// below one cycle's drain) with an enormous cushion.
    pub const LEASE_MARGIN_CYCLES: u64 = 64;

    /// Creates a supply, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyError::InvalidConfig`] if
    /// [`SupplyConfig::validate`] rejects `config`.
    pub fn try_new(trace: PowerTrace, config: SupplyConfig) -> Result<EnergySupply, SupplyError> {
        config.validate()?;
        let mut cap = Capacitor::new(config.capacitance_f, config.v_max);
        if config.start_charged {
            cap.set_voltage(config.v_on);
        }
        let e_off_j = cap.energy_at(config.v_off);
        let e_outage_j = cap.voltage_threshold_energy(config.v_off);
        let drain_per_cycle_j = config.pj_per_cycle * 1e-12;
        let dt_table = std::array::from_fn(|c| c as f64 / config.clock_hz);
        let drain_table = std::array::from_fn(|c| drain_per_cycle_j * c as f64);
        Ok(EnergySupply {
            cap,
            trace,
            config,
            t_s: 0.0,
            on: false,
            outages: 0,
            on_time_s: 0.0,
            e_off_j,
            e_outage_j,
            drain_per_cycle_j,
            seg_power_w: 0.0,
            seg_budget_cycles: 0,
            dt_table,
            drain_table,
        })
    }

    /// Creates a supply with a discharged capacitor (device off).
    ///
    /// # Panics
    ///
    /// Panics if [`SupplyConfig::validate`] rejects `config`.
    pub fn new(trace: PowerTrace, config: SupplyConfig) -> EnergySupply {
        match EnergySupply::try_new(trace, config) {
            Ok(supply) => supply,
            Err(e) => panic!("{e}"),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SupplyConfig {
        &self.config
    }

    /// Simulated wall-clock time in seconds.
    pub fn time_s(&self) -> f64 {
        self.t_s
    }

    /// Simulated time spent powered on, in seconds.
    pub fn on_time_s(&self) -> f64 {
        self.on_time_s
    }

    /// Whether the device currently has power.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Number of power outages so far.
    pub fn outage_count(&self) -> u64 {
        self.outages
    }

    /// Current capacitor voltage.
    pub fn voltage(&self) -> f64 {
        self.cap.voltage()
    }

    /// Charges (while dark) until the turn-on threshold is reached,
    /// advancing time in 1 ms steps. Returns the wait duration in seconds.
    /// A no-op returning 0.0 if already on.
    ///
    /// The reference semantics are the plain 1 ms loop of the test
    /// oracle `wait_for_power_reference`; this method is its bit-exact
    /// fast form. Two elisions, both replay rather than
    /// reassociation:
    ///
    /// - **Zero-run sprint**: while the trace sits in a run of exactly
    ///   zero samples (RF gaps, solar nights), each reference step
    ///   harvests `±0.0` and `add_energy(±0.0)` cannot change the stored
    ///   bits (stored energy is never `-0.0`), so the body reduces to
    ///   the `t_s += 1 ms` chain. The sprint performs exactly those adds
    ///   and skips the rest, staying conservatively short of the run's
    ///   end so every elided step provably read only zero samples.
    /// - **Wait-chain replay**: the `waited` accumulator is a pure
    ///   `0.0 (+1 ms)^k` chain, replayed from an immutable table built
    ///   at compile time ([`memo_stats`]) instead of recomputed; the
    ///   starvation guard compares `k` against a step count that
    ///   provably under-runs [`STARVATION_LIMIT_S`] (the chain's
    ///   accumulated rounding is below `1e-6` there), falling back to the
    ///   exact chain beyond it.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyError::Starved`] if `v_on` is not reached within
    /// [`STARVATION_LIMIT_S`].
    pub fn wait_for_power(&mut self) -> Result<f64, SupplyError> {
        if self.on {
            return Ok(0.0);
        }
        self.seg_budget_cycles = 0;
        const STEP_S: f64 = 1e-3;
        // A step count provably below the starvation guard: `waited`
        // after k steps is within k·2^-52·STARVATION_LIMIT_S ≤ 9e-7 of
        // k·1e-3, so every k ten steps short of the limit stays strictly
        // under STARVATION_LIMIT_S.
        const K_SAFE: u64 = (STARVATION_LIMIT_S * 1e3) as u64 - 10;
        let target = self.cap.energy_at(self.config.v_on);
        let mut k: u64 = 0;
        while self.cap.energy() < target {
            if k >= K_SAFE {
                return self.wait_for_power_tail(target, k);
            }
            let i0 = (self.t_s * SAMPLE_HZ) as u64;
            let run = self.trace.zero_run_from(i0);
            if run > 3 {
                // Sprint: the reference step after j elided steps
                // touches samples no further than index i0 + j + 3
                // (one sample of slack for the floor at t_s, one for
                // the step's far edge, one for accumulated chain
                // rounding), so stopping three short of the run keeps
                // every elided step strictly inside it.
                let n = (run - 3).min(K_SAFE - k);
                for _ in 0..n {
                    self.t_s += STEP_S;
                }
                k += n;
                memo_stats::CHARGE_FF_SPRINTS.fetch_add(1, Relaxed);
                memo_stats::CHARGE_FF_STEPS.fetch_add(n, Relaxed);
                continue;
            }
            let harvested = self.trace.energy_between(self.t_s, STEP_S);
            self.cap.add_energy(harvested);
            self.t_s += STEP_S;
            k += 1;
        }
        self.on = true;
        Ok(wait_chain_value(k))
    }

    /// Exact continuation of [`EnergySupply::wait_for_power`] past the
    /// provably-safe step count: materializes `waited` from the chain
    /// and runs the reference loop, guard included. Cold — only waits
    /// within rounding of the hour limit (i.e. starving supplies) get
    /// here.
    #[cold]
    fn wait_for_power_tail(&mut self, target: f64, k: u64) -> Result<f64, SupplyError> {
        const STEP_S: f64 = 1e-3;
        let mut waited = wait_chain_value(k);
        while self.cap.energy() < target {
            if waited >= STARVATION_LIMIT_S {
                return Err(SupplyError::Starved { waited_s: waited });
            }
            let harvested = self.trace.energy_between(self.t_s, STEP_S);
            self.cap.add_energy(harvested);
            self.t_s += STEP_S;
            waited += STEP_S;
        }
        self.on = true;
        Ok(waited)
    }

    /// Consumes `cycles` of execution: advances time, drains execution
    /// energy, credits harvest income, and reports whether the device
    /// browned out during the interval.
    ///
    /// Harvest and drain are netted over the whole interval, so brown-out
    /// detection is accurate to the call granularity — callers should
    /// consume one instruction (tens of cycles, ≈ a microsecond) at a
    /// time, as the intermittent executor does.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyError::NotPowered`] if the device is off.
    pub fn consume_cycles(&mut self, cycles: u64) -> Result<PowerStatus, SupplyError> {
        if !self.on {
            return Err(SupplyError::NotPowered);
        }
        if cycles == 0 {
            return Ok(PowerStatus::On);
        }
        self.settle_exact(cycles);
        // `voltage() < v_off` ⇔ `energy() < e_outage_j` (see
        // `Capacitor::voltage_threshold_energy`), which keeps the `sqrt`
        // off this path.
        if self.cap.energy() < self.e_outage_j {
            self.on = false;
            self.outages += 1;
            Ok(PowerStatus::Outage)
        } else {
            Ok(PowerStatus::On)
        }
    }

    /// Grants an **energy lease**: the number of cycles guaranteed to
    /// execute without a brown-out even if the harvester delivers nothing,
    /// capped at `cap`. Solved analytically from the capacitor state:
    /// `floor((E − E_off) / drain_per_cycle)` minus
    /// [`EnergySupply::LEASE_MARGIN_CYCLES`].
    ///
    /// The zero-harvest assumption makes this a lower bound — harvest
    /// income only adds energy (`Capacitor::add_energy` never removes
    /// any), so the real post-lease energy is at least the granted
    /// bound. Returns 0 when the device is off or hugging the brown-out
    /// threshold (callers fall back to per-instruction accounting), and
    /// `cap` when execution is free (`pj_per_cycle == 0`).
    #[inline]
    pub fn grant_cycles(&self, cap: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let headroom_j = self.cap.energy() - self.e_off_j;
        if headroom_j <= 0.0 {
            return 0;
        }
        if self.drain_per_cycle_j <= 0.0 {
            return cap;
        }
        let cycles = (headroom_j / self.drain_per_cycle_j).floor();
        if cycles < 1.0 {
            return 0;
        }
        let cycles = if cycles >= u64::MAX as f64 {
            u64::MAX
        } else {
            cycles as u64
        };
        cycles
            .saturating_sub(EnergySupply::LEASE_MARGIN_CYCLES)
            .min(cap)
    }

    /// Settles `cycles` of execution inside a granted lease: advances
    /// time, credits harvest, drains execution energy — exactly
    /// [`EnergySupply::consume_cycles`] minus the brown-out check (the
    /// lease already guarantees no outage, so the `sqrt` in
    /// `Capacitor::voltage` is skipped on the hot path).
    ///
    /// Every float operation here reproduces `consume_cycles`' expression
    /// order bit-for-bit; the epoch scheduler's equivalence to the
    /// per-instruction reference engine (and the byte-identity of
    /// experiment CSVs) depends on it. The fast path is one step of the
    /// settle kernel (see [`EnergySupply::settle_run`]); a segment-cache
    /// miss, an oversized interval or a clamp takes the exact path.
    #[inline]
    pub fn settle(&mut self, cycles: u64) {
        debug_assert!(self.on, "settle called while powered off");
        if cycles < SETTLE_TABLE as u64 && cycles <= self.seg_budget_cycles {
            let (p, max) = (self.seg_power_w, self.cap.max_energy());
            let (mut e, mut t, mut on) = (self.cap.energy(), self.t_s, self.on_time_s);
            if !self.kernel_step(p, max, cycles, &mut e, &mut t, &mut on) {
                self.seg_budget_cycles -= cycles;
                self.cap.set_energy_raw(e);
                self.t_s = t;
                self.on_time_s = on;
                return;
            }
        }
        self.settle_fallback(cycles);
    }

    /// One element of the settle kernel (see [`EnergySupply::settle_run`]):
    /// `s = e + p·dt[c]`, `e = s − drain[c]`, `t += dt[c]`, `on +=
    /// dt[c]`, returning whether the add or drain clamp would have
    /// fired — in which case `e` is not the exact result and the caller
    /// must redo the work on the exact path. `cycles` must be below
    /// [`SETTLE_TABLE`]; `p` and `max` are the cached segment power and
    /// the capacitor's `max_energy`.
    #[inline(always)]
    fn kernel_step(
        &self,
        p: f64,
        max: f64,
        cycles: u64,
        e: &mut f64,
        t: &mut f64,
        on: &mut f64,
    ) -> bool {
        debug_assert!(cycles < SETTLE_TABLE as u64);
        // The mask is the identity for every in-range count; it only
        // lets the compiler drop the bounds checks.
        let c = cycles as usize & (SETTLE_TABLE - 1);
        let dt = self.dt_table[c];
        let s = *e + p * dt;
        *e = s - self.drain_table[c];
        *t += dt;
        *on += dt;
        (s > max) | (*e < 0.0)
    }

    /// [`EnergySupply::settle_exact`] out of line: the kernel's fallback,
    /// kept out of [`EnergySupply::settle`]'s footprint in the bulk loop.
    #[inline(never)]
    fn settle_fallback(&mut self, cycles: u64) {
        self.settle_exact(cycles);
    }

    /// The exact settle: advances time, credits harvest and drains
    /// execution energy for `cycles`, with both clamps and the
    /// segment-cache upkeep. [`EnergySupply::consume_cycles`] is this
    /// plus the brown-out check; it is also the kernel's fallback, and
    /// the meaning every fast form must reproduce. Inlined, because
    /// `consume_cycles` runs once per instruction on the executor's
    /// checked path near brown-out.
    ///
    /// Within the cached trace segment, harvest is `power * dt` with the
    /// same `power` that `PowerTrace::energy_between`'s single-sample
    /// fast path would read, skipping the index math and modulo.
    #[inline(always)]
    fn settle_exact(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let dt = if cycles < SETTLE_TABLE as u64 {
            self.dt_table[cycles as usize]
        } else {
            cycles as f64 / self.config.clock_hz
        };
        if cycles <= self.seg_budget_cycles {
            // The interval provably stays inside the cached trace
            // segment, so `energy_between` would take its single-sample
            // fast path and read exactly `seg_power_w`: `power * dt`
            // reproduces its result bit-for-bit without the index math.
            // (Across a zero-power run the cache may span several
            // samples; the multi-sample reference integral is then a sum
            // of `+0.0` terms and the skip below elides it exactly.)
            self.seg_budget_cycles -= cycles;
            let harvest_j = self.seg_power_w * dt;
            // Skipping a zero harvest is bit-identical: the stored energy
            // is never negative (drain clamps at +0.0), and `x + 0.0 == x`
            // for every non-negative `x`.
            if harvest_j != 0.0 {
                self.cap.add_energy(harvest_j);
            }
        } else {
            self.settle_segment_miss(dt);
        }
        self.cap.drain(self.drain_per_cycle_j * cycles as f64);
        self.t_s += dt;
        self.on_time_s += dt;
    }

    /// Settles a run of per-instruction costs, with `tail_extra` folded
    /// into the final element (a fused block's taken-branch refill) —
    /// the fused-block form of calling [`EnergySupply::settle`] once per
    /// element, with bit-identical results. `total` is the run's cycle
    /// sum, `Σcost + tail_extra`, which the caller already holds. `block` is the run's
    /// identity in `lattice` — the pc its fused dispatch was admitted
    /// at — and must name the same `costs` for the lattice's life.
    ///
    /// **The lattice.** When the run is cached in `lattice` for the
    /// current segment power and binades and passes its admission
    /// bounds, it settles with four integer adds on the bit patterns
    /// (see [`BlockLattice`]). A run's first sighting in a generation,
    /// and any run the bounds reject, falls through to the kernel.
    ///
    /// **The settle kernel.** When `total < 256` and the whole run stays
    /// inside the cached trace segment, every element takes the same
    /// straight pass over the `dt` and drain tables:
    /// `s = e + p·dt[c]`, `e = s − drain[c]`, `t += dt[c]`,
    /// `on += dt[c]`. It equals the exact per-element settle by three
    /// facts: adding a `+0.0` harvest to a non-negative energy is a
    /// no-op (so the exact path's zero-harvest skip changes nothing),
    /// `s − d < 0` holds exactly when `d > s` (so the drain clamp fires
    /// exactly on a negative result), and `s > max_energy` is exactly
    /// the add clamp. The kernel flags either clamp beside the energy
    /// chain instead of selecting on it; a flagged run is redone from
    /// the untouched supply state by the per-element path.
    #[inline]
    pub fn settle_run(
        &mut self,
        lattice: &mut BlockLattice,
        block: u32,
        costs: &[u64],
        tail_extra: u64,
        total: u64,
    ) {
        debug_assert!(self.on, "settle_run called while powered off");
        let Some((&tail_base, rest)) = costs.split_last() else {
            return;
        };
        debug_assert_eq!(
            total,
            costs.iter().sum::<u64>() + tail_extra,
            "settle_run total disagrees with its costs"
        );
        let last = tail_base + tail_extra;
        if total < SETTLE_TABLE as u64 && total <= self.seg_budget_cycles {
            // Every element is at most `total`, so each is in the tables.
            let (p, max) = (self.seg_power_w, self.cap.max_energy());
            let (mut e, mut t, mut on) = (self.cap.energy(), self.t_s, self.on_time_s);
            let at = SettlePoint {
                p,
                e,
                t,
                on,
                max,
                dt: &self.dt_table,
                drain: &self.drain_table,
            };
            if let Some((e, t, on)) = lattice.settle(&at, block, rest, last) {
                self.seg_budget_cycles -= total;
                self.cap.set_energy_raw(e);
                self.t_s = t;
                self.on_time_s = on;
                return;
            }
            let mut clamped = false;
            for &base in rest {
                clamped |= self.kernel_step(p, max, base, &mut e, &mut t, &mut on);
            }
            clamped |= self.kernel_step(p, max, last, &mut e, &mut t, &mut on);
            if !clamped {
                self.seg_budget_cycles -= total;
                self.cap.set_energy_raw(e);
                self.t_s = t;
                self.on_time_s = on;
                return;
            }
        }
        for &base in rest {
            self.settle(base);
        }
        self.settle(last);
    }

    /// Segment-cache miss: fall back to the reference harvest integral
    /// and re-point the cache. Out of line — it runs once per 1 kHz trace
    /// sample, not per instruction, and inlining it would bloat
    /// [`EnergySupply::settle`]'s footprint inside the bulk loop.
    #[inline(never)]
    fn settle_segment_miss(&mut self, dt: f64) {
        let harvested = self.trace.energy_between(self.t_s, dt);
        self.cap.add_energy(harvested);
        self.refresh_segment_cache(dt);
    }

    /// Re-points the segment cache at the sample `t_s + dt` lands in and
    /// computes a conservative cycle budget to its boundary. The margin
    /// absorbs float drift from summing many per-instruction `dt`s (≤ a
    /// hundredth of a cycle over a full 1 ms sample, and well under the
    /// margin even across a multi-sample zero run), so the fast path's
    /// in-segment claim is airtight.
    ///
    /// When the landing sample reads exactly zero, the budget extends to
    /// the end of the whole zero **run** rather than the single sample:
    /// within the run the reference integral is a sum of `±0.0` terms
    /// whose add the fast path elides bit-exactly, so sample boundaries
    /// inside the run are indistinguishable — this is the
    /// discharge-while-on counterpart of `wait_for_power`'s charge
    /// sprint.
    fn refresh_segment_cache(&mut self, dt: f64) {
        const MARGIN_CYCLES: u64 = 32;
        let new_t = self.t_s + dt;
        let idx = (new_t * SAMPLE_HZ).floor() as u64;
        self.seg_power_w = self.trace.power_at_sample(idx);
        let end_idx = if self.seg_power_w == 0.0 {
            let run = self.trace.zero_run_from(idx);
            if run > 1 {
                memo_stats::DISCHARGE_EXT_EVENTS.fetch_add(1, Relaxed);
            }
            idx + run.max(1)
        } else {
            idx + 1
        };
        let boundary_s = end_idx as f64 / SAMPLE_HZ;
        let left = (boundary_s - new_t) * self.config.clock_hz;
        self.seg_budget_cycles = if left <= 0.0 {
            0
        } else {
            (left as u64).saturating_sub(MARGIN_CYCLES)
        };
    }

    /// Idles for `duration_s` seconds: time advances and harvest charges
    /// the capacitor, but no execution energy is drawn (a clock-gated
    /// wait for the next input). The on/off state is re-evaluated at the
    /// end: an idle device with a charged capacitor is ready to run.
    pub fn idle(&mut self, duration_s: f64) {
        debug_assert!(duration_s >= 0.0);
        self.seg_budget_cycles = 0;
        const STEP_S: f64 = 1e-3;
        let mut remaining = duration_s;
        while remaining > 0.0 {
            let dt = remaining.min(STEP_S);
            let harvested = self.trace.energy_between(self.t_s, dt);
            self.cap.add_energy(harvested);
            self.t_s += dt;
            remaining -= dt;
        }
        if self.cap.voltage() >= self.config.v_on {
            self.on = true;
        }
    }

    /// Forces an immediate outage (used for fault-injection tests).
    pub fn force_outage(&mut self) {
        if self.on {
            self.on = false;
            self.outages += 1;
            self.cap.set_voltage(self.config.v_off * 0.99);
        }
    }
}

#[cfg(test)]
#[allow(clippy::while_let_loop)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    fn constant_supply() -> EnergySupply {
        let trace = PowerTrace::generate(TraceKind::Constant, 0, 10.0);
        let cfg = SupplyConfig {
            start_charged: false,
            ..SupplyConfig::default()
        };
        EnergySupply::new(trace, cfg)
    }

    #[test]
    fn usable_energy_matches_paper() {
        let cfg = SupplyConfig::default();
        assert!((cfg.usable_energy_j() - 12.6e-6).abs() < 1e-9);
        // ≈ 50k cycles ≈ 2 ms at 24 MHz: the "few milliseconds" regime.
        let cycles = cfg.cycles_per_on_period();
        assert!((40_000..70_000).contains(&cycles), "cycles = {cycles}");
    }

    #[test]
    fn charges_then_turns_on() {
        let mut s = constant_supply();
        assert!(!s.is_on());
        let waited = s.wait_for_power().unwrap();
        assert!(waited > 0.0);
        assert!(s.is_on());
        assert!(s.voltage() >= s.config().v_on - 1e-9);
        // Waiting again is free.
        assert_eq!(s.wait_for_power().unwrap(), 0.0);
    }

    #[test]
    fn consuming_drains_to_outage() {
        let mut s = constant_supply();
        s.wait_for_power().unwrap();
        let mut total = 0u64;
        loop {
            match s.consume_cycles(1000).unwrap() {
                PowerStatus::On => total += 1000,
                PowerStatus::Outage => break,
            }
            assert!(total < 10_000_000, "should brown out well before this");
        }
        assert_eq!(s.outage_count(), 1);
        assert!(!s.is_on());
        // Roughly the configured budget (constant trace supplies a little
        // extra while on).
        let expect = s.config().cycles_per_on_period();
        assert!(total as f64 > expect as f64 * 0.8, "{total} vs {expect}");
    }

    #[test]
    fn cannot_consume_while_dark() {
        let mut s = constant_supply();
        assert_eq!(s.consume_cycles(10), Err(SupplyError::NotPowered));
    }

    #[test]
    fn power_cycle_loop_makes_progress() {
        // Repeated outage/recover cycles across a bursty trace.
        let trace = PowerTrace::generate(TraceKind::RfBursty, 11, 60.0);
        let cfg = SupplyConfig {
            start_charged: false,
            ..SupplyConfig::default()
        };
        let mut s = EnergySupply::new(trace, cfg);
        let mut executed = 0u64;
        for _ in 0..5 {
            s.wait_for_power().unwrap();
            loop {
                match s.consume_cycles(500).unwrap() {
                    PowerStatus::On => executed += 500,
                    PowerStatus::Outage => break,
                }
            }
        }
        assert_eq!(s.outage_count(), 5);
        assert!(executed > 100_000, "executed {executed}");
        assert!(s.time_s() > s.on_time_s());
    }

    #[test]
    fn starved_supply_errors() {
        // A huge capacitor on µW income cannot reach v_on within the
        // simulated-hour guard.
        let trace = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
        let cfg = SupplyConfig {
            v_on: 4.4,
            capacitance_f: 10.0,
            start_charged: false,
            ..SupplyConfig::default()
        };
        let mut s = EnergySupply::new(trace, cfg);
        assert!(matches!(
            s.wait_for_power(),
            Err(SupplyError::Starved { .. })
        ));
    }

    #[test]
    fn force_outage() {
        let mut s = constant_supply();
        s.wait_for_power().unwrap();
        s.force_outage();
        assert!(!s.is_on());
        assert_eq!(s.outage_count(), 1);
    }

    #[test]
    fn starts_charged_by_default() {
        let trace = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
        let mut s = EnergySupply::new(trace, SupplyConfig::default());
        assert!(!s.is_on(), "charged but not yet powered on");
        assert_eq!(s.wait_for_power().unwrap(), 0.0, "no charging wait needed");
        assert!(s.is_on());
    }

    #[test]
    fn idle_charges_without_draining() {
        let mut s = constant_supply();
        let v0 = s.voltage();
        s.idle(0.5);
        assert!(s.voltage() > v0, "idling must charge");
        assert!((s.time_s() - 0.5).abs() < 1e-9);
        // Long enough idle turns the device on.
        s.idle(30.0);
        assert!(s.is_on());
    }

    #[test]
    fn zero_cycles_is_free() {
        let mut s = constant_supply();
        s.wait_for_power().unwrap();
        let t = s.time_s();
        assert_eq!(s.consume_cycles(0).unwrap(), PowerStatus::On);
        assert_eq!(s.time_s(), t);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let ok = SupplyConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let bad = [
            SupplyConfig { v_off: 0.0, ..ok },
            SupplyConfig {
                v_off: 2.5,
                v_on: 2.4,
                ..ok
            },
            SupplyConfig { v_on: 5.0, ..ok }, // above v_max
            SupplyConfig {
                capacitance_f: 0.0,
                ..ok
            },
            SupplyConfig {
                capacitance_f: f64::NAN,
                ..ok
            },
            SupplyConfig {
                clock_hz: 0.0,
                ..ok
            },
            SupplyConfig {
                clock_hz: f64::INFINITY,
                ..ok
            },
            SupplyConfig {
                pj_per_cycle: -1.0,
                ..ok
            },
            SupplyConfig {
                v_max: f64::NAN,
                ..ok
            },
        ];
        for cfg in bad {
            assert!(
                matches!(cfg.validate(), Err(SupplyError::InvalidConfig { .. })),
                "accepted {cfg:?}"
            );
            let trace = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
            assert!(EnergySupply::try_new(trace, cfg).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "invalid supply configuration")]
    fn new_panics_on_invalid_config() {
        let trace = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
        EnergySupply::new(
            trace,
            SupplyConfig {
                v_off: 0.0,
                ..SupplyConfig::default()
            },
        );
    }

    #[test]
    fn grant_is_zero_while_dark_and_positive_when_on() {
        let mut s = constant_supply();
        assert_eq!(s.grant_cycles(u64::MAX), 0);
        s.wait_for_power().unwrap();
        let grant = s.grant_cycles(u64::MAX);
        // Roughly a full on-period of cycles, minus the margin.
        let expect = s.config().cycles_per_on_period();
        assert!(grant > expect / 2, "grant {grant} vs {expect}");
        assert!(grant < expect * 2, "grant {grant} vs {expect}");
        // The cap is honored.
        assert_eq!(s.grant_cycles(100), 100);
    }

    #[test]
    fn granted_lease_never_browns_out() {
        // Settle an entire maximal lease, then confirm the device is
        // still above the brown-out threshold: the grant's zero-harvest
        // bound plus margin must hold.
        for seed in 0..8 {
            let trace = PowerTrace::generate(TraceKind::RfBursty, seed, 30.0);
            let mut s = EnergySupply::new(trace, SupplyConfig::default());
            s.wait_for_power().unwrap();
            let grant = s.grant_cycles(u64::MAX);
            assert!(grant > 0);
            // Settle in uneven per-instruction chunks, like the executor.
            let mut left = grant;
            let mut k = 1u64;
            while left > 0 {
                let step = (k % 23 + 1).min(left);
                s.settle(step);
                left -= step;
                k += 1;
            }
            assert!(
                s.voltage() >= s.config().v_off,
                "seed {seed}: browned out inside lease ({} V)",
                s.voltage()
            );
            assert!(s.is_on());
        }
    }

    /// Asserts two supplies hold bit-identical clocks, energy and
    /// segment budget.
    fn assert_same_state(a: &EnergySupply, b: &EnergySupply, ctx: &str) {
        assert_eq!(a.time_s().to_bits(), b.time_s().to_bits(), "{ctx}: t_s");
        assert_eq!(
            a.on_time_s().to_bits(),
            b.on_time_s().to_bits(),
            "{ctx}: on"
        );
        assert_eq!(
            a.cap.energy().to_bits(),
            b.cap.energy().to_bits(),
            "{ctx}: energy"
        );
        assert_eq!(a.seg_budget_cycles, b.seg_budget_cycles, "{ctx}: budget");
    }

    /// A powered pair of supplies on `trace` under `cfg`, with the
    /// segment cache filled so the next settle can take a fast path.
    fn powered_pair(trace: PowerTrace, cfg: SupplyConfig) -> (EnergySupply, EnergySupply) {
        let mut a = EnergySupply::new(trace.clone(), cfg);
        let mut b = EnergySupply::new(trace, cfg);
        for s in [&mut a, &mut b] {
            s.wait_for_power().unwrap();
            s.settle_exact(1);
        }
        (a, b)
    }

    /// Supply states that force each fallback of the settle kernel: a
    /// capacitor at the rail with nonzero harvest (add clamp), one
    /// holding less than a few cycles' drain (drain clamp), and a plain
    /// RF-bursty supply whose settles cross segment boundaries.
    fn clamp_cases() -> Vec<(&'static str, EnergySupply, EnergySupply)> {
        // The constant trace harvests ≈5.2 pJ per cycle; at 1 pJ of
        // drain per cycle the capacitor stays pinned at the rail.
        let rail = SupplyConfig {
            v_on: 4.5,
            pj_per_cycle: 1.0,
            ..SupplyConfig::default()
        };
        let constant = PowerTrace::generate(TraceKind::Constant, 0, 10.0);
        let (a, b) = powered_pair(constant.clone(), rail);
        let (mut c, mut d) = powered_pair(constant, SupplyConfig::default());
        let e = c.drain_per_cycle_j * 3.5;
        c.cap.set_energy_raw(e);
        d.cap.set_energy_raw(e);
        let (f, g) = powered_pair(
            PowerTrace::generate(TraceKind::RfBursty, 3, 10.0),
            SupplyConfig::default(),
        );
        vec![("rail", a, b), ("drain", c, d), ("segments", f, g)]
    }

    #[test]
    fn settle_matches_consume_cycles_bitwise() {
        // The epoch engine's equivalence argument needs `settle` to
        // reproduce `consume_cycles`' float results exactly, including
        // through the cached-segment fast path and across segment
        // boundaries.
        for seed in [0u64, 3, 9] {
            let trace = PowerTrace::generate(TraceKind::RfBursty, seed, 10.0);
            let (mut a, mut b) = powered_pair(trace, SupplyConfig::default());
            let mut settles = 0u64;
            for k in 0..50_000u64 {
                let cycles = k % 37 + 1;
                if a.grant_cycles(cycles) < cycles {
                    break; // near brown-out: epoch engine would hand off
                }
                a.settle(cycles);
                settles += 1;
                assert_eq!(b.consume_cycles(cycles), Ok(PowerStatus::On));
                assert_same_state(&a, &b, &format!("seed {seed} k={k}"));
            }
            // The default supply holds ~50k usable cycles, so at ~19
            // cycles per settle the lease sustains a few thousand —
            // enough to cross many 1 ms trace segments.
            assert!(settles > 1_000, "seed {seed}: only {settles} settles");
        }
        // Each kernel fallback, plus zero and oversized intervals. The
        // drain clamp browns `consume_cycles` out, which ends the case.
        for (name, mut a, mut b) in clamp_cases() {
            for (k, cycles) in [0u64, 7, 1, 255, 256, 300, 0, 3, 40, 1]
                .into_iter()
                .enumerate()
            {
                a.settle(cycles);
                let status = b.consume_cycles(cycles);
                assert_same_state(&a, &b, &format!("{name} k={k}"));
                if status == Ok(PowerStatus::Outage) {
                    assert_eq!((name, k), ("drain", 1), "only the drain clamp browns out");
                    break;
                }
            }
        }
    }

    /// Settles `costs` as block `id` on `a` through `settle_run` and
    /// element by element on `b` through the exact settle.
    fn settle_pair(
        a: &mut EnergySupply,
        lattice: &mut BlockLattice,
        id: u32,
        b: &mut EnergySupply,
        costs: &[u64],
        tail_extra: u64,
    ) {
        let total = costs.iter().sum::<u64>() + tail_extra;
        a.settle_run(lattice, id, costs, tail_extra, total);
        let (last, rest) = costs.split_last().unwrap();
        for &c in rest {
            b.settle_exact(c);
        }
        b.settle_exact(last + tail_extra);
    }

    #[test]
    fn settle_run_matches_per_element_settles_bitwise() {
        // The fused-block path batches a block's per-instruction costs
        // into one `settle_run`; its float state must be bit-identical
        // to calling `settle` once per element, across segment-cache
        // misses included. `tail_extra` models a taken-`BCond` tail: it
        // lands on the final element only. Each sweep shifts every cost
        // by 0, 1 or 2 cycles.
        // Every block gets an identity of its own, so the lattice never
        // holds its sums: this pins the float kernel and the exact path.
        let mut lattice = BlockLattice::new();
        let mut id = 0u32;
        let mut settle_both =
            |a: &mut EnergySupply, b: &mut EnergySupply, costs: &[u64], tail_extra: u64| {
                id += 1;
                settle_pair(a, &mut lattice, id, b, costs, tail_extra);
            };
        for seed in [0u64, 3, 9] {
            for shift in [0u64, 1, 2] {
                let trace = PowerTrace::generate(TraceKind::RfBursty, seed, 10.0);
                let (mut a, mut b) = powered_pair(trace, SupplyConfig::default());
                let (mut blocks, mut crossings) = (0u64, 0u64);
                'outer: for k in 0..8_000u64 {
                    // Before the shift: zero-cost elements every fifth
                    // block, a 256-cycle element every 97th.
                    let costs: Vec<u64> = (0..(k % 7 + 1))
                        .map(|i| match (k + i) % 97 {
                            0 => 256,
                            x if k % 5 == 0 => x % 3,
                            _ => (k + i) % 17 + 1,
                        } + shift)
                        .collect();
                    let tail_extra = k % 3;
                    let worst: u64 = costs.iter().sum::<u64>() + tail_extra;
                    if a.grant_cycles(worst) < worst {
                        break 'outer;
                    }
                    crossings += u64::from(worst > a.seg_budget_cycles);
                    settle_both(&mut a, &mut b, &costs, tail_extra);
                    blocks += 1;
                    assert_same_state(&a, &b, &format!("seed {seed} k={k}"));
                }
                assert!(blocks > 500, "seed {seed}: only {blocks} blocks");
                assert!(crossings > 0, "seed {seed}: no block crossed a segment");
            }
        }
        for shift in [0u64, 1, 2] {
            for (name, mut a, mut b) in clamp_cases() {
                for (k, costs) in [
                    &[1u64, 2, 3][..],
                    &[0, 0],
                    &[5, 0, 7],
                    &[300, 1],
                    &[2, 256],
                    &[40; 6],
                    &[1],
                ]
                .into_iter()
                .enumerate()
                {
                    let costs: Vec<u64> = costs.iter().map(|c| c + shift).collect();
                    settle_both(&mut a, &mut b, &costs, k as u64 % 2);
                    assert_same_state(&a, &b, &format!("{name} shift {shift} k={k}"));
                }
            }
        }
    }

    /// A powered supply on segment power `p` with a long segment budget,
    /// its energy, clock and on-time set to the given bit patterns.
    fn placed(cfg: SupplyConfig, p: f64, e: u64, t: u64, on: u64) -> EnergySupply {
        let trace = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
        let mut s = EnergySupply::new(trace, cfg);
        s.wait_for_power().unwrap();
        s.seg_power_w = p;
        s.seg_budget_cycles = 1 << 40;
        s.cap.set_energy_raw(f64::from_bits(e));
        s.t_s = f64::from_bits(t);
        s.on_time_s = f64::from_bits(on);
        s
    }

    /// Bit pattern of `2^k` (unbiased `k`) plus `ulps`.
    fn binade(k: i32, ulps: u64) -> u64 {
        ((k + 1023) as u64) << 52 | ulps
    }

    /// Settles block `costs` from `s` on the lattice (after a first
    /// sighting and a build, both from the same start on throwaway
    /// clones) and per element on the exact path; asserts the two agree
    /// bit for bit and returns whether the lattice settled it.
    fn lattice_vs_exact(s: &EnergySupply, costs: &[u64], tail_extra: u64, ctx: &str) -> bool {
        let mut lattice = BlockLattice::new();
        let total = costs.iter().sum::<u64>() + tail_extra;
        for _ in 0..2 {
            s.clone()
                .settle_run(&mut lattice, 7, costs, tail_extra, total);
        }
        let before = lattice.lattice_settles;
        let (mut a, mut b) = (s.clone(), s.clone());
        settle_pair(&mut a, &mut lattice, 7, &mut b, costs, tail_extra);
        assert_same_state(&a, &b, ctx);
        lattice.lattice_settles > before
    }

    /// Net ulps a block moves energy, `t_s` and `on_time_s` from
    /// `s`, read off the exact settle (from a start well inside all
    /// three binades, so it equals the lattice sums).
    fn moved(s: &EnergySupply, costs: &[u64], tail_extra: u64) -> (i64, u64, u64) {
        let mut b = s.clone();
        let (last, rest) = costs.split_last().unwrap();
        for &c in rest {
            b.settle_exact(c);
        }
        b.settle_exact(last + tail_extra);
        (
            b.cap.energy().to_bits() as i64 - s.cap.energy().to_bits() as i64,
            b.t_s.to_bits() - s.t_s.to_bits(),
            b.on_time_s.to_bits() - s.on_time_s.to_bits(),
        )
    }

    #[test]
    fn lattice_settles_match_exact_settles_at_binade_edges() {
        let costs = [3u64, 17, 1, 9, 2];
        let tail = 2;
        let (mid_e, mid_t, mid_on) = (binade(-16, 1 << 51), binade(3, 1 << 51), binade(1, 1 << 51));
        // Drain only (no harvest): the energy falls by Σdown.
        let drain_cfg = SupplyConfig::default();
        let mid = placed(drain_cfg, 0.0, mid_e, mid_t, mid_on);
        assert!(lattice_vs_exact(&mid, &costs, tail, "mid-binade"));
        let (de, dt, don) = moved(&mid, &costs, tail);
        let down = (-de) as u64;
        let floor_e = binade(-16, 0);
        for d in 0..=3u64 {
            // The start 0–3 ulps above the floor: the block leaves the
            // binade downward.
            let s = placed(drain_cfg, 0.0, floor_e + d, mid_t, mid_on);
            assert!(!lattice_vs_exact(&s, &costs, tail, &format!("e floor+{d}")));
        }
        for d in -2i64..=3 {
            // The result `d` ulps above the floor: one ulp is the least
            // the lattice admits.
            let s = placed(
                drain_cfg,
                0.0,
                (floor_e + down).wrapping_add_signed(d),
                mid_t,
                mid_on,
            );
            let took = lattice_vs_exact(&s, &costs, tail, &format!("e result floor{d:+}"));
            assert_eq!(took, d >= 1, "e result floor{d:+}");
        }
        let top = |k: i32| binade(k, (1 << 52) - 1);
        for d in -2i64..=3 {
            // `t_s` and `on_time_s` ending `d` ulps below their tops.
            let t = (top(3) - dt).wrapping_add_signed(-d);
            let s = placed(drain_cfg, 0.0, mid_e, t, mid_on);
            let took = lattice_vs_exact(&s, &costs, tail, &format!("t top{d:+}"));
            assert_eq!(took, d >= 0, "t top{d:+}");
            let on = (top(1) - don).wrapping_add_signed(-d);
            let s = placed(drain_cfg, 0.0, mid_e, mid_t, on);
            let took = lattice_vs_exact(&s, &costs, tail, &format!("on top{d:+}"));
            assert_eq!(took, d >= 0, "on top{d:+}");
        }
        for d in 0..=3u64 {
            // Clocks 0–3 ulps above their floors and at their tops.
            for (t, on) in [
                (binade(3, d), mid_on),
                (mid_t, binade(1, d)),
                (top(3) - d, mid_on),
                (mid_t, top(1) - d),
            ] {
                let s = placed(drain_cfg, 0.0, mid_e, t, on);
                let took = lattice_vs_exact(&s, &costs, tail, &format!("clock edge {d}"));
                assert_eq!(took, t < top(3) - dt && on < top(1) - don, "clock edge {d}");
            }
        }
        // Harvest only (free execution): the energy rises by Σup, to the
        // top of its binade or to `max_energy`, whichever is lower.
        let free = SupplyConfig {
            pj_per_cycle: 0.0,
            ..SupplyConfig::default()
        };
        let p = 3e-3;
        let mid = placed(free, p, mid_e, mid_t, mid_on);
        let up = moved(&mid, &costs, tail).0 as u64;
        assert!(lattice_vs_exact(&mid, &costs, tail, "harvest mid-binade"));
        let max = mid.cap.max_energy().to_bits();
        let k_max = (max >> 52) as i32 - 1023;
        let up_max = {
            let s = placed(free, p, binade(k_max, 1 << 50), mid_t, mid_on);
            moved(&s, &costs, tail).0 as u64
        };
        for d in -2i64..=3 {
            let s = placed(
                free,
                p,
                (top(-16) - up).wrapping_add_signed(-d),
                mid_t,
                mid_on,
            );
            let took = lattice_vs_exact(&s, &costs, tail, &format!("e top{d:+}"));
            assert_eq!(took, d >= 0, "e top{d:+}");
            // At the rail: past it the add clamp fires.
            let s = placed(
                free,
                p,
                (max - up_max).wrapping_add_signed(-d),
                mid_t,
                mid_on,
            );
            let took = lattice_vs_exact(&s, &costs, tail, &format!("max{d:+}"));
            assert_eq!(took, d >= 0, "max{d:+}");
        }
        for d in 0..=3u64 {
            let s = placed(free, p, top(-16) - d, mid_t, mid_on);
            assert!(!lattice_vs_exact(&s, &costs, tail, &format!("e top-{d}")));
        }
    }

    #[test]
    fn lattice_rejects_ties_and_handles_zero_power_and_clamps() {
        let cfg = SupplyConfig::default();
        let probe = placed(cfg, 0.0, binade(-16, 1 << 51), binade(3, 1), binade(1, 1));
        // A binade whose ulp is twice the lowest set bit of `x`: `x` is
        // an odd number of half-ulps there, a tie.
        let tie_binade = |x: f64| {
            let bits = x.to_bits();
            let mantissa = bits & ((1 << 52) - 1) | 1 << 52;
            (bits >> 52) + u64::from(mantissa.trailing_zeros()) + 1
        };
        for c in [1u64, 6, 25] {
            let k = tie_binade(probe.dt_table[c as usize]);
            let tied = k << 52 | 1 << 51;
            // `dt[c]` ties on the `t_s` lattice, then on `on_time_s`'s,
            // alone and inside a block.
            for costs in [&[c][..], &[c, 1], &[1, c]] {
                let s = placed(cfg, 0.0, binade(-16, 1 << 51), tied, binade(1, 1));
                assert!(!lattice_vs_exact(&s, costs, 0, &format!("t tie c={c}")));
                let s = placed(cfg, 0.0, binade(-16, 1 << 51), binade(3, 1), tied);
                assert!(!lattice_vs_exact(&s, costs, 0, &format!("on tie c={c}")));
            }
            // The drain ties on the energy lattice.
            let k = tie_binade(probe.drain_table[c as usize]);
            let s = placed(cfg, 0.0, k << 52 | 3 << 50, binade(3, 1), binade(1, 1));
            assert!(!lattice_vs_exact(&s, &[c], 0, &format!("drain tie c={c}")));
            // A power of two times `dt[c]` ties the harvest.
            let free = SupplyConfig {
                pj_per_cycle: 0.0,
                ..cfg
            };
            let p = 2f64.powi(-10);
            let k = tie_binade(p * probe.dt_table[c as usize]);
            let s = placed(free, p, k << 52 | 1 << 50, binade(3, 1), binade(1, 1));
            assert!(!lattice_vs_exact(
                &s,
                &[c],
                0,
                &format!("harvest tie c={c}")
            ));
        }
        // Zero segment power: the exact path skips the harvest, the
        // lattice adds nothing.
        let s = placed(cfg, 0.0, binade(-16, 3 << 50), binade(3, 99), binade(1, 7));
        assert!(lattice_vs_exact(&s, &[4, 4, 4, 11], 1, "zero power"));
        // Both clamps: the lattice must refuse, the fallback must match.
        let mut lattice = BlockLattice::new();
        for (name, mut a, mut b) in clamp_cases() {
            for k in 0..6 {
                let before = lattice.lattice_settles;
                settle_pair(&mut a, &mut lattice, 3, &mut b, &[6, 3, 8], 0);
                assert_same_state(&a, &b, &format!("{name} k={k}"));
                if name != "segments" {
                    assert_eq!(lattice.lattice_settles, before, "{name} k={k}");
                }
            }
        }
    }

    #[test]
    fn lattice_never_reuses_stale_sums() {
        let cfg = SupplyConfig::default();
        let start = placed(cfg, 2e-3, binade(-16, 1 << 51), binade(3, 1), binade(1, 1));
        let (mut a, mut b) = (start.clone(), start);
        let mut lattice = BlockLattice::new();
        let mut settle =
            |a: &mut EnergySupply, b: &mut EnergySupply, id: u32, costs: &[u64], ctx: &str| {
                let before = lattice.lattice_settles;
                settle_pair(a, &mut lattice, id, b, costs, 0);
                assert_same_state(a, b, ctx);
                lattice.lattice_settles > before
            };
        // A block identity reused after its generation changed: a new
        // segment power, then a new energy binade. The first sighting
        // in each generation never reads the old sums.
        let costs = [4u64, 9, 2];
        let hits: Vec<bool> = (0..3)
            .map(|k| settle(&mut a, &mut b, 1, &costs, &format!("gen0 {k}")))
            .collect();
        assert_eq!(hits, [false, true, true]);
        for s in [&mut a, &mut b] {
            s.seg_power_w = 5e-3;
        }
        let hits: Vec<bool> = (0..3)
            .map(|k| settle(&mut a, &mut b, 1, &costs, &format!("gen1 {k}")))
            .collect();
        assert_eq!(hits, [false, true, true]);
        let e = binade(-15, 1 << 50);
        for s in [&mut a, &mut b] {
            s.cap.set_energy_raw(f64::from_bits(e));
        }
        let hits: Vec<bool> = (0..3)
            .map(|k| settle(&mut a, &mut b, 1, &costs, &format!("gen2 {k}")))
            .collect();
        assert_eq!(hits, [false, true, true]);
        // One cost buffer reused with new contents: each contents has
        // its own identity, so no identity ever sees another's sums.
        let mut buf = vec![0u64; 4];
        for round in 0..4u32 {
            for (id, fill) in [(10u32, 3u64), (11, 8), (12, 1)] {
                for (i, c) in buf.iter_mut().enumerate() {
                    *c = fill + i as u64 * u64::from(round % 2 + 1);
                }
                settle(
                    &mut a,
                    &mut b,
                    id + 10 * (round % 2),
                    &buf,
                    &format!("buffer {round} {id}"),
                );
            }
        }
    }

    #[test]
    fn a_mid_run_10uf_supply_settles_blocks_on_the_lattice() {
        // A paper-configured supply (10 µF) on an RF trace, settling a
        // loop of eight blocks lease by lease against the exact path:
        // nearly every block past its generation's first two sightings
        // takes the lattice.
        let trace = PowerTrace::generate(TraceKind::RfBursty, 5, 10.0);
        let (mut a, mut b) = powered_pair(trace, SupplyConfig::default());
        let blocks: Vec<Vec<u64>> = (0..8u64)
            .map(|k| (0..k % 5 + 2).map(|i| (k * 7 + i * 3) % 11 + 2).collect())
            .collect();
        let mut lattice = BlockLattice::new();
        let mut settled = 0u64;
        for round in 0..200_000u64 {
            let k = (round % 8) as usize;
            let tail = (round / 8) % 2 * 2;
            let worst = blocks[k].iter().sum::<u64>() + tail;
            if a.grant_cycles(worst) < worst {
                break;
            }
            settle_pair(&mut a, &mut lattice, k as u32 * 4, &mut b, &blocks[k], tail);
            assert_same_state(&a, &b, &format!("round {round}"));
            settled += 1;
        }
        assert!(settled > 2_000, "only {settled} blocks");
        assert!(
            lattice.lattice_settles * 10 > settled * 8,
            "{} of {settled} blocks on the lattice",
            lattice.lattice_settles
        );
    }

    #[test]
    fn free_execution_grants_the_cap() {
        let trace = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
        let cfg = SupplyConfig {
            pj_per_cycle: 0.0,
            ..SupplyConfig::default()
        };
        let mut s = EnergySupply::new(trace, cfg);
        s.wait_for_power().unwrap();
        assert_eq!(s.grant_cycles(1 << 40), 1 << 40);
    }

    /// The test oracles: the historical supply loops the fast paths are
    /// pinned to.
    impl EnergySupply {
        /// The reference recharge loop, preserved verbatim for the
        /// differential tests that pin [`EnergySupply::wait_for_power`]'s
        /// fast-forward to it bit for bit.
        fn wait_for_power_reference(&mut self) -> Result<f64, SupplyError> {
            if self.on {
                return Ok(0.0);
            }
            self.seg_budget_cycles = 0;
            const STEP_S: f64 = 1e-3;
            let target = self.cap.energy_at(self.config.v_on);
            let mut waited = 0.0;
            while self.cap.energy() < target {
                if waited >= STARVATION_LIMIT_S {
                    return Err(SupplyError::Starved { waited_s: waited });
                }
                let harvested = self.trace.energy_between(self.t_s, STEP_S);
                self.cap.add_energy(harvested);
                self.t_s += STEP_S;
                waited += STEP_S;
            }
            self.on = true;
            Ok(waited)
        }

        /// The reference form of [`EnergySupply::consume_cycles`] — the
        /// historical implementation with no segment cache and the voltage
        /// comparison spelled out — preserved verbatim for the same
        /// differential tests.
        fn consume_cycles_reference(&mut self, cycles: u64) -> Result<PowerStatus, SupplyError> {
            if !self.on {
                return Err(SupplyError::NotPowered);
            }
            if cycles == 0 {
                return Ok(PowerStatus::On);
            }
            // Time advances outside `settle`: the segment cache goes stale.
            self.seg_budget_cycles = 0;
            let dt = cycles as f64 / self.config.clock_hz;
            let harvested = self.trace.energy_between(self.t_s, dt);
            let drained = self.config.pj_per_cycle * 1e-12 * cycles as f64;
            self.cap.add_energy(harvested);
            self.cap.drain(drained);
            self.t_s += dt;
            self.on_time_s += dt;
            if self.cap.voltage() < self.config.v_off {
                self.on = false;
                self.outages += 1;
                Ok(PowerStatus::Outage)
            } else {
                Ok(PowerStatus::On)
            }
        }
    }

    /// Traces covering every fast-forward regime: fleet RF (exact-zero
    /// gaps), fleet piezo (dense impulses), solar (exact-zero nights),
    /// and the paper-suite RF (no exact zeros at all).
    fn differential_traces(seed: u64) -> Vec<PowerTrace> {
        use crate::environment::EnvModel;
        vec![
            EnvModel::rf_default().synthesize(seed, 20.0),
            EnvModel::piezo_default().synthesize(seed, 20.0),
            EnvModel::solar_default().synthesize(seed, 20.0),
            PowerTrace::generate(TraceKind::RfBursty, seed, 20.0),
        ]
    }

    #[test]
    fn wait_for_power_matches_reference_bitwise() {
        // The charge fast-forward (zero-run sprint + wait-chain replay)
        // must leave supply state and the returned wait bit-identical to
        // the reference loop, across repeated outage/recharge rounds.
        for seed in 0..4 {
            for trace in differential_traces(seed) {
                let cfg = SupplyConfig {
                    start_charged: false,
                    ..SupplyConfig::default()
                };
                let mut fast = EnergySupply::new(trace.clone(), cfg);
                let mut refr = EnergySupply::new(trace, cfg);
                for round in 0..25 {
                    let a = fast.wait_for_power().unwrap();
                    let b = refr.wait_for_power_reference().unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
                    assert_eq!(fast.time_s().to_bits(), refr.time_s().to_bits());
                    assert_eq!(fast.voltage().to_bits(), refr.voltage().to_bits());
                    // Drain both to brown-out to force the next wait.
                    loop {
                        match (
                            fast.consume_cycles(497).unwrap(),
                            refr.consume_cycles_reference(497).unwrap(),
                        ) {
                            (PowerStatus::Outage, PowerStatus::Outage) => break,
                            (PowerStatus::On, PowerStatus::On) => {}
                            (x, y) => panic!("round {round}: diverged {x:?} vs {y:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn consume_cycles_matches_reference_bitwise() {
        // The segment-cached consume path (+ energy-threshold brown-out
        // test) must be bit-identical to the reference across cache
        // hits, misses, oversized intervals, zero-run extensions, and
        // interleaved settles.
        for seed in 0..4 {
            for trace in differential_traces(seed) {
                let cfg = SupplyConfig {
                    start_charged: false,
                    ..SupplyConfig::default()
                };
                let mut fast = EnergySupply::new(trace.clone(), cfg);
                let mut refr = EnergySupply::new(trace, cfg);
                let mut outages = 0;
                let mut k = 0u64;
                while outages < 25 && k < 400_000 {
                    if !fast.is_on() {
                        fast.wait_for_power().unwrap();
                        refr.wait_for_power_reference().unwrap();
                    }
                    k += 1;
                    let cycles = match k % 13 {
                        0 => 300, // beyond the dt table: division path
                        1 => 1,
                        r => r * 37 % 61 + 1,
                    };
                    if k.is_multiple_of(11) && fast.grant_cycles(cycles) >= cycles {
                        // Interleave lease settles: they share the
                        // segment cache with consume on the fast side.
                        fast.settle(cycles);
                        refr.settle(cycles);
                    } else {
                        let a = fast.consume_cycles(cycles).unwrap();
                        let b = refr.consume_cycles_reference(cycles).unwrap();
                        assert_eq!(a, b, "k={k}");
                        if a == PowerStatus::Outage {
                            outages += 1;
                        }
                    }
                    assert_eq!(fast.time_s().to_bits(), refr.time_s().to_bits(), "k={k}");
                    assert_eq!(
                        fast.on_time_s().to_bits(),
                        refr.on_time_s().to_bits(),
                        "k={k}"
                    );
                    assert_eq!(fast.voltage().to_bits(), refr.voltage().to_bits(), "k={k}");
                }
                assert!(outages > 0, "seed {seed}: no outages exercised");
            }
        }
    }

    #[test]
    fn starved_fast_path_matches_reference() {
        // Starvation crosses the K_SAFE boundary into the exact tail:
        // the reported wait must match the reference chain bit for bit.
        let cfg = SupplyConfig {
            v_on: 4.4,
            capacitance_f: 10.0,
            start_charged: false,
            ..SupplyConfig::default()
        };
        let trace = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
        let mut fast = EnergySupply::new(trace.clone(), cfg);
        let mut refr = EnergySupply::new(trace, cfg);
        let a = fast.wait_for_power();
        let b = refr.wait_for_power_reference();
        match (a, b) {
            (
                Err(SupplyError::Starved { waited_s: x }),
                Err(SupplyError::Starved { waited_s: y }),
            ) => {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            (x, y) => panic!("expected starvation, got {x:?} / {y:?}"),
        }
        assert_eq!(fast.time_s().to_bits(), refr.time_s().to_bits());
        assert_eq!(fast.voltage().to_bits(), refr.voltage().to_bits());
    }

    #[test]
    fn memo_stats_observe_fast_forward_activity() {
        use crate::environment::EnvModel;
        let before = memo_stats::snapshot();
        let cfg = SupplyConfig {
            start_charged: false,
            ..SupplyConfig::default()
        };
        let trace = EnvModel::rf_default().synthesize(99, 20.0);
        let mut s = EnergySupply::new(trace, cfg);
        s.wait_for_power().unwrap();
        let after = memo_stats::snapshot();
        assert!(after.memo_hits > before.memo_hits, "{after:?}");
        assert!(after.memo_entries > 0);
        // RF gaps are exact zeros: the wait must have sprinted.
        assert!(after.charge_ff_steps > before.charge_ff_steps, "{after:?}");
        assert!(after.charge_ff_sprints > before.charge_ff_sprints);
        assert!(!after.to_line().is_empty());
    }

    #[test]
    fn wait_chain_replays_the_reference_accumulator() {
        let mut w = 0.0f64;
        for k in 0..2_000u64 {
            assert_eq!(super::wait_chain_value(k).to_bits(), w.to_bits(), "k={k}");
            w += 1e-3;
        }
        // Spot-check past the table cap (chained from the table end).
        let k = (super::WAIT_CHAIN_CAP as u64) + 1_000;
        let mut w = 0.0f64;
        for _ in 0..k {
            w += 1e-3;
        }
        assert_eq!(super::wait_chain_value(k).to_bits(), w.to_bits());
    }
}
