//! The intermittent executor: interleaves execution with harvested power
//! and implements the skim-point restore path.

use std::fmt;

use std::ops::ControlFlow;

use wn_energy::{BlockLattice, EnergySupply, PowerStatus, PowerTrace, SupplyConfig, SupplyError};
use wn_sim::{Core, HookBreak, HookKind, SimError, StepHook, StepInfo};
use wn_telemetry::{Event, EventKind, EventSink, NullSink};

use crate::execution::Execution;
use crate::substrate::{Substrate, SubstrateStats};

/// The lease hook: charges substrate overhead and settles energy as
/// pure bookkeeping, and — because it needs only memory-op granularity
/// — lets straight-line blocks retire fused. Block admission is bounded
/// by the substrate's own headroom (watchdog distance for Clank,
/// unlimited for NVP and Task) and its fence (the current task region
/// for Task, everything otherwise), so fused dispatch can neither cross
/// a substrate intervention point nor overshoot the energy lease.
///
/// Checkpoints and commits are attributed to `sink` from the
/// single-stepped instructions only: a fused block never checkpoints
/// (Clank's headroom keeps the watchdog out of reach, NVP checkpoints
/// only on outage) and never commits (Task's fence keeps it inside one
/// region), so the traced event stream is the one a per-instruction
/// engine would emit.
///
/// Built only by the power loop; [`Execution::run_lease`] drives it.
pub struct Lease<'a, S: Substrate, K: EventSink> {
    supply: &'a mut EnergySupply,
    /// The executor's cache of exact block settles, keyed by the
    /// program's block identities.
    lattice: &'a mut BlockLattice,
    substrate: &'a mut S,
    sink: &'a mut K,
    cap: u64,
    /// Extra cycles charged by the step that broke the loop at a task
    /// boundary. [`wn_sim::BulkRun::cycles`] excludes the breaking
    /// step's extra by contract, but the supply has already settled
    /// them, so the executor folds `carried` back into its
    /// active-cycle total.
    carried: u64,
}

impl<S: Substrate, K: EventSink> Lease<'_, S, K> {
    /// [`StepHook::on_step`] over any execution source: one individually
    /// retired instruction of `exec`.
    #[inline]
    pub(crate) fn after_step<E: Execution>(
        &mut self,
        exec: &mut E,
        info: &StepInfo,
    ) -> ControlFlow<HookBreak, u64> {
        let before = self.sink.enabled().then(|| self.substrate.stats());
        let overhead = self.substrate.after_step(exec, info);
        debug_assert!(
            overhead <= self.cap,
            "substrate overhead {overhead} exceeds its lease_cap {}",
            self.cap
        );
        self.supply.settle(info.cycles + overhead);
        if let Some(b) = before {
            self.substrate
                .record_checkpoint_events(&b, self.supply.time_s(), self.sink);
        }
        if self.substrate.take_boundary() {
            // A task committed: stop the lease so the commit settles
            // before the next grant, exactly as checkpoint costs do at
            // lease ends. The re-grant is unobservable bookkeeping
            // (`grant_cycles` is pure), so breaking here cannot perturb
            // outage placement.
            self.carried += overhead;
            return ControlFlow::Break(HookBreak::Boundary);
        }
        ControlFlow::Continue(overhead)
    }
}

impl<S: Substrate, K: EventSink> StepHook for Lease<'_, S, K> {
    const KIND: HookKind = HookKind::MemoryOps;

    #[inline]
    fn on_step(&mut self, core: &mut Core, info: &StepInfo) -> ControlFlow<HookBreak, u64> {
        self.after_step(core, info)
    }

    #[inline]
    fn block_budget(&self) -> u64 {
        self.substrate.fused_headroom()
    }

    #[inline]
    fn block_fence(&self) -> (u32, u32) {
        self.substrate.fused_fence()
    }

    #[inline]
    fn on_block(&mut self, block: u32, costs: &[u64], cycles: u64, tail_extra: u64, reads: &[u32]) {
        // The supply must end where the per-instruction engines' float
        // operation sequence ends, bit for bit. `settle_run` either
        // replays that sequence element by element (the table-driven
        // kernel, picked with one check on the block total) or, for a
        // block the lattice has cached under `block`, lands on the same
        // bits with integer adds.
        let total = cycles + tail_extra;
        self.supply
            .settle_run(self.lattice, block, costs, tail_extra, total);
        self.substrate.after_fused(total, reads);
    }
}

/// Outcome of one intermittent run. Produced only for runs that reached
/// `HALT` (naturally or by skim jump) — incomplete runs surface as
/// [`ExecError`]s instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntermittentRun {
    /// Completion happened via a skim jump after an outage: the output is
    /// the approximate result as-is (§III-C).
    pub skimmed: bool,
    /// Total simulated wall-clock time, including dark recharge periods.
    pub total_time_s: f64,
    /// Time spent powered on and executing.
    pub on_time_s: f64,
    /// Cycles executed (including re-execution and substrate overhead).
    pub active_cycles: u64,
    /// Power outages endured.
    pub outages: u64,
    /// Substrate counters at the end of the run.
    pub substrate: SubstrateStats,
}

/// Errors from an intermittent run.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The harvester never delivered enough energy.
    Supply(SupplyError),
    /// The simulated core faulted.
    Sim(SimError),
    /// The wall-clock budget expired before completion.
    WallClock { limit_s: f64 },
    /// The caller passed a NaN or negative wall-clock budget. Rejected
    /// up front: NaN poisons every comparison the loop uses to
    /// terminate (`time > limit` and `limit - time > 0` are both false
    /// for NaN), so such a budget could otherwise spin forever.
    InvalidLimit { limit_s: f64 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Supply(e) => write!(f, "energy supply error: {e}"),
            ExecError::Sim(e) => write!(f, "simulation error: {e}"),
            ExecError::WallClock { limit_s } => {
                write!(f, "run did not complete within {limit_s} simulated seconds")
            }
            ExecError::InvalidLimit { limit_s } => {
                write!(
                    f,
                    "invalid wall-clock limit {limit_s}: must be a non-negative number of seconds"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Supply(e) => Some(e),
            ExecError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SupplyError> for ExecError {
    fn from(e: SupplyError) -> ExecError {
        ExecError::Supply(e)
    }
}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> ExecError {
        ExecError::Sim(e)
    }
}

/// Drives an [`Execution`] source — a live [`Core`] by default — through
/// power outages on a [`Substrate`].
///
/// The executor owns the **skim-point restore logic** (paper §III-C): on
/// every restore after an outage it first consults the core's non-volatile
/// SKM register. If a skim point was recorded, the PC is redirected to the
/// skim target — the remaining refinement is skipped and the current
/// approximate output is committed by running (from the skim target) to
/// `HALT`. The register is cleared so the next input starts fresh.
#[derive(Debug)]
pub struct IntermittentExecutor<S, E = Core> {
    core: E,
    supply: EnergySupply,
    /// Exact block settles for `core`'s program. Owned here, not by the
    /// supply: block identities name one program's blocks, and a supply
    /// can move on to another program ([`IntermittentExecutor::into_supply`]).
    lattice: BlockLattice,
    substrate: S,
    skim_enabled: bool,
}

/// Where a run of the power loop stands between calls: the loop's own
/// running totals, and whether it stopped at the top of its lease loop
/// (the one place a pending execution source suspends it).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Progress {
    started: bool,
    in_lease: bool,
    active_cycles: u64,
    skimmed: bool,
    had_outage: bool,
    outages0: u64,
    time0: f64,
    on_time0: f64,
}

impl<S, E> IntermittentExecutor<S, E> {
    /// Creates an executor over an existing supply — used by the stream
    /// harness, where one energy environment persists across many input
    /// invocations (paper Fig. 1).
    pub fn with_supply(core: E, supply: EnergySupply, substrate: S) -> Self {
        IntermittentExecutor {
            core,
            supply,
            lattice: BlockLattice::new(),
            substrate,
            skim_enabled: true,
        }
    }

    /// The core (e.g. to inject inputs before running or decode outputs
    /// after).
    pub fn core(&self) -> &E {
        &self.core
    }

    /// Consumes the executor and returns its supply (time and capacitor
    /// state carry over to the next input).
    pub fn into_supply(self) -> EnergySupply {
        self.supply
    }

    /// Consumes the executor and returns its parts (e.g. the final core,
    /// for output decoding).
    pub fn into_parts(self) -> (E, EnergySupply, S) {
        (self.core, self.supply, self.substrate)
    }

    /// The same executor over another execution source: supply, block
    /// settles and substrate carry over. A suspended device keeps its
    /// source detached from the tape between resumes this way.
    pub(crate) fn map_core<F>(self, f: impl FnOnce(E) -> F) -> IntermittentExecutor<S, F> {
        IntermittentExecutor {
            core: f(self.core),
            supply: self.supply,
            lattice: self.lattice,
            substrate: self.substrate,
            skim_enabled: self.skim_enabled,
        }
    }

    /// The substrate.
    pub fn substrate(&self) -> &S {
        &self.substrate
    }
}

impl<S: Substrate, E: Execution> IntermittentExecutor<S, E> {
    /// Creates an executor over a fresh supply built from `trace`. The
    /// trace is borrowed — its samples are behind an `Arc`, so the supply
    /// shares them instead of copying (experiment fan-out runs many
    /// executors over one ensemble concurrently).
    pub fn new(core: E, trace: &PowerTrace, supply_config: SupplyConfig, substrate: S) -> Self {
        IntermittentExecutor::with_supply(
            core,
            EnergySupply::new(trace.clone(), supply_config),
            substrate,
        )
    }

    /// Disables the skim-point restore path (the precise baseline never
    /// sets the SKM register, but this also allows ablating skim points
    /// on WN binaries).
    pub fn set_skim_enabled(&mut self, enabled: bool) {
        self.skim_enabled = enabled;
    }

    /// Mutable access to the core.
    pub fn core_mut(&mut self) -> &mut E {
        &mut self.core
    }

    /// The energy supply.
    pub fn supply(&self) -> &EnergySupply {
        &self.supply
    }

    /// Runs until the program halts or `limit_s` of simulated wall-clock
    /// time passes, scheduling execution in **energy leases** (epochs).
    ///
    /// Each iteration asks the supply for a lease
    /// ([`EnergySupply::grant_cycles`]) — the cycles guaranteed free of
    /// brown-outs even with zero harvest. When the lease comfortably
    /// exceeds the worst case of one instruction plus the substrate's
    /// [`Substrate::lease_cap`] overhead, execution proceeds in bulk
    /// through [`Execution::run_lease`] with no per-instruction voltage
    /// check: the hook charges substrate overhead and settles energy
    /// ([`EnergySupply::settle`]) as pure bookkeeping. Near the brown-out
    /// threshold (or the wall-clock limit) it falls back to the exact
    /// per-instruction checked path, so outages land on precisely the
    /// same instruction as the per-cycle reference engine
    /// (`IntermittentExecutor::run_reference`) — `settle` reproduces
    /// `consume_cycles`' float arithmetic bit-for-bit.
    ///
    /// The wall-clock guard is folded into the lease math (leases are
    /// capped at the cycles remaining until `limit_s`) instead of the
    /// reference engine's periodic polling; `limit_s` is also checked on
    /// entry, before the initial [`EnergySupply::wait_for_power`].
    ///
    /// On top of the epoch scheduling runs the **block-fused engine**:
    /// inside a lease, straight-line basic blocks retire with one
    /// admission check per block instead of per-instruction dispatch
    /// (see [`wn_sim::StepHook`] for the granularity contract). This is
    /// the same loop [`IntermittentExecutor::run_with_sink`] drives, with
    /// a [`NullSink`]; the reference engine is the only differential
    /// cover for it.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidLimit`] for a NaN or negative
    /// `limit_s`, [`ExecError::WallClock`] on timeout, or a wrapped
    /// supply / simulator error.
    pub fn run(&mut self, limit_s: f64) -> Result<IntermittentRun, ExecError> {
        let run = self.power_loop(limit_s, &mut NullSink, &mut Progress::default())?;
        Ok(run.expect("a run over a live core or a whole tape never pends"))
    }

    /// The resumable entry to the power loop: runs, or resumes where
    /// `progress` left off, until the program halts (`Some`) or the
    /// execution source pends (`None`) — a streamed tape's cursor at the
    /// recorded end. A pend suspends the loop at the top of its lease
    /// loop, where it holds no lease; resuming grants afresh, and the
    /// re-grant is unobservable, as for a Task commit's boundary break
    /// ([`Lease::after_step`]).
    ///
    /// # Errors
    ///
    /// As [`IntermittentExecutor::run`].
    pub(crate) fn resume(
        &mut self,
        limit_s: f64,
        progress: &mut Progress,
    ) -> Result<Option<IntermittentRun>, ExecError> {
        self.power_loop(limit_s, &mut NullSink, progress)
    }

    /// [`IntermittentExecutor::run`] with lifecycle tracing: lifecycle
    /// events (run start/end, power-on/outage, checkpoint/restore, skim
    /// taken/skipped, lease grant/settle) are recorded into `sink`,
    /// timestamped with the supply's simulated clock. It is the same
    /// fused loop as the untraced run — tracing only observes, so the
    /// outcome is bit-identical and `IntermittentExecutor::run_reference`
    /// covers both.
    ///
    /// # Errors
    ///
    /// As [`IntermittentExecutor::run`].
    pub fn run_with_sink<K: EventSink>(
        &mut self,
        limit_s: f64,
        sink: &mut K,
    ) -> Result<IntermittentRun, ExecError> {
        let run = self.power_loop(limit_s, sink, &mut Progress::default())?;
        Ok(run.expect("a run over a live core or a whole tape never pends"))
    }

    /// The power-cycle loop behind [`IntermittentExecutor::run`],
    /// [`IntermittentExecutor::run_with_sink`] and
    /// [`IntermittentExecutor::resume`], the only one shipped. Every
    /// emission is gated on `sink.enabled()`, so with a [`NullSink`] it
    /// folds away. `p` carries the loop's totals across a pend.
    fn power_loop<K: EventSink>(
        &mut self,
        limit_s: f64,
        sink: &mut K,
        p: &mut Progress,
    ) -> Result<Option<IntermittentRun>, ExecError> {
        if !p.started {
            validate_limit(limit_s)?;
            // Report per-run deltas even when the supply is shared
            // across inputs (the stream harness reuses one energy
            // environment).
            *p = Progress {
                started: true,
                outages0: self.supply.outage_count(),
                time0: self.supply.time_s(),
                on_time0: self.supply.on_time_s(),
                ..Progress::default()
            };
            self.emit(sink, EventKind::RunStart);
        }
        let max_instr_cycles = self.core.max_instr_cycles();

        'power_cycles: loop {
            if !p.in_lease {
                if self.supply.time_s() > limit_s {
                    return Err(ExecError::WallClock { limit_s });
                }
                let was_on = self.supply.is_on();
                let waited_s = self.supply.wait_for_power()?;
                if !was_on {
                    self.emit(sink, EventKind::PowerOn { waited_s });
                }

                // Restore path — checked: a weak checkpoint restore can
                // brown out before the first instruction.
                let cost_cycles = self.substrate.on_restore(&mut self.core)?;
                self.emit(sink, EventKind::Restore { cost_cycles });
                if self.consume(cost_cycles, &mut p.active_cycles, sink)? == PowerStatus::Outage {
                    self.outage(sink);
                    p.had_outage = true;
                    continue 'power_cycles;
                }
                // Skim check (§III-C): only meaningful after an outage —
                // on first boot the register is clear anyway. The
                // register is cleared as part of acting on it; if a
                // second outage hits before the post-skim commit reaches
                // HALT, the device simply resumes refinement from its
                // checkpoint — a lost skim is a missed shortcut, never a
                // wrong result. With skimming disabled the restore
                // deliberately ignores an armed point.
                if p.had_outage {
                    let taken = if self.skim_enabled {
                        self.core.take_skim()
                    } else {
                        None
                    };
                    match taken {
                        Some(target) => {
                            p.skimmed = true;
                            self.emit(sink, EventKind::SkimTaken { target });
                        }
                        None => self.emit(sink, EventKind::SkimSkipped),
                    }
                }
                p.in_lease = true;
            }

            // Lease loop: execute until outage or completion.
            loop {
                if self.core.is_halted() {
                    break 'power_cycles;
                }
                if self.core.pending() {
                    return Ok(None);
                }
                if self.supply.time_s() > limit_s {
                    return Err(ExecError::WallClock { limit_s });
                }
                // Slack reserved at the end of a lease: the final retired
                // instruction may overshoot the bulk budget by its own
                // cost plus the worst-case substrate overhead.
                let cap = self.substrate.lease_cap();
                let slack = max_instr_cycles + cap;
                let grant = self
                    .supply
                    .grant_cycles(cycles_until_limit(&self.supply, limit_s));
                if grant > slack {
                    self.emit(sink, EventKind::LeaseGrant { cycles: grant });
                    let mut lease = Lease {
                        supply: &mut self.supply,
                        lattice: &mut self.lattice,
                        substrate: &mut self.substrate,
                        sink: &mut *sink,
                        cap,
                        carried: 0,
                    };
                    // A `StopReason::Boundary` return needs no special
                    // arm: the lease loop re-iterates, re-checks halt,
                    // pending and wall clock, and grants afresh with any
                    // commit already settled.
                    let bulk = self.core.run_lease(grant - slack, &mut lease)?;
                    let cycles = bulk.cycles + lease.carried;
                    p.active_cycles += cycles;
                    self.emit(
                        sink,
                        EventKind::LeaseSettled {
                            cycles,
                            instructions: bulk.instructions,
                        },
                    );
                    debug_assert!(
                        self.supply.voltage() >= self.supply.config().v_off,
                        "brown-out inside an energy lease"
                    );
                } else {
                    // Near the brown-out threshold or the wall-clock
                    // limit: the exact checked path of the reference
                    // engine, one instruction at a time.
                    let info = self.core.step()?;
                    let before = sink.enabled().then(|| self.substrate.stats());
                    let overhead = self.substrate.after_step(&mut self.core, &info);
                    if let Some(b) = before {
                        self.substrate
                            .record_checkpoint_events(&b, self.supply.time_s(), sink);
                    }
                    if self.consume(info.cycles + overhead, &mut p.active_cycles, sink)?
                        == PowerStatus::Outage
                    {
                        // Even when the outage coincides with the HALT
                        // step, the substrate decides what survives: on
                        // Clank the uncommitted write-back buffer is lost
                        // and the tail re-executes from the last
                        // checkpoint after restore (HALT keeps its PC, so
                        // the restored run halts again); on NVP
                        // everything is already durable.
                        self.outage(sink);
                        p.had_outage = true;
                        p.in_lease = false;
                        continue 'power_cycles;
                    }
                }
            }
        }
        self.emit(sink, EventKind::RunEnd { skimmed: p.skimmed });

        Ok(Some(IntermittentRun {
            skimmed: p.skimmed,
            total_time_s: self.supply.time_s() - p.time0,
            on_time_s: self.supply.on_time_s() - p.on_time0,
            active_cycles: p.active_cycles,
            outages: self.supply.outage_count() - p.outages0,
            substrate: self.substrate.stats(),
        }))
    }

    /// The pre-epoch **reference engine**: consumes energy and checks for
    /// brown-out after every single instruction, polling the wall clock
    /// every 65 536 instructions. Kept verbatim as the oracle for the
    /// differential test suite — [`IntermittentExecutor::run`] must be
    /// observably equivalent (same results, same outage placement, same
    /// supply arithmetic) while running an order of magnitude faster.
    /// Built only for this crate's tests and under the `oracle` feature.
    ///
    /// # Errors
    ///
    /// As [`IntermittentExecutor::run`].
    #[cfg(any(test, feature = "oracle"))]
    pub fn run_reference(&mut self, limit_s: f64) -> Result<IntermittentRun, ExecError> {
        validate_limit(limit_s)?;
        let mut active_cycles = 0u64;
        let mut skimmed = false;
        let mut had_outage = false;
        let outages0 = self.supply.outage_count();
        let time0 = self.supply.time_s();
        let on_time0 = self.supply.on_time_s();

        'power_cycles: loop {
            if self.supply.time_s() > limit_s {
                return Err(ExecError::WallClock { limit_s });
            }
            self.supply.wait_for_power()?;

            // Restore path.
            let restore_cost = self.substrate.on_restore(&mut self.core)?;
            if self.consume(restore_cost, &mut active_cycles, &mut NullSink)? == PowerStatus::Outage
            {
                self.substrate.on_outage(&mut self.core);
                had_outage = true;
                continue 'power_cycles;
            }
            // Skim check (§III-C), as in `run`.
            if self.skim_enabled && had_outage && self.core.take_skim().is_some() {
                skimmed = true;
            }

            // Execute until outage or completion. The wall-clock guard
            // runs here too: a program that never halts and never browns
            // out (a strong harvesting environment) must still return.
            let mut since_check = 0u64;
            loop {
                if self.core.is_halted() {
                    break 'power_cycles;
                }
                since_check += 1;
                if since_check >= 65_536 {
                    since_check = 0;
                    if self.supply.time_s() > limit_s {
                        return Err(ExecError::WallClock { limit_s });
                    }
                }
                let info = self.core.step()?;
                let overhead = self.substrate.after_step(&mut self.core, &info);
                if self.consume(info.cycles + overhead, &mut active_cycles, &mut NullSink)?
                    == PowerStatus::Outage
                {
                    self.substrate.on_outage(&mut self.core);
                    had_outage = true;
                    continue 'power_cycles;
                }
            }
        }

        Ok(IntermittentRun {
            skimmed,
            total_time_s: self.supply.time_s() - time0,
            on_time_s: self.supply.on_time_s() - on_time0,
            active_cycles,
            outages: self.supply.outage_count() - outages0,
            substrate: self.substrate.stats(),
        })
    }

    /// Consumes `cycles` on the checked path, recording a brown-out
    /// into `sink` at the instant it happens.
    fn consume<K: EventSink>(
        &mut self,
        cycles: u64,
        active: &mut u64,
        sink: &mut K,
    ) -> Result<PowerStatus, ExecError> {
        *active += cycles;
        let status = self.supply.consume_cycles(cycles)?;
        if status == PowerStatus::Outage {
            self.emit(sink, EventKind::Outage);
        }
        Ok(status)
    }

    /// Records `kind` at the supply's current time when `sink` is
    /// enabled; a [`NullSink`] compiles the call away.
    #[inline(always)]
    fn emit<K: EventSink>(&self, sink: &mut K, kind: EventKind) {
        if sink.enabled() {
            sink.record(Event {
                t_s: self.supply.time_s(),
                kind,
            });
        }
    }

    /// Outage handling: let the substrate react, then (when tracing)
    /// attribute any checkpoints it took — NVP snapshots on the outage
    /// itself, which is exactly this window.
    fn outage<K: EventSink>(&mut self, sink: &mut K) {
        let before = sink.enabled().then(|| self.substrate.stats());
        self.substrate.on_outage(&mut self.core);
        if let Some(b) = before {
            self.substrate
                .record_checkpoint_events(&b, self.supply.time_s(), sink);
        }
    }
}

/// Rejects wall-clock budgets the loop cannot terminate under (NaN
/// makes every limit comparison false) or that are nonsensical
/// (negative). `+∞` is allowed and means "no limit".
fn validate_limit(limit_s: f64) -> Result<(), ExecError> {
    if limit_s.is_nan() || limit_s < 0.0 {
        Err(ExecError::InvalidLimit { limit_s })
    } else {
        Ok(())
    }
}

/// Cycles of execution remaining until the wall-clock limit (rounded up
/// so the final lease can actually cross the limit), saturating for
/// far-away limits.
fn cycles_until_limit(supply: &EnergySupply, limit_s: f64) -> u64 {
    let left_s = limit_s - supply.time_s();
    // A NaN limit (rejected by `validate_limit`, but guarded here too)
    // must grant zero cycles instead of falling through to the cast
    // below, which would round NaN to a 1-cycle lease forever.
    if left_s <= 0.0 || left_s.is_nan() {
        return 0;
    }
    let cycles = left_s * supply.config().clock_hz;
    if cycles >= u64::MAX as f64 {
        u64::MAX
    } else {
        (cycles as u64).saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clank::{Clank, ClankConfig};
    use crate::nvp::Nvp;
    use wn_energy::TraceKind;
    use wn_isa::asm::assemble;
    use wn_sim::CoreConfig;

    fn supply_config() -> SupplyConfig {
        SupplyConfig::default()
    }

    fn rf_trace(seed: u64) -> PowerTrace {
        PowerTrace::generate(TraceKind::RfBursty, seed, 120.0)
    }

    /// A program long enough to span several power cycles: sums 0..N via a
    /// memory-resident accumulator (the LDR/ADD/STR pattern makes every
    /// iteration a WAR violation, exercising Clank's store checkpoints).
    fn long_program(n: u32) -> wn_isa::Program {
        let src = format!(
            ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r2, #0\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\nHALT"
        );
        assemble(&src).unwrap()
    }

    #[test]
    fn clank_completes_across_outages() {
        let core = Core::new(&long_program(200_000), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(3), supply_config(), Clank::default());
        let run = exec.run(3600.0).unwrap();
        assert!(!run.skimmed, "no SKM instructions in this program");
        assert!(run.outages > 0, "program must span multiple power cycles");
        assert!(run.total_time_s > run.on_time_s);
        // Result is exact despite rollback/reexecution: sum 0..200000.
        let expect = (0..200_000u64).sum::<u64>() as u32;
        assert_eq!(exec.core().mem.load_u32(0).unwrap(), expect);
    }

    #[test]
    fn nvp_completes_with_fewer_active_cycles_than_clank() {
        let program = long_program(150_000);
        let mk = |sub: bool| -> IntermittentRun {
            let core = Core::new(&program, CoreConfig::default()).unwrap();
            if sub {
                IntermittentExecutor::new(core, &rf_trace(4), supply_config(), Clank::default())
                    .run(3600.0)
                    .unwrap()
            } else {
                IntermittentExecutor::new(core, &rf_trace(4), supply_config(), Nvp::default())
                    .run(3600.0)
                    .unwrap()
            }
        };
        let clank = mk(true);
        let nvp = mk(false);
        assert!(clank.outages > 0 && nvp.outages > 0);
        assert!(
            nvp.active_cycles < clank.active_cycles,
            "NVP avoids re-execution: {} vs {}",
            nvp.active_cycles,
            clank.active_cycles
        );
    }

    #[test]
    fn skim_point_commits_approximate_result_on_outage() {
        // Program: write 1 (the "approximate output"), set a skim point,
        // then spin forever "refining". Under intermittent power it can
        // only finish by skimming.
        let src = ".data\nout: .space 4\n.text\nMOV r0, =out\nMOV r1, #1\nSTR r1, [r0, #0]\nSKM end\nspin:\nADD r2, r2, #1\nSTR r2, [r0, #0]\nLDR r3, [r0, #0]\nB spin\nend:\nHALT";
        let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(5), supply_config(), Nvp::default());
        let run = exec.run(3600.0).unwrap();
        assert!(run.skimmed, "completion must come from the skim path");
        assert_eq!(run.outages, 1, "finishes at the first outage");
    }

    #[test]
    fn wall_clock_limit_fires_without_outages() {
        // A strong constant supply never browns out; the limit must
        // still stop a non-terminating program.
        let src = "spin:\nADD r0, r0, #1\nB spin";
        let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let strong = PowerTrace::generate(TraceKind::Constant, 0, 10.0);
        let cfg = SupplyConfig {
            pj_per_cycle: 0.0,
            ..SupplyConfig::default()
        };
        let mut exec = IntermittentExecutor::new(core, &strong, cfg, Nvp::default());
        assert!(matches!(exec.run(0.5), Err(ExecError::WallClock { .. })));
    }

    #[test]
    fn skim_disabled_times_out_on_nonterminating_refinement() {
        let src = "SKM end\nspin:\nADD r2, r2, #1\nB spin\nend:\nHALT";
        let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(6), supply_config(), Nvp::default());
        exec.set_skim_enabled(false);
        assert!(matches!(exec.run(2.0), Err(ExecError::WallClock { .. })));
    }

    #[test]
    fn skim_register_cleared_after_use() {
        let src = ".data\nout: .space 4\n.text\nSKM end\nspin:\nADD r2, r2, #1\nB spin\nend:\nHALT";
        let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(7), supply_config(), Nvp::default());
        let run = exec.run(3600.0).unwrap();
        assert!(run.skimmed);
        assert_eq!(exec.core().cpu.skm, None, "one-shot skim register");
    }

    #[test]
    fn watchdogless_clank_still_converges_via_store_checkpoints() {
        // With a huge watchdog, checkpoints come only from WAR violations
        // (the STR/LDR pattern of the loop) — progress must still happen.
        let core = Core::new(&long_program(50_000), CoreConfig::default()).unwrap();
        let clank = Clank::new(ClankConfig {
            watchdog_cycles: u64::MAX,
            ..ClankConfig::default()
        });
        let mut exec = IntermittentExecutor::new(core, &rf_trace(8), supply_config(), clank);
        let run = exec.run(3600.0).unwrap();
        assert!(run.substrate.violation_checkpoints > 0);
    }

    #[test]
    fn epoch_engine_matches_reference_engine() {
        // The same program, trace and substrate through both engines:
        // outage placement, cycle accounting, timing and final memory
        // must agree exactly (times bitwise — the lease scheduler's
        // settle path reproduces the reference float arithmetic).
        for seed in 0..4 {
            let program = long_program(120_000);
            let mut epoch = IntermittentExecutor::new(
                Core::new(&program, CoreConfig::default()).unwrap(),
                &rf_trace(seed),
                supply_config(),
                Clank::default(),
            );
            let mut reference = IntermittentExecutor::new(
                Core::new(&program, CoreConfig::default()).unwrap(),
                &rf_trace(seed),
                supply_config(),
                Clank::default(),
            );
            let a = epoch.run(3600.0).unwrap();
            let b = reference.run_reference(3600.0).unwrap();
            assert!(a.outages > 0, "seed {seed}: must span outages");
            assert_eq!(a.outages, b.outages, "seed {seed}");
            assert_eq!(a.active_cycles, b.active_cycles, "seed {seed}");
            assert_eq!(a.skimmed, b.skimmed, "seed {seed}");
            assert_eq!(a.substrate, b.substrate, "seed {seed}");
            assert_eq!(
                a.total_time_s.to_bits(),
                b.total_time_s.to_bits(),
                "seed {seed}"
            );
            assert_eq!(a.on_time_s.to_bits(), b.on_time_s.to_bits(), "seed {seed}");
            assert_eq!(
                epoch.core().mem.load_u32(0).unwrap(),
                reference.core().mem.load_u32(0).unwrap(),
                "seed {seed}"
            );
            assert_eq!(epoch.core().stats, reference.core().stats, "seed {seed}");
        }
    }

    #[test]
    fn wall_clock_checked_before_first_wait() {
        // A supply whose clock already sits past the limit must error
        // without waiting for power at all.
        let core = Core::new(&long_program(10), CoreConfig::default()).unwrap();
        let mut supply = EnergySupply::new(rf_trace(1), supply_config());
        supply.idle(2.0); // advance past the limit while dark
        let mut exec = IntermittentExecutor::with_supply(core, supply, Nvp::default());
        assert!(matches!(exec.run(1.0), Err(ExecError::WallClock { .. })));
    }

    #[test]
    fn nan_and_negative_limits_are_rejected_up_front() {
        let mk = || {
            let core = Core::new(&long_program(10), CoreConfig::default()).unwrap();
            IntermittentExecutor::new(core, &rf_trace(1), supply_config(), Nvp::default())
        };
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            assert!(
                matches!(mk().run(bad), Err(ExecError::InvalidLimit { .. })),
                "run({bad}) must be rejected"
            );
            assert!(
                matches!(mk().run_reference(bad), Err(ExecError::InvalidLimit { .. })),
                "run_reference({bad}) must be rejected"
            );
            let mut sink = wn_telemetry::RingBufferSink::new(4);
            assert!(
                matches!(
                    mk().run_with_sink(bad, &mut sink),
                    Err(ExecError::InvalidLimit { .. })
                ),
                "run_with_sink({bad}) must be rejected"
            );
            assert_eq!(sink.recorded(), 0, "rejected before any event");
        }
        // Zero and +infinity are legitimate budgets: zero times out
        // (rather than erroring as invalid), infinity means "no limit".
        assert!(matches!(mk().run(0.0), Err(ExecError::WallClock { .. })));
        assert!(mk().run(f64::INFINITY).is_ok());
    }

    #[test]
    fn cycles_until_limit_saturation_boundaries() {
        let supply = EnergySupply::new(rf_trace(1), supply_config());
        assert_eq!(supply.time_s(), 0.0);
        let clock = supply.config().clock_hz;

        // Expired or exactly-met limits grant nothing.
        assert_eq!(cycles_until_limit(&supply, 0.0), 0);
        assert_eq!(cycles_until_limit(&supply, -1.0), 0);
        // NaN reaches the guard (not the cast) and grants nothing —
        // the cast would turn NaN into an eternal 1-cycle lease.
        assert_eq!(cycles_until_limit(&supply, f64::NAN), 0);

        // Far-away limits saturate at u64::MAX instead of overflowing.
        assert_eq!(cycles_until_limit(&supply, f64::MAX), u64::MAX);
        assert_eq!(cycles_until_limit(&supply, f64::INFINITY), u64::MAX);
        // The saturation threshold itself: a limit of exactly
        // u64::MAX cycles (as f64) takes the saturating branch...
        assert_eq!(
            cycles_until_limit(&supply, (u64::MAX as f64) / clock),
            u64::MAX
        );
        // ...while just below it the cast+round-up path stays in range.
        let below = (u64::MAX as f64) * 0.999 / clock;
        let c = cycles_until_limit(&supply, below);
        assert!(c < u64::MAX, "non-saturating path must not clamp");
        assert!(c > (u64::MAX / 2), "but must still be astronomically large");

        // A subnormal sliver of remaining time still rounds up to a
        // 1-cycle lease, so the final lease can cross the limit.
        assert_eq!(cycles_until_limit(&supply, f64::MIN_POSITIVE), 1);
        assert_eq!(cycles_until_limit(&supply, 5e-324), 1);
        // One cycle's worth of time leases one cycle plus round-up.
        assert_eq!(cycles_until_limit(&supply, 1.0 / clock), 2);
    }

    #[test]
    fn traced_run_matches_untraced_and_captures_lifecycle() {
        use wn_telemetry::RingBufferSink;

        let program = long_program(120_000);
        let mut plain = IntermittentExecutor::new(
            Core::new(&program, CoreConfig::default()).unwrap(),
            &rf_trace(3),
            supply_config(),
            Clank::default(),
        );
        let untraced = plain.run(3600.0).unwrap();

        let mut traced = IntermittentExecutor::new(
            Core::new(&program, CoreConfig::default()).unwrap(),
            &rf_trace(3),
            supply_config(),
            Clank::default(),
        );
        let mut sink = RingBufferSink::new(1 << 16);
        let run = traced.run_with_sink(3600.0, &mut sink).unwrap();

        // Tracing only observes: bit-identical outcome.
        assert_eq!(run.outages, untraced.outages);
        assert_eq!(run.active_cycles, untraced.active_cycles);
        assert_eq!(run.substrate, untraced.substrate);
        assert_eq!(run.total_time_s.to_bits(), untraced.total_time_s.to_bits());
        assert_eq!(run.on_time_s.to_bits(), untraced.on_time_s.to_bits());
        assert_eq!(
            traced.core().mem.load_u32(0).unwrap(),
            plain.core().mem.load_u32(0).unwrap()
        );

        // The event stream is coherent with the scalar outcome.
        let count = |kind: &EventKind| sink.count_of(kind.index());
        assert_eq!(count(&EventKind::RunStart), 1);
        assert_eq!(count(&EventKind::RunEnd { skimmed: false }), 1);
        assert_eq!(count(&EventKind::Outage), run.outages);
        // One power-on per boot: the initial one plus one per outage.
        assert_eq!(
            count(&EventKind::PowerOn { waited_s: 0.0 }),
            run.outages + 1
        );
        // Every checkpoint the substrate counted was attributed.
        assert_eq!(
            count(&EventKind::Checkpoint {
                cause: wn_telemetry::CheckpointCause::Other,
                words: 0,
            }),
            run.substrate.checkpoints
        );
        assert!(run.substrate.checkpoints > 0);
        // Restores: one per power-on (none browned out mid-restore here).
        assert_eq!(
            count(&EventKind::Restore { cost_cycles: 0 }),
            run.outages + 1
        );
        // This program never arms a skim point, so every post-outage
        // restore reports the skim path as skipped.
        assert_eq!(count(&EventKind::SkimTaken { target: 0 }), 0);
        assert_eq!(count(&EventKind::SkimSkipped), run.outages);
        // Lease accounting: grants happened, and the bulk path retired
        // no more than the core's total instructions.
        assert!(count(&EventKind::LeaseGrant { cycles: 0 }) > 0);
        let settled: u64 = sink
            .events()
            .filter_map(|e| match e.kind {
                EventKind::LeaseSettled { instructions, .. } => Some(instructions),
                _ => None,
            })
            .sum();
        assert!(settled > 0);
        assert!(settled <= traced.core().stats.instructions);
        // Timestamps are monotonically non-decreasing.
        let mut last = 0.0;
        for e in sink.events() {
            assert!(e.t_s >= last, "event {e:?} went back in time");
            last = e.t_s;
        }
    }

    #[test]
    fn traced_skim_run_emits_skim_taken() {
        use wn_telemetry::RingBufferSink;

        let src = ".data\nout: .space 4\n.text\nMOV r0, =out\nMOV r1, #1\nSTR r1, [r0, #0]\nSKM end\nspin:\nADD r2, r2, #1\nSTR r2, [r0, #0]\nLDR r3, [r0, #0]\nB spin\nend:\nHALT";
        let core = Core::new(&wn_isa::asm::assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(5), supply_config(), Nvp::default());
        let mut sink = RingBufferSink::new(4096);
        let run = exec.run_with_sink(3600.0, &mut sink).unwrap();
        assert!(run.skimmed);
        assert_eq!(sink.count_of(EventKind::SkimTaken { target: 0 }.index()), 1);
        let end = sink
            .events()
            .find(|e| matches!(e.kind, EventKind::RunEnd { .. }))
            .unwrap();
        assert_eq!(end.kind, EventKind::RunEnd { skimmed: true });
    }

    #[test]
    fn precise_and_wn_track_time_budgets() {
        let core = Core::new(&long_program(10_000), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(9), supply_config(), Nvp::default());
        let run = exec.run(3600.0).unwrap();
        assert!(run.on_time_s > 0.0);
        assert!(run.active_cycles > 10_000);
    }

    /// FNV-1a over `bytes`: a stable digest for pinning event streams.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A read-modify-write loop over `n` iterations that arms a skim
    /// point to `end` before refining: the first post-outage restore
    /// jumps straight to `HALT`.
    fn skim_program(n: u32) -> wn_isa::Program {
        let src = format!(
            ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r2, #0\nSKM end\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\nend:\nHALT"
        );
        assemble(&src).unwrap()
    }

    /// Task regions that split the loop body in two, so every iteration
    /// crosses two boundaries (and commits twice).
    fn split_loop_regions(program: &wn_isa::Program) -> Vec<crate::task::TaskRegion> {
        let body = program.code_symbol("loop").unwrap();
        let len = program.instrs.len() as u32;
        [(0, body), (body, body + 3), (body + 3, len)]
            .into_iter()
            .map(|(start_pc, end_pc)| crate::task::TaskRegion {
                start_pc,
                end_pc,
                is_commit: false,
                privatized_words: 0,
            })
            .collect()
    }

    /// Runs `program` traced over `rf_trace(seed)` into a ring buffer
    /// that never wraps and returns the FNV-1a digest of its JSON-lines
    /// dump plus the event count.
    fn event_digest<S: Substrate>(
        program: &wn_isa::Program,
        seed: u64,
        substrate: S,
    ) -> (u64, u64) {
        let core = Core::new(program, CoreConfig::default()).unwrap();
        let mut exec = IntermittentExecutor::new(core, &rf_trace(seed), supply_config(), substrate);
        let mut sink = wn_telemetry::RingBufferSink::new(1 << 20);
        exec.run_with_sink(3600.0, &mut sink).unwrap();
        assert_eq!(sink.dropped(), 0, "the ring must hold the whole stream");
        (fnv1a(sink.to_json_lines().as_bytes()), sink.recorded())
    }

    /// Pins the traced event stream — kinds, payloads and timestamp
    /// bits — for every substrate on a long program and a skim-arming
    /// one over a fixed RF trace. The digests were taken from the
    /// per-instruction traced engine the fused loop replaced, so they
    /// prove tracing on the fused path emits the same events.
    #[test]
    fn traced_event_stream_is_pinned() {
        use crate::task::{Task, TaskConfig};

        let long = long_program(40_000);
        let skim = skim_program(40_000);
        let got = [
            event_digest(&long, 3, Clank::default()),
            event_digest(&long, 3, Nvp::default()),
            event_digest(
                &long,
                3,
                Task::new(TaskConfig::default(), split_loop_regions(&long)),
            ),
            event_digest(&skim, 3, Clank::default()),
            event_digest(&skim, 3, Nvp::default()),
            event_digest(
                &skim,
                3,
                Task::new(TaskConfig::default(), split_loop_regions(&skim)),
            ),
        ];
        let want = [
            (0x6815_6f07_88c6_a260, 40_376),
            (0xd921_9fd1_b6eb_84d8, 84),
            (0x1f0f_d15b_3335_f226, 159_166),
            (0xc75a_b723_9342_cad2, 1_043),
            (0xeafb_d73b_4417_c9f4, 15),
            (0x2e5c_6dd2_5c9e_e74a, 2_260),
        ];
        assert_eq!(got, want, "{got:#x?}");
    }

    /// `S` with fusion left at the trait defaults: every instruction
    /// retires through `after_step`.
    struct SingleStep<S>(S);

    impl<S: Substrate> Substrate for SingleStep<S> {
        fn after_step<E: Execution>(&mut self, exec: &mut E, info: &StepInfo) -> u64 {
            self.0.after_step(exec, info)
        }
        fn lease_cap(&self) -> u64 {
            self.0.lease_cap()
        }
        fn take_boundary(&mut self) -> bool {
            self.0.take_boundary()
        }
        fn on_outage<E: Execution>(&mut self, exec: &mut E) {
            self.0.on_outage(exec)
        }
        fn on_restore<E: Execution>(&mut self, exec: &mut E) -> Result<u64, SimError> {
            self.0.on_restore(exec)
        }
        fn stats(&self) -> SubstrateStats {
            self.0.stats()
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    /// Task's fused blocks change no traced event, lease grants and
    /// settles included: a boundary raised on the checked path still
    /// breaks the next lease at its first instruction.
    #[test]
    fn fused_task_runs_trace_what_single_stepped_runs_trace() {
        use crate::task::{Task, TaskConfig};

        let program = long_program(40_000);
        let task = || Task::new(TaskConfig::default(), split_loop_regions(&program));
        for seed in 0..4 {
            assert_eq!(
                event_digest(&program, seed, task()),
                event_digest(&program, seed, SingleStep(task())),
                "trace seed {seed}"
            );
        }
    }

    /// A sink that wants nothing but counts what it is handed anyway.
    struct DisabledSink(u64);

    impl EventSink for DisabledSink {
        fn enabled(&self) -> bool {
            false
        }

        fn record(&mut self, _event: Event) {
            self.0 += 1;
        }
    }

    #[test]
    fn disabled_sink_records_nothing_and_matches_run() {
        let program = long_program(40_000);
        let mk = || {
            let core = Core::new(&program, CoreConfig::default()).unwrap();
            IntermittentExecutor::new(core, &rf_trace(3), supply_config(), Clank::default())
        };
        let mut sink = DisabledSink(0);
        let traced = mk().run_with_sink(3600.0, &mut sink).unwrap();
        assert_eq!(sink.0, 0, "every emission site is gated on enabled()");
        assert!(traced.outages > 0);
        assert_eq!(traced, mk().run(3600.0).unwrap());
        assert_eq!(traced, mk().run_with_sink(3600.0, &mut NullSink).unwrap());
    }

    /// The power edges carry the supply's clock: the first boot's
    /// `PowerOn` holds the supply's own recharge wait, and the first
    /// `Outage` is stamped at the instant of the brown-out — both
    /// checked against a twin supply driven by hand, one instruction at
    /// a time.
    #[test]
    fn traced_power_edges_carry_the_supply_clock() {
        use wn_telemetry::RingBufferSink;

        let program = long_program(40_000);
        let config = SupplyConfig {
            start_charged: false,
            ..supply_config()
        };
        let core = Core::new(&program, CoreConfig::default()).unwrap();
        let mut exec = IntermittentExecutor::new(core, &rf_trace(3), config, Nvp::default());
        let mut sink = RingBufferSink::new(1 << 16);
        exec.run_with_sink(3600.0, &mut sink).unwrap();

        let mut core = Core::new(&program, CoreConfig::default()).unwrap();
        let mut nvp = Nvp::default();
        let mut twin = EnergySupply::new(rf_trace(3), config);
        let waited_s = twin.wait_for_power().unwrap();
        assert!(waited_s > 0.0, "an uncharged start must wait");
        let on = sink
            .events()
            .find(|e| matches!(e.kind, EventKind::PowerOn { .. }))
            .unwrap();
        assert_eq!(on.kind, EventKind::PowerOn { waited_s });
        assert_eq!(on.t_s.to_bits(), twin.time_s().to_bits());

        let restore = nvp.on_restore(&mut core).unwrap();
        assert_eq!(twin.consume_cycles(restore).unwrap(), PowerStatus::On);
        loop {
            let info = core.step().unwrap();
            let overhead = nvp.after_step(&mut core, &info);
            if twin.consume_cycles(info.cycles + overhead).unwrap() == PowerStatus::Outage {
                break;
            }
        }
        let outage = sink.events().find(|e| e.kind == EventKind::Outage).unwrap();
        assert_eq!(outage.t_s.to_bits(), twin.time_s().to_bits());
    }
}
