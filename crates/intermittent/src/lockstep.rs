//! Lockstep tape replay: whole-cohort device simulation as pure
//! bookkeeping over a shared execution tape.
//!
//! ## Why a shared tape works
//!
//! Neither substrate ever perturbs architectural state relative to
//! fault-free execution. Clank rolls memory and registers back to
//! exactly what its last checkpoint captured, then re-executes the same
//! instructions; NVP persists exactly the state the outage interrupted.
//! So every device running the same program over the same input retires
//! (a sliced, partially re-executed view of) the *same* instruction
//! sequence — the fault-free trajectory. A fleet cohort is precisely
//! that: one compiled program, one input image, devices differing only
//! in their power environment.
//!
//! [`wn_sim::ExecutionTape`] records the trajectory once, one entry per
//! dispatch of a fused run. A device then runs on the ordinary
//! [`IntermittentExecutor`] power loop with its own [`EnergySupply`] and
//! substrate, over a `TapeCursor` instead of a core: a checkpoint is a
//! tape position, and bulk execution admits fused blocks by the core's
//! own rule, from the recorder's block table
//! ([`wn_sim::Core::admit_block`]: budget, headroom and fence alike) and settles each with the block's static costs and the
//! recorded tail. The supply therefore sees the identical float
//! operation sequence, and the substrate the identical calls, that a run
//! on a live core would issue. A block admitted inside a recorded
//! dispatch (after single steps near a brown-out) is pieced together
//! from the entries it covers ([`ExecutionTape::dispatch`]).
//!
//! ## Streaming
//!
//! A [`StreamedDevice`] runs over a tape recorded a window at a time.
//! Its power loop suspends at the top of its lease loop when the cursor
//! reaches the recorded end; whoever runs the cohort extends the tape once
//! every device waits there or has finished, then evicts what lies
//! behind every device's [`StreamedDevice::restore_floor`].
//!
//! ## Leaving the trajectory
//!
//! The one event that leaves the shared trajectory is a taken skim jump:
//! after it, the device executes instructions the tape never recorded.
//! A restore with the SKM register armed leads straight to that jump, so
//! the cursor's restore reconstructs the device's core at its resume
//! position ([`ExecutionTape::reconstruct`], from the nearest window
//! snapshot), primes the substrate's checkpoint with that core's
//! snapshot, and from then on delegates to the core — in the same loop,
//! so the jump and everything after it run exactly as on a core from the
//! start. A device on its own core never pends.
//!
//! ## What the tape cannot see
//!
//! Differential checkpoint *word counts* (`checkpoint_words_saved` /
//! `checkpoint_words_full`) depend on register values the tape does not
//! keep, so those two counters are not maintained on it. Every
//! cycle-accounted quantity — overhead, lost work, checkpoint counts,
//! outage placement, timing — is exact. Callers that consume word
//! counts (none of the fleet reports do) must run on a core.

use std::ops::ControlFlow;

use wn_energy::EnergySupply;
use wn_sim::tape::{ExecutionTape, TapePos, WalkCache};
use wn_sim::{
    BulkRun, Core, HookBreak, MemAccess, SimError, StepEvent, StepHook, StepInfo, StopReason,
};
use wn_telemetry::EventSink;

use crate::clank::{Clank, ClankConfig};
use crate::execution::{Execution, Saved};
use crate::executor::{ExecError, IntermittentExecutor, IntermittentRun, Lease, Progress};
use crate::nvp::{Nvp, NvpConfig};
use crate::substrate::Substrate;

/// A device's place on the trajectory, kept between resumes.
#[derive(Debug, Default)]
struct Cursor {
    pos: TapePos,
    /// The block admitted at `pos` runs past the recorded end.
    waiting: bool,
    halted: bool,
    /// The non-volatile SKM register.
    skm: Option<u32>,
    /// The device's own core, once it has left the trajectory.
    live: Option<Core>,
}

/// One device's execution source over a cohort's tape, until a skim
/// jump hands it a core of its own.
#[derive(Debug)]
struct TapeCursor<'a> {
    tape: &'a ExecutionTape,
    /// The program's fused-block table, which admits blocks: the
    /// tape's recorder, the one copy the tape itself reads.
    table: &'a Core,
    at: Cursor,
}

impl TapeCursor<'_> {
    /// Retires the next tape instruction.
    #[inline]
    fn tape_step(&mut self) -> StepInfo {
        // HALT keeps its position: a checkpoint there captures the halt
        // site.
        let info = self.tape.step(&mut self.at.pos);
        match info.event {
            StepEvent::SkimSet(target) => self.at.skm = Some(target),
            StepEvent::Halted => self.at.halted = true,
            StepEvent::None | StepEvent::BranchTaken => {}
        }
        info
    }
}

impl Execution for TapeCursor<'_> {
    fn step(&mut self) -> Result<StepInfo, SimError> {
        match &mut self.at.live {
            Some(core) => core.step(),
            None => Ok(self.tape_step()),
        }
    }

    /// [`Core::run_steps_hooked`] over the tape: the same budget checks
    /// and the same block admission, with the recorded tails. Reaching
    /// the recorded end, or a block that runs past it, stops the lease
    /// like a boundary.
    fn run_lease<S: Substrate, K: EventSink>(
        &mut self,
        budget: u64,
        lease: &mut Lease<'_, S, K>,
    ) -> Result<BulkRun, SimError> {
        if let Some(core) = &mut self.at.live {
            return core.run_lease(budget, lease);
        }
        let (mut cycles, mut instructions) = (0u64, 0u64);
        let stop = loop {
            if self.at.halted {
                break StopReason::Halted;
            }
            if cycles >= budget {
                break StopReason::Budget;
            }
            let Some(pc) = self.tape.next_pc(self.at.pos) else {
                break StopReason::Boundary;
            };
            if let Some(len) = self.table.admit_block(pc, budget - cycles, lease) {
                // The block's static costs and the recorded tail: the
                // arguments the core itself hands the hook, so the
                // block keeps the core's identity and settles.
                let Some(d) = self.tape.dispatch(&mut self.at.pos, pc, len) else {
                    self.at.waiting = true;
                    break StopReason::Boundary;
                };
                let base = self.table.block_cycles(pc);
                let costs = self.table.block_costs(pc);
                lease.on_block(pc, costs, base, d.tail_extra, d.reads);
                cycles += base + d.tail_extra;
                instructions += len as u64;
                continue;
            }
            let info = self.tape_step();
            cycles += info.cycles;
            instructions += 1;
            match lease.after_step(self, &info) {
                ControlFlow::Continue(extra) => cycles += extra,
                ControlFlow::Break(HookBreak::Stop) => break StopReason::Hook,
                ControlFlow::Break(HookBreak::Boundary) => break StopReason::Boundary,
            }
        };
        Ok(BulkRun {
            cycles,
            instructions,
            stop,
        })
    }

    fn is_halted(&self) -> bool {
        self.at
            .live
            .as_ref()
            .map_or(self.at.halted, Core::is_halted)
    }

    fn pending(&self) -> bool {
        self.at.live.is_none() && (self.at.waiting || self.tape.at_end(self.at.pos))
    }

    fn pc(&self) -> u32 {
        match &self.at.live {
            Some(core) => core.cpu.pc,
            None => self.tape.pc(self.at.pos),
        }
    }

    fn take_skim(&mut self) -> Option<u32> {
        // On the tape the register is never armed here: a restore that
        // finds it armed has already handed off.
        self.at.live.as_mut()?.take_skim()
    }

    fn save(&self, saved: &mut Saved) -> Option<u64> {
        match &self.at.live {
            Some(core) => core.save(saved),
            None => {
                saved.pos = self.at.pos;
                None
            }
        }
    }

    fn restore(&mut self, saved: &mut Saved) -> Result<(), SimError> {
        if let Some(core) = &mut self.at.live {
            return core.restore(saved);
        }
        self.at.pos = saved.pos;
        self.at.halted = false;
        if let Some(skm) = self.at.skm {
            // The skim jump follows: rebuild the state the checkpoint
            // (or NV snapshot) captured — the trajectory at `pos`, since
            // Clank rolled memory back to it and NVP persisted it — and
            // make its snapshot the substrate's checkpoint.
            let mut core = self.tape.reconstruct(self.at.pos)?;
            core.cpu.skm = Some(skm);
            saved.cpu.capture(core.cpu.snapshot());
            self.at.live = Some(core);
        }
        Ok(())
    }

    fn power_loss(&mut self) {
        if let Some(core) = &mut self.at.live {
            core.power_loss();
        }
    }

    fn undo(&mut self, log: &mut Vec<MemAccess>) {
        match &mut self.at.live {
            Some(core) => core.undo(log),
            // Restoring a position restores memory with it.
            None => log.clear(),
        }
    }

    fn max_instr_cycles(&self) -> u64 {
        self.table.max_instr_cycles()
    }
}

/// One device of a cohort replaying a tape: its power loop, suspended
/// wherever the tape ran out.
#[derive(Debug)]
pub struct StreamedDevice<S> {
    /// `None` only while an advance has it attached to the tape.
    exec: Option<IntermittentExecutor<S, Cursor>>,
    progress: Progress,
    limit_s: f64,
}

impl<S: Substrate> StreamedDevice<S> {
    /// A device at the trajectory's start with its own `supply` (fresh
    /// per device) and `substrate`, under a simulated wall-clock limit.
    pub fn new(supply: EnergySupply, substrate: S, limit_s: f64) -> StreamedDevice<S> {
        StreamedDevice {
            exec: Some(IntermittentExecutor::with_supply(
                Cursor::default(),
                supply,
                substrate,
            )),
            progress: Progress::default(),
            limit_s,
        }
    }

    /// Runs the device over `tape` until it finishes (`Some`) or waits
    /// at the recorded end (`None`), to be advanced again once the tape
    /// is extended. A device on its own core always finishes.
    ///
    /// # Errors
    ///
    /// As [`IntermittentExecutor::run`]; the device is finished then.
    pub fn advance(&mut self, tape: &ExecutionTape) -> Result<Option<IntermittentRun>, ExecError> {
        let exec = self
            .exec
            .take()
            .expect("a device is detached between advances");
        let mut exec = exec.map_core(|at| TapeCursor {
            tape,
            table: tape.recorder(),
            at: Cursor {
                waiting: false,
                ..at
            },
        });
        let polled = exec.resume(self.limit_s, &mut self.progress);
        self.exec = Some(exec.map_core(|cursor| cursor.at));
        polled
    }

    /// The earliest tape position a restore can take the device back
    /// to — its substrate's fixed restore point, else where it stands —
    /// or `None` once it runs on its own core.
    pub fn restore_floor(&self) -> Option<TapePos> {
        let exec = self.exec.as_ref()?;
        let at = exec.core();
        if at.live.is_some() {
            return None;
        }
        Some(exec.substrate().restore_point().map_or(at.pos, |s| s.pos))
    }

    /// The device's own core if a skim jump handed it one, for output
    /// decoding; `None` means it stayed on the tape, so its outputs are
    /// the fault-free run's.
    pub fn into_core(self) -> Option<Core> {
        self.exec?.into_parts().0.live
    }
}

/// A full lockstep device run on the Clank substrate over `tape`, a
/// whole tape ([`ExecutionTape::record`]) of `master`'s program.
/// `supply` must be fresh per device. The tape reads blocks from its
/// own recorder's table and reconstructs from its own window
/// snapshots, so neither `master` nor the cache is consulted. Returns
/// the run and, for a device that left the trajectory by a skim jump,
/// its final core for output decoding; `None` means the device finished
/// on the tape, so its outputs equal the fault-free run's.
///
/// # Errors
///
/// As [`IntermittentExecutor::run`].
pub fn replay_run_clank(
    tape: &ExecutionTape,
    _master: &Core,
    _cache: &WalkCache,
    supply: EnergySupply,
    config: ClankConfig,
    limit_s: f64,
) -> Result<(IntermittentRun, Option<Core>), ExecError> {
    replay_run(tape, supply, Clank::new(config), limit_s)
}

/// As [`replay_run_clank`], on the NVP substrate.
///
/// # Errors
///
/// As [`IntermittentExecutor::run`].
pub fn replay_run_nvp(
    tape: &ExecutionTape,
    _master: &Core,
    _cache: &WalkCache,
    supply: EnergySupply,
    config: NvpConfig,
    limit_s: f64,
) -> Result<(IntermittentRun, Option<Core>), ExecError> {
    replay_run(tape, supply, Nvp::new(config), limit_s)
}

fn replay_run<S: Substrate>(
    tape: &ExecutionTape,
    supply: EnergySupply,
    substrate: S,
    limit_s: f64,
) -> Result<(IntermittentRun, Option<Core>), ExecError> {
    let mut device = StreamedDevice::new(supply, substrate, limit_s);
    let run = device
        .advance(tape)?
        .expect("a whole tape never leaves a device waiting");
    Ok((run, device.into_core()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Task, TaskConfig, TaskRegion};
    use wn_energy::{PowerTrace, SupplyConfig, TraceKind};
    use wn_isa::asm::assemble;
    use wn_sim::CoreConfig;

    fn rf_trace(seed: u64) -> PowerTrace {
        PowerTrace::generate(TraceKind::RfBursty, seed, 120.0)
    }

    /// LDR/ADD/STR accumulator loop — WAR checkpoints every iteration.
    fn accumulate_program(n: u32) -> wn_isa::Program {
        let src = format!(
            ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r2, #0\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\nHALT"
        );
        assemble(&src).unwrap()
    }

    /// Writes a coarse output, arms a skim point, then refines for a
    /// long stretch — outage-prone runs complete via the skim jump.
    fn skim_program(n: u32) -> wn_isa::Program {
        let src = format!(
            ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r1, #1\nSTR r1, [r0, #0]\nSKM end\nMOV r2, #0\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\nend:\nHALT"
        );
        assemble(&src).unwrap()
    }

    fn fresh_core(program: &wn_isa::Program) -> Core {
        Core::new(program, CoreConfig::default()).unwrap()
    }

    fn assert_runs_match(a: &IntermittentRun, b: &IntermittentRun, ctx: &str) {
        assert_eq!(a.skimmed, b.skimmed, "{ctx}: skimmed");
        assert_eq!(a.outages, b.outages, "{ctx}: outages");
        assert_eq!(a.active_cycles, b.active_cycles, "{ctx}: active_cycles");
        assert_eq!(
            a.total_time_s.to_bits(),
            b.total_time_s.to_bits(),
            "{ctx}: total_time_s"
        );
        assert_eq!(
            a.on_time_s.to_bits(),
            b.on_time_s.to_bits(),
            "{ctx}: on_time_s"
        );
        assert_eq!(
            a.substrate.overhead_cycles, b.substrate.overhead_cycles,
            "{ctx}: overhead"
        );
        assert_eq!(
            a.substrate.lost_cycles, b.substrate.lost_cycles,
            "{ctx}: lost"
        );
        assert_eq!(
            a.substrate.checkpoints, b.substrate.checkpoints,
            "{ctx}: checkpoints"
        );
        assert_eq!(
            a.substrate.violation_checkpoints, b.substrate.violation_checkpoints,
            "{ctx}: violation_checkpoints"
        );
        assert_eq!(
            a.substrate.capacity_checkpoints, b.substrate.capacity_checkpoints,
            "{ctx}: capacity_checkpoints"
        );
        assert_eq!(
            a.substrate.watchdog_checkpoints, b.substrate.watchdog_checkpoints,
            "{ctx}: watchdog_checkpoints"
        );
    }

    fn record(program: &wn_isa::Program) -> (Core, ExecutionTape) {
        let master = fresh_core(program);
        let mut rec = master.clone();
        let tape = ExecutionTape::record(&mut rec, 10_000_000)
            .unwrap()
            .unwrap();
        (master, tape)
    }

    #[test]
    fn clank_replay_matches_scalar_across_seeds() {
        let program = accumulate_program(120_000);
        let (master, tape) = record(&program);
        for seed in 0..6 {
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                Clank::default(),
            );
            let want = scalar.run(3600.0).unwrap();
            let supply = EnergySupply::new(rf_trace(seed), SupplyConfig::default());
            let (got, core) = replay_run_clank(
                &tape,
                &master,
                &WalkCache::new(),
                supply,
                ClankConfig::default(),
                3600.0,
            )
            .unwrap();
            assert!(want.outages > 0, "seed {seed}: must span outages");
            assert!(!want.skimmed, "no SKM in this program");
            assert!(core.is_none(), "completed on tape");
            assert_runs_match(&got, &want, &format!("clank seed {seed}"));
        }
    }

    #[test]
    fn nvp_replay_matches_scalar_across_seeds() {
        let program = accumulate_program(120_000);
        let (master, tape) = record(&program);
        for seed in 0..6 {
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                Nvp::default(),
            );
            let want = scalar.run(3600.0).unwrap();
            let supply = EnergySupply::new(rf_trace(seed), SupplyConfig::default());
            let (got, _core) = replay_run_nvp(
                &tape,
                &master,
                &WalkCache::new(),
                supply,
                NvpConfig::default(),
                3600.0,
            )
            .unwrap();
            assert!(want.outages > 0, "seed {seed}: must span outages");
            assert_runs_match(&got, &want, &format!("nvp seed {seed}"));
        }
    }

    #[test]
    fn skim_handoff_matches_scalar_for_both_substrates() {
        let program = skim_program(400_000);
        let (master, tape) = record(&program);
        // One cache across all seeds, as in a fleet cohort: later seeds
        // reconstruct from snapshots populated by earlier ones, and must
        // still match the scalar engine bit for bit.
        let cache = WalkCache::new();
        let mut handoffs = 0;
        for seed in 0..6 {
            // Clank.
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                Clank::default(),
            );
            let want = scalar.run(3600.0).unwrap();
            let supply = EnergySupply::new(rf_trace(seed), SupplyConfig::default());
            let (got, core) = replay_run_clank(
                &tape,
                &master,
                &cache,
                supply,
                ClankConfig::default(),
                3600.0,
            )
            .unwrap();
            assert_runs_match(&got, &want, &format!("clank skim seed {seed}"));
            if want.skimmed {
                handoffs += 1;
                let core = core.expect("skimmed ⇒ handed off");
                assert_eq!(
                    core.mem.load_u32(0).unwrap(),
                    scalar.core().mem.load_u32(0).unwrap(),
                    "clank skim seed {seed}: final output"
                );
                assert_eq!(core.stats, scalar.core().stats, "clank stats seed {seed}");
            }

            // NVP.
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                Nvp::default(),
            );
            let want = scalar.run(3600.0).unwrap();
            let supply = EnergySupply::new(rf_trace(seed), SupplyConfig::default());
            let (got, core) =
                replay_run_nvp(&tape, &master, &cache, supply, NvpConfig::default(), 3600.0)
                    .unwrap();
            assert_runs_match(&got, &want, &format!("nvp skim seed {seed}"));
            if want.skimmed {
                let core = core.expect("skimmed ⇒ handed off");
                assert_eq!(
                    core.mem.load_u32(0).unwrap(),
                    scalar.core().mem.load_u32(0).unwrap(),
                    "nvp skim seed {seed}: final output"
                );
            }
        }
        assert!(handoffs > 0, "test must exercise the handoff path");
    }

    #[test]
    fn task_replay_admits_the_blocks_a_core_admits() {
        // Regions [0, 2), [2, 5) and [5, 9): the loop's LDR/ADD block
        // fits its region, the BLT block leaves it. A cursor admitting
        // by any other rule would fuse past a boundary and miss a
        // commit.
        let program = accumulate_program(120_000);
        let (_, tape) = record(&program);
        let regions: Vec<TaskRegion> = [(0, 2), (2, 5), (5, 9)]
            .map(|(start_pc, end_pc)| TaskRegion {
                start_pc,
                end_pc,
                is_commit: false,
                privatized_words: 0,
            })
            .to_vec();
        let task = Task::new(TaskConfig::default(), regions);
        for seed in 0..3 {
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                task.clone(),
            );
            let want = scalar.run(3600.0).unwrap();
            let supply = EnergySupply::new(rf_trace(seed), SupplyConfig::default());
            let (got, core) = replay_run(&tape, supply, task.clone(), 3600.0).unwrap();
            assert!(want.outages > 0, "seed {seed}: must span outages");
            assert!(scalar.core().fused_instructions() > 0, "seed {seed}: fuses");
            assert!(core.is_none(), "completed on tape");
            assert_runs_match(&got, &want, &format!("task seed {seed}"));
            assert_eq!(got.substrate, want.substrate, "task seed {seed}");
        }
    }

    /// Runs one device per seed over a streamed tape of `program`, in
    /// rounds: advance all, evict behind the earliest restore floor,
    /// extend. Returns each device's run and handed-off core, and the
    /// most entries the tape held.
    fn stream<S: Substrate>(
        program: &wn_isa::Program,
        seeds: std::ops::Range<u64>,
        substrate: impl Fn() -> S,
    ) -> (Vec<(IntermittentRun, Option<Core>)>, usize) {
        let master = fresh_core(program);
        let mut tape = ExecutionTape::stream(&master);
        let mut devices: Vec<_> = seeds
            .map(|seed| {
                let supply = EnergySupply::new(rf_trace(seed), SupplyConfig::default());
                Some(StreamedDevice::new(supply, substrate(), 3600.0))
            })
            .collect();
        let mut done: Vec<_> = devices.iter().map(|_| None).collect();
        loop {
            let mut floor: Option<TapePos> = None;
            for (slot, out) in devices.iter_mut().zip(&mut done) {
                let Some(device) = slot else { continue };
                match device.advance(&tape).unwrap() {
                    Some(run) => *out = Some((run, slot.take().unwrap().into_core())),
                    None => {
                        let here = device.restore_floor().unwrap();
                        floor = Some(floor.map_or(here, |f| f.min(here)));
                    }
                }
            }
            let Some(floor) = floor else { break };
            tape.evict(floor);
            tape.extend().unwrap();
        }
        let runs = done.into_iter().map(Option::unwrap).collect();
        (runs, tape.peak_retained_entries())
    }

    #[test]
    fn streamed_replay_matches_scalar_across_windows() {
        for (program, skims) in [
            (accumulate_program(120_000), false),
            (skim_program(400_000), true),
        ] {
            let (master, whole) = record(&program);
            assert!(whole.dispatches() > 4 * wn_sim::tape::WINDOW_ENTRIES);
            let (clank, peak) = stream(&program, 0..4, Clank::default);
            assert!(peak <= 3 * (wn_sim::tape::WINDOW_ENTRIES + 1), "{peak}");
            let (nvp, _) = stream(&program, 0..4, Nvp::default);
            let mut handoffs = 0;
            for seed in 0..4 {
                let mut scalar = IntermittentExecutor::new(
                    fresh_core(&program),
                    &rf_trace(seed),
                    SupplyConfig::default(),
                    Clank::default(),
                );
                let want = scalar.run(3600.0).unwrap();
                let (got, core) = &clank[seed as usize];
                assert_runs_match(got, &want, &format!("streamed clank seed {seed}"));
                assert_eq!(core.is_some(), want.skimmed);
                if let Some(core) = core {
                    handoffs += 1;
                    assert_eq!(core.mem, scalar.core().mem, "clank seed {seed}: memory");
                }
                let mut scalar = IntermittentExecutor::new(
                    fresh_core(&program),
                    &rf_trace(seed),
                    SupplyConfig::default(),
                    Nvp::default(),
                );
                let want = scalar.run(3600.0).unwrap();
                let (got, core) = &nvp[seed as usize];
                assert_runs_match(got, &want, &format!("streamed nvp seed {seed}"));
                if let Some(core) = core {
                    assert_eq!(core.mem, scalar.core().mem, "nvp seed {seed}: memory");
                }
            }
            assert_eq!(handoffs > 0, skims, "handoffs");
            drop(master);
        }
    }

    #[test]
    fn wall_clock_errors_match_scalar() {
        let program = accumulate_program(200_000);
        let (master, tape) = record(&program);
        let limit = 0.002;
        let mut scalar = IntermittentExecutor::new(
            fresh_core(&program),
            &rf_trace(2),
            SupplyConfig::default(),
            Clank::default(),
        );
        let want = scalar.run(limit);
        let supply = EnergySupply::new(rf_trace(2), SupplyConfig::default());
        let got = replay_run_clank(
            &tape,
            &master,
            &WalkCache::new(),
            supply,
            ClankConfig::default(),
            limit,
        );
        match (want, got) {
            (Err(ExecError::WallClock { .. }), Err(ExecError::WallClock { .. })) => {}
            (w, g) => panic!("scalar {w:?} vs replay {g:?}"),
        }
    }
}
