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
//! [`wn_sim::ExecutionTape`] records the trajectory once. A device then
//! runs on the ordinary [`IntermittentExecutor`] power loop with its own
//! [`EnergySupply`] and substrate, over a `TapeCursor` instead of a
//! core: steps are the tape's rows, a checkpoint is a tape position, and
//! bulk execution walks the tape's cost arrays, admitting fused blocks
//! by the master core's own rule ([`wn_sim::Core::admit_block`]: budget,
//! headroom and fence alike). The supply therefore sees the identical
//! float operation sequence, and the substrate the identical calls, that
//! a run on a live core would issue.
//!
//! ## Leaving the trajectory
//!
//! The one event that leaves the shared trajectory is a taken skim jump:
//! after it, the device executes instructions the tape never recorded.
//! A restore with the SKM register armed leads straight to that jump, so
//! the cursor's restore reconstructs the device's core at its resume
//! position ([`ExecutionTape::reconstruct`], from the cohort's
//! [`WalkCache`]), primes the substrate's checkpoint with that core's
//! snapshot, and from then on delegates to the core — in the same loop,
//! so the jump and everything after it run exactly as on a core from the
//! start.
//!
//! ## What the tape cannot see
//!
//! Differential checkpoint *word counts* (`checkpoint_words_saved` /
//! `checkpoint_words_full`) depend on register values the tape does not
//! keep, so those two counters are not maintained on it. Every
//! cycle-accounted quantity — overhead, lost work, checkpoint counts,
//! outage placement, timing — is exact. Callers that consume word
//! counts (none of the fleet reports do) must run on a core; the fleet
//! also does so when a nonzero `cycles_per_checkpoint_word` makes
//! checkpoint *cost* depend on word counts.

use std::ops::ControlFlow;

use wn_energy::EnergySupply;
use wn_sim::tape::{ExecutionTape, WalkCache};
use wn_sim::{
    BulkRun, Core, HookBreak, MemAccess, SimError, StepEvent, StepHook, StepInfo, StopReason,
};
use wn_telemetry::EventSink;

use crate::clank::{Clank, ClankConfig};
use crate::execution::{Execution, Saved};
use crate::executor::{ExecError, IntermittentExecutor, IntermittentRun, Lease};
use crate::nvp::{Nvp, NvpConfig};
use crate::substrate::Substrate;

/// One device's execution source over a cohort's tape, until a skim
/// jump hands it a core of its own.
#[derive(Debug)]
struct TapeCursor<'a> {
    tape: &'a ExecutionTape,
    /// The cohort's pristine core: its fused-block table admits blocks,
    /// and handoffs reconstruct from it. Never mutated.
    master: &'a Core,
    cache: &'a WalkCache,
    /// Tape steps retired: the device's architectural state.
    pos: usize,
    halted: bool,
    /// The non-volatile SKM register.
    skm: Option<u32>,
    /// The device's own core, once it has left the trajectory.
    live: Option<Core>,
}

impl TapeCursor<'_> {
    /// Retires the next tape row.
    #[inline]
    fn tape_step(&mut self) -> StepInfo {
        let info = self.tape.info(self.pos);
        match info.event {
            StepEvent::SkimSet(target) => self.skm = Some(target),
            // HALT keeps its pc: a checkpoint here captures the halt site.
            StepEvent::Halted => {
                self.halted = true;
                return info;
            }
            StepEvent::None | StepEvent::BranchTaken => {}
        }
        self.pos += 1;
        info
    }
}

impl Execution for TapeCursor<'_> {
    fn step(&mut self) -> Result<StepInfo, SimError> {
        match &mut self.live {
            Some(core) => core.step(),
            None => Ok(self.tape_step()),
        }
    }

    /// [`Core::run_steps_hooked`] over the tape: the same budget checks
    /// and the same block admission, with the recorded costs.
    fn run_lease<S: Substrate, K: EventSink>(
        &mut self,
        budget: u64,
        lease: &mut Lease<'_, S, K>,
    ) -> Result<BulkRun, SimError> {
        if let Some(core) = &mut self.live {
            return core.run_lease(budget, lease);
        }
        let (mut cycles, mut instructions) = (0u64, 0u64);
        let stop = loop {
            if self.halted {
                break StopReason::Halted;
            }
            if cycles >= budget {
                break StopReason::Budget;
            }
            let (pos, pc) = (self.pos, self.tape.pc(self.pos));
            if let Some(len) = self.master.admit_block(pc, budget - cycles, lease) {
                // The tape's costs are *actual* (a taken tail's refill
                // folded into the final element), so settling them with
                // `tail_extra = 0` issues element for element the core's
                // float operations. Every other element is the block's
                // static cost, so the block keeps the core's identity.
                let len = len as usize;
                let span = self.tape.span_cycles(pos, pos + len);
                let costs = self.tape.costs_in(pos, len);
                debug_assert_eq!(
                    costs[..len - 1],
                    self.master.block_costs(pc)[..len - 1],
                    "tape costs of the block at pc {pc} are not its static costs"
                );
                let extra = lease.on_block(pc, costs, span, 0, self.tape.reads_in(pos, len));
                cycles += span + extra;
                instructions += len as u64;
                self.pos += len;
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
        self.live.as_ref().map_or(self.halted, Core::is_halted)
    }

    fn pc(&self) -> u32 {
        match &self.live {
            Some(core) => core.cpu.pc,
            None => self.tape.pc(self.pos),
        }
    }

    fn take_skim(&mut self) -> Option<u32> {
        // On the tape the register is never armed here: a restore that
        // finds it armed has already handed off.
        self.live.as_mut()?.take_skim()
    }

    fn save(&self, saved: &mut Saved) -> Option<u64> {
        match &self.live {
            Some(core) => core.save(saved),
            None => {
                saved.pos = self.pos;
                None
            }
        }
    }

    fn restore(&mut self, saved: &mut Saved) -> Result<(), SimError> {
        if let Some(core) = &mut self.live {
            return core.restore(saved);
        }
        self.pos = saved.pos;
        self.halted = false;
        if let Some(skm) = self.skm {
            // The skim jump follows: rebuild the state the checkpoint
            // (or NV snapshot) captured — the trajectory at `pos`, since
            // Clank rolled memory back to it and NVP persisted it — and
            // make its snapshot the substrate's checkpoint.
            let mut core = self.tape.reconstruct(self.master, self.pos, self.cache)?;
            core.cpu.skm = Some(skm);
            saved.cpu.capture(core.cpu.snapshot());
            self.live = Some(core);
        }
        Ok(())
    }

    fn power_loss(&mut self) {
        if let Some(core) = &mut self.live {
            core.power_loss();
        }
    }

    fn undo(&mut self, log: &mut Vec<MemAccess>) {
        match &mut self.live {
            Some(core) => core.undo(log),
            // Restoring a position restores memory with it.
            None => log.clear(),
        }
    }

    fn max_instr_cycles(&self) -> u64 {
        self.master.max_instr_cycles()
    }
}

/// A full lockstep device run on the Clank substrate over `tape`, whose
/// master core is `master` (consulted, never mutated). `supply` must be
/// fresh per device. Returns the run and, for a device that left the
/// trajectory by a skim jump, its final core for output decoding;
/// `None` means the device finished on the tape, so its outputs equal
/// the master trajectory's.
///
/// # Errors
///
/// As [`IntermittentExecutor::run`].
pub fn replay_run_clank(
    tape: &ExecutionTape,
    master: &Core,
    cache: &WalkCache,
    supply: EnergySupply,
    config: ClankConfig,
    limit_s: f64,
) -> Result<(IntermittentRun, Option<Core>), ExecError> {
    replay_run(tape, master, cache, supply, Clank::new(config), limit_s)
}

/// As [`replay_run_clank`], on the NVP substrate.
///
/// # Errors
///
/// As [`IntermittentExecutor::run`].
pub fn replay_run_nvp(
    tape: &ExecutionTape,
    master: &Core,
    cache: &WalkCache,
    supply: EnergySupply,
    config: NvpConfig,
    limit_s: f64,
) -> Result<(IntermittentRun, Option<Core>), ExecError> {
    replay_run(tape, master, cache, supply, Nvp::new(config), limit_s)
}

fn replay_run<S: Substrate>(
    tape: &ExecutionTape,
    master: &Core,
    cache: &WalkCache,
    supply: EnergySupply,
    substrate: S,
    limit_s: f64,
) -> Result<(IntermittentRun, Option<Core>), ExecError> {
    let cursor = TapeCursor {
        tape,
        master,
        cache,
        pos: 0,
        halted: false,
        skm: None,
        live: None,
    };
    let mut exec = IntermittentExecutor::with_supply(cursor, supply, substrate);
    let run = exec.run(limit_s)?;
    Ok((run, exec.into_parts().0.live))
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
        let (master, tape) = record(&program);
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
            let (got, core) = replay_run(
                &tape,
                &master,
                &WalkCache::new(),
                supply,
                task.clone(),
                3600.0,
            )
            .unwrap();
            assert!(want.outages > 0, "seed {seed}: must span outages");
            assert!(scalar.core().fused_instructions() > 0, "seed {seed}: fuses");
            assert!(core.is_none(), "completed on tape");
            assert_runs_match(&got, &want, &format!("task seed {seed}"));
            assert_eq!(got.substrate, want.substrate, "task seed {seed}");
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
