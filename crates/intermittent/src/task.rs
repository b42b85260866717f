//! Checkpoint-free task substrate (Alpaca-style; Maeng et al., OOPSLA
//! 2017).
//!
//! The compiler's task pass (`wn_compiler::passes::tasks`) decomposes a
//! kernel into **idempotent tasks**: regions whose WAR-violating arrays
//! are privatized into shadow copies, followed by a *commit region* that
//! copies the shadows back to their masters. Under that contract the
//! substrate never snapshots memory at all:
//!
//! * Crossing a region boundary is a **commit**: the post-step register
//!   context (the entry state of the new region) is persisted to
//!   non-volatile storage and a fixed commit cost is charged.
//! * An **outage** discards the volatile pipeline and nothing else.
//!   Memory keeps whatever partial writes the interrupted region made —
//!   they are harmless, because re-execution from the region entry
//!   rewrites them deterministically (non-privatized writes) or ignores
//!   them entirely (the masters of privatized arrays are only written by
//!   the commit region, which is itself idempotent: its shadow sources
//!   are never written while it runs).
//! * A **restore** reloads the persisted entry context and re-executes
//!   the interrupted region from its entry. Work since the last boundary
//!   is the re-execution cost — the task-substrate analogue of a
//!   checkpoint substrate's rollback.
//!
//! The executor's skim jump composes for free: a taken skim point moves
//! the PC out of the current region, so the first retired instruction
//! after the jump is observed as a boundary crossing and forces an early
//! commit, skipping every remaining refinement task.
//!
//! Checkpoint counters in [`SubstrateStats`] stay at zero; this substrate
//! populates `commits`, `privatized_words` and `reexecuted_cycles`.

use wn_sim::{SimError, StepInfo};

use crate::execution::{Execution, Saved};
use crate::substrate::{Substrate, SubstrateStats};

/// Task substrate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskConfig {
    /// Cycles charged per boundary commit (persisting the entry context
    /// to non-volatile storage).
    pub commit_cycles: u64,
    /// Cycles charged to reload the persisted context after an outage.
    pub restore_cycles: u64,
}

impl Default for TaskConfig {
    fn default() -> TaskConfig {
        TaskConfig {
            commit_cycles: 40,
            restore_cycles: 40,
        }
    }
}

/// One compiler-emitted task region: a half-open PC interval
/// `[start_pc, end_pc)`. Regions tile the program contiguously in
/// address order — every PC the core can retire at belongs to exactly
/// one region. Mirrors `wn_compiler::TaskSpan` without depending on the
/// compiler crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRegion {
    /// First instruction of the region.
    pub start_pc: u32,
    /// One past the last instruction of the region.
    pub end_pc: u32,
    /// Whether this region is a shadow→master commit sequence.
    pub is_commit: bool,
    /// Words the commit sequence copies back (commit regions only).
    pub privatized_words: u64,
}

/// The checkpoint-free task substrate.
#[derive(Debug, Clone)]
pub struct Task {
    config: TaskConfig,
    /// Compiler-emitted regions, sorted by `start_pc`, tiling the
    /// program.
    regions: Vec<TaskRegion>,
    /// Index of the region the core is currently executing in.
    cur: usize,
    /// The persisted entry context of the current region. Empty until
    /// the first boundary commit: a fresh program cold-boots from the
    /// entry point, which *is* the first region's entry.
    context: Saved,
    /// Cycles retired inside the current region since its entry — the
    /// amount an outage right now would force us to re-execute.
    cycles_in_region: u64,
    /// Raised by a boundary-crossing `after_step`, consumed (once) by
    /// [`Substrate::take_boundary`] so the executor breaks its bulk loop
    /// and settles the commit before the next lease.
    boundary: bool,
    stats: SubstrateStats,
}

impl Task {
    /// Creates a task substrate over `regions` (the compiled kernel's
    /// task spans). Regions must be sorted by `start_pc` and tile the
    /// program; an empty slice gets a single catch-all region so that
    /// non-decomposed programs degrade to "one big task".
    pub fn new(config: TaskConfig, regions: Vec<TaskRegion>) -> Task {
        let regions = if regions.is_empty() {
            vec![TaskRegion {
                start_pc: 0,
                end_pc: u32::MAX,
                is_commit: false,
                privatized_words: 0,
            }]
        } else {
            debug_assert!(
                regions.windows(2).all(|w| w[0].end_pc == w[1].start_pc),
                "task regions must tile the program contiguously"
            );
            regions
        };
        Task {
            config,
            regions,
            cur: 0,
            context: Saved::default(),
            cycles_in_region: 0,
            boundary: false,
            stats: SubstrateStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> TaskConfig {
        self.config
    }

    /// Index of the region containing `pc`, clamped to the last region
    /// for PCs past the end (a halted core parks its PC on the final
    /// `HALT`, which the last region contains; the clamp only matters
    /// for defensive robustness).
    fn region_of(&self, pc: u32) -> usize {
        let idx = self.regions.partition_point(|r| r.start_pc <= pc);
        idx.saturating_sub(1).min(self.regions.len() - 1)
    }
}

impl Substrate for Task {
    fn after_step<E: Execution>(&mut self, exec: &mut E, info: &StepInfo) -> u64 {
        let pc = exec.pc();
        let here = &self.regions[self.cur];
        if pc >= here.start_pc && pc < here.end_pc {
            self.cycles_in_region += info.cycles;
            return 0;
        }
        // Boundary crossing: the step that just retired left the region.
        // Persist the post-step context — it is, by construction, the
        // entry state of the region the PC now sits in — and charge the
        // commit. Leaving a commit region means its shadow→master copy
        // loop has fully retired, so its words are now durable.
        self.stats.commits += 1;
        if here.is_commit {
            self.stats.privatized_words += here.privatized_words;
        }
        exec.save(&mut self.context);
        self.stats.overhead_cycles += self.config.commit_cycles;
        self.cycles_in_region = 0;
        self.cur = self.region_of(pc);
        self.boundary = true;
        self.config.commit_cycles
    }

    fn lease_cap(&self) -> u64 {
        // `after_step` charges at most one commit per instruction.
        self.config.commit_cycles
    }

    fn fused_headroom(&self) -> u64 {
        // A boundary still pending (raised on the checked path) must
        // break the next lease at its first step, as it does when every
        // step is single; otherwise nothing bounds fused execution.
        if self.boundary {
            0
        } else {
            u64::MAX
        }
    }

    fn fused_fence(&self) -> (u32, u32) {
        // Boundary detection needs the post-step pc of every
        // instruction; a block whose every post-step pc lies in the
        // current region would only have accumulated cycles, so it may
        // retire wholesale. After a skim jump the pc can sit outside
        // the region: the fence then rejects its block, which
        // single-steps into the commit.
        // An empty region at pc 0 admits nothing.
        let here = &self.regions[self.cur];
        here.end_pc
            .checked_sub(1)
            .map_or((1, 0), |last| (here.start_pc, last))
    }

    fn after_fused(&mut self, cycles: u64, _reads: &[u32]) {
        self.cycles_in_region += cycles;
    }

    fn take_boundary(&mut self) -> bool {
        std::mem::take(&mut self.boundary)
    }

    fn on_outage<E: Execution>(&mut self, exec: &mut E) {
        // Everything since the region entry is discarded work; memory is
        // left exactly as-is (see the module doc for why that is safe).
        self.stats.lost_cycles += self.cycles_in_region;
        self.stats.reexecuted_cycles += self.cycles_in_region;
        self.cycles_in_region = 0;
        self.boundary = false;
        exec.power_loss();
    }

    fn on_restore<E: Execution>(&mut self, exec: &mut E) -> Result<u64, SimError> {
        // Before the first boundary commit this is a cold boot from the
        // entry, the first region's entry.
        exec.restore(&mut self.context)?;
        self.cur = self.region_of(exec.pc());
        self.boundary = false;
        self.stats.overhead_cycles += self.config.restore_cycles;
        Ok(self.config.restore_cycles)
    }

    fn restore_point(&self) -> Option<&Saved> {
        Some(&self.context)
    }

    fn stats(&self) -> SubstrateStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "task"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_isa::asm::assemble;
    use wn_sim::{Core, CoreConfig};

    fn two_regions() -> Vec<TaskRegion> {
        vec![
            TaskRegion {
                start_pc: 0,
                end_pc: 2,
                is_commit: false,
                privatized_words: 0,
            },
            TaskRegion {
                start_pc: 2,
                end_pc: 4,
                is_commit: true,
                privatized_words: 8,
            },
        ]
    }

    #[test]
    fn boundary_crossing_commits_and_raises_flag() {
        let p = assemble("MOV r0, #1\nMOV r1, #2\nADD r2, r0, r1\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut task = Task::new(TaskConfig::default(), two_regions());

        // pc 0 -> 1: still inside region 0, no commit.
        let info = core.step().unwrap();
        assert_eq!(task.after_step(&mut core, &info), 0);
        assert!(!task.take_boundary());
        assert_eq!(task.fused_fence(), (0, 1), "blocks stay in region 0");

        // pc 1 -> 2: crossed into region 1.
        let info = core.step().unwrap();
        assert_eq!(
            task.after_step(&mut core, &info),
            TaskConfig::default().commit_cycles
        );
        assert_eq!(task.fused_fence(), (2, 3), "the fence follows the pc");
        assert_eq!(task.fused_headroom(), 0, "no fusion past a pending break");
        assert!(task.take_boundary());
        assert!(!task.take_boundary(), "flag is one-shot");
        assert_eq!(task.fused_headroom(), u64::MAX);
        let s = task.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.checkpoints, 0, "task substrates never checkpoint");
        assert_eq!(
            s.privatized_words, 0,
            "region 0 is not a commit region, nothing copied back yet"
        );
    }

    #[test]
    fn leaving_a_commit_region_credits_its_words() {
        let p = assemble("MOV r0, #1\nMOV r1, #2\nADD r2, r0, r1\nMOV r3, #4\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut regions = two_regions();
        regions.push(TaskRegion {
            start_pc: 4,
            end_pc: 5,
            is_commit: false,
            privatized_words: 0,
        });
        let mut task = Task::new(TaskConfig::default(), regions);
        for _ in 0..4 {
            let info = core.step().unwrap();
            task.after_step(&mut core, &info);
        }
        let s = task.stats();
        assert_eq!(s.commits, 2, "left region 0 and commit region 1");
        assert_eq!(s.privatized_words, 8);
    }

    #[test]
    fn outage_reexecutes_from_region_entry() {
        let p = assemble("MOV r0, #1\nMOV r1, #2\nADD r2, r0, r1\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut task = Task::new(TaskConfig::default(), two_regions());

        // Cross into region 1, then take one step inside it.
        for _ in 0..3 {
            let info = core.step().unwrap();
            task.after_step(&mut core, &info);
        }
        let lost = task.stats();
        task.on_outage(&mut core);
        let s = task.stats();
        assert!(s.lost_cycles > lost.lost_cycles, "mid-region work is lost");
        assert_eq!(s.reexecuted_cycles, s.lost_cycles);

        let cost = task.on_restore(&mut core).unwrap();
        assert_eq!(cost, TaskConfig::default().restore_cycles);
        assert_eq!(core.cpu.pc, 2, "re-enters the interrupted region");
        assert_eq!(core.cpu.reg(wn_isa::Reg::R1), 2, "entry context restored");

        while !core.is_halted() {
            let info = core.step().unwrap();
            task.after_step(&mut core, &info);
        }
        assert_eq!(core.cpu.reg(wn_isa::Reg::R2), 3);
    }

    #[test]
    fn cold_boot_restarts_the_first_region() {
        let p = assemble("MOV r0, #1\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut task = Task::new(TaskConfig::default(), Vec::new());
        task.on_outage(&mut core);
        task.on_restore(&mut core).unwrap();
        assert_eq!(core.cpu.pc, 0);
        assert!(!core.cpu.halted);
    }

    #[test]
    fn empty_region_list_degrades_to_one_task() {
        let p = assemble("MOV r0, #1\nMOV r1, #2\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut task = Task::new(TaskConfig::default(), Vec::new());
        while !core.is_halted() {
            let info = core.step().unwrap();
            assert_eq!(task.after_step(&mut core, &info), 0);
        }
        assert_eq!(task.stats().commits, 0, "one region, no boundaries");
    }

    #[test]
    fn outage_clears_a_pending_boundary_flag() {
        let p = assemble("MOV r0, #1\nMOV r1, #2\nADD r2, r0, r1\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut task = Task::new(TaskConfig::default(), two_regions());
        for _ in 0..2 {
            let info = core.step().unwrap();
            task.after_step(&mut core, &info);
        }
        task.on_outage(&mut core);
        assert!(
            !task.take_boundary(),
            "an outage supersedes the boundary break"
        );
    }
}
