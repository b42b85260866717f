//! Execution tapes: a program's fault-free architectural trajectory,
//! recorded once and replayed as pure bookkeeping.
//!
//! Intermittent substrates never perturb architectural state relative
//! to continuous execution — Clank rolls back to exactly the state a
//! checkpoint captured, NVP persists exactly the state an outage
//! interrupted — so every device in a fleet cohort (same program, same
//! input image) retires the *same* instruction sequence, merely sliced
//! differently by its private power trace. An [`ExecutionTape`] records
//! that shared sequence once, in struct-of-arrays layout, as exactly
//! the per-step facts substrate and energy accounting consume: actual
//! cycle cost, pre-step pc, access/skim/halt classification, touched
//! memory word or skim target, and the loads of every span. Replaying a
//! device is then integer bookkeeping over these arrays plus its own
//! energy supply — no interpreter, no memory image.

use crate::core::{Core, FreeRun, StepEvent, StepInfo};
use crate::error::SimError;
use crate::memory::{AccessKind, MemAccess};
use std::sync::Mutex;

/// What one tape step did, as far as replay bookkeeping cares. At most
/// one applies per retirement on this core (`SKM` and `HALT` perform no
/// data access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TapeKind {
    /// Plain retirement: no access, no event a substrate acts on.
    None = 0,
    /// A load of one word.
    Read = 1,
    /// A store to one word.
    Write = 2,
    /// A skim point; [`ExecutionTape::skim`] holds the restore target.
    Skim = 3,
    /// The `HALT` retirement that ends the tape.
    Halt = 4,
}

/// The recorded fault-free trajectory, struct-of-arrays.
///
/// Invariants: the per-step arrays are the same length `n` (the
/// retired instruction count, `HALT` included as the final step);
/// `prefix` and `read_prefix` have length `n + 1`, with `prefix[i]` the
/// summed cycle cost and `read_prefix[i]` the load count of steps
/// `[0, i)`.
#[derive(Debug, Clone)]
pub struct ExecutionTape {
    /// Actual cycles each step consumed (dynamic cost: taken-branch
    /// refills and memoized multiplies included).
    costs: Vec<u64>,
    /// Pre-step pc of each step — the index replay uses to consult the
    /// fused-block table.
    pcs: Vec<u32>,
    /// [`TapeKind`] of each step, as its `u8` discriminant.
    kinds: Vec<u8>,
    /// Word address (`addr & !3`) for `Read`/`Write` steps, the restore
    /// target for `Skim` steps, 0 otherwise.
    words: Vec<u32>,
    /// Cycle-cost prefix sums, length `n + 1`.
    prefix: Vec<u64>,
    /// Word address of every load, in retirement order.
    reads: Vec<u32>,
    /// Load-count prefix sums, length `n + 1`: the loads of steps
    /// `[a, b)` are `reads[read_prefix[a]..read_prefix[b]]`.
    read_prefix: Vec<u32>,
}

impl ExecutionTape {
    /// Runs `core` (typically a fresh clone of a cohort's master core)
    /// to `HALT` one [`Core::step`] at a time, recording every
    /// retirement. Returns `None` if the program has not halted after
    /// `max_steps` retirements — the caller should fall back to scalar
    /// execution rather than tape replay.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] the program run raises.
    pub fn record(core: &mut Core, max_steps: u64) -> Result<Option<ExecutionTape>, SimError> {
        let mut tape = ExecutionTape {
            costs: Vec::new(),
            pcs: Vec::new(),
            kinds: Vec::new(),
            words: Vec::new(),
            prefix: vec![0u64],
            reads: Vec::new(),
            read_prefix: vec![0u32],
        };
        loop {
            if tape.len() as u64 >= max_steps {
                return Ok(None);
            }
            let pc = core.cpu.pc;
            let info = core.step()?;
            let (kind, word) = classify(&info);
            tape.costs.push(info.cycles);
            tape.pcs.push(pc);
            tape.kinds.push(kind as u8);
            tape.words.push(word);
            let total = tape.prefix[tape.len() - 1] + info.cycles;
            tape.prefix.push(total);
            if kind == TapeKind::Read {
                tape.reads.push(word);
            }
            tape.read_prefix.push(tape.reads.len() as u32);
            if kind == TapeKind::Halt {
                return Ok(Some(tape));
            }
        }
    }

    /// Retired steps on the tape (the final one is the `HALT`).
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True only for a tape that recorded nothing (never produced by
    /// [`ExecutionTape::record`], which always ends on a `HALT` step).
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Actual cycle cost of step `i`.
    #[inline]
    pub fn cost(&self, i: usize) -> u64 {
        self.costs[i]
    }

    /// Pre-step pc of step `i`.
    #[inline]
    pub fn pc(&self, i: usize) -> u32 {
        self.pcs[i]
    }

    /// Classification of step `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> TapeKind {
        match self.kinds[i] {
            1 => TapeKind::Read,
            2 => TapeKind::Write,
            3 => TapeKind::Skim,
            4 => TapeKind::Halt,
            _ => TapeKind::None,
        }
    }

    /// Skim restore target of step `i` (`Skim` steps only).
    #[inline]
    pub fn skim(&self, i: usize) -> u32 {
        self.words[i]
    }

    /// Step `i` as the [`StepInfo`] its retirement reported, as far as
    /// the tape keeps it: accesses are word-wide with no pre-write
    /// value, and a taken branch reads as a plain retirement.
    #[inline]
    pub fn info(&self, i: usize) -> StepInfo {
        let word = self.words[i];
        let (access, event) = match self.kind(i) {
            TapeKind::None => (None, StepEvent::None),
            TapeKind::Read => (Some(MemAccess::read(word, 4)), StepEvent::None),
            TapeKind::Write => (Some(MemAccess::write(word, 4, 0)), StepEvent::None),
            TapeKind::Skim => (None, StepEvent::SkimSet(word)),
            TapeKind::Halt => (None, StepEvent::Halted),
        };
        StepInfo {
            cycles: self.costs[i],
            access,
            event,
        }
    }

    /// Word addresses of the loads among steps `[start, start + len)`,
    /// in retirement order — a fused block's memory-op summary.
    #[inline]
    pub fn reads_in(&self, start: usize, len: usize) -> &[u32] {
        &self.reads[self.read_prefix[start] as usize..self.read_prefix[start + len] as usize]
    }

    /// The actual per-step costs of steps `[start, start + len)` — the
    /// exact slice a fused dispatch settles against the energy supply.
    #[inline]
    pub fn costs_in(&self, start: usize, len: usize) -> &[u64] {
        &self.costs[start..start + len]
    }

    /// Summed actual cycles of steps `[a, b)`.
    #[inline]
    pub fn span_cycles(&self, a: usize, b: usize) -> u64 {
        self.prefix[b] - self.prefix[a]
    }

    /// Total cycles of the whole recorded run.
    pub fn total_cycles(&self) -> u64 {
        *self.prefix.last().unwrap_or(&0)
    }

    /// Advances `core` — a fresh clone at the tape's starting state —
    /// until exactly `pos` of the tape's steps have retired: the state
    /// a substrate's checkpoint or NV snapshot captured at tape
    /// position `pos`. Uses the block-dispatch fast path for the bulk
    /// of the walk: the cycle prefix sums give an exact budget, and
    /// `run_steps_hooked` stops precisely when cumulative cycles reach
    /// it, falling back to single stepping for any zero-cost remainder.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`]; the walk retraces a recorded run,
    /// so an error here means `core` was not on this tape's trajectory.
    pub fn walk(&self, core: &mut Core, pos: usize) -> Result<(), SimError> {
        self.walk_span(core, 0, pos)
    }

    /// Advances `core` — already at tape position `from` — until `to`
    /// steps have retired, using the same budget-bounded fast path as
    /// [`ExecutionTape::walk`]. The state after retiring `to` steps is a
    /// pure function of the starting state and the step count, so a walk
    /// split into spans reaches bit-identical architectural state to a
    /// single whole walk.
    fn walk_span(&self, core: &mut Core, from: usize, to: usize) -> Result<(), SimError> {
        let bulk = core.run_steps_hooked(self.prefix[to] - self.prefix[from], &mut FreeRun)?;
        let mut retired = from + bulk.instructions as usize;
        while retired < to {
            core.step()?;
            retired += 1;
        }
        debug_assert_eq!(retired, to);
        if to < self.len() {
            debug_assert_eq!(core.cpu.pc, self.pcs[to]);
        }
        Ok(())
    }

    /// Tape position of snapshot slot `k` — an even grid over the
    /// trajectory.
    fn grid_pos(&self, k: usize) -> usize {
        (k + 1) * self.len() / (WALK_CACHE_SLOTS + 1)
    }

    /// Reconstructs the architectural state at tape position `pos` —
    /// exactly `master.clone()` + [`ExecutionTape::walk`] — resuming
    /// from and refilling `cache`'s snapshot grid along the way.
    ///
    /// Every cached snapshot is the unique architectural state after
    /// retiring `grid_pos(k)` steps of this tape from `master`
    /// (execution is deterministic), so which device populated a slot —
    /// and in what order under a parallel pool — cannot change a byte
    /// of any reconstruction. The cache must always be paired with the
    /// same `(master, tape)` it was first used with; [`WalkCache`]'s
    /// one-per-[`ExecutionTape`] ownership in the fleet planner
    /// guarantees that by construction.
    ///
    /// # Errors
    ///
    /// As [`ExecutionTape::walk`].
    pub fn reconstruct(
        &self,
        master: &Core,
        pos: usize,
        cache: &WalkCache,
    ) -> Result<Core, SimError> {
        let (mut core, mut at) = {
            let slots = cache.slots.lock().unwrap_or_else(|e| e.into_inner());
            let mut best: Option<usize> = None;
            for (k, slot) in slots.iter().enumerate() {
                if self.grid_pos(k) > pos {
                    break;
                }
                if slot.is_some() {
                    best = Some(k);
                }
            }
            match best {
                Some(k) => {
                    let core = slots[k].as_ref().expect("slot checked above").clone();
                    (core, self.grid_pos(k))
                }
                None => (master.clone(), 0),
            }
        };
        for k in 0..WALK_CACHE_SLOTS {
            let g = self.grid_pos(k);
            if g <= at {
                continue;
            }
            if g > pos {
                break;
            }
            self.walk_span(&mut core, at, g)?;
            at = g;
            let mut slots = cache.slots.lock().unwrap_or_else(|e| e.into_inner());
            if slots[k].is_none() {
                slots[k] = Some(core.clone());
            }
        }
        self.walk_span(&mut core, at, pos)?;
        Ok(core)
    }
}

/// Snapshot slots per [`WalkCache`]: enough to cut the average
/// reconstruction walk by ~an order of magnitude, few enough that a
/// cohort's cache stays below ~10 MB of cloned cores.
pub const WALK_CACHE_SLOTS: usize = 8;

/// Cross-device cache of reconstructed cores along one tape's
/// trajectory, for [`ExecutionTape::reconstruct`].
///
/// Divergent devices in a lockstep cohort each rebuild architectural
/// state at their own resume position; without a cache every one
/// re-walks the master trajectory from step zero. The cache keeps
/// core snapshots on a fixed position grid so later reconstructions
/// walk only from the nearest snapshot. Slot contents are pure
/// functions of the (master, tape) pair — see
/// [`ExecutionTape::reconstruct`] — so the cache accelerates without
/// being able to change results. One cache must serve exactly one
/// (master, tape) pair.
#[derive(Debug)]
pub struct WalkCache {
    slots: Mutex<Vec<Option<Core>>>,
}

impl WalkCache {
    /// An empty cache; slots fill lazily as reconstructions pass them.
    pub fn new() -> WalkCache {
        WalkCache {
            slots: Mutex::new(vec![None; WALK_CACHE_SLOTS]),
        }
    }
}

impl Default for WalkCache {
    fn default() -> WalkCache {
        WalkCache::new()
    }
}

/// Maps one retirement onto its tape row: kind plus touched word or
/// skim target.
fn classify(info: &StepInfo) -> (TapeKind, u32) {
    if let Some(a) = info.access {
        let word = a.addr & !3;
        return match a.kind {
            AccessKind::Read => (TapeKind::Read, word),
            AccessKind::Write => (TapeKind::Write, word),
        };
    }
    match info.event {
        StepEvent::SkimSet(target) => (TapeKind::Skim, target),
        StepEvent::Halted => (TapeKind::Halt, 0),
        StepEvent::None | StepEvent::BranchTaken => (TapeKind::None, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreConfig;
    use wn_isa::asm::assemble;

    fn demo_core() -> Core {
        // A loop with loads, stores, a skim point, and a branch — every
        // tape row kind in one small program.
        let src = "
.data
buf: .space 16
.text
MOV r0, #10
MOV r1, #0
MOV r2, =buf
loop:
LDR r3, [r2, #0]
ADD r1, r1, r3
STR r1, [r2, #4]
SKM done
SUB r0, r0, #1
CMP r0, #0
BNE loop
done:
HALT
";
        let program = assemble(src).unwrap();
        Core::new(&program, CoreConfig::default()).unwrap()
    }

    #[test]
    fn record_matches_scalar_run() {
        let mut rec = demo_core();
        let tape = ExecutionTape::record(&mut rec, 1_000_000).unwrap().unwrap();
        assert!(rec.is_halted());
        // Independent scalar replay agrees step for step.
        let mut core = demo_core();
        for i in 0..tape.len() {
            assert_eq!(core.cpu.pc, tape.pc(i), "pc at step {i}");
            let info = core.step().unwrap();
            assert_eq!(info.cycles, tape.cost(i), "cost at step {i}");
        }
        assert!(core.is_halted());
        assert_eq!(tape.kind(tape.len() - 1), TapeKind::Halt);
        assert_eq!(tape.total_cycles(), core.stats.cycles);
    }

    #[test]
    fn record_caps_runaway_programs() {
        let mut core = demo_core();
        assert!(ExecutionTape::record(&mut core, 5).unwrap().is_none());
    }

    #[test]
    fn walk_reaches_every_position_exactly() {
        let mut rec = demo_core();
        let tape = ExecutionTape::record(&mut rec, 1_000_000).unwrap().unwrap();
        // Walking a fresh core to pos must land on the same state a
        // step-by-step replay reaches.
        for pos in [0usize, 1, 5, tape.len() / 2, tape.len() - 1] {
            let mut walked = demo_core();
            tape.walk(&mut walked, pos).unwrap();
            let mut stepped = demo_core();
            for _ in 0..pos {
                stepped.step().unwrap();
            }
            assert_eq!(walked.cpu.snapshot(), stepped.cpu.snapshot(), "pos {pos}");
            assert_eq!(walked.stats.cycles, stepped.stats.cycles, "pos {pos}");
        }
    }

    #[test]
    fn reconstruct_reads_the_pc_like_stepping_at_every_position() {
        // The walk behind `reconstruct` retires fused blocks; an
        // instruction reading the pc must still see its own pc there.
        // The loop makes the walk long enough for its spans between the
        // cache's grid positions to fuse the pc readers' block.
        let src = "MOV r0, #0\nMOV r2, #1\nloop:\nMOV r1, pc\nADD r3, r0, pc\n\
                   ADD r4, r4, r1\nADD r4, r4, r3\nADD r2, r2, #1\nCMP r2, #40\nBLT loop\nHALT";
        let master = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let tape = ExecutionTape::record(&mut master.clone(), 10_000)
            .unwrap()
            .unwrap();
        let cache = WalkCache::new();
        let mut stepped = master.clone();
        for pos in 0..=tape.len() {
            let got = tape.reconstruct(&master, pos, &cache).unwrap();
            assert_eq!(got.cpu, stepped.cpu, "cpu at pos {pos}");
            assert_eq!(got.stats, stepped.stats, "stats at pos {pos}");
            stepped.step().unwrap();
        }
        let r = |reg| stepped.cpu.reg(reg);
        assert_eq!((r(wn_isa::Reg::R1), r(wn_isa::Reg::R3)), (2, 3));
        assert_eq!(r(wn_isa::Reg::R4), 39 * 5);
    }

    #[test]
    fn reconstruct_matches_plain_walk_in_any_query_order() {
        let mut rec = demo_core();
        let tape = ExecutionTape::record(&mut rec, 1_000_000).unwrap().unwrap();
        let master = demo_core();
        let n = tape.len();
        // Deep-first, shallow-first, and interleaved query orders hit
        // every cache shape: cold walks, warm snapshot resumes, and
        // populate-along-the-way fills.
        let orders: [Vec<usize>; 3] = [
            vec![n - 1, n / 2, n / 3, 1, 0, n / 4],
            vec![0, 1, n / 4, n / 3, n / 2, n - 1],
            vec![n / 2, 7.min(n - 1), n - 1, n / 5, n / 2, 0],
        ];
        for order in &orders {
            let cache = WalkCache::new();
            for &pos in order {
                let got = tape.reconstruct(&master, pos, &cache).unwrap();
                let mut want = master.clone();
                tape.walk(&mut want, pos).unwrap();
                assert_eq!(got.cpu, want.cpu, "cpu at pos {pos}");
                assert_eq!(got.mem, want.mem, "memory at pos {pos}");
                assert_eq!(got.stats, want.stats, "stats at pos {pos}");
            }
        }
    }
}
