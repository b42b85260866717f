//! Execution tapes: a program's fault-free architectural trajectory,
//! recorded once and replayed as pure bookkeeping.
//!
//! Intermittent substrates never perturb architectural state relative
//! to continuous execution — Clank rolls back to exactly the state a
//! checkpoint captured, NVP persists exactly the state an outage
//! interrupted — so every device running the same program on the same
//! input image retires the *same* instruction sequence, merely sliced
//! differently by its private power trace. An [`ExecutionTape`] records
//! that shared sequence once, as exactly the facts substrate and energy
//! accounting consume. Replaying a device is then integer bookkeeping
//! over the tape plus its own energy supply: no interpreter, no memory
//! image.
//!
//! ## Format
//!
//! The tape is the log of one fused run ([`Core::run_steps_hooked`]
//! with a recording hook): one entry per dispatch. A fused block's
//! entry keeps its admission pc, its tail outcome (the cycles a taken
//! `BCond` added) and its load words; everything else about it — its
//! length, its pcs, its static per-instruction costs — is the core's
//! block table at that pc. Stores, `SKM`, `HALT` and every other
//! instruction that cannot fuse are one-step entries with their actual
//! cost and their store word or skim target. A position inside an entry
//! is an offset into the block.
//!
//! ## Windows
//!
//! The tape is recorded in windows of [`WINDOW_ENTRIES`] entries, each
//! with a snapshot of the recorder core at its start. A whole tape
//! ([`ExecutionTape::record`]) keeps every window. A streamed tape
//! ([`ExecutionTape::stream`]) is extended one window at a time
//! ([`ExecutionTape::extend`]) and drops the windows behind the
//! earliest position its readers can still return to
//! ([`ExecutionTape::evict`]), so its memory stays bounded whatever the
//! program's length. A core at any retained position is rebuilt from
//! the nearest snapshot at or before it ([`ExecutionTape::reconstruct`]).

use std::ops::ControlFlow;

use crate::core::{Core, FreeRun, HookBreak, HookKind, StepEvent, StepHook, StepInfo};
use crate::cpu::Cpu;
use crate::error::SimError;
use crate::memo::MemoUnit;
use crate::memory::{AccessKind, MemAccess, Memory};
use crate::stats::ExecStats;

/// Entries per recording window: the unit of extension, eviction and
/// snapshotting. A window of a paper-scale kernel spans ~55 k retired
/// instructions and holds ~90 KB of entries and load words.
pub const WINDOW_ENTRIES: usize = 1 << 12;

/// What one entry recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A fused block: `arg` loads, `cycles` of tail refill.
    Block,
    /// A single step with no access and no event.
    Plain,
    /// A single-stepped load; its word is in the load words.
    Read,
    /// A single-stepped store to word `arg`.
    Write,
    /// A skim point with restore target `arg`.
    Skim,
    /// The `HALT` that ends the tape.
    Halt,
}

/// One recorded dispatch (16 bytes).
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The dispatch's pc: the block's admission pc, or the step's pc.
    pc: u32,
    /// A block's tail extra cycles, or a step's actual cycles.
    cycles: u32,
    /// A block's load count, a store's word, or a skim target.
    arg: u32,
    kind: Kind,
}

impl Entry {
    /// Loads the entry retired; their words follow in order.
    fn loads(&self) -> usize {
        match self.kind {
            Kind::Block => self.arg as usize,
            Kind::Read => 1,
            _ => 0,
        }
    }
}

/// A position on a tape: the instructions retired so far, as the loads
/// they made, an entry and an offset into it. Positions order as the
/// trajectory does (loads and entries both only grow along it). Sixteen
/// bytes, so the replay loop keeps one in two registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct TapePos {
    read: usize,
    entry: u32,
    off: u32,
}

/// A fused dispatch at a tape position: see [`ExecutionTape::dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch<'t> {
    /// Cycles the block's branch tail cost beyond its base.
    pub tail_extra: u64,
    /// Word addresses of the block's loads, in retirement order.
    pub reads: &'t [u32],
}

/// A recording window: where it starts and the recorder's state there
/// (the program-wide parts of a core live once, in the recorder).
#[derive(Debug, Clone)]
struct Window {
    entry: usize,
    read: usize,
    cpu: Cpu,
    mem: Memory,
    stats: ExecStats,
    memo: Option<MemoUnit>,
}

impl Window {
    fn at(entry: usize, read: usize, core: &Core) -> Window {
        Window {
            entry,
            read,
            cpu: core.cpu.clone(),
            mem: core.mem.clone(),
            stats: core.stats.clone(),
            memo: core.memo.clone(),
        }
    }
}

/// The recorded fault-free trajectory (see the module docs).
#[derive(Debug, Clone)]
pub struct ExecutionTape {
    /// The recorder, at the recorded end. Its block table is what the
    /// tape reads entries against, and snapshots restore onto its
    /// clones.
    recorder: Core,
    /// Retained windows, oldest first; never empty.
    windows: Vec<Window>,
    /// Entries from `first_entry` (`windows[0].entry`) on.
    entries: Vec<Entry>,
    first_entry: usize,
    /// Load words from `first_read` (`windows[0].read`) on.
    reads: Vec<u32>,
    first_read: usize,
    instructions: u64,
    cycles: u64,
    /// Most entries ever retained at once.
    peak_entries: usize,
}

/// The recording hook: logs each dispatch of a fused run as an entry,
/// and closes the window at `close_at` entries by refusing further
/// blocks, so the next instruction single-steps and breaks the run.
struct Recorder<'t> {
    entries: &'t mut Vec<Entry>,
    reads: &'t mut Vec<u32>,
    close_at: usize,
    /// The pc of the step about to retire.
    pc: u32,
}

impl StepHook for Recorder<'_> {
    const KIND: HookKind = HookKind::MemoryOps;

    #[inline]
    fn before_step(&mut self, pc: u32) {
        self.pc = pc;
    }

    fn on_step(&mut self, _core: &mut Core, info: &StepInfo) -> ControlFlow<HookBreak, u64> {
        let (kind, arg) = match (info.access, info.event) {
            (Some(a), _) if a.kind == AccessKind::Read => {
                self.reads.push(a.addr & !3);
                (Kind::Read, 0)
            }
            (Some(a), _) => (Kind::Write, a.addr & !3),
            (None, StepEvent::SkimSet(target)) => (Kind::Skim, target),
            (None, StepEvent::Halted) => (Kind::Halt, 0),
            (None, StepEvent::None | StepEvent::BranchTaken) => (Kind::Plain, 0),
        };
        self.entries.push(Entry {
            pc: self.pc,
            cycles: u32::try_from(info.cycles).expect("a step costs under 2^32 cycles"),
            arg,
            kind,
        });
        if self.entries.len() >= self.close_at {
            ControlFlow::Break(HookBreak::Stop)
        } else {
            ControlFlow::Continue(0)
        }
    }

    #[inline]
    fn block_budget(&self) -> u64 {
        if self.entries.len() >= self.close_at {
            0
        } else {
            u64::MAX
        }
    }

    fn on_block(
        &mut self,
        block: u32,
        _costs: &[u64],
        _cycles: u64,
        tail_extra: u64,
        reads: &[u32],
    ) {
        self.entries.push(Entry {
            pc: block,
            cycles: tail_extra as u32,
            arg: reads.len() as u32,
            kind: Kind::Block,
        });
        self.reads.extend(reads.iter().map(|a| a & !3));
    }
}

impl ExecutionTape {
    /// Runs `core` (typically a fresh clone of a cohort's master core)
    /// to `HALT` in fused runs, recording the whole trajectory, and
    /// leaves it halted there. Returns `None` if the program has not
    /// halted after `max_steps` retirements — the caller should fall
    /// back to scalar execution rather than tape replay.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] the program run raises.
    pub fn record(core: &mut Core, max_steps: u64) -> Result<Option<ExecutionTape>, SimError> {
        let mut tape = ExecutionTape::stream(core);
        while !tape.is_complete() {
            tape.extend()?;
            if tape.instructions > max_steps {
                return Ok(None);
            }
        }
        core.clone_from(&tape.recorder);
        Ok(Some(tape))
    }

    /// An empty tape over the trajectory starting at `master`'s state:
    /// [`ExecutionTape::extend`] records it a window at a time.
    pub fn stream(master: &Core) -> ExecutionTape {
        ExecutionTape {
            recorder: master.clone(),
            windows: vec![Window::at(0, 0, master)],
            entries: Vec::new(),
            first_entry: 0,
            reads: Vec::new(),
            first_read: 0,
            instructions: 0,
            cycles: 0,
            peak_entries: 0,
        }
    }

    /// Records the next window: until the current window holds
    /// [`WINDOW_ENTRIES`] entries or the program halts, opening a new
    /// window (with its snapshot) when the last is full. Does nothing
    /// once the tape is complete.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] the program run raises.
    pub fn extend(&mut self) -> Result<(), SimError> {
        if self.is_complete() {
            return Ok(());
        }
        let base = self.first_entry;
        let last = self.windows.last().expect("a tape keeps a window").entry;
        if self.end() - last >= WINDOW_ENTRIES {
            let read = self.first_read + self.reads.len();
            self.windows
                .push(Window::at(self.end(), read, &self.recorder));
        }
        let start = self.windows.last().expect("just ensured").entry;
        // Room for one more window, exactly: a streamed tape that evicts
        // behind its readers then never holds more than two windows'.
        self.entries.reserve_exact(WINDOW_ENTRIES + 1);
        let mut hook = Recorder {
            entries: &mut self.entries,
            reads: &mut self.reads,
            close_at: start + WINDOW_ENTRIES - base,
            pc: 0,
        };
        let bulk = self.recorder.run_steps_hooked(u64::MAX, &mut hook)?;
        assert!(
            self.end() < u32::MAX as usize,
            "a tape indexes its entries with 32 bits"
        );
        self.instructions += bulk.instructions;
        self.cycles += bulk.cycles;
        self.peak_entries = self.peak_entries.max(self.entries.len());
        Ok(())
    }

    /// Drops every window that ends at or before `keep`'s window: what
    /// no reader at or after `keep` can reach again. The window holding
    /// `keep` stays, snapshot included.
    pub fn evict(&mut self, keep: TapePos) {
        let k = self
            .windows
            .partition_point(|w| w.entry <= keep.entry as usize)
            .saturating_sub(1);
        if k == 0 {
            return;
        }
        let (entry, read) = (self.windows[k].entry, self.windows[k].read);
        self.windows.drain(..k);
        self.entries.drain(..entry - self.first_entry);
        self.reads.drain(..read - self.first_read);
        (self.first_entry, self.first_read) = (entry, read);
    }

    /// The recorder, at the recorded end: once the tape is complete,
    /// the fault-free run's final state. Its block table is the
    /// program's, for replay's block admission.
    pub fn recorder(&self) -> &Core {
        &self.recorder
    }

    /// Whether the tape ends on the program's `HALT`.
    pub fn is_complete(&self) -> bool {
        self.recorder.is_halted()
    }

    /// Instructions recorded (the final one is the `HALT` on a
    /// complete tape).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total cycles of the recorded run.
    pub fn total_cycles(&self) -> u64 {
        self.cycles
    }

    /// Entries (dispatches) recorded.
    pub fn dispatches(&self) -> usize {
        self.end()
    }

    /// Most entries held at once so far.
    pub fn peak_retained_entries(&self) -> usize {
        self.peak_entries
    }

    /// Snapshots held now, one per retained window.
    pub fn retained_windows(&self) -> usize {
        self.windows.len()
    }

    /// The tape's start: no instruction retired.
    pub fn start(&self) -> TapePos {
        TapePos::default()
    }

    /// Whether `pos` is the recorded end, where a streamed tape's
    /// readers wait for [`ExecutionTape::extend`]. A complete tape's
    /// readers never get there: retiring the `HALT` keeps them on it.
    #[inline(always)]
    pub fn at_end(&self, pos: TapePos) -> bool {
        pos.entry as usize == self.end()
    }

    /// The pc of the instruction at `pos`.
    #[inline(always)]
    pub fn pc(&self, pos: TapePos) -> u32 {
        self.next_pc(pos).unwrap_or(self.recorder.cpu.pc)
    }

    /// The pc of the instruction at `pos`, or `None` at the recorded
    /// end.
    #[inline(always)]
    pub fn next_pc(&self, pos: TapePos) -> Option<u32> {
        let e = *self.entries.get(pos.entry as usize - self.first_entry)?;
        Some(match (e.kind, pos.off) {
            (Kind::Block, 1..) => self.table().block_pc(e.pc, pos.off),
            _ => e.pc,
        })
    }

    /// Retires the instruction at `pos` (which must be recorded) as a
    /// single step and moves `pos` past it — except past a `HALT`, which
    /// keeps its position, as a halted core keeps its pc. Returns the
    /// [`StepInfo`] the retirement reported, as far as the tape keeps it:
    /// accesses are word-wide with no pre-write value, and a taken
    /// branch reads as a plain retirement.
    #[inline(always)]
    pub fn step(&self, pos: &mut TapePos) -> StepInfo {
        let e = self.entry(pos.entry as usize);
        let (cycles, access, event) = match e.kind {
            Kind::Block => {
                let (base, last, load) = self.table().block_step(e.pc, pos.off);
                let access = load.then(|| MemAccess::read(self.read_word(pos.read), 4));
                pos.read += load as usize;
                if last {
                    pos.entry += 1;
                    pos.off = 0;
                    (base + e.cycles as u64, access, StepEvent::None)
                } else {
                    pos.off += 1;
                    (base, access, StepEvent::None)
                }
            }
            kind => {
                let access = match kind {
                    Kind::Read => Some(MemAccess::read(self.read_word(pos.read), 4)),
                    Kind::Write => Some(MemAccess::write(e.arg, 4, 0)),
                    _ => None,
                };
                let event = match kind {
                    Kind::Skim => StepEvent::SkimSet(e.arg),
                    Kind::Halt => StepEvent::Halted,
                    _ => StepEvent::None,
                };
                if kind != Kind::Halt {
                    pos.entry += 1;
                    pos.read += e.loads();
                }
                (e.cycles as u64, access, event)
            }
        };
        StepInfo {
            cycles,
            access,
            event,
        }
    }

    /// The fused dispatch of the `len`-instruction block that the
    /// block table admits at `pc`, the pc at `pos` (which must be
    /// recorded): its tail's extra cycles and its load words; `pos`
    /// moves past it. `None`, with `pos` untouched, when the block runs
    /// past the recorded end. The common case is the recorded dispatch
    /// itself; a block entered mid-entry (after single steps) replays
    /// the recorded dispatch's suffix, and one that covers several
    /// entries is pieced together from them.
    #[inline(always)]
    pub fn dispatch(&self, pos: &mut TapePos, pc: u32, len: u32) -> Option<Dispatch<'_>> {
        let e = self.entry(pos.entry as usize);
        // The recorded dispatch itself (the table admits the same block
        // at the same pc), or, entered mid-entry, its suffix: same tail,
        // the remaining loads.
        let n = match (e.kind, pos.off) {
            (Kind::Block, 0) => e.arg,
            (Kind::Block, off) if off + len == self.table().block_len(e.pc) => {
                self.table().block_loads(pc)
            }
            _ => return self.dispatch_across(pos, pc, len),
        } as usize;
        let reads = self.read_words(pos.read, n);
        pos.read += n;
        pos.entry += 1;
        pos.off = 0;
        Some(Dispatch {
            tail_extra: e.cycles as u64,
            reads,
        })
    }

    #[cold]
    #[inline(never)]
    fn dispatch_across(&self, pos: &mut TapePos, pc: u32, len: u32) -> Option<Dispatch<'_>> {
        let table = self.table();
        let (mut at, mut left) = (*pos, len);
        let tail_extra = loop {
            if self.at_end(at) {
                return None;
            }
            let e = self.entry(at.entry as usize);
            let e_len = self.entry_len(e);
            let here = left.min(e_len - at.off);
            at.read += match e.kind {
                Kind::Block if at.off == 0 && here == e_len => e.arg as usize,
                Kind::Block => (at.off..at.off + here)
                    .filter(|&k| table.is_load(table.block_pc(e.pc, k)))
                    .count(),
                _ => e.loads(),
            };
            left -= here;
            if at.off + here < e_len {
                // The block ends inside this entry, at a chaining `B`:
                // its tail costs its base.
                at.off += here;
                debug_assert_eq!(left, 0);
                break 0;
            }
            at.entry += 1;
            at.off = 0;
            if left == 0 {
                let actual = match e.kind {
                    Kind::Block => table.block_costs(e.pc)[e_len as usize - 1] + e.cycles as u64,
                    _ => e.cycles as u64,
                };
                let base = table.block_costs(pc)[len as usize - 1];
                debug_assert!(actual >= base, "a tail costs at least its base");
                break actual - base;
            }
        };
        let reads = self.read_words(pos.read, at.read - pos.read);
        *pos = at;
        Some(Dispatch { tail_extra, reads })
    }

    /// Reconstructs the architectural state at `pos` (which must be
    /// retained): the nearest window snapshot at or before it, advanced
    /// by one fused run whose cycle budget covers exactly the entries
    /// between, then single steps for any zero-cost remainder. The state
    /// after retiring a given number of instructions is a pure function
    /// of the start state, so this equals walking a fresh core from the
    /// tape's start.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`]; the walk retraces a recorded run,
    /// so an error here means the tape is not this program's.
    pub fn reconstruct(&self, pos: TapePos) -> Result<Core, SimError> {
        let w = self
            .windows
            .partition_point(|w| w.entry <= pos.entry as usize)
            - 1;
        let window = &self.windows[w];
        let mut core = self.recorder.clone();
        core.cpu.clone_from(&window.cpu);
        core.mem.clone_from(&window.mem);
        core.stats.clone_from(&window.stats);
        core.memo.clone_from(&window.memo);
        let (mut budget, mut steps) = (0u64, 0u64);
        for i in window.entry..pos.entry as usize {
            let e = self.entry(i);
            steps += self.entry_len(e) as u64;
            budget += e.cycles as u64;
            if e.kind == Kind::Block {
                budget += core.block_cycles(e.pc);
            }
        }
        if pos.off > 0 {
            let e = self.entry(pos.entry as usize);
            steps += pos.off as u64;
            budget += core.block_costs(e.pc)[..pos.off as usize]
                .iter()
                .sum::<u64>();
        }
        let mut retired = core.run_steps_hooked(budget, &mut FreeRun)?.instructions;
        while retired < steps {
            core.step()?;
            retired += 1;
        }
        debug_assert_eq!(retired, steps);
        debug_assert!(self.at_end(pos) || core.cpu.pc == self.pc(pos));
        Ok(core)
    }

    /// Entries recorded so far.
    #[inline]
    fn end(&self) -> usize {
        self.first_entry + self.entries.len()
    }

    #[inline]
    fn entry(&self, i: usize) -> Entry {
        self.entries[i - self.first_entry]
    }

    /// Instructions an entry retired.
    #[inline]
    fn entry_len(&self, e: Entry) -> u32 {
        match e.kind {
            Kind::Block => self.table().block_len(e.pc),
            _ => 1,
        }
    }

    #[inline]
    fn read_word(&self, read: usize) -> u32 {
        self.reads[read - self.first_read]
    }

    #[inline]
    fn read_words(&self, read: usize, n: usize) -> &[u32] {
        let at = read - self.first_read;
        &self.reads[at..at + n]
    }

    /// A core of the program, for its block table.
    #[inline]
    fn table(&self) -> &Core {
        &self.recorder
    }
}

/// Kept so callers that pass one to the replay functions still build:
/// reconstruction starts from the tape's own window snapshots, so the
/// cache holds nothing.
#[derive(Debug, Default)]
pub struct WalkCache;

impl WalkCache {
    /// An empty cache.
    pub fn new() -> WalkCache {
        WalkCache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreConfig;
    use wn_isa::asm::assemble;

    fn demo_core() -> Core {
        // A loop with loads, stores, a skim point, and a branch — every
        // entry kind in one small program.
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

    /// A long head-tested loop of loads and register work whose tape
    /// spans several windows: its back edge chains through a `B`, and a
    /// store and a skim point lie on the way.
    fn long_core(iterations: u32) -> Core {
        let src = format!(
            ".data\nbuf: .space 64\n.text\nMOV r0, #0\nMOV r2, =buf\nSKM done\nhead:\n\
             CMP r0, #{iterations}\nBGE done\nLDR r3, [r2, #0]\nLDR r4, [r2, #4]\n\
             ADD r1, r3, r4\nADD r5, r5, r1\nAND r6, r0, #7\nCMP r6, #0\nBNE skip\n\
             STR r5, [r2, #8]\nskip:\nADD r0, r0, #1\nB head\ndone:\nHALT"
        );
        Core::new(&assemble(&src).unwrap(), CoreConfig::default()).unwrap()
    }

    /// Every position of `tape` in retirement order, stepping.
    fn positions(tape: &ExecutionTape) -> Vec<TapePos> {
        let mut out = vec![tape.start()];
        let mut pos = tape.start();
        loop {
            if tape.step(&mut pos).event == StepEvent::Halted {
                return out;
            }
            out.push(pos);
        }
    }

    #[test]
    fn record_matches_scalar_run() {
        for master in [demo_core(), long_core(3_000)] {
            let tape = ExecutionTape::record(&mut master.clone(), 10_000_000)
                .unwrap()
                .unwrap();
            let mut core = master.clone();
            let mut pos = tape.start();
            for i in 0..tape.instructions() {
                assert_eq!(tape.pc(pos), core.cpu.pc, "pc at step {i}");
                let want = core.step().unwrap();
                let got = tape.step(&mut pos);
                assert_eq!(got.cycles, want.cycles, "cost at step {i}");
                let word = |a: Option<MemAccess>| a.map(|a| (a.kind, a.addr & !3));
                assert_eq!(word(got.access), word(want.access), "access at step {i}");
                if !matches!(want.event, StepEvent::BranchTaken) {
                    assert_eq!(got.event, want.event, "event at step {i}");
                }
            }
            assert!(core.is_halted());
            assert_eq!(tape.total_cycles(), core.stats.cycles);
        }
    }

    #[test]
    fn record_caps_runaway_programs() {
        let mut core = demo_core();
        assert!(ExecutionTape::record(&mut core, 5).unwrap().is_none());
        let mut core = long_core(3_000);
        assert!(ExecutionTape::record(&mut core, 10_000).unwrap().is_none());
    }

    #[test]
    fn record_keeps_one_entry_per_dispatch() {
        let mut rec = long_core(6_000);
        let tape = ExecutionTape::record(&mut rec, 10_000_000)
            .unwrap()
            .unwrap();
        assert!(rec.is_halted());
        assert!(tape.is_complete());
        assert_eq!(tape.instructions(), rec.stats.instructions);
        // Blocks fuse most of the loop: far fewer entries than steps.
        assert!(tape.dispatches() * 3 < tape.instructions() as usize);
        assert!(tape.retained_windows() > 1, "spans several windows");
    }

    #[test]
    fn walk_reaches_every_position_exactly() {
        let master = long_core(6_000);
        let tape = ExecutionTape::record(&mut master.clone(), 10_000_000)
            .unwrap()
            .unwrap();
        let all = positions(&tape);
        let mut stepped = master.clone();
        for (i, &pos) in all.iter().enumerate() {
            if i % 997 == 0 || i + 3 >= all.len() {
                let got = tape.reconstruct(pos).unwrap();
                assert_eq!(got.cpu, stepped.cpu, "cpu at step {i}");
                assert_eq!(got.mem, stepped.mem, "memory at step {i}");
                assert_eq!(got.stats, stepped.stats, "stats at step {i}");
            }
            stepped.step().unwrap();
        }
    }

    #[test]
    fn reconstruct_matches_plain_walk_in_any_query_order() {
        // Reconstructions share nothing but the tape's snapshots, so
        // deep-first, shallow-first and interleaved queries all land on
        // the state a plain single-stepped walk reaches.
        let master = long_core(6_000);
        let tape = ExecutionTape::record(&mut master.clone(), 10_000_000)
            .unwrap()
            .unwrap();
        let all = positions(&tape);
        let n = all.len();
        let orders: [Vec<usize>; 3] = [
            vec![n - 1, n / 2, n / 3, 1, 0, n / 4],
            vec![0, 1, n / 4, n / 3, n / 2, n - 1],
            vec![n / 2, 7, n - 1, n / 5, n / 2, 0],
        ];
        for order in &orders {
            for &i in order {
                let got = tape.reconstruct(all[i]).unwrap();
                let mut want = master.clone();
                for _ in 0..i {
                    want.step().unwrap();
                }
                assert_eq!(got.cpu, want.cpu, "cpu at step {i}");
                assert_eq!(got.mem, want.mem, "memory at step {i}");
                assert_eq!(got.stats, want.stats, "stats at step {i}");
            }
        }
    }

    #[test]
    fn reconstruct_reads_the_pc_like_stepping_at_every_position() {
        // The walk behind `reconstruct` retires fused blocks; an
        // instruction reading the pc must still see its own pc there.
        let src = "MOV r0, #0\nMOV r2, #1\nloop:\nMOV r1, pc\nADD r3, r0, pc\n\
                   ADD r4, r4, r1\nADD r4, r4, r3\nADD r2, r2, #1\nCMP r2, #40\nBLT loop\nHALT";
        let master = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let tape = ExecutionTape::record(&mut master.clone(), 10_000)
            .unwrap()
            .unwrap();
        let mut stepped = master.clone();
        for pos in positions(&tape) {
            let got = tape.reconstruct(pos).unwrap();
            assert_eq!(got.cpu, stepped.cpu);
            assert_eq!(got.stats, stepped.stats);
            stepped.step().unwrap();
        }
        let r = |reg| stepped.cpu.reg(reg);
        assert_eq!((r(wn_isa::Reg::R1), r(wn_isa::Reg::R3)), (2, 3));
        assert_eq!(r(wn_isa::Reg::R4), 39 * 5);
    }

    #[test]
    fn dispatch_anywhere_matches_a_fused_core() {
        // At every position — entry starts, offsets inside entries, and
        // the single steps that close windows — dispatch the block the
        // table admits there: its tail, its reads and where it ends must
        // be what a core running that block reports.
        struct Capture(Option<(u32, u64, Vec<u32>)>);
        impl StepHook for Capture {
            const KIND: HookKind = HookKind::MemoryOps;
            fn on_step(&mut self, _c: &mut Core, _i: &StepInfo) -> ControlFlow<HookBreak, u64> {
                ControlFlow::Break(HookBreak::Stop)
            }
            fn block_budget(&self) -> u64 {
                if self.0.is_some() {
                    0
                } else {
                    u64::MAX
                }
            }
            fn on_block(&mut self, pc: u32, _c: &[u64], _y: u64, tail: u64, reads: &[u32]) {
                self.0 = Some((pc, tail, reads.iter().map(|a| a & !3).collect()));
            }
        }
        let master = long_core(6_000);
        let tape = ExecutionTape::record(&mut master.clone(), 10_000_000)
            .unwrap()
            .unwrap();
        assert!(tape.retained_windows() > 1);
        let all = positions(&tape);
        let mut core = master.clone();
        let mut checked = 0;
        for (i, &pos) in all.iter().enumerate() {
            let pc = tape.pc(pos);
            assert_eq!(pc, core.cpu.pc, "pc at step {i}");
            if let Some(len) = master.admit_block(pc, u64::MAX, &FreeRun) {
                let mut fused = core.clone();
                let mut cap = Capture(None);
                fused.run_steps_hooked(u64::MAX, &mut cap).unwrap();
                let (block, tail, reads) = cap.0.unwrap();
                assert_eq!(block, pc);
                let mut next = pos;
                let d = tape.dispatch(&mut next, pc, len).unwrap();
                assert_eq!((d.tail_extra, d.reads.to_vec()), (tail, reads), "step {i}");
                assert_eq!(next, all[i + len as usize], "step {i}");
                checked += 1;
            }
            core.step().unwrap();
        }
        assert!(checked > 10_000);
    }

    #[test]
    fn a_streamed_tape_evicts_behind_its_readers() {
        let master = long_core(20_000);
        let whole = ExecutionTape::record(&mut master.clone(), 10_000_000)
            .unwrap()
            .unwrap();
        let mut tape = ExecutionTape::stream(&master);
        let mut pos = tape.start();
        let mut skims = 0;
        while !tape.is_complete() {
            tape.extend().unwrap();
            // Read to the recorded end, then let go of everything behind.
            while !tape.at_end(pos) {
                let mut same = pos;
                let info = tape.step(&mut pos);
                assert_eq!(info, whole.step(&mut same));
                assert_eq!(pos, same);
                skims += matches!(info.event, StepEvent::SkimSet(_)) as usize;
                if info.event == StepEvent::Halted {
                    break;
                }
            }
            tape.evict(pos);
            assert!(tape.retained_windows() <= 2);
        }
        assert_eq!(skims, 1);
        assert_eq!(tape.instructions(), whole.instructions());
        assert_eq!(tape.total_cycles(), whole.total_cycles());
        assert!(tape.peak_retained_entries() <= 2 * (WINDOW_ENTRIES + 1));
        assert!(whole.peak_retained_entries() > 2 * WINDOW_ENTRIES);
        assert_eq!(
            tape.reconstruct(pos).unwrap().cpu,
            whole.reconstruct(pos).unwrap().cpu
        );
        assert!(tape.recorder().is_halted());
    }
}
