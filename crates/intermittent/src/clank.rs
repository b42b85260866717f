//! Clank-style checkpoint-based volatile processor (Hicks, ISCA 2017;
//! paper §IV).
//!
//! Clank makes execution idempotent by buffering stores in a small
//! write-back buffer and tracking read/write sets. A store to an address
//! that was read since the last checkpoint is a **WAR (idempotency)
//! violation** and forces a checkpoint; a full buffer forces one too, and
//! a **watchdog** checkpoints periodically so an outage never loses
//! unbounded work. After an outage, the processor restores the last
//! checkpoint and *re-executes* everything since — the overhead skim
//! points largely avoid (§V-B).
//!
//! Modeling note: instead of shadowing memory with a literal write-back
//! buffer, we keep an **undo log** of pre-write values (captured by the
//! simulator in [`wn_sim::MemAccess::prev`]) and roll memory back at an
//! outage. This is semantically equivalent — memory always reverts to the
//! last checkpoint — while the buffer *capacity* is still enforced on the
//! set of distinct buffered words.

use wn_sim::cpu::CpuSnapshot;
use wn_sim::{AccessKind, MemAccess, SimError, StepEvent, StepInfo};

use crate::execution::{Execution, Saved};
use crate::substrate::{Substrate, SubstrateStats};

/// Clank configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClankConfig {
    /// Write-back buffer capacity in (word-granular) entries.
    pub wb_entries: usize,
    /// Watchdog period in cycles; a checkpoint is taken when this much
    /// time passes without one.
    pub watchdog_cycles: u64,
    /// Cycles to take a checkpoint (save registers + flush buffer to
    /// non-volatile memory).
    pub checkpoint_cycles: u64,
    /// Cycles to restore a checkpoint after an outage.
    pub restore_cycles: u64,
}

impl Default for ClankConfig {
    fn default() -> ClankConfig {
        ClankConfig {
            wb_entries: 16,
            // Well under one power cycle's worth of execution (≈50k
            // cycles on the paper supply, ≈5k on the quick supply), so an
            // outage never discards more than a watchdog period.
            watchdog_cycles: 4_000,
            // 16 registers + PC + flags at 2 cycles per NV word, plus
            // buffer flush amortized.
            checkpoint_cycles: 40,
            restore_cycles: 40,
        }
    }
}

/// Membership of word addresses since the last checkpoint, tracked with
/// an epoch-stamped direct-mapped array: `clear()` is O(1) (bump the
/// epoch) and probes are one index — this sits on the per-instruction
/// hot path of every intermittent run. Stamps are one byte, so a set
/// costs one byte per word of the touched address range (a cohort keeps
/// many devices' sets live at once): epochs run 1..=255, 0 marks a word
/// never stamped, and the clear that wraps the epoch wipes the stamps.
///
/// `len` counts the words added by [`WordSet::insert`]; a set whose size
/// nobody reads adds with [`WordSet::mark`], a plain stamp with no
/// membership test.
#[derive(Debug, Clone)]
struct WordSet {
    epochs: Vec<u8>,
    epoch: u8,
    len: usize,
}

impl Default for WordSet {
    fn default() -> WordSet {
        WordSet {
            epochs: Vec::new(),
            epoch: 1,
            len: 0,
        }
    }
}

impl WordSet {
    #[inline]
    fn contains(&self, word: u32) -> bool {
        let i = (word >> 2) as usize;
        self.epochs.get(i).copied() == Some(self.epoch)
    }

    /// Inserts and counts the word if it is new.
    #[inline]
    fn insert(&mut self, word: u32) {
        let i = self.slot(word);
        if self.epochs[i] != self.epoch {
            self.epochs[i] = self.epoch;
            self.len += 1;
        }
    }

    /// Adds the word without counting it.
    #[inline]
    fn mark(&mut self, word: u32) {
        let i = self.slot(word);
        self.epochs[i] = self.epoch;
    }

    /// The stamp index of `word`, grown into the array.
    #[inline]
    fn slot(&mut self, word: u32) -> usize {
        let i = (word >> 2) as usize;
        if i >= self.epochs.len() {
            self.grow(i);
        }
        i
    }

    #[cold]
    fn grow(&mut self, i: usize) {
        self.epochs.resize(i + 1, 0);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.len = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old stamps would match again; wipe them
            // (the capacity stays for the regrowth).
            self.epochs.clear();
            self.epoch = 1;
        }
    }
}

/// The Clank substrate.
#[derive(Debug, Clone)]
pub struct Clank {
    config: ClankConfig,
    checkpoint: Saved,
    /// Pre-write values since the last checkpoint, in program order.
    undo_log: Vec<MemAccess>,
    /// Distinct buffered word addresses (capacity accounting).
    buffered_words: WordSet,
    /// Word addresses read since the last checkpoint (WAR detection).
    read_words: WordSet,
    cycles_since_checkpoint: u64,
    stats: SubstrateStats,
}

impl Default for Clank {
    fn default() -> Clank {
        Clank::new(ClankConfig::default())
    }
}

impl Clank {
    /// Creates a Clank substrate.
    ///
    /// # Panics
    ///
    /// Panics if the write-back buffer capacity is zero.
    pub fn new(config: ClankConfig) -> Clank {
        assert!(
            config.wb_entries > 0,
            "write-back buffer needs at least one entry"
        );
        Clank {
            config,
            checkpoint: Saved::default(),
            undo_log: Vec::new(),
            buffered_words: WordSet::default(),
            read_words: WordSet::default(),
            cycles_since_checkpoint: 0,
            stats: SubstrateStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> ClankConfig {
        self.config
    }

    /// Kept out of line: checkpoints are rare (hundreds per run against
    /// hundreds of thousands of retirements), and inlining the snapshot
    /// copy into [`Substrate::after_step`] bloats the bulk-loop hot path.
    #[inline(never)]
    fn take_checkpoint<E: Execution>(&mut self, exec: &E) -> u64 {
        // Differential capture: only CPU words dirty since the previous
        // checkpoint hit storage; the buffered stores flush either way.
        // A tape keeps no register values, so its words go uncounted.
        if let Some(cpu_words) = exec.save(&mut self.checkpoint) {
            let mem_words = self.buffered_words.len() as u64;
            self.stats.checkpoint_words_saved += cpu_words + mem_words;
            self.stats.checkpoint_words_full += CpuSnapshot::WORDS as u64 + mem_words;
        }
        self.undo_log.clear();
        self.buffered_words.clear();
        self.read_words.clear();
        self.cycles_since_checkpoint = 0;
        self.stats.checkpoints += 1;
        self.stats.overhead_cycles += self.config.checkpoint_cycles;
        self.config.checkpoint_cycles
    }

    fn rollback_memory<E: Execution>(&mut self, exec: &mut E) {
        exec.undo(&mut self.undo_log);
        self.buffered_words.clear();
        self.read_words.clear();
    }

    /// The non-trivial tail of [`Substrate::after_step`], reached only
    /// for memory accesses, skim points, and watchdog expiry. Kept out of
    /// line so the common case (a register-only instruction between
    /// checkpoints) inlines into the bulk loop as a few compares.
    #[inline(never)]
    fn after_step_slow<E: Execution>(&mut self, exec: &E, info: &StepInfo) -> u64 {
        let mut overhead = 0;

        // A skim point declares the current output acceptable (§III-C:
        // the system "performs a regular backup" so the outage-time
        // restore state includes it). Without this, a rollback could
        // commit a state *older* than the skim point's result.
        if matches!(info.event, StepEvent::SkimSet(_)) {
            overhead += self.take_checkpoint(exec);
        }

        if let Some(access) = info.access {
            let word = access.addr & !3;
            match access.kind {
                AccessKind::Read => self.read_words.mark(word),
                AccessKind::Write => {
                    let war = self.read_words.contains(word) && !self.buffered_words.contains(word);
                    self.undo_log.push(access);
                    self.buffered_words.insert(word);
                    if war {
                        // Idempotency violation: Clank checkpoints at the
                        // violating store, committing it.
                        self.stats.violation_checkpoints += 1;
                        overhead += self.take_checkpoint(exec);
                    } else if self.buffered_words.len() > self.config.wb_entries {
                        self.stats.capacity_checkpoints += 1;
                        overhead += self.take_checkpoint(exec);
                    }
                }
            }
        }
        if self.cycles_since_checkpoint >= self.config.watchdog_cycles {
            self.stats.watchdog_checkpoints += 1;
            overhead += self.take_checkpoint(exec);
        }
        overhead
    }
}

impl Substrate for Clank {
    #[inline]
    fn after_step<E: Execution>(&mut self, exec: &mut E, info: &StepInfo) -> u64 {
        self.cycles_since_checkpoint += info.cycles;
        if self.cycles_since_checkpoint < self.config.watchdog_cycles
            && !matches!(info.event, StepEvent::SkimSet(_))
        {
            match info.access {
                None => return 0,
                // Loads only mark the read set; no checkpoint can fire.
                // (A load's event is never `SkimSet`, so the order against
                // the slow path's skim checkpoint is preserved.)
                Some(access) if access.kind == AccessKind::Read => {
                    self.read_words.mark(access.addr & !3);
                    return 0;
                }
                Some(_) => {}
            }
        }
        self.after_step_slow(exec, info)
    }

    fn lease_cap(&self) -> u64 {
        // At most two checkpoints can fire on one step (skim + store
        // trigger, or a trigger + watchdog); budget three for a safety
        // margin — the slack only trims a lease by ~0.2%.
        3 * self.config.checkpoint_cycles
    }

    fn fused_headroom(&self) -> u64 {
        // A fused block is store-free, so the only checkpoint it could
        // provoke is the watchdog (loads never checkpoint — they only
        // mark the read set). Admitting at most `watchdog - csc - 1`
        // cycles guarantees no prefix of the block reaches the horizon,
        // so the per-instruction engine would not have checkpointed
        // mid-block either.
        self.config
            .watchdog_cycles
            .saturating_sub(self.cycles_since_checkpoint)
            .saturating_sub(1)
    }

    #[inline]
    fn after_fused(&mut self, cycles: u64, reads: &[u32]) {
        self.cycles_since_checkpoint += cycles;
        // The block's loads, wholesale. Marking commutes and no
        // checkpoint can fire between a block's loads (admission keeps
        // the watchdog out of reach), so marking them here leaves the
        // read set exactly as per-instruction stepping would.
        for &addr in reads {
            self.read_words.mark(addr & !3);
        }
    }

    fn on_outage<E: Execution>(&mut self, exec: &mut E) {
        // Uncommitted work is lost: roll memory back to the checkpoint and
        // drop volatile processor state.
        self.stats.lost_cycles += self.cycles_since_checkpoint;
        self.cycles_since_checkpoint = 0;
        self.rollback_memory(exec);
        exec.power_loss();
    }

    fn on_restore<E: Execution>(&mut self, exec: &mut E) -> Result<u64, SimError> {
        // Before the first checkpoint this is a cold boot from the
        // entry point.
        exec.restore(&mut self.checkpoint)?;
        self.stats.overhead_cycles += self.config.restore_cycles;
        Ok(self.config.restore_cycles)
    }

    fn restore_point(&self) -> Option<&Saved> {
        Some(&self.checkpoint)
    }

    fn stats(&self) -> SubstrateStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "clank"
    }

    // Clank's only untagged checkpoints are the ones armed when the
    // program sets a skim point (`StepEvent::SkimSet`).
    fn untagged_checkpoint_cause(&self) -> wn_telemetry::CheckpointCause {
        wn_telemetry::CheckpointCause::Skim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_isa::asm::assemble;
    use wn_sim::{Core, CoreConfig, StepEvent};

    fn core(src: &str) -> Core {
        Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap()
    }

    fn step(core: &mut Core, clank: &mut Clank) -> u64 {
        let info = core.step().unwrap();
        info.cycles + clank.after_step(core, &info)
    }

    #[test]
    fn word_sets_forget_every_word_at_each_clear_across_stamp_wraps() {
        let mut set = WordSet::default();
        for round in 0u32..1_000 {
            let (a, b) = (4 * (round % 7), 4 * (100 + round % 13));
            // Grows the array without stamping the words in between.
            set.mark(4 * (200 + round));
            for w in (0..200 + round).map(|w| 4 * w) {
                assert!(!set.contains(w), "round {round}: word {w} never marked");
            }
            set.clear();
            set.mark(a);
            set.insert(b);
            set.insert(b);
            assert!(set.contains(a) && set.contains(b), "round {round}");
            assert_eq!(set.len(), 1, "round {round}");
            set.clear();
        }
    }

    #[test]
    fn war_violation_forces_checkpoint() {
        // LDR then STR to the same address → WAR → checkpoint.
        let mut c = core(
            ".data\nbuf: .space 8\n.text\nMOV r0, =buf\nLDR r1, [r0, #0]\nADD r1, r1, #1\nSTR r1, [r0, #0]\nHALT",
        );
        let mut clank = Clank::default();
        for _ in 0..4 {
            step(&mut c, &mut clank);
        }
        assert_eq!(clank.stats().violation_checkpoints, 1);
        assert_eq!(clank.stats().checkpoints, 1);
    }

    #[test]
    fn write_after_checkpoint_is_not_a_violation() {
        // A store to a never-read address does not checkpoint.
        let mut c =
            core(".data\nbuf: .space 8\n.text\nMOV r0, =buf\nMOV r1, #5\nSTR r1, [r0, #0]\nHALT");
        let mut clank = Clank::default();
        for _ in 0..4 {
            step(&mut c, &mut clank);
        }
        assert_eq!(clank.stats().violation_checkpoints, 0);
    }

    #[test]
    fn buffer_capacity_forces_checkpoint() {
        // 3-entry buffer; 4 distinct store words force a capacity
        // checkpoint.
        let mut src = String::from(".data\nbuf: .space 64\n.text\nMOV r0, =buf\nMOV r1, #1\n");
        for i in 0..4 {
            src.push_str(&format!("STR r1, [r0, #{}]\n", i * 4));
        }
        src.push_str("HALT");
        let mut c = core(&src);
        let cfg = ClankConfig {
            wb_entries: 3,
            ..ClankConfig::default()
        };
        let mut clank = Clank::new(cfg);
        while !c.is_halted() {
            step(&mut c, &mut clank);
        }
        assert_eq!(clank.stats().capacity_checkpoints, 1);
    }

    #[test]
    fn watchdog_checkpoints_periodically() {
        let mut c = core("top:\nADD r0, r0, #1\nCMP r0, #100000\nBLT top\nHALT");
        let cfg = ClankConfig {
            watchdog_cycles: 100,
            ..ClankConfig::default()
        };
        let mut clank = Clank::new(cfg);
        let mut cycles = 0;
        while cycles < 2_000 {
            cycles += step(&mut c, &mut clank);
        }
        // ~2000 cycles at a 100-cycle watchdog (checkpoint costs inflate
        // the denominator): at least a dozen checkpoints.
        assert!(
            clank.stats().watchdog_checkpoints >= 12,
            "{:?}",
            clank.stats()
        );
    }

    #[test]
    fn outage_rolls_back_to_checkpoint() {
        // Write 1, checkpoint (via watchdog at 0 distance), write 2
        // without checkpoint, outage → memory shows 1 and PC returns to
        // the checkpoint.
        let mut c = core(
            ".data\nbuf: .space 8\n.text\nMOV r0, =buf\nMOV r1, #1\nSTR r1, [r0, #0]\nMOV r2, #2\nSTR r2, [r0, #4]\nHALT",
        );
        let mut clank = Clank::default();
        // Execute first three instructions, then force a checkpoint.
        for _ in 0..3 {
            step(&mut c, &mut clank);
        }
        clank.take_checkpoint(&c);
        let pc_at_checkpoint = c.cpu.pc;
        // Execute the second store.
        for _ in 0..2 {
            step(&mut c, &mut clank);
        }
        assert_eq!(c.mem.load_u32(4).unwrap(), 2);
        clank.on_outage(&mut c);
        assert_eq!(c.mem.load_u32(0).unwrap(), 1, "committed store survives");
        assert_eq!(
            c.mem.load_u32(4).unwrap(),
            0,
            "uncommitted store rolled back"
        );
        clank.on_restore(&mut c).unwrap();
        assert_eq!(c.cpu.pc, pc_at_checkpoint, "restored to checkpoint PC");
        assert_eq!(c.cpu.reg(wn_isa::Reg::R1), 1, "registers restored");
    }

    #[test]
    fn cold_boot_without_checkpoint_restarts() {
        let mut c = core("MOV r0, #1\nMOV r0, #2\nHALT");
        let mut clank = Clank::default();
        step(&mut c, &mut clank);
        clank.on_outage(&mut c);
        clank.on_restore(&mut c).unwrap();
        assert_eq!(c.cpu.pc, 0, "no checkpoint: restart at entry");
    }

    #[test]
    fn reexecution_converges_despite_outages() {
        // Inject outages every few instructions; the program must still
        // finish with the correct result thanks to rollback+reexecution.
        let src = ".data\nbuf: .space 8\n.text\nMOV r0, =buf\nMOV r1, #0\nMOV r2, #0\nloop:\nADD r1, r1, r2\nADD r2, r2, #1\nCMP r2, #11\nBLT loop\nSTR r1, [r0, #0]\nHALT";
        let mut c = core(src);
        // Watchdog must fire within an on-period for progress: outages
        // arrive every 9 instructions (>= 9 cycles), watchdog every 6.
        let mut clank = Clank::new(ClankConfig {
            watchdog_cycles: 6,
            ..ClankConfig::default()
        });
        let mut steps = 0u64;
        loop {
            let info = c.step().unwrap();
            clank.after_step(&mut c, &info);
            if matches!(info.event, StepEvent::Halted) {
                break;
            }
            steps += 1;
            if steps.is_multiple_of(9) {
                clank.on_outage(&mut c);
                clank.on_restore(&mut c).unwrap();
            }
            assert!(steps < 10_000, "must converge");
        }
        assert_eq!(c.mem.load_u32(0).unwrap(), 55, "sum 0..=10");
        assert!(clank.stats().lost_cycles > 0, "outages discarded some work");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        Clank::new(ClankConfig {
            wb_entries: 0,
            ..ClankConfig::default()
        });
    }

    #[test]
    fn differential_checkpoints_track_words_saved() {
        let mut c = core("MOV r0, #1\nMOV r1, #2\nHALT");
        let mut clank = Clank::default();
        // First checkpoint: full snapshot, empty buffer.
        clank.take_checkpoint(&c);
        let s1 = clank.stats();
        assert_eq!(s1.checkpoint_words_saved, CpuSnapshot::WORDS as u64);
        assert_eq!(s1.checkpoint_words_full, CpuSnapshot::WORDS as u64);
        // One MOV retires (r0 and pc change), second checkpoint logs
        // exactly those two dirty words against a full-snapshot cost.
        step(&mut c, &mut clank);
        clank.take_checkpoint(&c);
        let s2 = clank.stats();
        assert_eq!(s2.checkpoint_words_saved - s1.checkpoint_words_saved, 2);
        assert_eq!(
            s2.checkpoint_words_full - s1.checkpoint_words_full,
            CpuSnapshot::WORDS as u64
        );
    }

    #[test]
    fn fused_headroom_stops_short_of_the_watchdog() {
        let mut c = core("MOV r0, #1\nHALT");
        let mut clank = Clank::new(ClankConfig {
            watchdog_cycles: 100,
            ..ClankConfig::default()
        });
        assert_eq!(clank.fused_headroom(), 99);
        // A fused block consuming 40 cycles moves the horizon closer.
        clank.after_fused(40, &[]);
        assert_eq!(clank.fused_headroom(), 59);
        // At the horizon, headroom saturates at zero (no fusion) and the
        // next single-stepped instruction checkpoints as usual.
        clank.after_fused(59, &[]);
        assert_eq!(clank.fused_headroom(), 0);
        let info = c.step().unwrap();
        clank.after_step(&mut c, &info);
        assert_eq!(clank.stats().watchdog_checkpoints, 1);
    }
}
