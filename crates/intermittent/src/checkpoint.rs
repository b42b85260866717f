//! Differential CPU checkpoints: the words each checkpoint writes.
//!
//! Full-snapshot checkpointing copies every register, the PC, and the
//! flags on every checkpoint, even though consecutive checkpoints in a
//! loop typically differ in a handful of words. DiCA-style differential
//! checkpointing (see PAPERS.md) stores a *base* snapshot once and then
//! logs only the words that changed since the previous checkpoint;
//! restore replays the log over the base. The log is rebased back onto a
//! fresh full snapshot when it grows past a threshold, bounding both
//! replay time and memory.
//!
//! Replaying the log only rebuilds the newest snapshot, so the model
//! keeps that snapshot and the log's length, not its entries. The
//! words-written count returned by [`DiffCheckpoint::capture`] feeds the
//! substrate stats (`checkpoint_words_saved` vs `checkpoint_words_full`,
//! from which benches derive checkpoint bytes saved).

use wn_sim::CpuSnapshot;

/// Word-granular differential checkpoint storage for one CPU.
#[derive(Debug, Clone)]
pub struct DiffCheckpoint {
    /// The newest checkpoint: the base snapshot with the log applied.
    current: Option<CpuSnapshot>,
    /// Dirty words logged since the last full snapshot.
    logged: usize,
    /// Log length that triggers a rebase onto a fresh full snapshot.
    rebase_limit: usize,
}

impl Default for DiffCheckpoint {
    fn default() -> DiffCheckpoint {
        DiffCheckpoint::new()
    }
}

impl DiffCheckpoint {
    /// Creates empty storage with the default rebase threshold (four
    /// full snapshots' worth of log entries).
    pub fn new() -> DiffCheckpoint {
        DiffCheckpoint {
            current: None,
            logged: 0,
            rebase_limit: 4 * CpuSnapshot::WORDS,
        }
    }

    /// Whether any checkpoint has been captured.
    pub fn is_some(&self) -> bool {
        self.current.is_some()
    }

    /// Discards all checkpoint state (cold boot).
    pub fn clear(&mut self) {
        self.current = None;
        self.logged = 0;
    }

    /// Captures `snap` as the newest checkpoint and returns the number
    /// of words written to storage: the full [`CpuSnapshot::WORDS`] for
    /// the first capture or a rebase, otherwise just the words that
    /// differ from the previous checkpoint.
    pub fn capture(&mut self, snap: CpuSnapshot) -> u64 {
        let Some(prev) = self.current.replace(snap) else {
            return CpuSnapshot::WORDS as u64;
        };
        let changed = (0..CpuSnapshot::WORDS)
            .filter(|&i| snap.word(i) != prev.word(i))
            .count();
        if self.logged + changed > self.rebase_limit {
            // Log replay would cost more than a fresh snapshot saves:
            // rebase and pay the full write once.
            self.logged = 0;
            return CpuSnapshot::WORDS as u64;
        }
        self.logged += changed;
        changed as u64
    }

    /// The newest checkpoint, or `None` if nothing was captured.
    pub fn restore(&self) -> Option<CpuSnapshot> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_isa::Reg;
    use wn_sim::Cpu;

    fn snap_with(r0: u32, pc: u32) -> CpuSnapshot {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::R0, r0);
        cpu.pc = pc;
        cpu.snapshot()
    }

    #[test]
    fn first_capture_is_full_and_restores() {
        let mut d = DiffCheckpoint::new();
        assert!(!d.is_some());
        let s = snap_with(7, 3);
        assert_eq!(d.capture(s), CpuSnapshot::WORDS as u64);
        assert!(d.is_some());
        assert_eq!(d.restore(), Some(s));
    }

    #[test]
    fn subsequent_captures_log_only_dirty_words() {
        let mut d = DiffCheckpoint::new();
        d.capture(snap_with(7, 3));
        // r0 unchanged, pc changed: exactly one dirty word.
        let s2 = snap_with(7, 9);
        assert_eq!(d.capture(s2), 1);
        assert_eq!(d.restore(), Some(s2));
        // Identical snapshot: zero words written.
        assert_eq!(d.capture(s2), 0);
        assert_eq!(d.restore(), Some(s2));
    }

    #[test]
    fn log_growth_triggers_rebase() {
        let mut d = DiffCheckpoint::new();
        d.rebase_limit = 4;
        d.capture(snap_with(0, 0));
        assert_eq!(d.capture(snap_with(1, 1)), 2);
        assert_eq!(d.capture(snap_with(2, 2)), 2);
        // Log is at 4; two more dirty words exceed the limit → rebase
        // pays the full snapshot and empties the log.
        let s = snap_with(3, 3);
        assert_eq!(d.capture(s), CpuSnapshot::WORDS as u64);
        assert_eq!(d.logged, 0);
        assert_eq!(d.restore(), Some(s));
        // The next capture logs against the rebased snapshot.
        assert_eq!(d.capture(snap_with(4, 4)), 2);
        assert_eq!(d.logged, 2);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut d = DiffCheckpoint::new();
        d.capture(snap_with(1, 1));
        d.clear();
        assert!(!d.is_some());
        assert_eq!(d.restore(), None);
    }
}
