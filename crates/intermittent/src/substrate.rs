//! The substrate abstraction: how a processor survives power outages.
//!
//! Two persistence paradigms share this trait. *Checkpoint* substrates
//! (Clank, NVP) snapshot processor state — eagerly on hazards or lazily
//! at the outage itself — and roll forward from the snapshot. *Task*
//! substrates (Alpaca-style) never checkpoint: the compiler decomposes
//! the program into idempotent tasks whose WAR-violating writes are
//! privatized into a shadow region, each task commits atomically at its
//! boundary, and an outage simply re-executes the interrupted task from
//! its entry. The trait therefore presumes neither: `after_step` may
//! charge a checkpoint *or* a commit, and [`SubstrateStats`] carries
//! counters for both families (each substrate leaves the other's at
//! zero).
//!
//! Substrates see execution only through [`Execution`], so each cost
//! model is written once and runs over a live core and a tape cursor
//! alike.

use wn_sim::{SimError, StepInfo};
use wn_telemetry::{CheckpointCause, Event, EventKind, EventSink};

use crate::execution::{Execution, Saved};

/// Counters shared by every substrate implementation. Checkpoint
/// substrates populate the `checkpoint*` family; task substrates
/// populate `commits` / `privatized_words` / `reexecuted_cycles`.
/// Report schemas serialize both families, so grids comparing
/// substrates only gain columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Checkpoints taken (violation-, capacity- or watchdog-triggered).
    pub checkpoints: u64,
    /// Checkpoints caused by idempotency (WAR) violations.
    pub violation_checkpoints: u64,
    /// Checkpoints caused by a full write-back buffer.
    pub capacity_checkpoints: u64,
    /// Checkpoints caused by the watchdog timer.
    pub watchdog_checkpoints: u64,
    /// Cycles spent on substrate bookkeeping: checkpoints, restores,
    /// and task commits.
    pub overhead_cycles: u64,
    /// Cycles of work discarded by outages (to be re-executed).
    pub lost_cycles: u64,
    /// Words actually written by differential checkpoints (CPU dirty
    /// words plus buffered memory words).
    pub checkpoint_words_saved: u64,
    /// Words the same checkpoints would have written as full snapshots —
    /// `4 * (full - saved)` is the checkpoint bytes saved by diffing.
    pub checkpoint_words_full: u64,
    /// Task boundaries committed (task substrates only).
    pub commits: u64,
    /// Shadow-region words copied back to their master arrays by those
    /// commits (task substrates only).
    pub privatized_words: u64,
    /// Cycles re-executed because an outage discarded an uncommitted
    /// task (task substrates only; a subset of `lost_cycles`).
    pub reexecuted_cycles: u64,
}

/// A checkpointing/persistence policy for an intermittently powered core.
///
/// The [`crate::executor::IntermittentExecutor`] drives the substrate:
/// after every instruction it calls [`Substrate::after_step`] (which may
/// take a checkpoint and charge overhead cycles); at a power outage it
/// calls [`Substrate::on_outage`] (which must put `exec` into its
/// post-outage state — e.g. discard volatile state, roll back
/// uncommitted memory); when power returns it calls
/// [`Substrate::on_restore`] (which rebuilds processor state and returns
/// the restore cost in cycles).
pub trait Substrate {
    /// Called after each retired instruction with what it did. Returns
    /// extra cycles charged to the supply (e.g. a checkpoint).
    fn after_step<E: Execution>(&mut self, exec: &mut E, info: &StepInfo) -> u64;

    /// Upper bound on the cycles [`Substrate::after_step`] can return
    /// from a *single* call. The epoch scheduler reserves this much slack
    /// per instruction when sizing an energy lease, so the bound must
    /// hold for every possible step; a too-small bound could let a
    /// brown-out land inside a lease (the executor debug-asserts it).
    /// Over-estimating merely shortens leases slightly.
    fn lease_cap(&self) -> u64;

    /// Cycles of fused execution the substrate can currently absorb
    /// without per-instruction observation — the distance to its next
    /// forced intervention (e.g. a watchdog horizon). The block engine
    /// consults this before every fused dispatch; blocks that don't fit
    /// single-step through [`Substrate::after_step`] instead. The
    /// default of 0 disables fusion for substrates that haven't audited
    /// their invariants against wholesale retirement; Clank, NVP and
    /// Task all override it.
    fn fused_headroom(&self) -> u64 {
        0
    }

    /// The inclusive pc range fused blocks must stay inside
    /// ([`wn_sim::StepHook::block_fence`]): a block is dispatched only
    /// when every pc it retires or can leave to lies in the range, so a
    /// substrate that acts on post-step pcs (Task's region boundaries)
    /// sees none of them from a fused block. The default, the whole
    /// address space, is a constant the admission check folds away.
    fn fused_fence(&self) -> (u32, u32) {
        (0, u32::MAX)
    }

    /// A fused block (no stores, no `SKM`, control flow only as its
    /// branch tail) retired for `cycles` cycles, the tail's extra
    /// included; it charges nothing extra. `reads` is the block's
    /// memory-op summary: the byte address of every load it retired, in
    /// order — substrates that track read sets (Clank's WAR detection)
    /// consume it here instead of observing loads one
    /// [`Substrate::after_step`] at a time.
    fn after_fused(&mut self, cycles: u64, reads: &[u32]) {
        let _ = (cycles, reads);
    }

    /// Consumes the substrate's pending boundary flag: returns `true`
    /// exactly once after an [`Substrate::after_step`] that crossed a
    /// task boundary. The executor breaks its bulk loop there so the
    /// commit settles against the supply before the next lease is
    /// granted, mirroring how checkpoint costs settle. Checkpoint
    /// substrates never raise it.
    fn take_boundary(&mut self) -> bool {
        false
    }

    /// Power was lost *after* the last completed instruction.
    fn on_outage<E: Execution>(&mut self, exec: &mut E);

    /// The state a restore resumes from while it stays fixed — Clank's
    /// checkpoint, a task's entry context — or `None` where a restore
    /// resumes from wherever execution stands when power fails (NVP
    /// persists the state at the outage itself). A streamed tape keeps
    /// what lies behind its readers only back to here.
    fn restore_point(&self) -> Option<&Saved> {
        None
    }

    /// Power is back; rebuild processor state. Returns the restore cost
    /// in cycles.
    ///
    /// # Errors
    ///
    /// A [`SimError`] from [`Execution::restore`].
    fn on_restore<E: Execution>(&mut self, exec: &mut E) -> Result<u64, SimError>;

    /// Shared counters.
    fn stats(&self) -> SubstrateStats;

    /// Short human-readable name ("clank", "nvp").
    fn name(&self) -> &'static str;

    /// Telemetry cause attributed to checkpoints that carry no hazard
    /// tag in [`SubstrateStats`]. Clank overrides this: its untagged
    /// checkpoints are the ones armed by skim points. The default
    /// covers substrates whose snapshots sit outside the Clank hazard
    /// taxonomy (e.g. NVP's per-outage backup).
    fn untagged_checkpoint_cause(&self) -> CheckpointCause {
        CheckpointCause::Other
    }

    /// Emit one [`EventKind::Checkpoint`] per checkpoint taken since
    /// `before` (a [`Substrate::stats`] snapshot), attributing causes
    /// from the tagged counters and
    /// [`Substrate::untagged_checkpoint_cause`] for the rest.
    ///
    /// The executor calls this only when its sink is enabled, so the
    /// diffing cost never touches the untraced hot path.
    fn record_checkpoint_events(
        &self,
        before: &SubstrateStats,
        t_s: f64,
        sink: &mut dyn EventSink,
    ) {
        let after = self.stats();
        // Words written are tracked per-window, not per-checkpoint; the
        // first event emitted in the window carries the whole delta so
        // report totals stay exact.
        let mut words = after.checkpoint_words_saved - before.checkpoint_words_saved;
        let mut emit = |cause: CheckpointCause, n: u64| {
            for _ in 0..n {
                sink.record(Event {
                    t_s,
                    kind: EventKind::Checkpoint { cause, words },
                });
                words = 0;
            }
        };
        emit(
            CheckpointCause::Violation,
            after.violation_checkpoints - before.violation_checkpoints,
        );
        emit(
            CheckpointCause::Capacity,
            after.capacity_checkpoints - before.capacity_checkpoints,
        );
        emit(
            CheckpointCause::Watchdog,
            after.watchdog_checkpoints - before.watchdog_checkpoints,
        );
        let tagged = (after.violation_checkpoints - before.violation_checkpoints)
            + (after.capacity_checkpoints - before.capacity_checkpoints)
            + (after.watchdog_checkpoints - before.watchdog_checkpoints);
        let total = after.checkpoints - before.checkpoints;
        emit(self.untagged_checkpoint_cause(), total - tagged);
    }
}
