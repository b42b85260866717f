//! Execution sources: what the power loop and the substrates need from
//! whatever retires the instructions.
//!
//! [`IntermittentExecutor`](crate::executor::IntermittentExecutor) has
//! one power loop, and each substrate one cost model, over either of two
//! sources:
//!
//! * a live [`Core`], which interprets the program and owns its memory;
//! * a cursor over a cohort's recorded [`wn_sim::ExecutionTape`]
//!   ([`crate::lockstep`]), which replays the fault-free trajectory as
//!   bookkeeping and builds a core only when the device leaves it.
//!
//! A checkpoint is accordingly a CPU snapshot on a core and a tape
//! position on the cursor; [`Saved`] holds either.

use wn_sim::{BulkRun, Core, MemAccess, SimError, StepInfo, TapePos};
use wn_telemetry::EventSink;

use crate::checkpoint::DiffCheckpoint;
use crate::executor::Lease;
use crate::substrate::Substrate;

/// What a substrate persists across outages (a checkpoint, NV flip-flop
/// state, a task's entry context), in its execution source's terms.
/// The default is a cold boot from the program's entry.
#[derive(Debug, Clone, Default)]
pub struct Saved {
    /// The differential CPU snapshot a core captures.
    pub(crate) cpu: DiffCheckpoint,
    /// The tape position a cursor captures.
    pub(crate) pos: TapePos,
}

/// What the power loop and the substrates need from execution.
pub trait Execution {
    /// Retires one instruction.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] the instruction raises.
    fn step(&mut self) -> Result<StepInfo, SimError>;

    /// Retires instructions until `budget` cycles are spent or the run
    /// halts, observed by the executor's lease hook under
    /// [`Core::run_steps_hooked`]'s contract, fused blocks included.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] a retired instruction raises.
    fn run_lease<S: Substrate, K: EventSink>(
        &mut self,
        budget: u64,
        lease: &mut Lease<'_, S, K>,
    ) -> Result<BulkRun, SimError>;

    /// Whether the program has executed `HALT`.
    fn is_halted(&self) -> bool;

    /// Whether the next instruction is not known yet: a cursor at a
    /// streamed tape's recorded end. The power loop suspends there
    /// ([`crate::IntermittentExecutor`]'s resumable entry). A live core
    /// never pends.
    fn pending(&self) -> bool {
        false
    }

    /// The pc of the next instruction.
    fn pc(&self) -> u32;

    /// Takes the skim jump (§III-C) if the non-volatile SKM register is
    /// armed: the pc moves to the target and the register clears.
    /// Returns the target.
    fn take_skim(&mut self) -> Option<u32>;

    /// Captures the current state into `saved`. Returns the CPU words
    /// written, or `None` where the source keeps no register values (a
    /// tape), which leaves word counters unmaintained.
    fn save(&self, saved: &mut Saved) -> Option<u64>;

    /// Resumes from `saved`. A cursor whose SKM register is armed leaves
    /// the trajectory here (the skim jump follows), rewriting `saved` as
    /// its new core's snapshot.
    ///
    /// # Errors
    ///
    /// A [`SimError`] from rebuilding that core.
    fn restore(&mut self, saved: &mut Saved) -> Result<(), SimError>;

    /// Discards volatile processor state; the SKM register survives.
    fn power_loss(&mut self);

    /// Rolls memory back through `log` (pre-write values in program
    /// order), leaving it empty.
    fn undo(&mut self, log: &mut Vec<MemAccess>);

    /// Worst-case cycles of one instruction.
    fn max_instr_cycles(&self) -> u64;
}

impl Execution for Core {
    #[inline]
    fn step(&mut self) -> Result<StepInfo, SimError> {
        Core::step(self)
    }

    fn run_lease<S: Substrate, K: EventSink>(
        &mut self,
        budget: u64,
        lease: &mut Lease<'_, S, K>,
    ) -> Result<BulkRun, SimError> {
        self.run_steps_hooked(budget, lease)
    }

    #[inline]
    fn is_halted(&self) -> bool {
        self.cpu.halted
    }

    #[inline]
    fn pc(&self) -> u32 {
        self.cpu.pc
    }

    fn take_skim(&mut self) -> Option<u32> {
        let target = self.cpu.skm.take()?;
        self.cpu.pc = target;
        Some(target)
    }

    fn save(&self, saved: &mut Saved) -> Option<u64> {
        Some(saved.cpu.capture(self.cpu.snapshot()))
    }

    fn restore(&mut self, saved: &mut Saved) -> Result<(), SimError> {
        match saved.cpu.restore() {
            Some(snap) => self.cpu.restore(&snap),
            None => {
                self.cpu.pc = self.program().entry;
                self.cpu.halted = false;
            }
        }
        Ok(())
    }

    fn power_loss(&mut self) {
        self.cpu.power_loss();
    }

    fn undo(&mut self, log: &mut Vec<MemAccess>) {
        for access in log.drain(..).rev() {
            let r = match access.size {
                1 => self.mem.store_u8(access.addr, access.prev as u8),
                2 => self.mem.store_u16(access.addr, access.prev as u16),
                _ => self.mem.store_u32(access.addr, access.prev),
            };
            debug_assert!(
                r.is_ok(),
                "rollback of a previously successful store cannot fail"
            );
        }
    }

    fn max_instr_cycles(&self) -> u64 {
        self.config().cycle_model.max_instr_cycles()
    }
}
