//! The executing core: fetch, execute, account.

use std::ops::ControlFlow;

use wn_isa::{Instr, Program, Reg};

use crate::alu;
use crate::cpu::Cpu;
use crate::cycle_model::CycleModel;
use crate::error::SimError;
use crate::memo::{MemoConfig, MemoUnit};
use crate::memory::{MemAccess, Memory};
use crate::stats::{ClassDelta, ExecStats, InstrClass};

/// Configuration of a [`Core`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Per-instruction cycle costs.
    pub cycle_model: CycleModel,
    /// Data memory size in bytes.
    pub mem_size: usize,
    /// Optional memoization/zero-skip unit for multiplies (§V-E).
    pub memo: Option<MemoConfig>,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        // Generous data memory: provisioned subword-major layouts occupy
        // up to 2x their row-major size, and quick-scale experiment
        // instances are sized for outage statistics rather than a real
        // device's RAM budget.
        CoreConfig {
            cycle_model: CycleModel::default(),
            mem_size: 1024 * 1024,
            memo: None,
        }
    }
}

/// What happened during one [`Core::step`], beyond plain retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Nothing notable.
    None,
    /// The core executed `HALT` (or was already halted).
    Halted,
    /// A skim point executed, recording this restore target in the
    /// non-volatile SKM register.
    SkimSet(u32),
    /// A branch redirected control flow.
    BranchTaken,
}

/// Result of one [`Core::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Cycles the instruction consumed.
    pub cycles: u64,
    /// The data-memory access performed, if any (at most one per
    /// instruction on this core).
    pub access: Option<MemAccess>,
    /// Notable event.
    pub event: StepEvent,
}

/// Result of a [`Core::run`] that ended by halting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether the program executed `HALT` (always true on `Ok`).
    pub halted: bool,
    /// Cycles consumed during this `run` call.
    pub cycles: u64,
    /// Instructions retired during this `run` call.
    pub instructions: u64,
}

/// Why a [`Core::run_steps`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The core is halted (either it executed `HALT` during this call or
    /// was already halted on entry).
    Halted,
    /// The cycle budget was exhausted.
    Budget,
    /// The per-step hook broke out of the loop.
    Hook,
    /// The per-step hook reported a substrate boundary (e.g. a task
    /// commit) that the caller must settle before continuing.
    Boundary,
}

/// What a [`StepHook::on_step`] break means — whether the caller should
/// stop for good or merely surface a boundary and resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookBreak {
    /// Stop the run; reported as [`StopReason::Hook`].
    Stop,
    /// Pause at a substrate boundary; reported as
    /// [`StopReason::Boundary`]. The core state is ordinary — callers
    /// may immediately issue another run.
    Boundary,
}

/// Result of a [`Core::run_steps`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkRun {
    /// Cycles consumed during this call, including any extra cycles the
    /// hook charged.
    pub cycles: u64,
    /// Instructions retired during this call.
    pub instructions: u64,
    /// Why the loop stopped.
    pub stop: StopReason,
}

/// A predecoded instruction: the [`Instr`] itself plus the facts the hot
/// step loop would otherwise re-derive every retirement — the base cycle
/// cost and the statistics class. Both depend only on the instruction and
/// the (immutable) cycle model, so they are computed once at load time,
/// and fusing them with the instruction makes fetch a single indexed
/// load.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    instr: Instr,
    base_cost: u64,
    class_idx: u8,
}

/// Aggregate facts about the straight-line run starting at one pc: how
/// many instructions can retire as a single fused block, their summed
/// base cycle cost, and the per-class stats deltas — everything the
/// bulk loop would otherwise accumulate one retirement at a time.
///
/// The table is built once at load time by a backward scan, so every pc
/// indexes its own *tail run*: branching into the middle of a block
/// simply finds a shorter, equally valid block. A run whose tail is an
/// unconditional `B` then continues, one hop, into the run at the
/// branch target: a chained block of two segments, so a loop whose
/// exit test sits at its head retires an iteration per dispatch.
#[derive(Debug, Clone, Copy)]
struct FusedBlock {
    /// Fusable instructions starting here (including the control-flow
    /// tail, if any); 0 = must single-step.
    len: u32,
    /// Instructions of the first segment, up to and including its `B`
    /// when the block is chained; `len` otherwise.
    seg_len: u32,
    /// Start pc of the second segment (chained blocks only).
    target: u32,
    /// Offset of the block's per-instruction base costs in
    /// [`Core`]'s cost arena.
    costs_at: u32,
    /// Sum of base cycle costs over the run (a `BCond` tail counted at
    /// its not-taken cost).
    cycles: u64,
    /// Worst-case cycles the tail can add over its base cost (a taken
    /// `BCond`'s pipeline refill); used in admission so a fused
    /// dispatch can never overshoot the budget.
    tail_extra_max: u64,
    /// The block ends in a branch (`B`/`BL`/`BX`/`BCond`) that
    /// [`Core::exec_fused`] executes as its control-flow tail.
    has_tail: bool,
    /// Inclusive pc extent `lo..=hi`: every pc the block retires and
    /// every pc it can leave to, so every post-step pc of the block lies
    /// inside it. Admission checks it against [`StepHook::block_fence`].
    lo: u32,
    hi: u32,
    /// Valid prefix of `classes`.
    n_classes: u8,
    /// Sparse per-class stats deltas over the run.
    classes: [ClassDelta; FusedBlock::MAX_CLASSES],
}

impl FusedBlock {
    /// Blocks span at most seven classes (`Alu`, `Mul`, `MulAsp`,
    /// `Asv`, `Load`, `Other`, plus `Branch` for the tails) — stores,
    /// `SKM` and `HALT` all terminate blocks, and a chained block's two
    /// segments merge their deltas class by class.
    const MAX_CLASSES: usize = 7;

    const EMPTY: FusedBlock = FusedBlock {
        len: 0,
        seg_len: 0,
        target: 0,
        costs_at: 0,
        cycles: 0,
        tail_extra_max: 0,
        has_tail: false,
        lo: 0,
        hi: 0,
        n_classes: 0,
        classes: [ClassDelta {
            idx: 0,
            count: 0,
            cycles: 0,
        }; FusedBlock::MAX_CLASSES],
    };

    /// The sparse class-delta list.
    fn class_deltas(&self) -> &[ClassDelta] {
        &self.classes[..self.n_classes as usize]
    }

    /// Adds `count` instructions of class `idx` costing `cycles`.
    fn add_class(&mut self, idx: u8, count: u32, cycles: u64) {
        let n = self.n_classes as usize;
        match self.classes[..n].iter_mut().find(|c| c.idx == idx) {
            Some(c) => {
                c.count += count;
                c.cycles += cycles;
            }
            None => {
                // Indexing panics (rather than corrupting stats) if a
                // future interior class overflows MAX_CLASSES.
                self.classes[n] = ClassDelta { idx, count, cycles };
                self.n_classes += 1;
            }
        }
    }

    /// The pcs the block retires, in order: its first segment, then the
    /// second segment of a chained block.
    fn pcs(&self, pc: usize) -> impl Iterator<Item = usize> {
        let (seg, target) = (self.seg_len as usize, self.target as usize);
        (pc..pc + seg).chain(target..target + (self.len as usize - seg))
    }

    /// The inclusive pc extent of the block starting at `pc` (see
    /// `lo`/`hi`): both segments, plus every exit of the last retired
    /// instruction — a `B`/`BL` target, a `BCond`'s target and
    /// fall-through, the next pc of a block without a tail, and the
    /// whole address space for an indirect `BX`.
    fn extent(&self, pc: usize, decoded: &[Decoded]) -> (u32, u32) {
        let (pc, seg, rest) = (pc as u32, self.seg_len, self.len - self.seg_len);
        let (mut lo, mut hi, mut last) = (pc, pc + seg - 1, pc + seg - 1);
        if rest > 0 {
            last = self.target + rest - 1;
            (lo, hi) = (lo.min(self.target), hi.max(last));
        }
        let exits = match decoded[last as usize].instr {
            _ if !self.has_tail => [last + 1; 2],
            Instr::B { target } | Instr::Bl { target } => [target; 2],
            Instr::BCond { target, .. } => [target, last + 1],
            Instr::Bx { .. } => return (0, u32::MAX),
            ref other => unreachable!("non-branch tail {other} in a fused block"),
        };
        for e in exits {
            (lo, hi) = (lo.min(e), hi.max(e));
        }
        (lo, hi)
    }
}

/// True when `instr` statically writes the PC through its destination
/// register (e.g. `MOV pc, rX` or `LDR pc, [rX]`) — an indirect control
/// transfer that the block builder must treat as a terminator.
fn writes_pc(instr: &Instr) -> bool {
    let rd = match *instr {
        Instr::Ldr { rt, .. }
        | Instr::Ldrh { rt, .. }
        | Instr::Ldrb { rt, .. }
        | Instr::LdrReg { rt, .. }
        | Instr::LdrhReg { rt, .. }
        | Instr::LdrshReg { rt, .. }
        | Instr::LdrbReg { rt, .. } => rt,
        Instr::MovImm { rd, .. }
        | Instr::Mov { rd, .. }
        | Instr::Mvn { rd, .. }
        | Instr::Add { rd, .. }
        | Instr::AddImm { rd, .. }
        | Instr::Sub { rd, .. }
        | Instr::SubImm { rd, .. }
        | Instr::Rsb { rd, .. }
        | Instr::Mul { rd, .. }
        | Instr::MulAsp { rd, .. }
        | Instr::AddAsv { rd, .. }
        | Instr::SubAsv { rd, .. }
        | Instr::And { rd, .. }
        | Instr::Orr { rd, .. }
        | Instr::Eor { rd, .. }
        | Instr::Bic { rd, .. }
        | Instr::AndImm { rd, .. }
        | Instr::LslImm { rd, .. }
        | Instr::LsrImm { rd, .. }
        | Instr::AsrImm { rd, .. }
        | Instr::LslReg { rd, .. }
        | Instr::LsrReg { rd, .. }
        | Instr::AsrReg { rd, .. } => rd,
        _ => return false,
    };
    rd == Reg::PC
}

/// True when `instr` reads the PC as a source operand (e.g. `MOV r1,
/// pc`, `LDR r0, [pc, #4]` or `BX pc`). Fused execution does not keep
/// the PC current inside a block, so such an instruction ends one.
fn reads_pc(instr: &Instr) -> bool {
    let pc = Reg::PC;
    match *instr {
        Instr::Mov { rm, .. } | Instr::Mvn { rm, .. } | Instr::Bx { rm } => rm == pc,
        Instr::AddImm { rn, .. }
        | Instr::SubImm { rn, .. }
        | Instr::Rsb { rn, .. }
        | Instr::AndImm { rn, .. }
        | Instr::LslImm { rn, .. }
        | Instr::LsrImm { rn, .. }
        | Instr::AsrImm { rn, .. }
        | Instr::CmpImm { rn, .. }
        | Instr::Ldr { rn, .. }
        | Instr::Ldrh { rn, .. }
        | Instr::Ldrb { rn, .. } => rn == pc,
        Instr::Add { rn, rm, .. }
        | Instr::Sub { rn, rm, .. }
        | Instr::Mul { rn, rm, .. }
        | Instr::MulAsp { rn, rm, .. }
        | Instr::AddAsv { rn, rm, .. }
        | Instr::SubAsv { rn, rm, .. }
        | Instr::And { rn, rm, .. }
        | Instr::Orr { rn, rm, .. }
        | Instr::Eor { rn, rm, .. }
        | Instr::Bic { rn, rm, .. }
        | Instr::LslReg { rn, rm, .. }
        | Instr::LsrReg { rn, rm, .. }
        | Instr::AsrReg { rn, rm, .. }
        | Instr::Cmp { rn, rm }
        | Instr::Tst { rn, rm }
        | Instr::LdrReg { rn, rm, .. }
        | Instr::LdrhReg { rn, rm, .. }
        | Instr::LdrshReg { rn, rm, .. }
        | Instr::LdrbReg { rn, rm, .. } => rn == pc || rm == pc,
        Instr::Str { rt, rn, .. } | Instr::Strh { rt, rn, .. } | Instr::Strb { rt, rn, .. } => {
            rt == pc || rn == pc
        }
        Instr::StrReg { rt, rn, rm }
        | Instr::StrhReg { rt, rn, rm }
        | Instr::StrbReg { rt, rn, rm } => rt == pc || rn == pc || rm == pc,
        Instr::MovImm { .. }
        | Instr::B { .. }
        | Instr::BCond { .. }
        | Instr::Bl { .. }
        | Instr::Skm { .. }
        | Instr::Nop
        | Instr::Halt => false,
    }
}

/// True when `instr` must end a fused block: anything a hook or
/// substrate must *act on* per retirement (stores, `SKM`, `HALT`), any
/// control transfer (branches, static PC writes), any read of the PC,
/// and — when the memo unit is enabled — multiplies, whose cost then
/// depends on runtime operands instead of the static table. Loads are
/// block-interior: their cost is static, they cannot trigger a
/// checkpoint, and the addresses they touch reach the hook as the
/// block's memory-op summary ([`StepHook::on_block`]'s `reads`).
fn ends_block(instr: &Instr, memo_enabled: bool) -> bool {
    instr.is_store()
        || instr.is_branch()
        || matches!(instr, Instr::Skm { .. } | Instr::Halt)
        || (memo_enabled && matches!(instr, Instr::Mul { .. } | Instr::MulAsp { .. }))
        || writes_pc(instr)
        || reads_pc(instr)
}

/// Classifies `instr` as a fusable control-flow tail, returning the
/// worst-case cycles it can add over its base cost (`Some(0)` for
/// branches whose cost is static). A `BCond` qualifies only while its
/// taken cost is at least the not-taken base the block is priced at —
/// otherwise it stays a single-step terminator so fused cycle
/// accounting never undershoots. `BX pc` reads the PC, so it
/// single-steps too.
fn fused_tail_extra(instr: &Instr, m: &CycleModel) -> Option<u64> {
    match instr {
        Instr::B { .. } | Instr::Bl { .. } => Some(0),
        Instr::Bx { rm } if *rm != Reg::PC => Some(0),
        Instr::BCond { .. } => m.branch_taken.checked_sub(m.branch_not_taken),
        _ => None,
    }
}

/// How [`exec_data`] reaches the register file.
trait RegAccess {
    fn get(cpu: &Cpu, r: Reg) -> u32;
    fn set(cpu: &mut Cpu, r: Reg, value: u32);
}

/// [`Core::step`]'s register access: [`Cpu::reg`]/[`Cpu::set_reg`],
/// which read the current PC and turn a PC write into a jump.
struct Stepped;

impl RegAccess for Stepped {
    #[inline(always)]
    fn get(cpu: &Cpu, r: Reg) -> u32 {
        cpu.reg(r)
    }

    #[inline(always)]
    fn set(cpu: &mut Cpu, r: Reg, value: u32) {
        cpu.set_reg(r, value)
    }
}

/// Block interiors' register access: [`Cpu::gpr`]/[`Cpu::set_gpr`],
/// straight to the register file. [`ends_block`] keeps every
/// instruction that reads or writes the PC out of a block, so the PC
/// check is the only thing an interior skips.
struct Interior;

impl RegAccess for Interior {
    #[inline(always)]
    fn get(cpu: &Cpu, r: Reg) -> u32 {
        cpu.gpr(r)
    }

    #[inline(always)]
    fn set(cpu: &mut Cpu, r: Reg, value: u32) {
        cpu.set_gpr(r, value)
    }
}

/// Executes a data-path instruction — a register operation, compare,
/// load or `NOP` — reading and writing registers through `R`: the one
/// implementation of these instructions, shared by [`Core::step`] and
/// fused block interiors. Returns the cycles it took (its base cost,
/// or `memo_hit` when the memo unit short-circuits a multiply) and the
/// load it performed, if any. A faulting load changes nothing.
///
/// `d` is taken by reference so that each arm loads only its own
/// operands from the decoded table, rather than every dispatch
/// unpacking the whole instruction first.
#[inline(always)]
fn exec_data<R: RegAccess>(
    cpu: &mut Cpu,
    mem: &Memory,
    memo: &mut Option<MemoUnit>,
    memo_hit: u64,
    d: &Decoded,
) -> Result<(u64, Option<MemAccess>), SimError> {
    let (cost, instr) = (d.base_cost, &d.instr);
    let (mut cycles, mut access) = (cost, None);
    let (rd, value) = match *instr {
        Instr::MovImm { rd, imm } => (rd, imm as u32),
        Instr::Mov { rd, rm } => (rd, R::get(cpu, rm)),
        Instr::Mvn { rd, rm } => (rd, !R::get(cpu, rm)),
        Instr::Add { rd, rn, rm } => (rd, R::get(cpu, rn).wrapping_add(R::get(cpu, rm))),
        Instr::AddImm { rd, rn, imm } => (rd, R::get(cpu, rn).wrapping_add(imm as u32)),
        Instr::Sub { rd, rn, rm } => (rd, R::get(cpu, rn).wrapping_sub(R::get(cpu, rm))),
        Instr::SubImm { rd, rn, imm } => (rd, R::get(cpu, rn).wrapping_sub(imm as u32)),
        Instr::Rsb { rd, rn } => (rd, 0u32.wrapping_sub(R::get(cpu, rn))),
        Instr::Mul { rd, rn, rm } => {
            let product;
            (product, cycles) = multiply(memo, R::get(cpu, rn), R::get(cpu, rm), cost, memo_hit);
            (rd, product)
        }
        Instr::MulAsp {
            rd,
            rn,
            rm,
            bits,
            shift,
        } => {
            let b = alu::asp_operand(R::get(cpu, rm), bits, shift);
            let product;
            (product, cycles) = multiply(memo, R::get(cpu, rn), b, cost, memo_hit);
            (rd, product)
        }
        Instr::AddAsv { rd, rn, rm, lanes } => {
            (rd, alu::lane_add(R::get(cpu, rn), R::get(cpu, rm), lanes))
        }
        Instr::SubAsv { rd, rn, rm, lanes } => {
            (rd, alu::lane_sub(R::get(cpu, rn), R::get(cpu, rm), lanes))
        }
        Instr::And { rd, rn, rm } => (rd, R::get(cpu, rn) & R::get(cpu, rm)),
        Instr::Orr { rd, rn, rm } => (rd, R::get(cpu, rn) | R::get(cpu, rm)),
        Instr::Eor { rd, rn, rm } => (rd, R::get(cpu, rn) ^ R::get(cpu, rm)),
        Instr::Bic { rd, rn, rm } => (rd, R::get(cpu, rn) & !R::get(cpu, rm)),
        Instr::AndImm { rd, rn, imm } => (rd, R::get(cpu, rn) & imm as u32),
        Instr::LslImm { rd, rn, sh } => (rd, R::get(cpu, rn) << sh),
        Instr::LsrImm { rd, rn, sh } => (rd, R::get(cpu, rn) >> sh),
        Instr::AsrImm { rd, rn, sh } => (rd, ((R::get(cpu, rn) as i32) >> sh) as u32),
        Instr::LslReg { rd, rn, rm } => (rd, R::get(cpu, rn) << (R::get(cpu, rm) & 31)),
        Instr::LsrReg { rd, rn, rm } => (rd, R::get(cpu, rn) >> (R::get(cpu, rm) & 31)),
        Instr::AsrReg { rd, rn, rm } => (
            rd,
            ((R::get(cpu, rn) as i32) >> (R::get(cpu, rm) & 31)) as u32,
        ),
        Instr::Cmp { rn, rm } => {
            let (a, b) = (R::get(cpu, rn), R::get(cpu, rm));
            set_cmp_flags(cpu, a, b);
            return Ok((cycles, None));
        }
        Instr::CmpImm { rn, imm } => {
            let a = R::get(cpu, rn);
            set_cmp_flags(cpu, a, imm as u32);
            return Ok((cycles, None));
        }
        Instr::Tst { rn, rm } => {
            let v = R::get(cpu, rn) & R::get(cpu, rm);
            cpu.flags.set_nz(v);
            return Ok((cycles, None));
        }
        Instr::Nop => return Ok((cycles, None)),
        Instr::Ldr { rt, rn, off } | Instr::Ldrh { rt, rn, off } | Instr::Ldrb { rt, rn, off } => {
            let addr = R::get(cpu, rn).wrapping_add(off as u32);
            let (value, size) = load(mem, instr, addr)?;
            access = Some(MemAccess::read(addr, size));
            (rt, value)
        }
        Instr::LdrReg { rt, rn, rm }
        | Instr::LdrhReg { rt, rn, rm }
        | Instr::LdrshReg { rt, rn, rm }
        | Instr::LdrbReg { rt, rn, rm } => {
            let addr = R::get(cpu, rn).wrapping_add(R::get(cpu, rm));
            let (value, size) = load(mem, instr, addr)?;
            access = Some(MemAccess::read(addr, size));
            (rt, value)
        }
        other => unreachable!("{other} is not a data-path instruction"),
    };
    R::set(cpu, rd, value);
    Ok((cycles, access))
}

/// ARM-style flag computation for `a - b`.
#[inline(always)]
fn set_cmp_flags(cpu: &mut Cpu, a: u32, b: u32) {
    let result = a.wrapping_sub(b);
    cpu.flags.set_nz(result);
    cpu.flags.c = a >= b; // no borrow
    cpu.flags.v = (((a ^ b) & (a ^ result)) >> 31) != 0;
}

/// The read half of a load: the value `instr` reads at `addr`, with the
/// instruction's width and extension, and the access size in bytes.
#[inline(always)]
fn load(mem: &Memory, instr: &Instr, addr: u32) -> Result<(u32, u32), SimError> {
    Ok(match instr {
        Instr::Ldr { .. } | Instr::LdrReg { .. } => (mem.load_u32(addr)?, 4),
        Instr::Ldrh { .. } | Instr::LdrhReg { .. } => (mem.load_u16(addr)? as u32, 2),
        Instr::LdrshReg { .. } => (mem.load_u16(addr)? as i16 as i32 as u32, 2),
        Instr::Ldrb { .. } | Instr::LdrbReg { .. } => (mem.load_u8(addr)? as u32, 1),
        other => unreachable!("load() called for non-load {other}"),
    })
}

/// A multiply's product and cycles: `cost`, the iterative multiplier's
/// count, unless a fitted memo unit short-circuits it.
#[inline(always)]
fn multiply(memo: &mut Option<MemoUnit>, a: u32, b: u32, cost: u64, memo_hit: u64) -> (u32, u64) {
    match memo {
        None => (a.wrapping_mul(b), cost),
        Some(memo) => memoized_multiply(memo, a, b, cost, memo_hit),
    }
}

/// [`multiply`] through a fitted memo unit (§V-E): a hit or zero skip
/// takes `memo_hit` cycles; a miss runs the full multiply and records
/// it. Kept out of line so the lookup never weighs on the loops that
/// inline [`exec_data`].
#[inline(never)]
fn memoized_multiply(memo: &mut MemoUnit, a: u32, b: u32, cost: u64, memo_hit: u64) -> (u32, u64) {
    if let Some(product) = memo.lookup(a, b) {
        return (product, memo_hit);
    }
    let product = a.wrapping_mul(b);
    memo.insert(a, b, product);
    (product, cost)
}

/// Retires the block-interior instructions `instrs`, the first at `pc`,
/// through [`exec_data`] with [`Interior`] register access, and appends
/// their load addresses to `reads`. The PC is left stale until the
/// block's end. A faulting load sets the PC to it and returns its
/// offset in `instrs` with the error.
#[inline]
fn exec_interior(
    cpu: &mut Cpu,
    mem: &Memory,
    memo: &mut Option<MemoUnit>,
    memo_hit: u64,
    reads: &mut Vec<u32>,
    instrs: &[Decoded],
    pc: usize,
) -> Result<(), (usize, SimError)> {
    for (i, d) in instrs.iter().enumerate() {
        match exec_data::<Interior>(cpu, mem, memo, memo_hit, d) {
            Ok((_, Some(load))) => reads.push(load.addr),
            Ok((_, None)) => {}
            Err(e) => {
                cpu.pc = (pc + i) as u32;
                return Err((i, e));
            }
        }
    }
    Ok(())
}

/// How much granularity a [`Core::run_steps_hooked`] hook needs,
/// declared as an associated const so the block-dispatch fast path is
/// compiled in (or out) per hook type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookKind {
    /// The hook must observe every retired instruction: tracing sinks,
    /// sampling harnesses, and all plain-closure hooks.
    EveryInstruction,
    /// The hook only needs store / control-flow granularity plus exact
    /// cost accounting: straight-line runs (including loads, whose
    /// addresses arrive as a per-block summary) may retire as one fused
    /// block through [`StepHook::on_block`].
    MemoryOps,
}

/// A typed [`Core::run_steps_hooked`] hook.
///
/// The granularity contract: with [`HookKind::MemoryOps`], the engine
/// may retire a whole straight-line block (no stores, no `SKM`/`HALT`,
/// no memoized multiplies) in one dispatch. Loads are allowed inside a
/// block — the byte addresses they read arrive in retirement order as
/// [`StepHook::on_block`]'s memory-op summary — and a block may close
/// with a branch tail, whose dynamic cost (a taken `BCond`'s refill)
/// arrives as `tail_extra`. A block is dispatched only when its
/// worst-case cost — base cycles plus the tail's maximum extra — fits
/// inside both the remaining budget and [`StepHook::block_budget`], and
/// its pc extent lies inside [`StepHook::block_fence`]; otherwise it falls back to
/// per-instruction stepping, where [`StepHook::on_step`] sees every
/// retirement exactly as an [`HookKind::EveryInstruction`] hook would.
/// Fused or not, the retired instruction sequence and all cycle
/// accounting are identical; only the observation points differ.
pub trait StepHook {
    /// The granularity this hook needs.
    const KIND: HookKind;

    /// Called after each individually retired instruction. Returns
    /// `ControlFlow::Continue(extra_cycles)` to keep going (the extra
    /// cycles count against the budget) or `ControlFlow::Break(_)` to
    /// stop — [`HookBreak::Stop`] for good, [`HookBreak::Boundary`] for
    /// a resumable substrate boundary. Either way the final step's
    /// extra cycles are *not* folded into [`BulkRun::cycles`]; a hook
    /// that charges on a break must carry those cycles itself.
    fn on_step(&mut self, core: &mut Core, info: &StepInfo) -> ControlFlow<HookBreak, u64>;

    /// Called before each individually retired instruction with its
    /// pc, for hooks that log where each step retired (the tape
    /// recorder). The default does nothing.
    #[inline]
    fn before_step(&mut self, pc: u32) {
        let _ = pc;
    }

    /// Cycles of fused execution the hook can currently absorb without
    /// per-instruction observation (e.g. cycles left before a
    /// substrate's watchdog horizon). Consulted before every block
    /// dispatch; a block that does not fit single-steps instead. Only
    /// meaningful for [`HookKind::MemoryOps`] hooks.
    fn block_budget(&self) -> u64 {
        0
    }

    /// The inclusive pc range `(lo, hi)` fused blocks must stay inside.
    /// A block is dispatched only when every pc it retires or can leave
    /// to lies in the range, so every post-step pc of a fused block
    /// does; anything else single-steps. The default, the whole address
    /// space, admits every block and folds the check away.
    fn block_fence(&self) -> (u32, u32) {
        (0, u32::MAX)
    }

    /// Called once after a fused block retires. `block` is the block's
    /// identity: the pc [`Core::admit_block`] admitted it at. Together
    /// with `costs.len()` it names the same `costs` for the life of the
    /// core's program (a block cut short by a faulting load reports its
    /// retired prefix, a shorter run under the same identity), so a hook
    /// may cache per-block work under it. `costs` lists the
    /// per-instruction base cycle costs, `cycles` is their sum,
    /// `tail_extra` is what the block's branch tail cost beyond its
    /// base (a taken `BCond`'s refill — it belongs to the final
    /// element of `costs`), and `reads` is the block's memory-op
    /// summary — the byte address of every load in the block, in
    /// retirement order. A fused block charges no extra cycles.
    fn on_block(&mut self, block: u32, costs: &[u64], cycles: u64, tail_extra: u64, reads: &[u32]) {
        let _ = (block, costs, cycles, tail_extra, reads);
    }
}

/// Adapts a plain closure to [`StepHook`] at instruction granularity —
/// the compatibility shim behind [`Core::run_steps`].
struct EveryStep<F>(F);

impl<F> StepHook for EveryStep<F>
where
    F: FnMut(&mut Core, &StepInfo) -> ControlFlow<(), u64>,
{
    const KIND: HookKind = HookKind::EveryInstruction;

    #[inline]
    fn on_step(&mut self, core: &mut Core, info: &StepInfo) -> ControlFlow<HookBreak, u64> {
        match (self.0)(core, info) {
            ControlFlow::Continue(extra) => ControlFlow::Continue(extra),
            ControlFlow::Break(()) => ControlFlow::Break(HookBreak::Stop),
        }
    }
}

/// Hook for free-running execution ([`Core::run`]): observes nothing,
/// charges nothing, and lets every block fuse.
pub(crate) struct FreeRun;

impl StepHook for FreeRun {
    const KIND: HookKind = HookKind::MemoryOps;

    #[inline]
    fn on_step(&mut self, _core: &mut Core, _info: &StepInfo) -> ControlFlow<HookBreak, u64> {
        ControlFlow::Continue(0)
    }

    #[inline]
    fn block_budget(&self) -> u64 {
        u64::MAX
    }
}

/// A cycle-accurate WN-RISC core bound to one program.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Core {
    /// Architectural state.
    pub cpu: Cpu,
    /// Data memory.
    pub mem: Memory,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Optional memoization unit.
    pub memo: Option<MemoUnit>,
    program: Program,
    config: CoreConfig,
    /// Parallel to `program.instrs`.
    decoded: Vec<Decoded>,
    /// Parallel to `program.instrs`: the fused tail-run starting at each pc.
    fused: Vec<FusedBlock>,
    /// The cost arena [`StepHook::on_block`] slices each block's base
    /// costs from: the base cost per pc (parallel to `program.instrs`,
    /// which covers every unchained block), then one run per chaining
    /// `B` — the longest block ending at it followed by its target
    /// block — of which every chained block is a suffix.
    block_costs: Vec<u64>,
    /// Instructions retired through the block-dispatch fast path (a
    /// subset of `stats.instructions`).
    fused_instructions: u64,
    /// Scratch for the current fused block's memory-op summary: the
    /// byte address of every load retired in the block, in order.
    /// Reused across dispatches so the fast path never allocates.
    fused_reads: Vec<u32>,
}

impl Core {
    /// Creates a core for `program`, loading its initial data image at
    /// data address 0.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] if the program fails
    /// validation, or [`SimError::DataImageTooLarge`] if its data image
    /// exceeds `config.mem_size`.
    pub fn new(program: &Program, config: CoreConfig) -> Result<Core, SimError> {
        program
            .validate()
            .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
        let mem = Memory::with_image(config.mem_size, &program.initial_data)?;
        let mut cpu = Cpu::new();
        cpu.pc = program.entry;
        let decoded: Vec<Decoded> = program
            .instrs
            .iter()
            .map(|i| Decoded {
                instr: *i,
                base_cost: config.cycle_model.base_cost(i),
                class_idx: InstrClass::of(i).idx() as u8,
            })
            .collect();
        let mut block_costs: Vec<u64> = decoded.iter().map(|d| d.base_cost).collect();
        // Backward scan: each pc's block is itself plus the block at
        // pc + 1, unless the instruction here terminates a block.
        let memo_enabled = config.memo.is_some();
        let mut fused = vec![FusedBlock::EMPTY; decoded.len()];
        for (pc, d) in decoded.iter().enumerate().rev() {
            let mut b = if let Some(extra) = fused_tail_extra(&d.instr, &config.cycle_model) {
                // A branch seeds a one-instruction block with itself as
                // the control-flow tail; straight-line predecessors
                // prepend onto it below, absorbing the branch that
                // closes their loop body.
                FusedBlock {
                    tail_extra_max: extra,
                    has_tail: true,
                    ..FusedBlock::EMPTY
                }
            } else if ends_block(&d.instr, memo_enabled) {
                continue;
            } else {
                fused.get(pc + 1).copied().unwrap_or(FusedBlock::EMPTY)
            };
            b.len += 1;
            b.seg_len = b.len;
            b.costs_at = pc as u32;
            b.cycles += d.base_cost;
            b.add_class(d.class_idx, 1, d.base_cost);
            fused[pc] = b;
        }
        // Chain one hop through `B`: a block whose tail is an
        // unconditional branch continues into the block at its target,
        // as that block stands before chaining (so chains stay one hop,
        // even around a self-loop). All blocks ending at one `B` are
        // suffixes of the longest, found first in pc order, so each `B`
        // adds one run to the cost arena. The same pass records each
        // block's pc extent once its shape is final.
        let unchained = fused.clone();
        let mut run: Option<(usize, usize, usize)> = None; // (end, first pc, arena offset)
        for (pc, b) in unchained.iter().enumerate().filter(|(_, b)| b.len > 0) {
            let end = pc + b.len as usize;
            let chain = match decoded[end - 1].instr {
                Instr::B { target } if b.has_tail => unchained
                    .get(target as usize)
                    .filter(|t| t.len > 0)
                    .map(|t| (target as usize, t)),
                _ => None,
            };
            let c = &mut fused[pc];
            if let Some((target, t)) = chain {
                let (first, at) = match run {
                    Some((e, first, at)) if e == end => (first, at),
                    _ => {
                        let at = block_costs.len();
                        block_costs.extend_from_within(pc..end);
                        block_costs.extend_from_within(target..target + t.len as usize);
                        run = Some((end, pc, at));
                        (pc, at)
                    }
                };
                c.costs_at = (at + pc - first) as u32;
                c.target = target as u32;
                c.len += t.len;
                c.cycles += t.cycles;
                c.tail_extra_max = t.tail_extra_max;
                c.has_tail = t.has_tail;
                for d in t.class_deltas() {
                    c.add_class(d.idx, d.count, d.cycles);
                }
            }
            (c.lo, c.hi) = c.extent(pc, &decoded);
        }
        Ok(Core {
            cpu,
            mem,
            stats: ExecStats::new(),
            memo: config.memo.map(MemoUnit::new),
            program: program.clone(),
            config,
            decoded,
            fused,
            block_costs,
            fused_instructions: 0,
            fused_reads: Vec::new(),
        })
    }

    /// Instructions retired through the block-dispatch fast path so far
    /// (a subset of `stats.instructions`); the block-dispatch rate is
    /// this over total retirements.
    pub fn fused_instructions(&self) -> u64 {
        self.fused_instructions
    }

    /// The admission rule of [`Core::run_steps_hooked`]: the length of
    /// the fused block at `pc` (chained through a `B` where it
    /// continues) if `hook` admits it with `room` budget cycles left —
    /// its worst case (base cycles plus the tail's maximum extra) fits
    /// in both `room` and [`StepHook::block_budget`], and its pc extent
    /// lies inside [`StepHook::block_fence`]. `None` means `pc` single-steps. An
    /// external replay engine (the fleet's lockstep tape replayer)
    /// calls it to make the core's block-dispatch decisions exactly.
    #[inline]
    pub fn admit_block<H: StepHook>(&self, pc: u32, room: u64, hook: &H) -> Option<u32> {
        let b = self.fused.get(pc as usize).filter(|b| b.len > 0)?;
        let worst = b.cycles.saturating_add(b.tail_extra_max);
        let (lo, hi) = hook.block_fence();
        (worst <= room.min(hook.block_budget()) && b.lo >= lo && b.hi <= hi).then_some(b.len)
    }

    /// The per-instruction base costs of the fused block at `pc` — what
    /// [`StepHook::on_block`] receives for it — or an empty slice where
    /// `pc` has no block.
    #[inline]
    pub fn block_costs(&self, pc: u32) -> &[u64] {
        match self.fused.get(pc as usize) {
            Some(b) if b.len > 0 => &self.block_costs[b.costs_at as usize..][..b.len as usize],
            _ => &[],
        }
    }

    /// Summed base cycles of the fused block at `pc` (its tail at its
    /// base cost), 0 where `pc` has no block.
    #[inline]
    pub fn block_cycles(&self, pc: u32) -> u64 {
        self.fused.get(pc as usize).map_or(0, |b| b.cycles)
    }

    /// Instructions in the fused block at `pc`, 0 where it has none.
    #[inline]
    pub(crate) fn block_len(&self, pc: u32) -> u32 {
        self.fused.get(pc as usize).map_or(0, |b| b.len)
    }

    /// Loads among the instructions of the fused block at `pc`.
    #[inline]
    pub(crate) fn block_loads(&self, pc: u32) -> u32 {
        let load = InstrClass::Load.idx() as u8;
        self.fused[pc as usize]
            .class_deltas()
            .iter()
            .find(|d| d.idx == load)
            .map_or(0, |d| d.count)
    }

    /// Whether the instruction at `pc` is a load.
    #[inline]
    pub(crate) fn is_load(&self, pc: u32) -> bool {
        self.decoded[pc as usize].class_idx == InstrClass::Load.idx() as u8
    }

    /// The `k`-th instruction of the fused block at `pc`, in one table
    /// lookup: its base cost, whether it is the block's last, and
    /// whether it is a load.
    #[inline]
    pub(crate) fn block_step(&self, pc: u32, k: u32) -> (u64, bool, bool) {
        let b = &self.fused[pc as usize];
        let at = if k < b.seg_len {
            pc + k
        } else {
            b.target + (k - b.seg_len)
        };
        let load = self.decoded[at as usize].class_idx == InstrClass::Load.idx() as u8;
        (
            self.block_costs[b.costs_at as usize + k as usize],
            k + 1 == b.len,
            load,
        )
    }

    /// The pc of the `k`-th instruction the fused block at `pc` retires:
    /// along its first segment, then along the second of a chained
    /// block.
    #[inline]
    pub(crate) fn block_pc(&self, pc: u32, k: u32) -> u32 {
        let b = &self.fused[pc as usize];
        if k < b.seg_len {
            pc + k
        } else {
            b.target + (k - b.seg_len)
        }
    }

    /// The program this core executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Whether the core has executed `HALT`.
    pub fn is_halted(&self) -> bool {
        self.cpu.halted
    }

    /// Convenience: byte address of a data symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol does not exist — symbol names come from the
    /// compiler, so a miss is a harness bug.
    pub fn data_addr(&self, symbol: &str) -> u32 {
        self.program
            .data_symbol(symbol)
            .unwrap_or_else(|| panic!("unknown data symbol `{symbol}`"))
    }

    /// Executes one instruction.
    ///
    /// On a halted core this is a no-op returning [`StepEvent::Halted`]
    /// and zero cycles.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the PC leaves the program or a memory
    /// access is invalid. The core is left in the pre-instruction state
    /// for memory faults only in the sense that no partial store occurs.
    #[inline]
    pub fn step(&mut self) -> Result<StepInfo, SimError> {
        if self.cpu.halted {
            return Ok(StepInfo {
                cycles: 0,
                access: None,
                event: StepEvent::Halted,
            });
        }
        let pc = self.cpu.pc;
        let len = self.decoded.len() as u32;
        if pc >= len {
            return Err(SimError::PcOutOfRange { pc, len });
        }
        let Decoded {
            instr,
            base_cost,
            class_idx,
        } = self.decoded[pc as usize];
        let m = self.config.cycle_model;
        let mut next_pc = pc + 1;
        let mut cycles = base_cost;
        let mut access = None;
        let mut event = StepEvent::None;

        let cpu = &mut self.cpu;
        match instr {
            Instr::Str { rt, rn, off }
            | Instr::Strh { rt, rn, off }
            | Instr::Strb { rt, rn, off } => {
                let addr = cpu.reg(rn).wrapping_add(off as u32);
                access = Some(self.store(rt, addr, &instr)?);
            }
            Instr::StrReg { rt, rn, rm }
            | Instr::StrhReg { rt, rn, rm }
            | Instr::StrbReg { rt, rn, rm } => {
                let addr = cpu.reg(rn).wrapping_add(cpu.reg(rm));
                access = Some(self.store(rt, addr, &instr)?);
            }
            Instr::B { target } => {
                next_pc = target;
                event = StepEvent::BranchTaken;
            }
            Instr::BCond { cond, target } => {
                if cond.holds(cpu.flags) {
                    next_pc = target;
                    cycles = m.branch_taken;
                    event = StepEvent::BranchTaken;
                }
            }
            Instr::Bl { target } => {
                cpu.set_reg(Reg::LR, pc + 1);
                next_pc = target;
                event = StepEvent::BranchTaken;
            }
            Instr::Bx { rm } => {
                next_pc = cpu.reg(rm);
                event = StepEvent::BranchTaken;
            }
            Instr::Skm { target } => {
                cpu.skm = Some(target);
                event = StepEvent::SkimSet(target);
            }
            Instr::Halt => {
                cpu.halted = true;
                // PC stays on the HALT: a checkpointing substrate that
                // restores to this point re-executes the halt rather
                // than running off the end of the program.
                next_pc = pc;
                event = StepEvent::Halted;
            }
            _ => {
                let (mem, memo, d) = (&self.mem, &mut self.memo, &self.decoded[pc as usize]);
                (cycles, access) = exec_data::<Stepped>(cpu, mem, memo, m.memo_hit, d)?;
            }
        }

        if self.cpu.pc != pc {
            // The instruction wrote PC directly (e.g. `MOV pc, rX`):
            // honor the redirect as a branch instead of clobbering it
            // with the fall-through address.
            cycles = cycles.max(m.branch_taken);
            event = StepEvent::BranchTaken;
        } else {
            self.cpu.pc = next_pc;
        }
        self.stats.record_class(class_idx as usize, cycles);
        Ok(StepInfo {
            cycles,
            access,
            event,
        })
    }

    /// Retires the fused block at `pc` — straight-line instructions
    /// (registers and loads), optionally closed by a branch tail, and
    /// for a chained block the second segment after its `B` — already
    /// admitted against the budget. Interior instructions go through
    /// [`exec_data`], the data path [`Core::step`] uses, and the tail
    /// must match `step`'s branch arms; stats recording is the caller's
    /// (aggregated) job. Load addresses are appended to `fused_reads` in
    /// retirement order as the block's memory-op summary. Returns the
    /// cycles the tail added over its base cost (a taken `BCond`'s
    /// refill; 0 otherwise).
    ///
    /// # Errors
    ///
    /// A faulting load returns `(retired, error)` where `retired`
    /// instructions completed before the fault. Architectural state then
    /// matches per-instruction stepping exactly: the prefix has retired,
    /// the PC sits on the faulting load, and `fused_reads` holds only
    /// the prefix's loads — the caller settles the prefix and
    /// propagates.
    fn exec_fused(&mut self, pc: usize) -> Result<u64, (usize, SimError)> {
        let Core {
            cpu,
            mem,
            memo,
            decoded,
            fused,
            fused_reads: reads,
            config,
            ..
        } = self;
        let (b, m) = (&fused[pc], &config.cycle_model);
        reads.clear();
        let (len, seg_len) = (b.len as usize, b.seg_len as usize);
        // `at` is the pc of the segment being retired and `done` the
        // block offset it starts at.
        let (mut at, mut done) = (pc, 0);
        if seg_len < len {
            // A chained block: the first segment up to its `B`, whose
            // only effect — the jump — is the second segment itself.
            let first = &decoded[pc..pc + seg_len - 1];
            exec_interior(cpu, mem, memo, m.memo_hit, reads, first, pc)?;
            (at, done) = (b.target as usize, seg_len);
        }
        let interior = len - done - b.has_tail as usize;
        let rest = &decoded[at..][..interior];
        exec_interior(cpu, mem, memo, m.memo_hit, reads, rest, at)
            .map_err(|(i, e)| (done + i, e))?;
        let t = at + interior;
        if b.has_tail {
            // The control-flow tail. Effects and cycle accounting must
            // match the corresponding [`Core::step`] arms: the caller
            // priced the block with the tail at its base cost, so only
            // a taken `BCond`'s refill is reported back as extra. `BX
            // pc` never gets here (it reads the PC, so it single-steps).
            match decoded[t].instr {
                Instr::B { target } => cpu.pc = target,
                Instr::Bl { target } => {
                    cpu.set_gpr(Reg::LR, t as u32 + 1);
                    cpu.pc = target;
                }
                Instr::Bx { rm } => cpu.pc = cpu.gpr(rm),
                Instr::BCond { cond, target } => {
                    if cond.holds(cpu.flags) {
                        cpu.pc = target;
                        return Ok(m.branch_taken - m.branch_not_taken);
                    }
                    cpu.pc = (t + 1) as u32;
                }
                ref other => unreachable!("non-branch tail {other} in a fused block"),
            }
        } else {
            // Interior instructions never write the PC (blocks end at
            // any instruction that could, including loads targeting
            // it), so a tail-less block falls through.
            cpu.pc = t as u32;
        }
        Ok(0)
    }

    /// Runs instructions in bulk until the core halts, `budget` cycles
    /// are spent, or `hook` breaks out of the loop. This is the engine
    /// under both [`Core::run`] and the intermittent executor's epoch
    /// scheduler: callers that have pre-computed how long execution may
    /// proceed (an energy lease, a sampling interval) run here without
    /// per-instruction bookkeeping of their own.
    ///
    /// When `H::KIND` is [`HookKind::MemoryOps`], straight-line blocks
    /// retire through a fused fast path: one admission check
    /// ([`Core::admit_block`]) covers the whole block — its worst-case
    /// cost against both the remaining budget and
    /// [`StepHook::block_budget`], its pc extent against
    /// [`StepHook::block_fence`] — then [`StepHook::on_block`] observes
    /// it wholesale. Everything else — and every instruction for
    /// [`HookKind::EveryInstruction`] hooks — goes through
    /// [`Core::step`] and [`StepHook::on_step`].
    ///
    /// The budget is checked *before* each instruction or block, and a
    /// block is only fused when it fits entirely, so the loop may
    /// overshoot `budget` by at most one single-stepped instruction plus
    /// whatever the hook charges for it — instructions are atomic. A
    /// `budget` of 0 retires nothing.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from [`Core::step`]; the hook is not called for
    /// the faulting instruction.
    pub fn run_steps_hooked<H: StepHook>(
        &mut self,
        budget: u64,
        hook: &mut H,
    ) -> Result<BulkRun, SimError> {
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        loop {
            if self.cpu.halted {
                return Ok(BulkRun {
                    cycles,
                    instructions,
                    stop: StopReason::Halted,
                });
            }
            if cycles >= budget {
                return Ok(BulkRun {
                    cycles,
                    instructions,
                    stop: StopReason::Budget,
                });
            }
            if matches!(H::KIND, HookKind::MemoryOps) {
                if let Some(len) = self.admit_block(self.cpu.pc, budget - cycles, hook) {
                    let (pc, len) = (self.cpu.pc as usize, len as usize);
                    let tail_extra = match self.exec_fused(pc) {
                        Ok(extra) => extra,
                        Err((retired, e)) => {
                            // A load faulted at block offset `retired`.
                            // Mirror per-instruction accounting for the
                            // retired prefix — stats, hook observation,
                            // read summary — then propagate; the PC
                            // already sits on the faulting load.
                            let b = &self.fused[pc];
                            for p in b.pcs(pc).take(retired) {
                                let d = &self.decoded[p];
                                self.stats.record_class(d.class_idx as usize, d.base_cost);
                            }
                            let prefix = &self.block_costs[b.costs_at as usize..][..retired];
                            let prefix_cost: u64 = prefix.iter().sum();
                            hook.on_block(pc as u32, prefix, prefix_cost, 0, &self.fused_reads);
                            return Err(e);
                        }
                    };
                    // Re-index the entry (the table is immutable after
                    // load) instead of copying the block around the
                    // `&mut self` call above.
                    let b = &self.fused[pc];
                    self.stats
                        .record_block(len as u64, b.cycles, b.class_deltas());
                    if tail_extra > 0 {
                        // A taken `BCond` tail: charge the refill to the
                        // branch class, exactly as a single-stepped
                        // taken branch would.
                        self.stats.add_cycles(InstrClass::Branch.idx(), tail_extra);
                    }
                    self.fused_instructions += len as u64;
                    instructions += len as u64;
                    let costs = &self.block_costs[b.costs_at as usize..][..len];
                    hook.on_block(pc as u32, costs, b.cycles, tail_extra, &self.fused_reads);
                    cycles += b.cycles + tail_extra;
                    continue;
                }
            }
            hook.before_step(self.cpu.pc);
            let info = self.step()?;
            cycles += info.cycles;
            instructions += 1;
            match hook.on_step(self, &info) {
                ControlFlow::Continue(extra) => cycles += extra,
                ControlFlow::Break(kind) => {
                    return Ok(BulkRun {
                        cycles,
                        instructions,
                        stop: match kind {
                            HookBreak::Stop => StopReason::Hook,
                            HookBreak::Boundary => StopReason::Boundary,
                        },
                    })
                }
            }
        }
    }

    /// Closure-hook form of [`Core::run_steps_hooked`]: `hook` is called
    /// after every retired instruction with the core and the
    /// [`StepInfo`]; it returns `ControlFlow::Continue(extra_cycles)` to
    /// keep going (the extra cycles — e.g. checkpoint overhead charged
    /// by a substrate — count against `budget`), or
    /// `ControlFlow::Break(())` to stop. Closure hooks observe every
    /// instruction, so this path never fuses blocks.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from [`Core::step`]; the hook is not called for
    /// the faulting instruction.
    pub fn run_steps<F>(&mut self, budget: u64, hook: F) -> Result<BulkRun, SimError>
    where
        F: FnMut(&mut Core, &StepInfo) -> std::ops::ControlFlow<(), u64>,
    {
        self.run_steps_hooked(budget, &mut EveryStep(hook))
    }

    /// Runs until `HALT`. The budget is checked before each instruction,
    /// so the run may overshoot `max_cycles` by at most one instruction's
    /// cost (16 cycles for a full multiply) — instructions are atomic.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimit`] if the budget is exhausted first,
    /// or any execution error.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunOutcome, SimError> {
        let out = self.run_steps_hooked(max_cycles, &mut FreeRun)?;
        match out.stop {
            StopReason::Budget => Err(SimError::CycleLimit { limit: max_cycles }),
            StopReason::Halted | StopReason::Hook | StopReason::Boundary => Ok(RunOutcome {
                halted: true,
                cycles: out.cycles,
                instructions: out.instructions,
            }),
        }
    }

    /// Performs the store half of a memory instruction, capturing the
    /// overwritten value for checkpointing substrates.
    fn store(&mut self, rt: Reg, addr: u32, instr: &Instr) -> Result<MemAccess, SimError> {
        let value = self.cpu.reg(rt);
        let (prev, size) = match instr {
            Instr::Str { .. } | Instr::StrReg { .. } => {
                let prev = self.mem.load_u32(addr)?;
                self.mem.store_u32(addr, value)?;
                (prev, 4)
            }
            Instr::Strh { .. } | Instr::StrhReg { .. } => {
                let prev = self.mem.load_u16(addr)? as u32;
                self.mem.store_u16(addr, value as u16)?;
                (prev, 2)
            }
            Instr::Strb { .. } | Instr::StrbReg { .. } => {
                let prev = self.mem.load_u8(addr)? as u32;
                self.mem.store_u8(addr, value as u8)?;
                (prev, 1)
            }
            other => unreachable!("store() called for non-store {other}"),
        };
        Ok(MemAccess::write(addr, size, prev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_isa::asm::assemble;

    /// Reads the pc as a source inside what would otherwise be one
    /// straight-line block.
    const PC_READER: &str =
        "MOV r0, #0\nMOV r2, #1\nMOV r1, pc\nADD r3, r0, pc\nADD r4, r1, r3\nHALT";

    fn run_asm(src: &str) -> Core {
        let p = assemble(src).unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        core.run(1_000_000).unwrap();
        core
    }

    #[test]
    fn arithmetic_basics() {
        let core =
            run_asm("MOV r0, #10\nMOV r1, #3\nSUB r2, r0, r1\nADD r3, r2, #5\nRSB r4, r1\nHALT");
        assert_eq!(core.cpu.reg(Reg::R2), 7);
        assert_eq!(core.cpu.reg(Reg::R3), 12);
        assert_eq!(core.cpu.reg_i32(Reg::R4), -3);
    }

    #[test]
    fn logical_and_shifts() {
        let core = run_asm(
            "MOV r0, #0b1100\nMOV r1, #0b1010\nAND r2, r0, r1\nORR r3, r0, r1\nEOR r4, r0, r1\nBIC r5, r0, r1\nLSL r6, r0, #2\nLSR r7, r0, #2\nMOV r8, #-8\nASR r9, r8, #1\nHALT",
        );
        assert_eq!(core.cpu.reg(Reg::R2), 0b1000);
        assert_eq!(core.cpu.reg(Reg::R3), 0b1110);
        assert_eq!(core.cpu.reg(Reg::R4), 0b0110);
        assert_eq!(core.cpu.reg(Reg::R5), 0b0100);
        assert_eq!(core.cpu.reg(Reg::R6), 0b110000);
        assert_eq!(core.cpu.reg(Reg::R7), 0b11);
        assert_eq!(core.cpu.reg_i32(Reg::R9), -4);
    }

    #[test]
    fn loop_with_conditional_branch() {
        // Sum 1..=5.
        let core = run_asm(
            "MOV r0, #0\nMOV r1, #1\nloop:\nADD r0, r0, r1\nADD r1, r1, #1\nCMP r1, #6\nBLT loop\nHALT",
        );
        assert_eq!(core.cpu.reg(Reg::R0), 15);
    }

    #[test]
    fn signed_vs_unsigned_branches() {
        // -1 < 1 signed, but 0xFFFFFFFF > 1 unsigned.
        let core = run_asm(
            "MOV r0, #-1\nMOV r1, #1\nMOV r2, #0\nMOV r3, #0\nCMP r0, r1\nBGE skip1\nMOV r2, #1\nskip1:\nCMP r0, r1\nBLO skip2\nMOV r3, #1\nskip2:\nHALT",
        );
        assert_eq!(core.cpu.reg(Reg::R2), 1, "signed less-than taken");
        assert_eq!(core.cpu.reg(Reg::R3), 1, "unsigned not lower");
    }

    #[test]
    fn memory_round_trips() {
        let core = run_asm(
            ".data\nbuf: .space 16\n.text\nMOV r0, =buf\nMOV r1, #0x1234\nSTR r1, [r0, #0]\nSTRH r1, [r0, #4]\nSTRB r1, [r0, #6]\nLDR r2, [r0, #0]\nLDRH r3, [r0, #4]\nLDRB r4, [r0, #6]\nHALT",
        );
        assert_eq!(core.cpu.reg(Reg::R2), 0x1234);
        assert_eq!(core.cpu.reg(Reg::R3), 0x1234);
        assert_eq!(core.cpu.reg(Reg::R4), 0x34);
    }

    #[test]
    fn ldrsh_sign_extends() {
        let core = run_asm(
            ".data\nbuf: .half -5\n.text\nMOV r0, =buf\nMOV r1, #0\nLDRSH r2, [r0, r1]\nLDRH r3, [r0, r1]\nHALT",
        );
        assert_eq!(core.cpu.reg_i32(Reg::R2), -5);
        assert_eq!(core.cpu.reg(Reg::R3), 0xFFFB);
    }

    #[test]
    fn bl_and_bx_call_return() {
        let core =
            run_asm("MOV r0, #1\nBL func\nADD r0, r0, #10\nHALT\nfunc:\nADD r0, r0, #100\nBX lr");
        assert_eq!(core.cpu.reg(Reg::R0), 111);
    }

    #[test]
    fn mul_cycle_cost_is_iterative() {
        let mut core = {
            let p = assemble("MOV r0, #300\nMOV r1, #70\nMUL r2, r0, r1\nHALT").unwrap();
            Core::new(&p, CoreConfig::default()).unwrap()
        };
        core.run(100).unwrap();
        assert_eq!(core.cpu.reg(Reg::R2), 21000);
        // 1 + 1 + 16 + 1
        assert_eq!(core.stats.cycles, 19);
    }

    #[test]
    fn mul_asp_matches_listing_2_semantics() {
        // X += F * A via two 8-bit subword stages must equal F * A exactly.
        let f = 37u32;
        let a = 0xABCD_u32; // 16-bit operand
        let src = format!(
            "MOV r1, #{f}\nMOV r5, #0xAB\nMOV r6, #0xCD\nMOV r3, #0\n\
             MOV r4, r1\nMUL_ASP8 r4, r5, #8\nADD r3, r3, r4\n\
             MOV r4, r1\nMUL_ASP8 r4, r6, #0\nADD r3, r3, r4\nHALT"
        );
        let core = run_asm(&src);
        assert_eq!(core.cpu.reg(Reg::R3), f * a);
    }

    #[test]
    fn mul_asp_cycles() {
        let p = assemble("MOV r0, #9\nMOV r1, #5\nMUL_ASP4 r0, r1, #0\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        core.run(100).unwrap();
        assert_eq!(core.cpu.reg(Reg::R0), 45);
        // 1 + 1 + 4 + 1
        assert_eq!(core.stats.cycles, 7);
    }

    #[test]
    fn asv_add_does_not_cross_lanes() {
        let core = run_asm("MOV r0, #0x00FF00FF\nMOV r1, #0x00010001\nADD_ASV8 r2, r0, r1\nHALT");
        assert_eq!(core.cpu.reg(Reg::R2), 0x0000_0000);
    }

    #[test]
    fn skm_sets_nonvolatile_register() {
        let core = run_asm("SKM end\nMOV r0, #1\nend:\nHALT");
        let end = core.program().code_symbol("end").unwrap();
        assert_eq!(core.cpu.skm, Some(end));
        assert_eq!(core.cpu.reg(Reg::R0), 1, "SKM does not branch by itself");
    }

    #[test]
    fn memoization_reduces_mul_cycles() {
        let p = assemble("MOV r0, #6\nMOV r1, #7\nMUL r2, r0, r1\nMUL r3, r0, r1\nHALT").unwrap();
        let cfg = CoreConfig {
            memo: Some(MemoConfig::default()),
            ..CoreConfig::default()
        };
        let mut core = Core::new(&p, cfg).unwrap();
        core.run(100).unwrap();
        assert_eq!(core.cpu.reg(Reg::R2), 42);
        assert_eq!(core.cpu.reg(Reg::R3), 42);
        // 1 + 1 + 16 (miss) + 1 (hit) + 1
        assert_eq!(core.stats.cycles, 20);
        let memo = core.memo.as_ref().unwrap();
        assert_eq!(memo.stats.hits, 1);
        assert_eq!(memo.stats.misses, 1);
    }

    #[test]
    fn zero_skipping_single_cycle() {
        let p = assemble("MOV r0, #0\nMOV r1, #7\nMUL r2, r0, r1\nHALT").unwrap();
        let cfg = CoreConfig {
            memo: Some(MemoConfig::default()),
            ..CoreConfig::default()
        };
        let mut core = Core::new(&p, cfg).unwrap();
        core.run(100).unwrap();
        assert_eq!(core.cpu.reg(Reg::R2), 0);
        // 1 + 1 + 1 (zero skip) + 1
        assert_eq!(core.stats.cycles, 4);
        assert_eq!(core.memo.as_ref().unwrap().stats.zero_skips, 1);
    }

    #[test]
    fn branch_cycle_accounting() {
        // Not-taken conditional branch costs 1; taken costs 2.
        let p = assemble("MOV r0, #0\nCMP r0, #0\nBNE end\nBEQ end\nend:\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        core.run(100).unwrap();
        // MOV(1) + CMP(1) + BNE not taken(1) + BEQ taken(2) + HALT(1)
        assert_eq!(core.stats.cycles, 6);
    }

    #[test]
    fn run_reports_cycle_limit() {
        let p = assemble("loop:\nB loop").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        assert_eq!(core.run(10), Err(SimError::CycleLimit { limit: 10 }));
        assert!(!core.is_halted());
    }

    #[test]
    fn step_after_halt_is_noop() {
        let p = assemble("HALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        core.run(10).unwrap();
        let info = core.step().unwrap();
        assert_eq!(info.event, StepEvent::Halted);
        assert_eq!(info.cycles, 0);
    }

    #[test]
    fn memory_fault_surfaces() {
        let p = assemble("MOV r0, #2\nLDR r1, [r0, #0]\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        assert!(matches!(core.run(100), Err(SimError::Unaligned { .. })));
    }

    #[test]
    fn step_reports_accesses() {
        let p = assemble(
            ".data\nb: .space 8\n.text\nMOV r0, =b\nSTR r0, [r0, #0]\nLDR r1, [r0, #0]\nHALT",
        )
        .unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        core.step().unwrap();
        let w = core.step().unwrap();
        assert_eq!(w.access, Some(MemAccess::write(0, 4, 0)));
        let r = core.step().unwrap();
        assert_eq!(r.access, Some(MemAccess::read(0, 4)));
    }

    #[test]
    fn mov_to_pc_redirects_control_flow() {
        // Writing PC with a data-processing instruction is a branch.
        let core = run_asm("MOV r0, #4\nMOV pc, r0\nMOV r1, #1\nMOV r2, #2\nHALT\nHALT");
        assert_eq!(core.cpu.reg(Reg::R1), 0, "skipped by the PC write");
        assert_eq!(core.cpu.reg(Reg::R2), 0, "skipped by the PC write");
    }

    #[test]
    fn run_steps_halts_with_exact_accounting() {
        let p = assemble("MOV r0, #6\nMOV r1, #7\nMUL r2, r0, r1\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let out = core
            .run_steps(1_000, |_, _| std::ops::ControlFlow::Continue(0))
            .unwrap();
        assert_eq!(out.stop, StopReason::Halted);
        assert_eq!(out.instructions, 4);
        assert_eq!(out.cycles, 19); // 1 + 1 + 16 + 1
        assert!(core.is_halted());
        // A further call is a no-op returning Halted immediately.
        let again = core
            .run_steps(1_000, |_, _| std::ops::ControlFlow::Continue(0))
            .unwrap();
        assert_eq!(again.stop, StopReason::Halted);
        assert_eq!(again.instructions, 0);
    }

    #[test]
    fn run_steps_budget_checked_before_step() {
        let p = assemble("loop:\nB loop").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let out = core
            .run_steps(10, |_, _| std::ops::ControlFlow::Continue(0))
            .unwrap();
        assert_eq!(out.stop, StopReason::Budget);
        // Taken branch costs 2: 5 fit under the budget of 10 exactly,
        // and the pre-step check stops the sixth.
        assert_eq!(out.cycles, 10);
        assert_eq!(out.instructions, 5);
        // Zero budget retires nothing.
        let none = core
            .run_steps(0, |_, _| std::ops::ControlFlow::Continue(0))
            .unwrap();
        assert_eq!(none.stop, StopReason::Budget);
        assert_eq!(none.instructions, 0);
    }

    #[test]
    fn run_steps_hook_extra_cycles_count_against_budget() {
        let p = assemble("loop:\nB loop").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        // Each branch costs 2, hook charges 3 more: 5 per instruction.
        let out = core
            .run_steps(10, |_, _| std::ops::ControlFlow::Continue(3))
            .unwrap();
        assert_eq!(out.stop, StopReason::Budget);
        assert_eq!(out.instructions, 2);
        assert_eq!(out.cycles, 10);
    }

    #[test]
    fn run_steps_hook_break_stops_the_loop() {
        let p = assemble("SKM end\nMOV r0, #1\nend:\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let out = core
            .run_steps(1_000, |_, info| match info.event {
                StepEvent::SkimSet(_) => std::ops::ControlFlow::Break(()),
                _ => std::ops::ControlFlow::Continue(0),
            })
            .unwrap();
        assert_eq!(out.stop, StopReason::Hook);
        assert_eq!(out.instructions, 1);
        assert!(!core.is_halted());
        assert!(core.cpu.skm.is_some());
    }

    #[test]
    fn run_steps_surfaces_step_errors() {
        let p = assemble("MOV r0, #2\nLDR r1, [r0, #0]\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let res = core.run_steps(1_000, |_, _| std::ops::ControlFlow::Continue(0));
        assert!(matches!(res, Err(SimError::Unaligned { .. })));
    }

    #[test]
    fn sub_asv_lanes() {
        let core = run_asm("MOV r0, #0x01000100\nMOV r1, #0x00010001\nSUB_ASV16 r2, r0, r1\nHALT");
        assert_eq!(core.cpu.reg(Reg::R2), 0x00FF_00FF);
    }

    #[test]
    fn fused_blocks_are_tail_runs() {
        // MOV, MOV, ADD, B: three ALU ops closed by a branch tail. The
        // block table is a backward scan, so pc 0 sees len 4 (branch
        // included), pc 1 len 3, …, the branch alone len 1, and the
        // HALT (a true terminator) len 0.
        let p = assemble("MOV r0, #1\nMOV r1, #2\nADD r2, r0, r1\nB out\nout:\nHALT").unwrap();
        let core = Core::new(&p, CoreConfig::default()).unwrap();
        let lens: Vec<u32> = core.fused.iter().map(|b| b.len).collect();
        assert_eq!(lens, vec![4, 3, 2, 1, 0]);
        assert!(core.fused[0].has_tail);
        let m = CoreConfig::default().cycle_model;
        assert_eq!(core.fused[0].cycles, 3 + m.branch_taken);
        let deltas = core.fused[0].class_deltas();
        assert_eq!(deltas.len(), 2, "ALU interior plus the branch tail");
        assert_eq!(deltas[0].idx as usize, InstrClass::Branch.idx());
        assert_eq!(deltas[0].count, 1);
        assert_eq!(deltas[1].idx as usize, InstrClass::Alu.idx());
        assert_eq!(deltas[1].count, 3);
        assert_eq!(deltas[1].cycles, 3);
    }

    #[test]
    fn memo_unit_demotes_multiplies_to_terminators() {
        let src = "MOV r0, #6\nMUL r1, r0, r0\nMOV r2, #1\nHALT";
        let p = assemble(src).unwrap();
        let without = Core::new(&p, CoreConfig::default()).unwrap();
        // Memo off: the multiply's cost is static, so it fuses.
        assert_eq!(without.fused[0].len, 3);
        let with = Core::new(
            &p,
            CoreConfig {
                memo: Some(MemoConfig::default()),
                ..CoreConfig::default()
            },
        )
        .unwrap();
        // Memo on: cost depends on runtime operands — must single-step.
        assert_eq!(with.fused[0].len, 1);
        assert_eq!(with.fused[1].len, 0);
    }

    #[test]
    fn pc_writes_terminate_blocks() {
        let p = assemble("MOV r0, #4\nMOV pc, r0\nMOV r1, #1\nMOV r2, #2\nHALT\nHALT").unwrap();
        let core = Core::new(&p, CoreConfig::default()).unwrap();
        assert_eq!(core.fused[0].len, 1, "block ends before the PC write");
        assert_eq!(core.fused[1].len, 0, "PC write is a terminator");
    }

    #[test]
    fn fused_run_matches_per_instruction_run() {
        // Straight-line + loop mix: run once fused (run -> FreeRun) and
        // once per-instruction (closure hook), compare all state.
        let src = "MOV r0, #0\nMOV r1, #1\nloop:\nADD r0, r0, r1\nADD r1, r1, #1\n\
                   AND r4, r0, r1\nEOR r5, r4, r0\nCMP r1, #20\nBLT loop\nHALT";
        let p = assemble(src).unwrap();
        let mut fused = Core::new(&p, CoreConfig::default()).unwrap();
        let mut stepped = Core::new(&p, CoreConfig::default()).unwrap();
        let out_f = fused.run(1_000_000).unwrap();
        let out_s = stepped
            .run_steps(1_000_000, |_, _| std::ops::ControlFlow::Continue(0))
            .unwrap();
        assert_eq!(out_f.cycles, out_s.cycles);
        assert_eq!(out_f.instructions, out_s.instructions);
        assert_eq!(fused.stats, stepped.stats);
        assert_eq!(fused.cpu.snapshot(), stepped.cpu.snapshot());
        assert!(fused.fused_instructions() > 0, "fast path exercised");
        assert_eq!(stepped.fused_instructions(), 0, "closure hooks never fuse");
    }

    /// Runs `src` once fused ([`Core::run`]) and once per instruction,
    /// asserts identical architectural state, stats and cycles, and
    /// returns the fused core.
    fn fused_equals_stepped(src: &str) -> Core {
        let p = assemble(src).unwrap();
        let mut fused = Core::new(&p, CoreConfig::default()).unwrap();
        let mut stepped = Core::new(&p, CoreConfig::default()).unwrap();
        let out_f = fused.run(1_000_000);
        let out_s = stepped.run_steps(1_000_000, |_, _| ControlFlow::Continue(0));
        assert_eq!(out_f.is_ok(), out_s.is_ok(), "{out_f:?} vs {out_s:?}");
        if let (Ok(f), Ok(s)) = (out_f, out_s) {
            assert_eq!((f.cycles, f.instructions), (s.cycles, s.instructions));
        }
        assert_eq!(fused.cpu, stepped.cpu);
        assert_eq!(fused.stats, stepped.stats);
        assert_eq!(fused.mem, stepped.mem);
        fused
    }

    #[test]
    fn pc_reads_see_the_current_pc_when_fused() {
        let core = fused_equals_stepped(PC_READER);
        assert_eq!(core.cpu.reg(Reg::R1), 2, "MOV r1, pc at pc 2");
        assert_eq!(core.cpu.reg(Reg::R3), 3, "ADD r3, r0, pc at pc 3");
        // The pc readers single-step; the rest still fuses.
        assert_eq!(core.fused[0].len, 2);
        assert_eq!((core.fused[2].len, core.fused[3].len), (0, 0));
        assert!(core.fused_instructions() > 0);
    }

    #[test]
    fn bx_pc_is_not_a_fused_tail() {
        // `BX pc` takes its own pc as the jump target, so it cannot be
        // a fused tail: it single-steps.
        let p = assemble("MOV r0, #1\nBX lr\nBX pc\nHALT").unwrap();
        let core = Core::new(&p, CoreConfig::default()).unwrap();
        assert_eq!(core.fused[0].len, 2, "BX lr is a tail");
        assert_eq!(core.fused[2].len, 0, "BX pc single-steps");
    }

    #[test]
    fn head_tested_loops_chain_through_their_back_edge() {
        // The compiler's loop shape: exit test at the head, `B head` at
        // the bottom. The body block continues through the `B` into the
        // head block, so one dispatch retires a whole iteration.
        let src = "MOV r0, #0\nMOV r1, #0\nloop:\nCMP r1, #50\nBGE done\n\
                   ADD r0, r0, r1\nADD r1, r1, #1\nB loop\ndone:\nHALT";
        let core = fused_equals_stepped(src);
        assert_eq!(core.cpu.reg(Reg::R0), (0..50).sum::<u32>());
        let body = &core.fused[4];
        assert_eq!((body.len, body.seg_len, body.target), (5, 3, 2));
        let m = CoreConfig::default().cycle_model;
        assert_eq!(
            (body.cycles, body.tail_extra_max),
            (4 + m.branch_taken, m.branch_taken - m.branch_not_taken)
        );
        assert_eq!(core.admit_block(4, u64::MAX, &FreeRun), Some(5));
        let branches = body
            .class_deltas()
            .iter()
            .find(|c| c.idx as usize == InstrClass::Branch.idx())
            .unwrap();
        assert_eq!(branches.count, 2, "the B and the BGE merge");
        // The arena holds the chained costs in retirement order.
        let costs = &core.block_costs[body.costs_at as usize..][..5];
        assert_eq!(costs, &[1, 1, m.branch_taken, 1, m.branch_not_taken]);
    }

    #[test]
    fn block_extents_cover_retired_pcs_and_exits() {
        let extent = |src: &str, pc: usize| {
            let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
            let b = core.fused[pc];
            assert!(b.len > 0, "pc {pc} starts a block");
            (b.lo, b.hi)
        };
        // Chained `B`: the body (pcs 4..=6) continues into the head
        // (2..=3), whose `BGE` leaves to `done` (7) or falls through (4).
        let chained = "MOV r0, #0\nMOV r1, #0\nloop:\nCMP r1, #50\nBGE done\n\
                       ADD r0, r0, r1\nADD r1, r1, #1\nB loop\ndone:\nHALT";
        assert_eq!(extent(chained, 4), (2, 7));
        // `BCond` tail: a backward target (1) and the fall-through (4).
        let bcond = "MOV r0, #0\nloop:\nADD r0, r0, #1\nCMP r0, #5\nBLT loop\nHALT";
        assert_eq!(extent(bcond, 1), (1, 4));
        assert_eq!(extent(bcond, 0), (0, 4));
        // `BL` tail: its target only — the return is a later block's.
        let bl = "MOV r0, #1\nBL f\nHALT\nf:\nADD r0, r0, #1\nBX lr";
        assert_eq!(extent(bl, 0), (0, 3));
        // Indirect `BX`: it can leave anywhere.
        assert_eq!(extent(bl, 3), (0, u32::MAX));
        // No tail: the block ends before a store, which it can leave to.
        let store = ".data\nx: .space 4\n.text\nMOV r0, =x\nMOV r1, #1\nSTR r1, [r0, #0]\nHALT";
        assert_eq!(extent(store, 0), (0, 2));
        // A forward chain skips a pc that still lies inside the hull.
        let forward = "MOV r0, #1\nB next\nMOV r5, #9\nnext:\nADD r1, r1, #1\nHALT";
        assert_eq!(extent(forward, 0), (0, 4));
    }

    /// A [`FreeRun`] that admits only blocks inside `fence` and counts
    /// its fused dispatches.
    struct Fenced {
        fence: (u32, u32),
        blocks: u64,
    }

    impl StepHook for Fenced {
        const KIND: HookKind = HookKind::MemoryOps;
        fn on_step(&mut self, _c: &mut Core, _i: &StepInfo) -> ControlFlow<HookBreak, u64> {
            ControlFlow::Continue(0)
        }
        fn block_budget(&self) -> u64 {
            u64::MAX
        }
        fn block_fence(&self) -> (u32, u32) {
            self.fence
        }
        fn on_block(&mut self, _pc: u32, _costs: &[u64], _cycles: u64, _tail: u64, _reads: &[u32]) {
            self.blocks += 1;
        }
    }

    #[test]
    fn fenced_runs_retire_exactly_what_unfenced_runs_do() {
        // A head-tested loop (pcs 2..=7, leaving to 8) between
        // straight-line code, a call and a store.
        let src = ".data\nx: .space 4\n.text\nMOV r0, #0\nMOV r1, #0\nloop:\nCMP r1, #40\n\
                   BGE done\nADD r0, r0, r1\nADD r1, r1, #1\nEOR r2, r0, r1\nB loop\n\
                   done:\nBL f\nMOV r3, =x\nSTR r0, [r3, #0]\nHALT\nf:\nADD r0, r0, #1\nBX lr";
        let p = assemble(src).unwrap();
        let mut free = Core::new(&p, CoreConfig::default()).unwrap();
        let free_out = free.run(1_000_000).unwrap();
        for fence in [(2, 8), (2, 7), (4, 9), (0, 13), (1, 0)] {
            let mut core = Core::new(&p, CoreConfig::default()).unwrap();
            let mut hook = Fenced { fence, blocks: 0 };
            // Admission: exactly the blocks whose extent the fence holds.
            for pc in 0..p.instrs.len() as u32 {
                let b = core.fused[pc as usize];
                let inside = b.len > 0 && b.lo >= fence.0 && b.hi <= fence.1;
                let admitted = core.admit_block(pc, u64::MAX, &hook);
                assert_eq!(admitted.is_some(), inside, "fence {fence:?}, pc {pc}");
            }
            let out = core.run_steps_hooked(1_000_000, &mut hook).unwrap();
            assert_eq!(out.stop, StopReason::Halted);
            assert_eq!(
                (out.cycles, out.instructions),
                (free_out.cycles, free_out.instructions),
                "fence {fence:?}"
            );
            assert_eq!(core.stats, free.stats, "fence {fence:?}");
            assert_eq!(core.cpu, free.cpu, "fence {fence:?}");
            assert_eq!(core.mem, free.mem, "fence {fence:?}");
            assert!(core.fused_instructions() <= free.fused_instructions());
            if fence == (2, 8) {
                // The loop's blocks fit; everything else single-steps.
                assert!(core.fused_instructions() > 0);
                assert!(core.fused_instructions() < free.fused_instructions());
            }
            if fence == (1, 0) {
                assert_eq!(hook.blocks, 0, "an empty fence admits nothing");
            }
        }
        // The indirect `BX` tail (the block at `f`) needs the whole
        // address space.
        let core = Core::new(&p, CoreConfig::default()).unwrap();
        let narrow = Fenced {
            fence: (0, u32::MAX - 1),
            blocks: 0,
        };
        assert_eq!(core.admit_block(12, u64::MAX, &narrow), None);
        assert_eq!(core.admit_block(12, u64::MAX, &FreeRun), Some(2));
    }

    #[test]
    fn self_loops_chain_one_hop() {
        let p = assemble("loop:\nADD r0, r0, #1\nB loop").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        assert_eq!(core.fused[0].len, 4, "one hop: two iterations");
        assert_eq!(core.run(40), Err(SimError::CycleLimit { limit: 40 }));
        let mut stepped = Core::new(&p, CoreConfig::default()).unwrap();
        stepped
            .run_steps(40, |_, _| ControlFlow::Continue(0))
            .unwrap();
        assert_eq!(core.cpu, stepped.cpu);
        assert_eq!(core.stats, stepped.stats);
    }

    #[test]
    fn faulting_load_in_a_chained_segment_stops_at_its_pc() {
        // The second segment starts at `next`, not at pc 2: a fault at
        // block offset 3 must leave the PC on the load (pc 4) and record
        // the MOV, the B and the ADD — not the skipped MOV r5.
        struct Prefix(Vec<u64>);
        impl StepHook for Prefix {
            const KIND: HookKind = HookKind::MemoryOps;
            fn on_step(&mut self, _c: &mut Core, _i: &StepInfo) -> ControlFlow<HookBreak, u64> {
                ControlFlow::Continue(0)
            }
            fn block_budget(&self) -> u64 {
                u64::MAX
            }
            fn on_block(&mut self, _pc: u32, costs: &[u64], cycles: u64, _t: u64, _r: &[u32]) {
                assert_eq!(costs.iter().sum::<u64>(), cycles);
                self.0.extend_from_slice(costs);
            }
        }
        let src = "MOV r0, #2\nB next\nMOV r5, #9\nnext:\nADD r1, r1, #1\nLDR r2, [r0, #0]\nHALT";
        let core = fused_equals_stepped(src);
        assert_eq!(core.cpu.pc, 4);
        assert_eq!(core.stats.instructions, 3);
        let p = assemble(src).unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut hook = Prefix(Vec::new());
        let res = core.run_steps_hooked(1_000, &mut hook);
        assert!(matches!(res, Err(SimError::Unaligned { .. })));
        let m = CoreConfig::default().cycle_model;
        assert_eq!(hook.0, vec![1, m.branch_taken, 1]);
    }

    #[test]
    fn fused_budget_is_never_overshot_beyond_one_instruction() {
        // 4-instruction straight-line block of cost 4; budget 2 cannot
        // admit it, so the engine single-steps and stops exactly like
        // the per-instruction loop.
        let p = assemble("MOV r0, #1\nMOV r1, #2\nMOV r2, #3\nMOV r3, #4\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let out = core.run_steps_hooked(2, &mut FreeRun).unwrap();
        assert_eq!(out.stop, StopReason::Budget);
        assert_eq!(out.instructions, 2);
        assert_eq!(out.cycles, 2);
        assert_eq!(core.fused_instructions(), 0, "partial blocks single-step");
    }

    #[test]
    fn block_budget_forces_single_stepping() {
        // A hook whose block_budget is 0 (the default) never fuses even
        // at MemoryOps granularity — e.g. a substrate at its watchdog
        // horizon.
        struct NoRoom;
        impl StepHook for NoRoom {
            const KIND: HookKind = HookKind::MemoryOps;
            fn on_step(&mut self, _c: &mut Core, _i: &StepInfo) -> ControlFlow<HookBreak, u64> {
                ControlFlow::Continue(0)
            }
        }
        let p = assemble("MOV r0, #1\nMOV r1, #2\nMOV r2, #3\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let out = core.run_steps_hooked(1_000, &mut NoRoom).unwrap();
        assert_eq!(out.stop, StopReason::Halted);
        assert_eq!(core.fused_instructions(), 0);
        assert_eq!(out.cycles, 4);
    }

    /// Runs `src` with `config` once per instruction (an `EveryStep`
    /// closure hook) and once free-running ([`FreeRun`], which fuses),
    /// asserts the whole `Cpu`, the `ExecStats` and the memo counters
    /// agree, and returns the fused core.
    fn stepped_equals_fused(src: &str, config: CoreConfig) -> Core {
        let p = assemble(src).unwrap();
        let mut stepped = Core::new(&p, config).unwrap();
        let mut fused = Core::new(&p, config).unwrap();
        let out_s = stepped
            .run_steps(1_000, |_, _| ControlFlow::Continue(0))
            .unwrap();
        let out_f = fused.run_steps_hooked(1_000, &mut FreeRun).unwrap();
        assert_eq!(out_s, out_f, "{src}");
        assert_eq!(stepped.cpu, fused.cpu, "{src}");
        assert_eq!(stepped.stats, fused.stats, "{src}");
        let memo_stats = |c: &Core| c.memo.as_ref().map(|m| m.stats);
        assert_eq!(memo_stats(&stepped), memo_stats(&fused), "{src}");
        assert!(fused.fused_instructions() > 0, "{src}: nothing fused");
        fused
    }

    #[test]
    fn every_data_path_instruction_retires_the_same_stepped_and_fused() {
        // Each case runs at pc 8, after the setup, inside one
        // straight-line block that ends at the HALT.
        const SETUP: &str = ".data\nbuf: .word 0x87654321\n.half -5\n.byte 200\n.text\n\
                             MOV r0, =buf\nMOV r1, #0x80000007\nMOV r2, #59\n\
                             MOV r3, #0x00FF00F0\nMOV r4, #4\nMOV r5, #6\n\
                             MOV r6, #0x12345678\nMOV r7, #0\n";
        const FLAGS: usize = wn_isa::NUM_REGS + 1; // NZCV, packed N<<3|Z<<2|C<<1|V
        let r6 = Reg::R6.index();
        let cases: [(&str, usize, u32); 35] = [
            ("MOV r6, #-3", r6, 0xFFFF_FFFD),
            ("MOV r6, r1", r6, 0x8000_0007),
            ("MVN r6, r3", r6, 0xFF00_FF0F),
            ("ADD r6, r1, r3", r6, 0x80FF_00F7),
            ("ADD r6, r1, #-8", r6, 0x7FFF_FFFF),
            ("SUB r6, r7, r2", r6, 0xFFFF_FFC5),
            ("SUB r6, r2, #64", r6, 0xFFFF_FFFB),
            ("RSB r6, r2", r6, 0xFFFF_FFC5),
            ("MUL r6, r1, r5", r6, 0x0000_002A),
            ("MUL_ASP8 r6, r2, r3, #8", r6, 59 * 0xF000),
            ("ADD_ASV8 r6, r3, r3", r6, 0x00FE_00E0),
            ("SUB_ASV16 r6, r7, r3", r6, 0xFF01_FF10),
            ("AND r6, r6, r3", r6, 0x0034_0070),
            ("ORR r6, r1, r3", r6, 0x80FF_00F7),
            ("EOR r6, r6, r3", r6, 0x12CB_5688),
            ("BIC r6, r6, r3", r6, 0x1200_5608),
            ("AND r6, r6, #0xFF", r6, 0x78),
            ("LSL r6, r1, #4", r6, 0x0000_0070),
            ("LSR r6, r1, #4", r6, 0x0800_0000),
            ("ASR r6, r1, #4", r6, 0xF800_0000),
            // Register shifts use the low five bits: 59 shifts by 27.
            ("LSL r6, r6, r2", r6, 0xC000_0000),
            ("LSR r6, r1, r2", r6, 0x10),
            ("ASR r6, r1, r2", r6, 0xFFFF_FFF0),
            ("CMP r7, r2", FLAGS, 0b1000),
            ("CMP r1, r6", FLAGS, 0b0011),
            ("CMP r2, #59", FLAGS, 0b0110),
            ("TST r1, r3", FLAGS, 0b0100),
            ("NOP", r6, 0x1234_5678),
            ("LDR r6, [r0, #0]", r6, 0x8765_4321),
            ("LDR r6, [r0, r7]", r6, 0x8765_4321),
            ("LDRH r6, [r0, #4]", r6, 0xFFFB),
            ("LDRH r6, [r0, r4]", r6, 0xFFFB),
            ("LDRSH r6, [r0, r4]", r6, 0xFFFF_FFFB),
            ("LDRB r6, [r0, #6]", r6, 200),
            ("LDRB r6, [r0, r5]", r6, 200),
        ];
        let mut variants = std::collections::HashSet::new();
        for (case, word, want) in cases {
            let src = format!("{SETUP}{case}\nHALT");
            let core = stepped_equals_fused(&src, CoreConfig::default());
            let instr = core.program().instrs[8];
            assert!(!ends_block(&instr, false), "{case} is not block-interior");
            variants.insert(std::mem::discriminant(&instr));
            assert_eq!(core.fused[0].len, 9, "{case}: one block up to the HALT");
            assert_eq!(core.fused_instructions(), 9, "{case}");
            assert_eq!(core.cpu.snapshot().word(word), want, "{case}");
        }
        // Every `Instr` but the six stores, four branches, `SKM` and
        // `HALT`.
        assert_eq!(variants.len(), 34, "every data-path variant is covered");
    }

    #[test]
    fn memoized_multiplies_single_step_at_their_memo_cost() {
        // The MUL misses (full cost) and fills the table; the second MUL
        // and the MUL_ASP (same operands: 6 × (7 & 0xFF)) hit it.
        let src = "MOV r1, #6\nMOV r2, #7\nMUL r6, r1, r2\nMUL r7, r1, r2\n\
                   MUL_ASP8 r8, r1, r2, #0\nHALT";
        let config = CoreConfig {
            memo: Some(MemoConfig::default()),
            ..CoreConfig::default()
        };
        let core = stepped_equals_fused(src, config);
        let m = config.cycle_model;
        assert_eq!(core.fused[0].len, 2, "the block ends at the first MUL");
        assert!(
            (2..5).all(|pc| core.fused[pc].len == 0),
            "multiplies single-step"
        );
        assert_eq!(core.fused_instructions(), 2);
        assert_eq!(core.stats.cycles_of(InstrClass::Mul), m.mul + m.memo_hit);
        assert_eq!(core.stats.cycles_of(InstrClass::MulAsp), m.memo_hit);
        assert_eq!((core.cpu.reg(Reg::R6), core.cpu.reg(Reg::R7)), (42, 42));
        assert_eq!(core.cpu.reg(Reg::R8), 42);
        let memo = core.memo.as_ref().unwrap().stats;
        assert_eq!((memo.hits, memo.misses), (2, 1));
    }
}
