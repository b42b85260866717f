//! Architectural CPU state: register file, flags, and the non-volatile
//! SKM register.

use wn_isa::cond::Flags;
use wn_isa::Reg;

/// The architectural register state of the simulated core.
///
/// The register file and flags are *volatile* on a checkpoint-based
/// processor (lost at a power outage unless checkpointed) and effectively
/// non-volatile on an NVP (backed up every cycle). The **SKM register** is
/// always non-volatile — it is the dedicated register that the `SKM`
/// instruction writes (paper §III-C) and survives outages on both
/// substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    regs: [u32; wn_isa::NUM_REGS],
    /// Condition flags (NZCV).
    pub flags: Flags,
    /// Program counter as an instruction index.
    pub pc: u32,
    /// Set once the core executes `HALT`.
    pub halted: bool,
    /// The non-volatile skim register: the restore target recorded by the
    /// most recent `SKM` instruction, if any.
    pub skm: Option<u32>,
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates a zeroed CPU with the PC at instruction 0.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; wn_isa::NUM_REGS],
            flags: Flags::default(),
            pc: 0,
            halted: false,
            skm: None,
        }
    }

    /// Reads a register. Reading [`Reg::PC`] returns the current PC.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        if r == Reg::PC {
            self.pc
        } else {
            self.regs[r.index()]
        }
    }

    /// Reads a register as a signed value.
    #[inline]
    pub fn reg_i32(&self, r: Reg) -> i32 {
        self.reg(r) as i32
    }

    /// Writes a register. Writing [`Reg::PC`] redirects control flow.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r == Reg::PC {
            self.pc = value;
        } else {
            self.regs[r.index()] = value;
        }
    }

    /// Reads a register that is not [`Reg::PC`], straight from the
    /// register file. The fused-block engine's interior instructions
    /// neither read nor write the PC, so they skip [`Cpu::reg`]'s check.
    #[inline]
    pub(crate) fn gpr(&self, r: Reg) -> u32 {
        debug_assert!(r != Reg::PC, "gpr() read of the pc");
        self.regs[r.index()]
    }

    /// Writes a register that is not [`Reg::PC`]; see [`Cpu::gpr`].
    #[inline]
    pub(crate) fn set_gpr(&mut self, r: Reg, value: u32) {
        debug_assert!(r != Reg::PC, "set_gpr() write of the pc");
        self.regs[r.index()] = value;
    }

    /// Snapshot of the volatile state (registers, flags, PC) for
    /// checkpointing. The SKM register is deliberately *not* included: it
    /// lives in non-volatile storage.
    pub fn snapshot(&self) -> CpuSnapshot {
        CpuSnapshot {
            regs: self.regs,
            flags: self.flags,
            pc: self.pc,
        }
    }

    /// Restores volatile state from a checkpoint snapshot.
    pub fn restore(&mut self, snap: &CpuSnapshot) {
        self.regs = snap.regs;
        self.flags = snap.flags;
        self.pc = snap.pc;
        self.halted = false;
    }

    /// Models loss of power: volatile state is cleared, the non-volatile
    /// SKM register survives.
    pub fn power_loss(&mut self) {
        let skm = self.skm;
        *self = Cpu::new();
        self.skm = skm;
    }
}

/// A checkpointed copy of the CPU's volatile state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSnapshot {
    regs: [u32; wn_isa::NUM_REGS],
    flags: Flags,
    /// The checkpointed program counter.
    pub pc: u32,
}

impl CpuSnapshot {
    /// Machine words a full snapshot occupies: the register file plus
    /// one word for the PC and one for the packed NZCV flags. This is
    /// the unit differential checkpoints count dirty state in.
    pub const WORDS: usize = wn_isa::NUM_REGS + 2;

    /// Reads word `idx` of the snapshot's flat word image: registers
    /// first, then the PC, then the flags packed as `N<<3|Z<<2|C<<1|V`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= Self::WORDS`.
    pub fn word(&self, idx: usize) -> u32 {
        if idx < wn_isa::NUM_REGS {
            self.regs[idx]
        } else if idx == wn_isa::NUM_REGS {
            self.pc
        } else if idx == wn_isa::NUM_REGS + 1 {
            (self.flags.n as u32) << 3
                | (self.flags.z as u32) << 2
                | (self.flags.c as u32) << 1
                | (self.flags.v as u32)
        } else {
            panic!("snapshot word index {idx} out of range");
        }
    }

    /// Writes word `idx` of the flat word image (see
    /// [`CpuSnapshot::word`] for the layout).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= Self::WORDS`.
    pub fn set_word(&mut self, idx: usize, value: u32) {
        if idx < wn_isa::NUM_REGS {
            self.regs[idx] = value;
        } else if idx == wn_isa::NUM_REGS {
            self.pc = value;
        } else if idx == wn_isa::NUM_REGS + 1 {
            self.flags.n = value & 0b1000 != 0;
            self.flags.z = value & 0b0100 != 0;
            self.flags.c = value & 0b0010 != 0;
            self.flags.v = value & 0b0001 != 0;
        } else {
            panic!("snapshot word index {idx} out of range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_aliases_r15() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::PC, 7);
        assert_eq!(cpu.pc, 7);
        assert_eq!(cpu.reg(Reg::PC), 7);
        cpu.pc = 9;
        assert_eq!(cpu.reg(Reg::PC), 9);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::R3, 42);
        cpu.pc = 10;
        cpu.flags.z = true;
        let snap = cpu.snapshot();

        cpu.set_reg(Reg::R3, 0);
        cpu.pc = 99;
        cpu.flags.z = false;
        cpu.halted = true;

        cpu.restore(&snap);
        assert_eq!(cpu.reg(Reg::R3), 42);
        assert_eq!(cpu.pc, 10);
        assert!(cpu.flags.z);
        assert!(!cpu.halted, "restore clears the halted latch");
    }

    #[test]
    fn skm_register_survives_power_loss() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::R1, 5);
        cpu.skm = Some(33);
        cpu.power_loss();
        assert_eq!(cpu.reg(Reg::R1), 0, "volatile registers cleared");
        assert_eq!(cpu.skm, Some(33), "SKM register is non-volatile");
    }

    #[test]
    fn snapshot_excludes_skm() {
        let mut cpu = Cpu::new();
        cpu.skm = Some(1);
        let snap = cpu.snapshot();
        cpu.skm = Some(2);
        cpu.restore(&snap);
        assert_eq!(
            cpu.skm,
            Some(2),
            "restore must not clobber the NV skim register"
        );
    }

    #[test]
    fn signed_read() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::R0, (-5i32) as u32);
        assert_eq!(cpu.reg_i32(Reg::R0), -5);
    }

    #[test]
    fn snapshot_word_image_roundtrips() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::R0, 0xDEAD_BEEF);
        cpu.set_reg(Reg::R7, 7);
        cpu.pc = 123;
        cpu.flags.n = true;
        cpu.flags.c = true;
        let snap = cpu.snapshot();

        // Rebuild a snapshot word-by-word and compare for equality.
        let mut rebuilt = Cpu::new().snapshot();
        for i in 0..CpuSnapshot::WORDS {
            rebuilt.set_word(i, snap.word(i));
        }
        assert_eq!(rebuilt, snap);
        assert_eq!(rebuilt.word(wn_isa::NUM_REGS), 123);
        assert_eq!(rebuilt.word(wn_isa::NUM_REGS + 1), 0b1010);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn snapshot_word_index_out_of_range_panics() {
        let snap = Cpu::new().snapshot();
        snap.word(CpuSnapshot::WORDS);
    }
}
