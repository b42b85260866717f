//! Non-volatile processor with the backup-every-cycle policy (Ma et al.,
//! HPCA 2015; paper §IV).
//!
//! Processor state lives in non-volatile flip-flops, so "the current
//! progress of the application is automatically checkpointed when power is
//! lost" (§V-C). An outage loses nothing; resuming costs only a small
//! wake-up penalty. Because there is no re-execution, WN's speedups on
//! NVP come purely from skimming away remaining subword refinement.

use wn_sim::cpu::CpuSnapshot;
use wn_sim::{SimError, StepInfo};

use crate::execution::{Execution, Saved};
use crate::substrate::{Substrate, SubstrateStats};

/// NVP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvpConfig {
    /// Wake-up cost after an outage, in cycles. The per-instruction
    /// backup itself is hidden in the pipeline and costs nothing.
    pub wakeup_cycles: u64,
}

impl Default for NvpConfig {
    fn default() -> NvpConfig {
        NvpConfig { wakeup_cycles: 10 }
    }
}

/// The backup-every-cycle non-volatile processor substrate.
#[derive(Debug, Clone)]
pub struct Nvp {
    config: NvpConfig,
    /// State of the NV flip-flops as of the last completed instruction,
    /// stored differentially across outages.
    nv_state: Saved,
    stats: SubstrateStats,
}

impl Default for Nvp {
    fn default() -> Nvp {
        Nvp::new(NvpConfig::default())
    }
}

impl Nvp {
    /// Creates an NVP substrate.
    pub fn new(config: NvpConfig) -> Nvp {
        Nvp {
            config,
            nv_state: Saved::default(),
            stats: SubstrateStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> NvpConfig {
        self.config
    }
}

impl Substrate for Nvp {
    #[inline]
    fn after_step<E: Execution>(&mut self, _exec: &mut E, _info: &StepInfo) -> u64 {
        // Backup every cycle: architecturally the NV flip-flops always
        // hold the latest state, so the simulation can defer the actual
        // snapshot to the outage — the state captured there is exactly
        // what per-cycle backup would have left. The backup is hidden
        // in the pipeline, so a step costs nothing extra.
        0
    }

    fn lease_cap(&self) -> u64 {
        0
    }

    fn fused_headroom(&self) -> u64 {
        // NVP never intervenes mid-run — no watchdog, no hazards — so
        // any straight-line block may fuse.
        u64::MAX
    }

    fn on_outage<E: Execution>(&mut self, exec: &mut E) {
        // Nothing is lost: capture what the NV flip-flops hold, then
        // clear the (conceptually volatile) pipeline. A tape keeps no
        // register values, so its words go uncounted.
        if let Some(words) = exec.save(&mut self.nv_state) {
            self.stats.checkpoint_words_saved += words;
            self.stats.checkpoint_words_full += CpuSnapshot::WORDS as u64;
        }
        self.stats.checkpoints += 1;
        exec.power_loss();
    }

    fn on_restore<E: Execution>(&mut self, exec: &mut E) -> Result<u64, SimError> {
        exec.restore(&mut self.nv_state)?;
        self.stats.overhead_cycles += self.config.wakeup_cycles;
        Ok(self.config.wakeup_cycles)
    }

    fn stats(&self) -> SubstrateStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "nvp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_isa::asm::assemble;
    use wn_sim::{Core, CoreConfig};

    #[test]
    fn outage_loses_nothing() {
        let p = assemble("MOV r0, #1\nMOV r1, #2\nADD r2, r0, r1\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut nvp = Nvp::default();
        // No watchdog and no hazards: any straight-line block may fuse.
        assert_eq!(nvp.fused_headroom(), u64::MAX);

        // Two instructions, each backed up for free, then an outage.
        for _ in 0..2 {
            let info = core.step().unwrap();
            assert_eq!(nvp.after_step(&mut core, &info), 0);
        }
        let pc_before = core.cpu.pc;
        nvp.on_outage(&mut core);
        assert_eq!(
            core.cpu.reg(wn_isa::Reg::R0),
            0,
            "volatile pipeline cleared"
        );
        let cost = nvp.on_restore(&mut core).unwrap();
        assert_eq!(cost, NvpConfig::default().wakeup_cycles);
        assert_eq!(core.cpu.pc, pc_before, "resumes exactly where it stopped");
        assert_eq!(
            core.cpu.reg(wn_isa::Reg::R1),
            2,
            "registers restored from NV state"
        );

        // Finishing produces the correct result: no re-execution happened.
        while !core.is_halted() {
            let info = core.step().unwrap();
            nvp.after_step(&mut core, &info);
        }
        assert_eq!(core.cpu.reg(wn_isa::Reg::R2), 3);
    }

    #[test]
    fn cold_boot_starts_at_entry() {
        let p = assemble("MOV r0, #1\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut nvp = Nvp::default();
        nvp.on_outage(&mut core);
        nvp.on_restore(&mut core).unwrap();
        assert_eq!(core.cpu.pc, 0);
    }

    #[test]
    fn repeated_outages_store_words_differentially() {
        let p = assemble("MOV r0, #1\nMOV r1, #2\nADD r2, r0, r1\nHALT").unwrap();
        let mut core = Core::new(&p, CoreConfig::default()).unwrap();
        let mut nvp = Nvp::default();
        core.step().unwrap();
        nvp.on_outage(&mut core);
        nvp.on_restore(&mut core).unwrap();
        let s1 = nvp.stats();
        assert_eq!(s1.checkpoint_words_saved, CpuSnapshot::WORDS as u64);
        // One more instruction (r1 + pc dirty) → two words logged.
        core.step().unwrap();
        nvp.on_outage(&mut core);
        let s2 = nvp.stats();
        assert_eq!(s2.checkpoint_words_saved - s1.checkpoint_words_saved, 2);
        assert_eq!(s2.checkpoint_words_full, 2 * CpuSnapshot::WORDS as u64);
    }
}
