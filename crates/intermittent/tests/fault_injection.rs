//! Fault-injection property tests: power outages at *arbitrary* points
//! must never corrupt results.
//!
//! The central invariant of intermittent computing — on both substrates,
//! any schedule of outages yields the same final memory as an outage-free
//! run (Clank via rollback + re-execution, NVP via in-place resume). We
//! drive the substrates directly (no energy model) so proptest controls
//! exactly when power dies.

use proptest::prelude::*;

use wn_intermittent::clank::{Clank, ClankConfig};
use wn_intermittent::nvp::Nvp;
use wn_intermittent::substrate::Substrate;
use wn_isa::asm::assemble;
use wn_sim::{Core, CoreConfig, StepEvent};

/// A small self-checking workload: memory-resident accumulation (WAR per
/// iteration, so Clank checkpoints at stores) plus a scratch array write
/// pattern. Result: out[0] = Σ 0..n, out[1..4] = i*i for the last i.
fn workload(n: u32) -> wn_isa::Program {
    let src = format!(
        ".data\nout: .space 32\n.text\n\
         MOV r0, =out\nMOV r2, #0\n\
         loop:\n\
         LDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\n\
         MUL r3, r2, r2\nSTR r3, [r0, #4]\n\
         ADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\n\
         HALT"
    );
    assemble(&src).unwrap()
}

fn reference_memory(n: u32) -> (u32, u32) {
    let sum: u32 = (0..n).sum();
    let last_sq = if n > 0 { (n - 1) * (n - 1) } else { 0 };
    (sum, last_sq)
}

/// Runs the workload with outages injected after the instruction counts
/// in `outage_points` (relative to retired instructions since the last
/// injection), returning final (out[0], out[1]).
fn run_with_outages<S: Substrate>(mut substrate: S, n: u32, outage_gaps: &[u16]) -> (u32, u32) {
    let program = workload(n);
    let mut core = Core::new(&program, CoreConfig::default()).unwrap();
    let mut gap_iter = outage_gaps.iter();
    let mut next_gap = gap_iter.next().copied();
    let mut since_last = 0u32;
    let mut guard = 0u64;
    loop {
        let info = core.step().unwrap();
        substrate.after_step(&mut core, &info);
        if matches!(info.event, StepEvent::Halted) {
            break;
        }
        since_last += 1;
        if let Some(gap) = next_gap {
            // Gaps are offset by a minimum so the substrate can always
            // make progress between outages.
            if since_last >= gap as u32 + 24 {
                substrate.on_outage(&mut core);
                substrate.on_restore(&mut core).unwrap();
                since_last = 0;
                next_gap = gap_iter.next().copied();
            }
        }
        guard += 1;
        assert!(guard < 3_000_000, "fault schedule must not livelock");
    }
    (core.mem.load_u32(0).unwrap(), core.mem.load_u32(4).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clank: any outage schedule converges to the exact result.
    #[test]
    fn clank_is_crash_consistent(
        n in 1u32..60,
        gaps in proptest::collection::vec(0u16..300, 0..20),
    ) {
        let cfg = ClankConfig { watchdog_cycles: 64, ..ClankConfig::default() };
        let got = run_with_outages(Clank::new(cfg), n, &gaps);
        prop_assert_eq!(got, reference_memory(n));
    }

    /// Clank with a tiny write-back buffer (capacity checkpoints dominate).
    #[test]
    fn clank_tiny_buffer_is_crash_consistent(
        n in 1u32..40,
        gaps in proptest::collection::vec(0u16..200, 0..12),
    ) {
        let cfg = ClankConfig { wb_entries: 1, watchdog_cycles: 64, ..ClankConfig::default() };
        let got = run_with_outages(Clank::new(cfg), n, &gaps);
        prop_assert_eq!(got, reference_memory(n));
    }

    /// NVP: any outage schedule converges to the exact result with no
    /// re-execution at all.
    #[test]
    fn nvp_is_crash_consistent(
        n in 1u32..60,
        gaps in proptest::collection::vec(0u16..300, 0..20),
    ) {
        let got = run_with_outages(Nvp::default(), n, &gaps);
        prop_assert_eq!(got, reference_memory(n));
    }

    /// The skim register survives any outage schedule on both substrates
    /// once set.
    #[test]
    fn skim_register_survives_outages(gaps in proptest::collection::vec(0u16..50, 1..8)) {
        let program = assemble(
            ".data\nout: .space 4\n.text\nMOV r0, =out\nSKM end\nMOV r2, #0\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, #1\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #40\nBLT loop\nend:\nHALT",
        )
        .unwrap();
        let mut core = Core::new(&program, CoreConfig::default()).unwrap();
        let mut clank = Clank::new(ClankConfig { watchdog_cycles: 32, ..ClankConfig::default() });
        let mut steps = 0usize;
        let mut gap_idx = 0usize;
        loop {
            let info = core.step().unwrap();
            clank.after_step(&mut core, &info);
            if matches!(info.event, StepEvent::Halted) {
                break;
            }
            steps += 1;
            if gap_idx < gaps.len() && steps >= (gap_idx + 1) * (gaps[gap_idx] as usize + 16) {
                clank.on_outage(&mut core);
                clank.on_restore(&mut core).unwrap();
                gap_idx += 1;
            }
            prop_assert!(steps < 200_000, "must converge");
            if steps > 2 {
                // SKM executes as the second instruction; from then on the
                // register must hold through every outage.
                prop_assert!(core.cpu.skm.is_some());
            }
        }
    }
}
