//! Differential harness: the epoch (lease) engine must be
//! indistinguishable from the per-instruction reference engine.
//!
//! `IntermittentExecutor::run` schedules execution in analytically
//! granted energy leases; `IntermittentExecutor::run_reference` is the
//! seed's per-instruction loop kept as the oracle. Equivalence is exact,
//! not approximate: outage placement, cycle accounting, substrate
//! statistics, skim outcomes, final memory/register state, and even the
//! accumulated float times must match bit-for-bit, because the lease
//! scheduler's `settle` path reproduces the reference engine's float
//! arithmetic operation-for-operation.
//!
//! Clank and NVP runs are also replayed over the program's recorded
//! execution tape (`replay_run_clank` / `replay_run_nvp`), which must
//! reproduce the scalar run bit for bit — word counters aside, which
//! the tape does not keep.

use proptest::prelude::*;

use wn_energy::{EnergySupply, PowerTrace, SupplyConfig, TraceKind};
use wn_intermittent::substrate::SubstrateStats;
use wn_intermittent::{
    replay_run_clank, replay_run_nvp, Clank, ClankConfig, IntermittentExecutor, IntermittentRun,
    Nvp, NvpConfig, Substrate, Task, TaskConfig, TaskRegion,
};
use wn_isa::asm::assemble;
use wn_sim::{Core, CoreConfig, ExecutionTape, WalkCache};

/// Knobs for a randomized terminating program. The template is a
/// read-modify-write loop — the worst case for Clank (every store is a
/// WAR violation) — with optional multiplies, a second WAR word, an
/// optional skim point that outage-restores commit early, either loop
/// shape, and an optional read of the pc folded into the output.
#[derive(Debug, Clone, Copy)]
struct ProgramKnobs {
    iters: u32,
    use_mul: bool,
    second_word: bool,
    use_skm: bool,
    head_test: bool,
    read_pc: bool,
}

/// Opens a loop of `iters` iterations counted in `r2`: with `head_test`,
/// the compiler's shape — the exit test at the head and `B loop` at the
/// bottom, the back-edge fused blocks chain through — otherwise a
/// bottom-tested `BLT loop`.
fn loop_head(src: &mut String, head_test: bool, iters: u32) {
    src.push_str("loop:\n");
    if head_test {
        src.push_str(&format!("CMP r2, #{iters}\nBGE end\n"));
    }
}

/// Closes the loop [`loop_head`] opened.
fn loop_tail(src: &mut String, head_test: bool, iters: u32) {
    src.push_str("ADD r2, r2, #1\n");
    if head_test {
        src.push_str("B loop\n");
    } else {
        src.push_str(&format!("CMP r2, #{iters}\nBLT loop\n"));
    }
    src.push_str("end:\nHALT");
}

fn build_program(k: ProgramKnobs) -> wn_isa::Program {
    let mut src = String::from(".data\nout: .space 64\n.text\nMOV r0, =out\nMOV r2, #0\n");
    if k.use_skm {
        src.push_str("SKM end\n");
    }
    loop_head(&mut src, k.head_test, k.iters);
    src.push_str("LDR r1, [r0, #0]\n");
    if k.use_mul {
        src.push_str("MUL r4, r2, r2\n");
    } else {
        src.push_str("ADD r4, r2, r2\n");
    }
    if k.read_pc {
        src.push_str("ADD r6, r2, pc\nADD r4, r4, r6\n");
    }
    src.push_str("ADD r1, r1, r4\nSTR r1, [r0, #0]\n");
    if k.second_word {
        src.push_str("LDR r5, [r0, #4]\nADD r5, r5, #1\nSTR r5, [r0, #4]\n");
    }
    loop_tail(&mut src, k.head_test, k.iters);
    assemble(&src).unwrap()
}

fn knobs() -> impl Strategy<Value = ProgramKnobs> {
    (
        200u32..12_000,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(iters, use_mul, second_word, use_skm, head_test, read_pc)| ProgramKnobs {
                iters,
                use_mul,
                second_word,
                use_skm,
                head_test,
                read_pc,
            },
        )
}

fn trace_kind() -> impl Strategy<Value = TraceKind> {
    prop_oneof![
        Just(TraceKind::RfBursty),
        Just(TraceKind::Solar),
        Just(TraceKind::Periodic),
        Just(TraceKind::Constant),
    ]
}

/// Supply variations stay inside an envelope where one charge always
/// covers a watchdog period plus checkpoint/restore overheads, so every
/// generated run makes forward progress and terminates well inside the
/// wall-clock limit.
fn supply() -> impl Strategy<Value = SupplyConfig> {
    (5e-7f64..2e-6, 10.0f64..40.0, any::<bool>()).prop_map(
        |(capacitance_f, pj_per_cycle, start_charged)| SupplyConfig {
            capacitance_f,
            pj_per_cycle,
            start_charged,
            ..SupplyConfig::default()
        },
    )
}

#[derive(Debug, Clone)]
enum SubstrateChoice {
    Clank(ClankConfig),
    Nvp(NvpConfig),
    /// The configuration and the region size [`label_regions`] carves.
    Task(TaskConfig, u32),
}

fn substrate() -> impl Strategy<Value = SubstrateChoice> {
    prop_oneof![
        (500u64..8_000, 4usize..32, 10u64..80).prop_map(|(watchdog, wb, ckpt)| {
            SubstrateChoice::Clank(ClankConfig {
                watchdog_cycles: watchdog,
                wb_entries: wb,
                checkpoint_cycles: ckpt,
                restore_cycles: ckpt,
            })
        }),
        (5u64..50).prop_map(|wakeup| {
            SubstrateChoice::Nvp(NvpConfig {
                wakeup_cycles: wakeup,
            })
        }),
        (10u64..80, 10u64..80, prop_oneof![Just(6u32), Just(16)]).prop_map(
            |(commit, restore, region)| {
                SubstrateChoice::Task(
                    TaskConfig {
                        commit_cycles: commit,
                        restore_cycles: restore,
                    },
                    region,
                )
            }
        ),
    ]
}

/// Carves the hand-assembled test programs into task regions of at
/// most `max_region` instructions: cut at the `loop` / `end` labels,
/// then split anything longer. A loop that would fit in one region is
/// cut once, at its middle, instead. The cut inside the loop matters for
/// liveness, not just coverage — an outage re-executes the interrupted
/// region from its entry, so a region that holds a whole 12k-iteration
/// loop might never finish within one charge. Every iteration crosses a
/// boundary and commits, which keeps every generated case terminating;
/// regions larger than a few instructions hold whole fused blocks.
/// Engine equivalence must hold for any tiling; the continuous-oracle
/// correctness of compiler-decomposed tasks is tested separately
/// (`task_oracle` tests in wn-core).
fn label_regions(program: &wn_isa::Program, max_region: u32) -> Vec<TaskRegion> {
    let len = program.instrs.len() as u32;
    let loop_pc = program.code_symbol("loop");
    let mut starts = vec![0u32];
    starts.extend(
        ["loop", "end"]
            .iter()
            .filter_map(|l| program.code_symbol(l)),
    );
    starts.sort_unstable();
    starts.dedup();
    let mut chunked = Vec::new();
    for (i, &s) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(len);
        let step = match end - s {
            n if Some(s) == loop_pc && n <= max_region => n.div_ceil(2),
            _ => max_region,
        };
        chunked.extend((s..end).step_by(step as usize));
    }
    chunked
        .iter()
        .enumerate()
        .map(|(i, &s)| TaskRegion {
            start_pc: s,
            end_pc: chunked.get(i + 1).copied().unwrap_or(len),
            is_commit: false,
            privatized_words: 0,
        })
        .collect()
}

/// The SubstrateStats invariants every substrate must uphold, pinned
/// against the knowledge of its per-event costs: bookkeeping overhead
/// accounts for at least the commits/checkpoints it reports, the
/// differential checkpoint never writes more than a full snapshot
/// would, and each paradigm leaves the other family's counters at zero.
fn assert_stats_invariants(run: &IntermittentRun, choice: &SubstrateChoice) {
    let s = run.substrate;
    assert!(
        s.checkpoint_words_saved <= s.checkpoint_words_full,
        "differential checkpoints cannot exceed full snapshots: {s:?}"
    );
    assert!(
        s.reexecuted_cycles <= s.lost_cycles,
        "re-executed work is a subset of lost work: {s:?}"
    );
    match choice {
        SubstrateChoice::Clank(c) => {
            assert!(
                s.overhead_cycles >= s.checkpoints * c.checkpoint_cycles,
                "clank overhead must cover its checkpoints: {s:?}"
            );
            assert_eq!(s.commits, 0, "checkpoint substrates never commit");
            assert_eq!(s.privatized_words, 0);
            assert_eq!(s.reexecuted_cycles, 0);
        }
        SubstrateChoice::Nvp(c) => {
            assert!(
                s.overhead_cycles >= run.outages * c.wakeup_cycles,
                "nvp overhead must cover its wakeups: {s:?}"
            );
            assert_eq!(s.commits, 0, "checkpoint substrates never commit");
            assert_eq!(s.privatized_words, 0);
            assert_eq!(s.reexecuted_cycles, 0);
        }
        SubstrateChoice::Task(c, _) => {
            assert!(
                s.overhead_cycles >= s.commits * c.commit_cycles + run.outages * c.restore_cycles,
                "task overhead must cover its commits and restores: {s:?}"
            );
            assert_eq!(s.checkpoints, 0, "task substrates never checkpoint");
            assert_eq!(s.checkpoint_words_saved, 0);
            assert_eq!(s.checkpoint_words_full, 0);
            assert_eq!(
                s.reexecuted_cycles, s.lost_cycles,
                "every lost cycle re-executes from a task entry: {s:?}"
            );
        }
    }
}

/// Runs both engines on identical inputs and asserts exact agreement.
/// Returns the (agreed) run and the epoch engine's final core so
/// callers can pin stats invariants and tape replay on them.
fn assert_engines_agree<S: Substrate + Clone>(
    program: &wn_isa::Program,
    trace: &PowerTrace,
    config: SupplyConfig,
    substrate: S,
) -> (IntermittentRun, Core) {
    let mut epoch = IntermittentExecutor::new(
        Core::new(program, CoreConfig::default()).unwrap(),
        trace,
        config,
        substrate.clone(),
    );
    let mut reference = IntermittentExecutor::new(
        Core::new(program, CoreConfig::default()).unwrap(),
        trace,
        config,
        substrate,
    );
    let a = epoch.run(3600.0).unwrap();
    let b = reference.run_reference(3600.0).unwrap();

    assert_eq!(a.outages, b.outages, "outage count");
    assert_eq!(a.active_cycles, b.active_cycles, "active cycles");
    assert_eq!(a.skimmed, b.skimmed, "skim outcome");
    assert_eq!(a.substrate, b.substrate, "substrate stats");
    assert_eq!(
        a.total_time_s.to_bits(),
        b.total_time_s.to_bits(),
        "total time (bitwise)"
    );
    assert_eq!(
        a.on_time_s.to_bits(),
        b.on_time_s.to_bits(),
        "on time (bitwise)"
    );
    assert_eq!(epoch.core().stats, reference.core().stats, "exec stats");
    assert_eq!(epoch.core().cpu.pc, reference.core().cpu.pc, "final pc");
    for r in [wn_isa::Reg::R1, wn_isa::Reg::R2, wn_isa::Reg::R5] {
        assert_eq!(
            epoch.core().cpu.reg(r),
            reference.core().cpu.reg(r),
            "final {r:?}"
        );
    }
    for word in 0..8u32 {
        assert_eq!(
            epoch.core().mem.load_u32(word * 4).unwrap(),
            reference.core().mem.load_u32(word * 4).unwrap(),
            "output word {word}"
        );
    }
    (a, epoch.into_parts().0)
}

/// A run's observable fields with exact float bits and without the word
/// counters a tape does not keep.
fn tape_visible(run: &IntermittentRun) -> (bool, u64, u64, u64, u64, SubstrateStats) {
    let substrate = SubstrateStats {
        checkpoint_words_saved: 0,
        checkpoint_words_full: 0,
        ..run.substrate
    };
    (
        run.skimmed,
        run.total_time_s.to_bits(),
        run.on_time_s.to_bits(),
        run.active_cycles,
        run.outages,
        substrate,
    )
}

/// Replays a Clank or NVP choice over `program`'s recorded tape and
/// asserts it reproduces the scalar `run` ending on `core`. A device
/// handed off at a skim jump must also end on the scalar core's memory,
/// and on its stats unless Clank rolled work back: the handed-off core
/// retired only the trajectory up to its checkpoint, the scalar core
/// the lost work as well.
fn assert_tape_agrees(
    program: &wn_isa::Program,
    trace: &PowerTrace,
    config: SupplyConfig,
    choice: &SubstrateChoice,
    (run, core): (&IntermittentRun, &Core),
) {
    let master = Core::new(program, CoreConfig::default()).unwrap();
    let tape = ExecutionTape::record(&mut master.clone(), 10_000_000)
        .unwrap()
        .unwrap();
    let (cache, supply) = (WalkCache::new(), EnergySupply::new(trace.clone(), config));
    let (got, handed) = match choice {
        SubstrateChoice::Clank(c) => replay_run_clank(&tape, &master, &cache, supply, *c, 3600.0),
        SubstrateChoice::Nvp(c) => replay_run_nvp(&tape, &master, &cache, supply, *c, 3600.0),
        SubstrateChoice::Task(..) => return,
    }
    .unwrap();
    assert_eq!(tape_visible(&got), tape_visible(run), "tape replay run");
    match handed {
        Some(handed) => {
            assert!(run.skimmed, "only a skim jump leaves the tape");
            assert_eq!(handed.mem, core.mem, "handed-off memory");
            if run.substrate.lost_cycles == 0 {
                assert_eq!(handed.stats, core.stats, "handed-off exec stats");
            }
        }
        None => assert!(!run.skimmed, "a skimmed device must leave the tape"),
    }
}

/// Dispatches [`assert_engines_agree`] for a generated substrate choice,
/// pins the [`SubstrateStats`] invariants on the agreed run, and checks
/// tape replay against it.
fn assert_choice_agrees(
    program: &wn_isa::Program,
    trace: &PowerTrace,
    config: SupplyConfig,
    choice: &SubstrateChoice,
) {
    let (run, core) = match choice {
        SubstrateChoice::Clank(c) => assert_engines_agree(program, trace, config, Clank::new(*c)),
        SubstrateChoice::Nvp(c) => assert_engines_agree(program, trace, config, Nvp::new(*c)),
        SubstrateChoice::Task(c, region) => assert_engines_agree(
            program,
            trace,
            config,
            Task::new(*c, label_regions(program, *region)),
        ),
    };
    assert_stats_invariants(&run, choice);
    assert_tape_agrees(program, trace, config, choice, (&run, &core));
}

/// Knobs for a branch/`SKM`-dense program — the worst case for block
/// formation. Every loop body interleaves compares, taken/untaken
/// branches, and optional skim points so the fused-block table degrades
/// to many 1-instruction blocks and the engine must constantly fall
/// back to per-instruction stepping.
#[derive(Debug, Clone, Copy)]
struct DenseKnobs {
    iters: u32,
    segments: u8,
    skm_every_segment: bool,
    store_every_segment: bool,
    head_test: bool,
    read_pc: bool,
}

fn build_dense_program(k: DenseKnobs) -> wn_isa::Program {
    let mut src = String::from(".data\nout: .space 64\n.text\nMOV r0, =out\nMOV r2, #0\n");
    loop_head(&mut src, k.head_test, k.iters);
    for seg in 0..k.segments {
        // One real instruction, then an (untaken) guard branch: a
        // 1-instruction block followed by a terminator.
        src.push_str(&format!("ADD r3, r2, #{seg}\nCMP r3, #0\nBLT end\n"));
        if k.skm_every_segment {
            src.push_str(&format!("SKM seg{seg}\nseg{seg}:\n"));
        }
        if k.store_every_segment {
            let word = 4 * (u32::from(seg) % 8);
            src.push_str(&format!(
                "LDR r4, [r0, #{word}]\nADD r4, r4, #1\nSTR r4, [r0, #{word}]\n"
            ));
        }
    }
    if k.read_pc {
        // Accumulates the pc into a compared register, one instruction
        // into a straight-line run.
        src.push_str("MOV r6, r2\nADD r5, r5, pc\n");
    }
    loop_tail(&mut src, k.head_test, k.iters);
    assemble(&src).unwrap()
}

fn dense_knobs() -> impl Strategy<Value = DenseKnobs> {
    (
        200u32..6_000,
        1u8..6,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(iters, segments, skm_every_segment, store_every_segment, head_test, read_pc)| {
                DenseKnobs {
                    iters,
                    segments,
                    skm_every_segment,
                    store_every_segment,
                    head_test,
                    read_pc,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized (program, trace, supply, substrate): the lease engine
    /// and the per-instruction reference must agree exactly.
    #[test]
    fn epoch_engine_is_indistinguishable_from_reference(
        k in knobs(),
        kind in trace_kind(),
        seed in 0u64..1_000,
        config in supply(),
        sub in substrate(),
    ) {
        let program = build_program(k);
        let trace = PowerTrace::generate(kind, seed, 60.0);
        assert_choice_agrees(&program, &trace, config, &sub);
    }

    /// Branch/`SKM`-dense programs (many 1-instruction blocks): the
    /// fused engine must degrade gracefully to single-stepping with
    /// correctness and cycle accounting identical to the reference.
    #[test]
    fn dense_branch_programs_never_regress_vs_reference(
        k in dense_knobs(),
        kind in trace_kind(),
        seed in 0u64..1_000,
        config in supply(),
        sub in substrate(),
    ) {
        let program = build_dense_program(k);
        let trace = PowerTrace::generate(kind, seed, 60.0);
        assert_choice_agrees(&program, &trace, config, &sub);
    }
}

/// A pinned case that must always span outages *and* skim: an RF-bursty
/// trace, the WAR-heavy loop with a skim point, and Clank defaults. This
/// guards the differential suite itself against silently degenerating
/// into outage-free runs.
#[test]
fn pinned_case_spans_outages_and_skims() {
    let program = build_program(ProgramKnobs {
        iters: 12_000,
        use_mul: true,
        second_word: true,
        use_skm: true,
        head_test: false,
        read_pc: false,
    });
    let trace = PowerTrace::generate(TraceKind::RfBursty, 7, 60.0);
    let config = SupplyConfig {
        capacitance_f: 1e-6,
        ..SupplyConfig::default()
    };
    let mut probe = IntermittentExecutor::new(
        Core::new(&program, CoreConfig::default()).unwrap(),
        &trace,
        config,
        Clank::default(),
    );
    let run = probe.run(3600.0).unwrap();
    assert!(run.outages > 0, "pinned case must cross power cycles");
    assert!(run.skimmed, "pinned case must commit via its skim point");
    assert_choice_agrees(
        &program,
        &trace,
        config,
        &SubstrateChoice::Clank(ClankConfig::default()),
    );
}

/// Loop-sized task regions: each outer iteration enters a region that
/// holds a whole 300-iteration inner loop, whose blocks the lease engine
/// retires wholesale. Outages land inside it after fused blocks, so the
/// re-executed work they discard includes fused cycles; the run must
/// still agree with the per-instruction reference bit for bit.
#[test]
fn task_runs_fuse_inside_loop_sized_regions() {
    let program = assemble(
        ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r2, #0\n\
         outer:\nMOV r3, #0\n\
         inner:\nADD r4, r4, r3\nEOR r5, r5, r4\nADD r3, r3, #1\nCMP r3, #300\nBLT inner\n\
         STR r5, [r0, #0]\n\
         next:\nADD r2, r2, #1\nCMP r2, #60\nBLT outer\n\
         end:\nHALT",
    )
    .unwrap();
    let starts: Vec<u32> = std::iter::once(0)
        .chain(
            ["outer", "inner", "next", "end"]
                .iter()
                .map(|l| program.code_symbol(l).unwrap()),
        )
        .collect();
    let len = program.instrs.len() as u32;
    let regions = starts
        .iter()
        .enumerate()
        .map(|(i, &start_pc)| TaskRegion {
            start_pc,
            end_pc: starts.get(i + 1).copied().unwrap_or(len),
            is_commit: false,
            privatized_words: 0,
        })
        .collect();
    let trace = PowerTrace::generate(TraceKind::RfBursty, 7, 60.0);
    let config = SupplyConfig {
        capacitance_f: 1e-6,
        ..SupplyConfig::default()
    };
    let task = Task::new(TaskConfig::default(), regions);
    let (run, core) = assert_engines_agree(&program, &trace, config, task);
    assert!(run.outages > 0, "must span outages");
    assert!(run.substrate.commits > 0, "must commit");
    assert!(run.substrate.lost_cycles > 0, "must re-execute");
    assert!(
        core.fused_instructions() * 2 > core.stats.instructions,
        "most work fuses"
    );
}
