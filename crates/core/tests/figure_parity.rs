//! Figure engine parity: the untraced Fig. 10/11 grid replays each
//! program as streamed cohorts over one block-granular tape
//! ([`run_intermittent_cohort`]); every device must end exactly as its
//! own run on a live core ([`run_intermittent`]) does.
//!
//! Run on the release profile (`cargo test --release -p wn-core --test
//! figure_parity`); the debug profile is slow but runs the same checks.

use wn_core::experiments::ExperimentConfig;
use wn_core::intermittent::{
    run_intermittent, run_intermittent_cohort, IntermittentOutcome, SubstrateKind,
};
use wn_core::prepared::PreparedRun;
use wn_core::{Benchmark, Scale, Technique};
use wn_energy::PowerTrace;
use wn_intermittent::StreamedDevice;
use wn_sim::tape::WINDOW_ENTRIES;
use wn_sim::ExecutionTape;

/// Everything an outcome reports, bit for bit, except the two
/// checkpoint word counters a tape does not keep.
fn assert_same(got: &IntermittentOutcome, want: &IntermittentOutcome, ctx: &str) {
    assert_eq!(got.time_s.to_bits(), want.time_s.to_bits(), "{ctx}: time_s");
    assert_eq!(
        got.on_time_s.to_bits(),
        want.on_time_s.to_bits(),
        "{ctx}: on_time_s"
    );
    assert_eq!(
        got.error_percent.to_bits(),
        want.error_percent.to_bits(),
        "{ctx}: error_percent"
    );
    assert_eq!(
        got.active_cycles, want.active_cycles,
        "{ctx}: active_cycles"
    );
    assert_eq!(got.outages, want.outages, "{ctx}: outages");
    assert_eq!(got.skimmed, want.skimmed, "{ctx}: skimmed");
    let words = |o: &IntermittentOutcome| {
        let mut s = o.substrate;
        s.checkpoint_words_saved = 0;
        s.checkpoint_words_full = 0;
        s
    };
    assert_eq!(words(got), words(want), "{ctx}: substrate stats");
}

fn builds(benchmark: Benchmark) -> [Technique; 3] {
    [
        Technique::Precise,
        benchmark.technique(8),
        benchmark.technique(4),
    ]
}

fn cohort_matches_live(
    prepared: &PreparedRun,
    substrate: SubstrateKind,
    traces: &[PowerTrace],
    config: &ExperimentConfig,
    ctx: &str,
) {
    let got = run_intermittent_cohort(
        prepared,
        substrate,
        traces,
        config.supply,
        config.wall_limit_s,
    )
    .unwrap();
    assert_eq!(got.len(), traces.len(), "{ctx}");
    for (t, (got, trace)) in got.iter().zip(traces).enumerate() {
        let want = run_intermittent(
            prepared,
            substrate,
            trace,
            config.supply,
            config.wall_limit_s,
        )
        .unwrap();
        assert_same(got, &want, &format!("{ctx} trace {t}"));
    }
}

#[test]
fn streamed_cohorts_match_live_runs_over_the_quick_grid() {
    let config = ExperimentConfig::quick();
    let traces = config.trace_ensemble();
    let (mut skims, mut multi_window) = (0, 0);
    for benchmark in Benchmark::ALL {
        for technique in builds(benchmark) {
            let prepared =
                PreparedRun::cached(benchmark, Scale::Quick, config.seed, technique).unwrap();
            let tape = ExecutionTape::record(&mut prepared.fresh_core().unwrap(), u64::MAX)
                .unwrap()
                .unwrap();
            multi_window += (tape.dispatches() > 2 * WINDOW_ENTRIES) as usize;
            for substrate in [SubstrateKind::clank(), SubstrateKind::nvp()] {
                let ctx = format!("{} {technique:?} {}", benchmark.name(), substrate.name());
                cohort_matches_live(&prepared, substrate, &traces, &config, &ctx);
                skims += run_intermittent_cohort(
                    &prepared,
                    substrate,
                    &traces,
                    config.supply,
                    config.wall_limit_s,
                )
                .unwrap()
                .iter()
                .filter(|o| o.skimmed)
                .count();
            }
        }
    }
    assert!(skims > 0, "the grid exercises skim handoffs");
    assert!(multi_window >= 3, "programs span several windows");
}

/// A cohort stepped by hand, as the grid steps it, watching the tape
/// over a program of many windows: a Clank checkpoint taken late in one
/// window is still the restore point early in the next, so eviction
/// keeps the window (and snapshot) behind the one being read, and the
/// retained entries never exceed the windows a round can need.
#[test]
fn streamed_tapes_stay_within_their_window_bound() {
    let config = ExperimentConfig::quick();
    let traces = config.trace_ensemble();
    let mut handoffs = 0;
    for technique in builds(Benchmark::Conv2d) {
        let prepared =
            PreparedRun::cached(Benchmark::Conv2d, Scale::Quick, config.seed, technique).unwrap();
        let mut tape = ExecutionTape::stream(&prepared.fresh_core().unwrap());
        let mut devices: Vec<_> = traces
            .iter()
            .map(|t| {
                let supply = wn_energy::EnergySupply::new(t.clone(), config.supply);
                let clank = wn_intermittent::Clank::default();
                Some(StreamedDevice::new(supply, clank, config.wall_limit_s))
            })
            .collect();
        let mut rounds = 0;
        loop {
            let mut floor = None;
            for slot in devices.iter_mut() {
                let Some(device) = slot else { continue };
                if device.advance(&tape).unwrap().is_some() {
                    handoffs += slot.take().unwrap().into_core().is_some() as usize;
                    continue;
                }
                let here = device.restore_floor().unwrap();
                floor = Some(floor.map_or(here, |f: wn_sim::TapePos| f.min(here)));
            }
            let Some(floor) = floor else { break };
            tape.evict(floor);
            assert!(
                tape.retained_windows() <= 2,
                "{technique:?}: evicted behind the floor"
            );
            tape.extend().unwrap();
            rounds += 1;
        }
        assert!(
            rounds > 3,
            "{technique:?}: the tape streams over several windows"
        );
        assert!(
            tape.peak_retained_entries() <= 3 * (WINDOW_ENTRIES + 1),
            "{technique:?}: {} entries retained",
            tape.peak_retained_entries()
        );
    }
    assert!(handoffs > 0, "WN builds hand off from window snapshots");
}
