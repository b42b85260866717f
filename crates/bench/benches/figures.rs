//! Criterion benches that regenerate each paper table/figure (quick
//! configuration) — one bench per experiment, so `cargo bench figures`
//! both times the harness and exercises every reproduction path.
//!
//! The printable series themselves come from the `experiments` binary;
//! these benches guard the *cost* of regenerating them.

use criterion::{criterion_group, criterion_main, Criterion};

use wn_core::experiments::{
    fig01, fig02, fig03, fig09, fig10, fig12, fig13, fig14, fig15, fig17, table1, ExperimentConfig,
};
use wn_core::intermittent::SubstrateKind;

fn quick() -> ExperimentConfig {
    ExperimentConfig::quick()
}

/// A faster intermittent config for the heavyweight speedup figures.
fn tiny_intermittent() -> ExperimentConfig {
    ExperimentConfig {
        traces: 1,
        ..ExperimentConfig::quick()
    }
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    g.bench_function("table1", |b| b.iter(|| table1::run(&quick()).unwrap()));
    g.bench_function("fig01_input_stream", |b| {
        b.iter(|| fig01::run(&quick()).unwrap())
    });
    g.bench_function("fig02_conv2d_equal_budget", |b| {
        b.iter(|| fig02::run(&quick()).unwrap())
    });
    g.bench_function("fig03_glucose", |b| {
        b.iter(|| fig03::run(&quick()).unwrap())
    });
    g.bench_function("fig09_quality_curves", |b| {
        b.iter(|| fig09::run(&quick()).unwrap())
    });
    g.bench_function("fig10_clank_speedups", |b| {
        b.iter(|| fig10::run(&tiny_intermittent(), SubstrateKind::clank(), false).unwrap())
    });
    g.bench_function("fig11_nvp_speedups", |b| {
        b.iter(|| fig10::run(&tiny_intermittent(), SubstrateKind::nvp(), false).unwrap())
    });
    g.bench_function("fig12_vectorized_loads", |b| {
        b.iter(|| fig12::run(&quick()).unwrap())
    });
    g.bench_function("fig13_memoization", |b| {
        b.iter(|| fig13::run(&quick()).unwrap())
    });
    g.bench_function("fig14_provisioned", |b| {
        b.iter(|| fig14::run(&quick()).unwrap())
    });
    g.bench_function("fig15_small_subwords", |b| {
        b.iter(|| fig15::run(&quick()).unwrap())
    });
    g.bench_function("fig17_var_vs_sampling", |b| {
        b.iter(|| fig17::run(&quick()).unwrap())
    });
    g.bench_function("area_power_model", |b| {
        b.iter(wn_hwmodel::AreaPowerReport::from_defaults)
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
