//! Fleet sweep throughput: devices simulated per second through the
//! whole wn-fleet path — seed derivation, on-the-fly environment
//! synthesis, the intermittent executor, and the streaming fold into
//! cohort aggregates. One small mixed population at `--jobs 1` (the
//! deterministic baseline the parallel widths must reproduce) and one
//! at the host's global width.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use wn_core::jobs;
use wn_fleet::{run_fleet, FleetOptions, FleetScenario, FleetStatus};

const SCENARIO: &str = r#"
[fleet]
name = "bench-fleet"
seed = 42
shard_size = 64
wall_limit_s = 600.0
trace_duration_s = 20.0

[[cohort]]
count = 64
benchmark = "matadd"
technique = "anytime8"
substrate = "clank"
environment = "rf-bursty"

[[cohort]]
count = 64
benchmark = "home"
technique = "anytime8"
substrate = "nvp"
environment = "solar"
day_s = 10.0
"#;

fn devices_per_second(c: &mut Criterion) {
    let scenario = FleetScenario::parse(SCENARIO).unwrap();
    let devices = scenario.total_devices();
    // Warm the per-cohort compilation cache so the bench times the
    // sweep, not the two one-off compiles.
    run_fleet(
        &scenario,
        &FleetOptions {
            jobs: Some(1),
            ..Default::default()
        },
    )
    .unwrap();

    let mut g = c.benchmark_group("fleet");
    g.throughput(Throughput::Elements(devices));
    g.sample_size(10);
    for (label, jobs) in [("jobs1", Some(1)), ("global", None)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let status = run_fleet(
                    &scenario,
                    &FleetOptions {
                        jobs,
                        ..Default::default()
                    },
                )
                .unwrap();
                match status {
                    FleetStatus::Complete(report) => {
                        assert_eq!(report.fleet_aggregate().devices, devices)
                    }
                    FleetStatus::Paused { .. } => unreachable!("no stop configured"),
                }
            })
        });
    }
    g.finish();
    eprintln!(
        "fleet bench: {} devices per iteration, global width {}",
        devices,
        jobs::global_jobs()
    );
}

criterion_group!(benches, devices_per_second);
criterion_main!(benches);
