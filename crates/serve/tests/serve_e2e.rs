//! End-to-end tests driving the wn-serve daemon exactly as a client
//! would: over its TCP socket, via the JSON-lines protocol.
//!
//! The properties under test are the service's whole contract:
//!
//! 1. Reports served over the socket are **byte-identical** to running
//!    the same scenario in-process.
//! 2. Concurrent submissions all complete, idempotently.
//! 3. The compilation cache stays bounded — evictions happen and are
//!    observable over `stats`, and results do not change.
//! 4. A daemon stopped mid-scenario (the in-process stand-in for
//!    SIGTERM) and restarted over the same data directory resumes and
//!    serves a byte-identical report.
//! 5. `wait_report` gives up at its deadline on a job that never
//!    finishes.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wn_fleet::{run_fleet, FleetOptions, FleetScenario};
use wn_serve::protocol::{Event, JobState, Response};
use wn_serve::server::{start, ServeConfig};
use wn_serve::{Client, ClientError};

/// The prepared-run compilation cache is process-global; tests that
/// rebound its capacity or count its evictions serialize here.
static CACHE_TOUCHING: Mutex<()> = Mutex::new(());

const WAIT: Duration = Duration::from_secs(300);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wn-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A smoke-scale scenario; `seed` differentiates fingerprints.
fn scenario_text(name: &str, seed: u64) -> String {
    format!(
        r#"
[fleet]
name = "{name}"
seed = {seed}
shard_size = 4
wall_limit_s = 600.0
trace_duration_s = 15.0

[[cohort]]
count = 6
benchmark = "matadd"
technique = "anytime8"
substrate = "clank"
environment = "rf-bursty"

[[cohort]]
count = 4
benchmark = "home"
technique = "precise"
substrate = "nvp"
environment = "solar"
"#
    )
}

/// The reference bytes: an in-process `run_fleet`, no service anywhere
/// near it.
fn reference_report(text: &str) -> String {
    let scenario = FleetScenario::parse(text).unwrap();
    run_fleet(&scenario, &FleetOptions::default())
        .unwrap()
        .report()
        .unwrap()
        .to_json()
}

#[test]
fn concurrent_submissions_serve_reports_byte_identical_to_in_process_runs() {
    let _guard = CACHE_TOUCHING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("concurrent");
    let handle = start(&ServeConfig::new(dir.clone())).unwrap();
    let addr = handle.local_addr().to_string();

    // Three clients, three distinct scenarios, all in flight at once.
    let texts: Vec<String> = (0..3)
        .map(|i| scenario_text(&format!("cc{i}"), 100 + i))
        .collect();
    let served: Vec<(String, String)> = std::thread::scope(|s| {
        let threads: Vec<_> = texts
            .iter()
            .map(|text| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let (fp, _) = client.submit(text).unwrap();
                    let report = client.wait_report(fp, WAIT).unwrap();
                    (text.clone(), report)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    for (text, report) in &served {
        assert_eq!(
            report,
            &reference_report(text),
            "served report differs from the in-process run"
        );
    }

    // Idempotent resubmit: same fingerprint, already done.
    let mut client = Client::connect(&addr).unwrap();
    let (fp, state) = client.submit(&texts[0]).unwrap();
    assert_eq!(state, JobState::Done);
    assert_eq!(fp, FleetScenario::parse(&texts[0]).unwrap().fingerprint());

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_eviction_is_observable_and_does_not_change_results() {
    let _guard = CACHE_TOUCHING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("eviction");
    let mut config = ServeConfig::new(dir.clone());
    // Each scenario compiles 2 cohort builds; a capacity of 2 forces
    // eviction across the sequence of distinct submissions.
    config.prepared_cache_capacity = Some(2);
    let handle = start(&config).unwrap();
    let mut client = Client::connect(&handle.local_addr().to_string()).unwrap();

    let before = match client.stats().unwrap() {
        Response::Stats {
            cache_evictions, ..
        } => cache_evictions,
        other => panic!("unexpected stats response {other:?}"),
    };

    let mut reports = Vec::new();
    for i in 0..3 {
        let text = scenario_text(&format!("ev{i}"), 200 + i);
        let (fp, _) = client.submit(&text).unwrap();
        reports.push((text, client.wait_report(fp, WAIT).unwrap()));
    }

    let (after_len, after_cap, after_evictions) = match client.stats().unwrap() {
        Response::Stats {
            cache_len,
            cache_capacity,
            cache_evictions,
            ..
        } => (cache_len, cache_capacity, cache_evictions),
        other => panic!("unexpected stats response {other:?}"),
    };
    assert_eq!(after_cap, 2);
    assert!(after_len <= 2, "cache exceeded its bound: {after_len}");
    assert!(
        after_evictions > before,
        "no evictions observed across distinct submissions"
    );

    // Evicted-and-recompiled builds still produce byte-exact reports.
    for (text, report) in &reports {
        assert_eq!(report, &reference_report(text));
    }

    // Restore the default bound for whatever runs next.
    wn_core::set_prepared_cache_capacity(64);
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pause_mid_scenario_and_restart_resumes_byte_exactly() {
    let _guard = CACHE_TOUCHING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("resume");
    let text = scenario_text("resume", 300);
    let fingerprint = FleetScenario::parse(&text).unwrap().fingerprint();

    // First daemon, with the fault-injection hook standing in for a
    // SIGTERM arriving mid-scenario: the sweep pauses after one shard,
    // durably checkpointed, report unpublished.
    let mut first_config = ServeConfig::new(dir.clone());
    first_config.stop_after_shards = Some(1);
    let handle = start(&first_config).unwrap();
    let addr = handle.local_addr().to_string();
    let mut submitter = Client::connect(&addr).unwrap();
    let (fp, state) = submitter.submit(&text).unwrap();
    assert_eq!(fp, fingerprint);
    assert_eq!(state, JobState::Queued);

    // Watch from a second connection on its own thread: the paused job
    // never sends `done`, so the stream only ends when the daemon
    // stops and closes it.
    let watch_thread = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut watcher = Client::connect(&addr).unwrap();
            let mut lines = Vec::new();
            let _ = watcher.watch(fp, |event| {
                if let Event::Shard { line, .. } = event {
                    lines.push(line.clone());
                }
            });
            lines
        }
    });
    // Wait for the pause to land, then stop the daemon.
    let ckpt_path = dir.join("ckpt").join(format!("{fp:016x}.ckpt.json"));
    let deadline = std::time::Instant::now() + WAIT;
    while !ckpt_path.exists() {
        assert!(std::time::Instant::now() < deadline, "pause never landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join();
    let first_lines = watch_thread.join().unwrap();

    let store = wn_serve::Store::open(&dir).unwrap();
    assert!(!store.is_done(fp), "hook must pause, not finish");
    assert_eq!(store.unfinished(), vec![fp], "journal must list the job");
    assert!(ckpt_path.exists(), "paused without a checkpoint on disk");
    assert!(
        first_lines.len() <= 1,
        "at most the single pre-pause shard event can stream: {first_lines:?}"
    );

    // Second daemon over the same data directory: recovers the job
    // from the journal, resumes from the checkpoint, finishes.
    let handle = start(&ServeConfig::new(dir.clone())).unwrap();
    let mut client = Client::connect(&handle.local_addr().to_string()).unwrap();
    let report = client.wait_report(fp, WAIT).unwrap();
    assert_eq!(
        report,
        reference_report(&text),
        "resumed report differs from an uninterrupted run"
    );

    // The shard log accumulated across both daemon lifetimes replays
    // the full sweep: resumed shards continue, they do not duplicate.
    let log = std::fs::read_to_string(dir.join("shards").join(format!("{fp:016x}.jsonl"))).unwrap();
    let shard_count = FleetScenario::parse(&text).unwrap().shard_count();
    assert_eq!(
        log.lines().count(),
        shard_count,
        "shard log must hold exactly one line per shard across the restart"
    );

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_loopback_ping_does_not_wait_on_a_delayed_ack() {
    // A request split over two small writes stalls on the peer's
    // delayed ACK (~40 ms under Nagle's algorithm); one write answers
    // on loopback in well under a millisecond.
    let dir = temp_dir("ping");
    let handle = start(&ServeConfig::new(dir.clone())).unwrap();
    let mut client = Client::connect(&handle.local_addr().to_string()).unwrap();
    client.ping().unwrap();
    let mut rtts: Vec<Duration> = (0..10)
        .map(|_| {
            let t = std::time::Instant::now();
            client.ping().unwrap();
            t.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median ping {median:?} over {rtts:?}"
    );

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wait_report_times_out_on_a_paused_job() {
    let _guard = CACHE_TOUCHING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("timeout");
    // The job pauses after one shard and never finishes in this daemon.
    let mut config = ServeConfig::new(dir.clone());
    config.stop_after_shards = Some(1);
    let handle = start(&config).unwrap();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let (fp, _) = client.submit(&scenario_text("timeout", 400)).unwrap();

    let timeout = Duration::from_millis(400);
    let started = Instant::now();
    let waited = client.wait_report(fp, timeout);
    let elapsed = started.elapsed();
    assert!(
        matches!(waited, Err(ClientError::Timeout { fingerprint }) if fingerprint == fp),
        "{waited:?}"
    );
    assert!(elapsed >= timeout, "timed out early, after {elapsed:?}");
    assert!(
        elapsed < timeout * 25,
        "the deadline did not hold: {elapsed:?}"
    );

    // The timed-out client is mid-stream; stop the daemon from another.
    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}
