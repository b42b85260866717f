//! `serve-churn`: an in-process `wn-serve` daemon on a fresh data
//! directory, driven by two closed-loop clients. Each client alternates
//! a *cold* submit — a small many-shard scenario with a seed the daemon
//! has never seen, which takes the write path (parse, journal, queue,
//! compile, fleet run, per-shard checkpoint, report publish) — with a
//! *cached* resubmit of a scenario it already finished, which takes the
//! read path (parse, store lookup, report fetch).
//!
//! Completion is detected with `Client::watch` (the daemon pushes the
//! event) rather than `wait_report`, whose 50 ms poll would quantize
//! every latency. The public `Client` is used unchanged, so transport
//! costs show as they are.

use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use wn_energy::memo_stats;
use wn_fleet::{run_fleet, FleetOptions, FleetScenario, FleetStatus};
use wn_serve::protocol::{Event, JobState};
use wn_serve::server::{self, ServeConfig, ServerHandle};
use wn_serve::store::Store;
use wn_serve::{Client, ClientError};

use crate::common::{median, tail, Ledger, Spans, SETUP_REPS};
use crate::fleet::{count_metrics, decompose};
use crate::{Args, Outcome, JOBS};

/// Closed-loop client threads.
const CLIENTS: usize = 2;

/// A small many-shard population: four shards over both checkpoint
/// substrates and the task substrate.
pub fn cold_scenario(seed: u64) -> String {
    format!(
        r#"[fleet]
name = "churn"
seed = {seed}
shard_size = 16
wall_limit_s = 600.0
trace_duration_s = 20.0
scale = "quick"

[[cohort]]
count = 24
benchmark = "matadd"
technique = "anytime8"
substrate = "clank"
capacitance_uf = 1.0
environment = "rf-bursty"

[[cohort]]
count = 24
benchmark = "home"
technique = "anytime8"
substrate = "nvp"
capacitance_uf = 1.0
environment = "solar"
day_s = 10.0

[[cohort]]
count = 16
benchmark = "var"
technique = "anytime8"
substrate = "task"
capacitance_uf = 10.0
environment = "rf-bursty"
"#
    )
}

/// A distinct scenario seed per (run seed, client, request).
fn cold_seed(seed: u64, client: usize, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add((client as u64) << 32)
        .wrapping_add(k)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Cached,
}

/// One request's client-side timeline, in seconds.
#[derive(Debug, Clone, Copy)]
struct Request {
    kind: Kind,
    latency: f64,
    submit: f64,
    /// Acknowledgement to the first shard event (cold only).
    queue_wait: f64,
    /// First shard event to `Done` (cold only).
    run: f64,
    fetch: f64,
    /// The first shard event seen was shard 0.
    saw_first_shard: bool,
    client: usize,
    acked_at: Instant,
    done_at: Instant,
}

/// A finished cold job a client can resubmit.
struct Finished {
    text: String,
    fingerprint: u64,
    report: String,
}

/// One client's share of a churn window.
#[derive(Default)]
struct ClientLog {
    id: usize,
    requests: Vec<Request>,
    finished: Vec<Finished>,
    ledger: Ledger,
    cold_devices: u64,
}

/// Counts a failed client call. A queue-full refusal is a failed
/// operation, reported loudly and never retried.
fn fail<T>(ledger: &mut Ledger, what: &str, e: &ClientError) -> Option<T> {
    let loud = matches!(e, ClientError::Server(m) if m.contains("queue full"));
    ledger.check(false, || {
        format!(
            "{what}: {e}{}",
            if loud { " (QUEUE FULL refusal)" } else { "" }
        )
    });
    None
}

/// Submits a never-seen scenario and waits for its report.
fn cold(client: &mut Client, text: String, log: &mut ClientLog) -> Option<Request> {
    let t0 = Instant::now();
    let (fingerprint, state) = match client.submit(&text) {
        Ok(ack) => ack,
        Err(e) => return fail(&mut log.ledger, "cold submit", &e),
    };
    let acked = Instant::now();
    log.ledger.check(
        state == JobState::Queued || state == JobState::Running,
        || format!("cold submit of a never-seen seed answered {state:?}"),
    );
    let (mut first, mut first_index, mut done) = (None, None, None);
    if let Err(e) = client.watch(fingerprint, |event| match event {
        Event::Shard { shard, .. } if first.is_none() => {
            first = Some(Instant::now());
            first_index = Some(*shard);
        }
        Event::Done { .. } => done = Some(Instant::now()),
        Event::Shard { .. } => {}
    }) {
        return fail(&mut log.ledger, "watch", &e);
    }
    let done = done.expect("watch returns after the Done event");
    let report = match client.report(fingerprint) {
        Ok(Some(report)) => report,
        Ok(None) => {
            log.ledger
                .check(false, || "report pending after Done".to_string());
            return None;
        }
        Err(e) => return fail(&mut log.ledger, "report", &e),
    };
    let end = Instant::now();
    log.ledger.check(report.contains("wn-fleet-report-v1"), || {
        "cold report has no schema".to_string()
    });
    let first = first.unwrap_or(done);
    log.cold_devices += FleetScenario::parse(&text).map_or(0, |s| s.total_devices());
    log.finished.push(Finished {
        text,
        fingerprint,
        report,
    });
    Some(Request {
        kind: Kind::Cold,
        latency: (end - t0).as_secs_f64(),
        submit: (acked - t0).as_secs_f64(),
        queue_wait: (first - acked).as_secs_f64(),
        run: (done - first).as_secs_f64(),
        fetch: (end - done).as_secs_f64(),
        saw_first_shard: first_index == Some(0),
        client: log.id,
        acked_at: acked,
        done_at: done,
    })
}

/// Resubmits a finished scenario; the daemon must answer `Done` and
/// serve the same bytes.
fn cached(client: &mut Client, job: usize, log: &mut ClientLog) -> Option<Request> {
    let (text, fingerprint) = (&log.finished[job].text, log.finished[job].fingerprint);
    let t0 = Instant::now();
    let state = match client.submit(text) {
        Ok((fp, state)) => {
            log.ledger.check(fp == fingerprint, || {
                "resubmit changed the fingerprint".to_string()
            });
            state
        }
        Err(e) => return fail(&mut log.ledger, "cached submit", &e),
    };
    let acked = Instant::now();
    log.ledger.check(state == JobState::Done, || {
        format!("cached resubmit answered {state:?}")
    });
    let report = match client.report(fingerprint) {
        Ok(Some(report)) => report,
        Ok(None) => {
            log.ledger
                .check(false, || "cached report pending".to_string());
            return None;
        }
        Err(e) => return fail(&mut log.ledger, "cached report", &e),
    };
    let end = Instant::now();
    log.ledger.check(report == log.finished[job].report, || {
        "cached report bytes changed".to_string()
    });
    Some(Request {
        kind: Kind::Cached,
        latency: (end - t0).as_secs_f64(),
        submit: (acked - t0).as_secs_f64(),
        queue_wait: 0.0,
        run: 0.0,
        fetch: (end - acked).as_secs_f64(),
        saw_first_shard: false,
        client: log.id,
        acked_at: acked,
        done_at: acked,
    })
}

/// One client: a warm-up cold job (so it has something to resubmit),
/// then cold/cached pairs until the window closes.
fn client_loop(
    addr: &str,
    seed: u64,
    id: usize,
    seconds: f64,
    start: &Barrier,
    first_k: u64,
) -> ClientLog {
    let mut log = ClientLog {
        id,
        ..ClientLog::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            fail::<()>(&mut log.ledger, "connect", &e);
            start.wait();
            return log;
        }
    };
    let mut k = first_k;
    let warm = cold(&mut client, cold_scenario(cold_seed(seed, id, k)), &mut log);
    start.wait();
    log.requests.clear();
    log.cold_devices = 0;
    if warm.is_none() {
        return log;
    }
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        k += 1;
        if let Some(r) = cold(&mut client, cold_scenario(cold_seed(seed, id, k)), &mut log) {
            log.requests.push(r);
        }
        if let Some(r) = cached(&mut client, n % log.finished.len(), &mut log) {
            log.requests.push(r);
        }
        n += 1;
    }
    log
}

/// A churn window: both clients from `first_k`, merged.
struct Window {
    requests: Vec<Request>,
    finished: Vec<Finished>,
    cold_devices: u64,
    secs: f64,
}

fn churn(addr: &str, args: &Args, seconds: f64, first_k: u64, ledger: &mut Ledger) -> Window {
    let start = Barrier::new(CLIENTS + 1);
    let (logs, secs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let start = &start;
                s.spawn(move || client_loop(addr, args.seed, id, seconds, start, first_k))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, t0.elapsed().as_secs_f64())
    });
    let mut window = Window {
        requests: Vec::new(),
        finished: Vec::new(),
        cold_devices: 0,
        secs,
    };
    for log in logs {
        ledger.attempted += log.ledger.attempted;
        ledger.failures.extend(log.ledger.failures);
        window.requests.extend(log.requests);
        window.finished.extend(log.finished);
        window.cold_devices += log.cold_devices;
    }
    window
}

fn latencies(w: &Window, kind: Kind) -> Vec<f64> {
    w.requests
        .iter()
        .filter(|r| r.kind == kind)
        .map(|r| r.latency)
        .collect()
}

/// Starts a daemon on a fresh data directory and proves it answers.
fn start_daemon(dir: &Path) -> (ServerHandle, String) {
    let mut config = ServeConfig::new(dir.to_path_buf());
    config.jobs = Some(JOBS);
    let handle = server::start(&config).expect("daemon starts");
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("daemon accepts");
    client.ping().expect("daemon answers ping");
    (handle, addr)
}

fn stop_daemon(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Daemon start (store open, bind, first ping) and the first cold job's
/// round trip, [`SETUP_REPS`] times on fresh data directories; the last daemon
/// stays up for the measurement.
fn setup(args: &Args, ledger: &mut Ledger) -> (f64, ServerHandle, String) {
    let mut times = Vec::new();
    let mut last: Option<(ServerHandle, String)> = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        let (handle, addr) = start_daemon(&args.scratch.join(format!("serve-{i}")));
        let mut log = ClientLog::default();
        let mut client = Client::connect(&addr).expect("daemon accepts");
        cold(
            &mut client,
            cold_scenario(cold_seed(args.seed, CLIENTS + i, 0)),
            &mut log,
        );
        times.push(t.elapsed().as_secs_f64());
        ledger.attempted += log.ledger.attempted;
        ledger.failures.extend(log.ledger.failures);
        if let Some((old, _)) = last.replace((handle, addr)) {
            stop_daemon(old);
        }
    }
    let (handle, addr) = last.expect("at least one daemon started");
    (median(&times), handle, addr)
}

/// Median seconds of `Store::journal_scenario` and `Store::publish_report`
/// over 20 fresh fingerprints, on a scratch store at `dir`.
fn store_io(dir: &Path, scenario: &str, report: &str) -> (f64, f64) {
    let store = Store::open(dir).expect("open store");
    let (mut journal, mut publish) = (Vec::new(), Vec::new());
    for i in 0..20u64 {
        let t = Instant::now();
        store
            .journal_scenario(i, scenario)
            .expect("journal scenario");
        journal.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        store.publish_report(i, report).expect("publish report");
        publish.push(t.elapsed().as_secs_f64());
    }
    (median(&journal), median(&publish))
}

/// The daemon layers for the layer probe: a fresh daemon answers ten
/// pings and one cold submission of `text`, then the store calls are
/// timed on its report.
pub fn probe(out: &mut Outcome, args: &Args, text: &str) {
    let (handle, addr) = start_daemon(&args.scratch.join("probe-serve"));
    let mut client = Client::connect(&addr).expect("daemon accepts");
    let mut rtts = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let ok = client.ping();
        rtts.push(t.elapsed().as_secs_f64());
        if let Err(e) = ok {
            fail::<()>(&mut out.ledger, "probe ping", &e);
        }
    }
    let mut log = ClientLog::default();
    let request = cold(&mut client, text.to_string(), &mut log);
    drop(client);
    stop_daemon(handle);
    out.ledger.attempted += log.ledger.attempted;
    out.ledger.failures.extend(log.ledger.failures);
    let (Some(r), Some(job)) = (request, log.finished.first()) else {
        return;
    };
    let (journal, publish) = store_io(&args.scratch.join("probe-store"), text, &job.report);
    let m = &mut out.metrics;
    m.insert("serve.rtt_ms", 1e3 * median(&rtts));
    m.insert("serve.submit_ms", 1e3 * r.submit);
    m.insert("serve.queue_wait_ms", 1e3 * r.queue_wait);
    m.insert("serve.run_ms", 1e3 * r.run);
    m.insert("serve.report_fetch_ms", 1e3 * r.fetch);
    m.insert("serve.journal_ms", 1e3 * journal);
    m.insert("serve.publish_ms", 1e3 * publish);
}

/// Served reports of a sample of cold jobs must equal an in-process
/// `run_fleet` of the same scenario byte for byte.
fn check_sample(ledger: &mut Ledger, finished: &[Finished]) {
    let step = (finished.len() / 3).max(1);
    for job in finished.iter().step_by(step).take(3) {
        let scenario = FleetScenario::parse(&job.text).expect("cold scenario parses");
        let local = match run_fleet(
            &scenario,
            &FleetOptions {
                jobs: Some(JOBS),
                ..FleetOptions::default()
            },
        ) {
            Ok(FleetStatus::Complete(r)) => Some(r.to_json()),
            _ => None,
        };
        ledger.check(local.as_deref() == Some(job.report.as_str()), || {
            format!(
                "served report {:016x} differs from an in-process run_fleet",
                job.fingerprint
            )
        });
    }
}

fn record_latencies(out: &mut Outcome, w: &Window) {
    for (name, kind) in [("cold", Kind::Cold), ("cached", Kind::Cached)] {
        let v = latencies(w, kind);
        if v.is_empty() {
            continue;
        }
        out.note(
            &format!("serve_{name}_p50_ms"),
            format!("{:.3} (n={})", 1e3 * median(&v), v.len()),
        );
        match tail(&v) {
            Some((value, pct)) => out.note(
                &format!("serve_{name}_tail_ms"),
                format!("{:.3} (p{pct:.1})", 1e3 * value),
            ),
            None => out.note(
                &format!("serve_{name}_tail_ms"),
                "n/a (fewer than 11 samples)",
            ),
        }
    }
    out.note(
        "serve_jobs_per_s",
        format!("{:.3}", w.requests.len() as f64 / w.secs),
    );
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new("churn-3-cohorts-64-devices".to_string());
    let (setup_s, handle, addr) = setup(args, &mut out.ledger);
    out.metrics.insert("setup_s", setup_s);
    let w = churn(&addr, args, args.seconds, 0, &mut out.ledger);
    stop_daemon(handle);
    let cold = latencies(&w, Kind::Cold);
    out.ledger
        .check(!cold.is_empty(), || "no cold request completed".to_string());
    if !cold.is_empty() {
        out.metrics.insert("result_s", median(&cold));
    }
    out.metrics
        .insert("devices_per_s", w.cold_devices as f64 / w.secs);
    record_latencies(&mut out, &w);
    check_sample(&mut out.ledger, &w.finished);
    out
}

/// Medians of one client-side segment over the cold requests.
fn segment(w: &Window, f: impl Fn(&Request) -> f64) -> f64 {
    let v: Vec<f64> = w
        .requests
        .iter()
        .filter(|r| r.kind == Kind::Cold)
        .map(f)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        1e3 * median(&v)
    }
}

/// An untraced window, then a traced one of the same length on the same
/// daemon; then, with the daemon stopped, the fleet work of five of the
/// window's cold scenarios and the store's journal/publish calls
/// re-executed from outside.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::new("churn-3-cohorts-64-devices".to_string());
    let (_, handle, addr) = setup(args, &mut out.ledger);
    let half = (args.seconds / 2.0).max(1.0);
    let untraced = churn(&addr, args, half, 0, &mut out.ledger);
    let w = churn(&addr, args, half, 1 << 20, &mut out.ledger);
    let mut client = Client::connect(&addr).expect("daemon accepts");
    let mut rtts = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let ok = client.ping();
        rtts.push(t.elapsed().as_secs_f64());
        if let Err(e) = ok {
            fail::<()>(&mut out.ledger, "ping", &e);
        }
    }
    drop(client);
    stop_daemon(handle);

    let m = &mut out.metrics;
    m.insert("serve.rtt_ms", 1e3 * median(&rtts));
    m.insert("serve.submit_ms", segment(&w, |r| r.submit));
    m.insert("serve.queue_wait_ms", segment(&w, |r| r.queue_wait));
    m.insert("serve.run_ms", segment(&w, |r| r.run));
    m.insert("serve.report_fetch_ms", segment(&w, |r| r.fetch));
    let rate = |w: &Window| w.requests.len() as f64 / w.secs;
    m.insert("trace_overhead", rate(&untraced) / rate(&w));
    let late = w
        .requests
        .iter()
        .filter(|r| r.kind == Kind::Cold && !r.saw_first_shard)
        .count();
    out.note("cold_requests_missing_shard0_event", late);
    record_latencies(&mut out, &w);

    // The write path's inner layers, timed from outside on five of
    // the window's own cold scenarios; each report must equal the served
    // one. The first client's first job — the same scenario for a given
    // seed, so its exact counts repeat — supplies the per-layer metrics.
    let sample: Vec<&Finished> = w.finished.iter().take(5).collect();
    let Some(job) = sample.first().copied() else {
        out.ledger
            .check(false, || "no cold job to decompose".to_string());
        return out;
    };
    let mut works = Vec::new();
    for (i, job) in sample.iter().enumerate().rev() {
        let scenario = FleetScenario::parse(&job.text).expect("cold scenario parses");
        let ckpt_dir = args.scratch.join(format!("outside-ckpt-{i}"));
        std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
        let mut pass = Outcome::new(String::new());
        memo_stats::reset();
        let t = Instant::now();
        let (report, counts) = decompose(&mut pass, &scenario, Some(&ckpt_dir));
        works.push(t.elapsed().as_secs_f64());
        let memo = memo_stats::snapshot();
        out.ledger.check(report.to_json() == job.report, || {
            "outside decomposition differs from the served report".to_string()
        });
        if i == 0 {
            count_metrics(&mut pass, &report, &counts);
            pass.memo_metrics(&memo);
            out.spans = pass.spans;
            out.thread_secs = pass.thread_secs;
            out.metrics.append(&mut pass.metrics);
            out.notes.append(&mut pass.notes);
        }
    }
    let fleet_work = median(&works);
    out.finish_spans();
    let (journal, publish) = store_io(&args.scratch.join("outside-store"), &job.text, &job.report);
    out.metrics.insert("serve.journal_ms", 1e3 * journal);
    out.metrics.insert("serve.publish_ms", 1e3 * publish);

    // Layer sum over the traced window. Submit and fetch are measured
    // per request; a cold job's time between acknowledgement and `Done`
    // is the wait behind the other client's job (the daemon runs one job
    // at a time) plus its own service, which the fleet work and store
    // calls re-executed above explain. What they leave (shard log,
    // event broadcast, scheduler hand-off) is the unaccounted share.
    let colds = w.requests.iter().filter(|r| r.kind == Kind::Cold).count() as f64;
    let sum = |f: fn(&Request) -> f64| w.requests.iter().map(f).sum::<f64>();
    let behind: f64 = w
        .requests
        .iter()
        .filter(|r| r.kind == Kind::Cold)
        .map(|r| {
            w.requests
                .iter()
                .filter(|o| o.kind == Kind::Cold && o.client != r.client)
                .filter(|o| o.acked_at <= r.acked_at && r.acked_at < o.done_at)
                .map(|o| (o.done_at.min(r.done_at) - r.acked_at).as_secs_f64())
                .sum::<f64>()
        })
        .sum();
    out.spans = Spans::new();
    out.spans.add("serve.submit", sum(|r| r.submit));
    out.spans.add("serve.wait_behind_other_job", behind);
    out.spans.add("serve.report_fetch", sum(|r| r.fetch));
    out.spans.add("serve.cold_fleet_work", colds * fleet_work);
    out.spans
        .add("serve.cold_store_io", colds * (journal + publish));
    out.thread_secs = sum(|r| r.latency);
    out.note("cold_run_s_total", format!("{:.4}", sum(|r| r.run)));
    out
}
