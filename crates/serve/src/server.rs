//! The wn-serve daemon: accept loop, request handling, and the
//! scheduler that drains the job queue through the fleet runner.
//!
//! One scenario runs at a time (the fleet runner already saturates the
//! machine through `wn_core::jobs::JobPool`); concurrency lives in the
//! queue, the subscriber fan-out, and the per-connection threads. The
//! durability story is a composition of invariants proved lower in the
//! stack: submits are journaled before they are acknowledged
//! ([`crate::store`]), every shard boundary is a durable checkpoint
//! ([`wn_fleet::checkpoint`]), and a fleet report is a pure function of
//! its scenario — so a daemon killed at any instant and restarted over
//! the same data directory serves byte-identical reports.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use wn_core::prepared::{prepared_cache_stats, set_prepared_cache_capacity};
use wn_fleet::{run_fleet_with, FleetOptions, FleetScenario, FleetStatus};

use crate::protocol::{Event, JobState, LineReader, ProtoError, Request, Response, MAX_LINE_BYTES};
use crate::queue::{JobQueue, PushError, QueuedJob};
use crate::store::Store;

/// How often blocking loops (accept, scheduler pop, watch forward)
/// re-check the stop flag.
const POLL: Duration = Duration::from_millis(25);

/// SIGTERM/SIGINT land here; polled by every server with signal
/// handlers installed. Process-global by nature — the handler has no
/// way to address one server instance.
static SIGNAL_STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one atomic store.
    SIGNAL_STOP.store(true, Ordering::SeqCst);
}

/// Installs the handler for SIGTERM (15) and SIGINT (2) via the libc
/// `signal` symbol directly — the toolchain links libc on this target
/// and the container offers no signal-handling crate.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(15, handler); // SIGTERM
        signal(2, handler); // SIGINT
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Root of the durable store ([`crate::store`] layout).
    pub data_dir: PathBuf,
    /// Job-queue bound: submits beyond this are refused, not buffered.
    pub queue_capacity: usize,
    /// Worker width for fleet runs; `None` uses the global pool.
    pub jobs: Option<usize>,
    /// Rebound the process-wide compilation cache at startup.
    pub prepared_cache_capacity: Option<usize>,
    /// Install SIGTERM/SIGINT handlers that trigger graceful pause.
    /// Tests restarting servers in-process leave this off and drive
    /// [`ServerHandle::shutdown`] instead — the signal flag is
    /// process-global and would couple them.
    pub install_signal_handlers: bool,
    /// Fault-injection hook for tests and CI: pause every job after
    /// this many newly-run shards, leaving it checkpointed and
    /// unfinished — a deterministic stand-in for a kill arriving
    /// mid-scenario. A daemon restarted without the hook resumes and
    /// finishes the job.
    pub stop_after_shards: Option<usize>,
}

impl ServeConfig {
    /// Daemon defaults rooted at `data_dir`, binding an ephemeral
    /// localhost port.
    pub fn new(data_dir: PathBuf) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir,
            queue_capacity: 64,
            jobs: None,
            prepared_cache_capacity: None,
            install_signal_handlers: false,
            stop_after_shards: None,
        }
    }
}

/// Shared server state.
struct Inner {
    store: Store,
    queue: JobQueue,
    /// Graceful-stop flag: accept loop stops accepting, the in-flight
    /// run pauses at its next shard boundary (checkpoint already
    /// durable), scheduler exits.
    stop: AtomicBool,
    /// Fingerprint currently executing, if any.
    running: Mutex<Option<u64>>,
    /// Jobs that failed with a fleet error this process lifetime.
    failed: Mutex<HashMap<u64, String>>,
    /// Progress subscribers per fingerprint.
    subscribers: Mutex<HashMap<u64, Vec<mpsc::Sender<Event>>>>,
    jobs: Option<usize>,
    signals: bool,
    stop_after_shards: Option<usize>,
}

impl Inner {
    fn stopping(&self) -> bool {
        if self.signals && SIGNAL_STOP.load(Ordering::SeqCst) {
            // Mirror the process-global signal into this server's flag
            // so the in-flight run's pause reference observes it.
            self.stop.store(true, Ordering::SeqCst);
        }
        self.stop.load(Ordering::SeqCst)
    }

    fn running_fp(&self) -> Option<u64> {
        *self.running.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The externally visible state of a fingerprint, if known.
    fn job_state(&self, fp: u64) -> Option<JobState> {
        if self.store.is_done(fp) {
            Some(JobState::Done)
        } else if self.running_fp() == Some(fp) {
            Some(JobState::Running)
        } else if self.queue.contains(fp) || self.store.scenario(fp).is_some() {
            Some(JobState::Queued)
        } else {
            None
        }
    }

    fn subscribe(&self, fp: u64) -> mpsc::Receiver<Event> {
        let (tx, rx) = mpsc::channel();
        self.subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(fp)
            .or_default()
            .push(tx);
        rx
    }

    fn broadcast(&self, fp: u64, event: &Event) {
        let mut subs = self
            .subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(list) = subs.get_mut(&fp) {
            // Dead subscribers (dropped receivers) fall out here.
            list.retain(|tx| tx.send(event.clone()).is_ok());
        }
        if matches!(event, Event::Done { .. }) {
            subs.remove(&fp);
        }
    }
}

/// A started daemon: its bound address plus the accept/scheduler
/// threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop: pause in-flight work at the next
    /// shard boundary, stop accepting, drain threads.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.queue.close();
    }

    /// Waits for the accept and scheduler threads to exit. Connection
    /// threads are detached; they die with their sockets.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts the daemon: opens the store, re-enqueues unfinished jobs
/// from the journal (each resumes from its shard checkpoint), binds
/// the listener, and spawns the accept and scheduler threads.
///
/// # Errors
///
/// Propagates store-open and bind failures.
pub fn start(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    if let Some(cap) = config.prepared_cache_capacity {
        set_prepared_cache_capacity(cap);
    }
    if config.install_signal_handlers {
        install_signal_handlers();
    }
    let store = Store::open(&config.data_dir)?;
    let inner = Arc::new(Inner {
        queue: JobQueue::new(config.queue_capacity),
        stop: AtomicBool::new(false),
        running: Mutex::new(None),
        failed: Mutex::new(HashMap::new()),
        subscribers: Mutex::new(HashMap::new()),
        jobs: config.jobs,
        signals: config.install_signal_handlers,
        stop_after_shards: config.stop_after_shards,
        store,
    });

    // Crash recovery: every journaled scenario without a report is an
    // unfinished job; re-enqueue it to resume from its checkpoint.
    for fp in inner.store.unfinished() {
        if let Some(text) = inner.store.scenario(fp) {
            let _ = inner.queue.push(QueuedJob {
                fingerprint: fp,
                scenario_text: text,
            });
        }
    }

    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let accept_inner = Arc::clone(&inner);
    let accept = thread::spawn(move || accept_loop(&accept_inner, &listener));
    let sched_inner = Arc::clone(&inner);
    let scheduler = thread::spawn(move || scheduler_loop(&sched_inner));

    Ok(ServerHandle {
        addr,
        inner,
        threads: vec![accept, scheduler],
    })
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    while !inner.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                thread::spawn(move || {
                    let _ = serve_connection(&conn_inner, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
    // Stop feeding the scheduler and wake its blocked pop.
    inner.queue.close();
}

fn scheduler_loop(inner: &Arc<Inner>) {
    loop {
        if inner.stopping() {
            return;
        }
        let Some(job) = inner.queue.pop(POLL) else {
            continue;
        };
        run_job(inner, &job);
    }
}

fn run_job(inner: &Arc<Inner>, job: &QueuedJob) {
    let fp = job.fingerprint;
    let scenario = match FleetScenario::parse(&job.scenario_text) {
        Ok(s) => s,
        Err(e) => {
            // Submits are parse-validated, so only journal corruption
            // lands here; surface it through `report`.
            inner
                .failed
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(fp, e.to_string());
            return;
        }
    };
    *inner.running.lock().unwrap_or_else(PoisonError::into_inner) = Some(fp);
    let options = FleetOptions {
        jobs: inner.jobs,
        checkpoint: Some(inner.store.checkpoint_path(fp)),
        resume: true,
        shard_log: Some(inner.store.shard_log_path(fp)),
        stop_after_shards: inner.stop_after_shards,
    };
    let shard_count = scenario.shard_count() as u64;
    let result = run_fleet_with(&scenario, &options, Some(&inner.stop), |p| {
        inner.broadcast(
            fp,
            &Event::Shard {
                fingerprint: fp,
                shard: p.shard as u64,
                shard_count,
                line: p.line.to_string(),
            },
        );
    });
    *inner.running.lock().unwrap_or_else(PoisonError::into_inner) = None;
    match result {
        Ok(FleetStatus::Complete(report)) => {
            match inner.store.publish_report(fp, &report.to_json()) {
                Ok(()) => {
                    // Checkpoint is now redundant; the report is the
                    // durable artifact.
                    let _ = std::fs::remove_file(inner.store.checkpoint_path(fp));
                    inner.broadcast(fp, &Event::Done { fingerprint: fp });
                }
                Err(e) => {
                    inner
                        .failed
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(fp, format!("publishing report: {e}"));
                }
            }
        }
        Ok(FleetStatus::Paused { .. }) => {
            // Stop-flag pause: the checkpoint holds the progress; the
            // journal still lists the job, so the next start resumes
            // it. Nothing to record.
        }
        Err(e) => {
            inner
                .failed
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(fp, e.to_string());
        }
    }
}

/// Handles one client connection: a request/response loop, with
/// `watch` switching the connection to event streaming until the
/// watched job finishes.
fn serve_connection(inner: &Arc<Inner>, stream: TcpStream) -> Result<(), ProtoError> {
    let write_stream = stream.try_clone()?;
    let mut out = std::io::BufWriter::new(write_stream);
    let mut reader = LineReader::with_max_line(stream, MAX_LINE_BYTES);
    loop {
        let line = match reader.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e @ (ProtoError::Truncated | ProtoError::Io(_))) => return Err(e),
            Err(e) => {
                // Parse-level garbage gets a structured error; an
                // oversized line has desynced framing, so close after.
                send_line(
                    &mut out,
                    &Response::Error {
                        error: e.to_string(),
                    }
                    .to_line(),
                )?;
                if matches!(e, ProtoError::Oversized { .. }) {
                    return Err(e);
                }
                continue;
            }
        };
        let request = match Request::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                send_line(
                    &mut out,
                    &Response::Error {
                        error: e.to_string(),
                    }
                    .to_line(),
                )?;
                continue;
            }
        };
        match request {
            Request::Submit { scenario } => {
                let resp = handle_submit(inner, &scenario);
                send_line(&mut out, &resp.to_line())?;
            }
            Request::Report { fingerprint } => {
                let resp = handle_report(inner, fingerprint);
                send_line(&mut out, &resp.to_line())?;
            }
            Request::Watch { fingerprint } => {
                // Subscribe before the done-check so a finish between
                // the two still delivers its Done event.
                let rx = inner.subscribe(fingerprint);
                send_line(&mut out, &Response::Watching { fingerprint }.to_line())?;
                if inner.store.is_done(fingerprint) {
                    send_line(&mut out, &Event::Done { fingerprint }.to_line())?;
                    continue;
                }
                loop {
                    match rx.recv_timeout(POLL) {
                        Ok(event) => {
                            let done = matches!(event, Event::Done { .. });
                            send_line(&mut out, &event.to_line())?;
                            if done {
                                break;
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if inner.stopping() {
                                return Ok(());
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            // Broadcaster dropped us (job finished and
                            // map entry cleared) — emit Done if the
                            // report landed, else close.
                            if inner.store.is_done(fingerprint) {
                                send_line(&mut out, &Event::Done { fingerprint }.to_line())?;
                            }
                            break;
                        }
                    }
                }
            }
            Request::Stats => {
                let cache = prepared_cache_stats();
                let memo = wn_energy::memo_stats::snapshot();
                let resp = Response::Stats {
                    queued: inner.queue.len() as u64,
                    running: u64::from(inner.running_fp().is_some()),
                    done: inner.store.done_count(),
                    cache_len: cache.len as u64,
                    cache_capacity: cache.capacity as u64,
                    cache_evictions: cache.evictions,
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                    supply_memo_hits: memo.memo_hits,
                    supply_memo_misses: memo.memo_misses,
                    supply_charge_ff_steps: memo.charge_ff_steps,
                };
                send_line(&mut out, &resp.to_line())?;
            }
            Request::Ping => send_line(&mut out, &Response::Pong.to_line())?,
            Request::Shutdown => {
                send_line(&mut out, &Response::ShuttingDown.to_line())?;
                inner.stop.store(true, Ordering::SeqCst);
                inner.queue.close();
            }
        }
    }
}

fn handle_submit(inner: &Arc<Inner>, scenario_text: &str) -> Response {
    let scenario = match FleetScenario::parse(scenario_text) {
        Ok(s) => s,
        Err(e) => {
            return Response::Error {
                error: e.to_string(),
            }
        }
    };
    let fp = scenario.fingerprint();
    // Idempotent resubmit: a known fingerprint reports its state.
    if let Some(state) = inner.job_state(fp) {
        return Response::Submitted {
            fingerprint: fp,
            state,
        };
    }
    // Journal durably *before* acknowledging: an acked submit survives
    // any crash from here on.
    if let Err(e) = inner.store.journal_scenario(fp, scenario_text) {
        return Response::Error {
            error: format!("journaling scenario: {e}"),
        };
    }
    match inner.queue.push(QueuedJob {
        fingerprint: fp,
        scenario_text: scenario_text.to_string(),
    }) {
        Ok(()) | Err(PushError::AlreadyQueued) => Response::Submitted {
            fingerprint: fp,
            state: JobState::Queued,
        },
        Err(PushError::Full { capacity }) => {
            // Roll the journal back so the refused job is not silently
            // resurrected at the next restart.
            let _ = std::fs::remove_file(inner.store.scenario_path(fp));
            Response::Error {
                error: format!("queue full ({capacity} jobs); retry later"),
            }
        }
    }
}

fn handle_report(inner: &Arc<Inner>, fp: u64) -> Response {
    if let Some(report) = inner.store.report(fp) {
        return Response::Report {
            fingerprint: fp,
            report,
        };
    }
    if let Some(error) = inner
        .failed
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&fp)
    {
        return Response::Error {
            error: format!("job {fp:016x} failed: {error}"),
        };
    }
    match inner.job_state(fp) {
        Some(state) => Response::Pending {
            fingerprint: fp,
            state,
        },
        None => Response::Error {
            error: format!("unknown fingerprint {fp:016x}"),
        },
    }
}

fn send_line(out: &mut impl Write, line: &str) -> Result<(), ProtoError> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    Ok(())
}
