//! `wn-serve` — the fleet-as-a-service daemon and its client CLI.
//!
//! ```text
//! wn-serve listen --data-dir DIR [--addr HOST:PORT] [--jobs N]
//!                 [--queue N] [--cache-cap N]
//! wn-serve submit   --addr HOST:PORT <scenario.toml|.json> [--wait SECS]
//! wn-serve report   --addr HOST:PORT <fingerprint|scenario file>
//! wn-serve watch    --addr HOST:PORT <fingerprint|scenario file>
//! wn-serve stats    --addr HOST:PORT
//! wn-serve ping     --addr HOST:PORT
//! wn-serve shutdown --addr HOST:PORT
//! ```
//!
//! `listen` runs until SIGTERM/SIGINT (or a client `shutdown`), pausing
//! any in-flight sweep at its next shard boundary; restarting over the
//! same `--data-dir` resumes every unfinished job byte-exactly.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use wn_fleet::FleetScenario;
use wn_serve::protocol::Event;
use wn_serve::server::{start, ServeConfig};
use wn_serve::Client;

const USAGE: &str = "usage: wn-serve listen --data-dir DIR [--addr HOST:PORT] [--jobs N] [--queue N] [--cache-cap N] [--stop-after-shards N]\n       wn-serve submit --addr HOST:PORT <scenario> [--wait SECS]\n       wn-serve report|watch --addr HOST:PORT <fingerprint|scenario>\n       wn-serve stats|ping|shutdown --addr HOST:PORT";

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn positional(args: &[String]) -> Option<String> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        return Some(a.clone());
    }
    None
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("wn-serve: {msg}\n{USAGE}");
    ExitCode::FAILURE
}

/// Resolves a job argument: a 16-hex fingerprint, or a scenario file
/// whose fingerprint we compute locally (the same pure function the
/// server applies).
fn resolve_fingerprint(arg: &str) -> Result<u64, String> {
    if let Ok(fp) = u64::from_str_radix(arg, 16) {
        if arg.len() == 16 {
            return Ok(fp);
        }
    }
    let text =
        std::fs::read_to_string(arg).map_err(|e| format!("reading scenario `{arg}`: {e}"))?;
    let scenario = FleetScenario::parse(&text).map_err(|e| e.to_string())?;
    Ok(scenario.fingerprint())
}

fn connect(args: &[String]) -> Result<Client, String> {
    let addr = flag_value(args, "--addr").ok_or("missing --addr")?;
    Client::connect(&addr).map_err(|e| format!("connecting to {addr}: {e}"))
}

fn listen(args: &[String]) -> Result<(), String> {
    let data_dir = flag_value(args, "--data-dir").ok_or("listen needs --data-dir")?;
    let mut config = ServeConfig::new(PathBuf::from(data_dir));
    config.install_signal_handlers = true;
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr;
    }
    if let Some(jobs) = flag_value(args, "--jobs") {
        config.jobs = Some(
            jobs.parse::<usize>()
                .map_err(|_| "--jobs must be a number")?,
        );
    }
    if let Some(cap) = flag_value(args, "--queue") {
        config.queue_capacity = cap
            .parse::<usize>()
            .map_err(|_| "--queue must be a number")?;
    }
    if let Some(cap) = flag_value(args, "--cache-cap") {
        config.prepared_cache_capacity = Some(
            cap.parse::<usize>()
                .map_err(|_| "--cache-cap must be a number")?,
        );
    }
    if let Some(n) = flag_value(args, "--stop-after-shards") {
        config.stop_after_shards = Some(
            n.parse::<usize>()
                .map_err(|_| "--stop-after-shards must be a number")?,
        );
    }
    let handle = start(&config).map_err(|e| format!("starting server: {e}"))?;
    println!("wn-serve listening on {}", handle.local_addr());
    handle.join();
    println!("wn-serve stopped");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return fail("missing subcommand");
    };
    let rest = &args[1..];
    let result = match cmd {
        "listen" => listen(rest),
        "submit" => (|| {
            let file = positional(rest).ok_or("submit needs a scenario file")?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("reading scenario `{file}`: {e}"))?;
            let mut client = connect(rest)?;
            let (fp, state) = client.submit(&text).map_err(|e| e.to_string())?;
            println!("{fp:016x} {}", state.as_str());
            if let Some(wait) = flag_value(rest, "--wait") {
                let secs = wait.parse::<u64>().map_err(|_| "--wait must be seconds")?;
                let report = client
                    .wait_report(fp, Duration::from_secs(secs))
                    .map_err(|e| e.to_string())?;
                println!("{report}");
            }
            Ok(())
        })(),
        "report" => (|| {
            let arg = positional(rest).ok_or("report needs a fingerprint or scenario")?;
            let fp = resolve_fingerprint(&arg)?;
            let mut client = connect(rest)?;
            match client.report(fp).map_err(|e| e.to_string())? {
                Some(report) => {
                    println!("{report}");
                    Ok(())
                }
                None => Err(format!("job {fp:016x} has not finished")),
            }
        })(),
        "watch" => (|| {
            let arg = positional(rest).ok_or("watch needs a fingerprint or scenario")?;
            let fp = resolve_fingerprint(&arg)?;
            let mut client = connect(rest)?;
            client
                .watch(fp, |event| match event {
                    Event::Shard { line, .. } => println!("{line}"),
                    Event::Done { fingerprint } => println!("done {fingerprint:016x}"),
                })
                .map_err(|e| e.to_string())
        })(),
        "stats" => (|| {
            let mut client = connect(rest)?;
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!("{}", stats.to_line());
            Ok(())
        })(),
        "ping" => (|| {
            let mut client = connect(rest)?;
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
            Ok(())
        })(),
        "shutdown" => (|| {
            let mut client = connect(rest)?;
            client.shutdown().map_err(|e| e.to_string())?;
            println!("shutting down");
            Ok(())
        })(),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(&msg),
    }
}
