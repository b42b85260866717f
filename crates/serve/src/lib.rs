//! # wn-serve — fleet-as-a-service for the WN reproduction
//!
//! The batch CLI (`experiments fleet`) runs one scenario and exits.
//! This crate turns the same fleet runner into a long-running daemon:
//! scenarios arrive over a TCP socket as JSON lines ([`protocol`]),
//! wait in a bounded queue ([`queue`]), execute one at a time over the
//! shared `wn_core::jobs::JobPool`, stream `wn-fleet-shard-v1` progress
//! lines to `watch` subscribers, and land as `wn-fleet-report-v1`
//! documents in a durable on-disk store ([`store`]) keyed by scenario
//! fingerprint.
//!
//! The service adds **no result semantics of its own** — that is the
//! point. A fleet report is a pure function of its scenario, shard
//! boundaries are durable checkpoints, and submissions are journaled
//! before they are acknowledged; composing those invariants, a daemon
//! killed at any instant (SIGTERM, SIGKILL, power) and restarted over
//! the same data directory finishes every accepted job and serves
//! reports byte-identical to a CLI run of the same scenario.
//!
//! ## Quickstart
//!
//! ```
//! use std::time::Duration;
//! use wn_serve::{client::Client, server};
//!
//! let dir = std::env::temp_dir().join(format!("wn-serve-doc-{}", std::process::id()));
//! let handle = server::start(&server::ServeConfig::new(dir.clone()))?;
//! let mut client = Client::connect(&handle.local_addr().to_string())?;
//!
//! let scenario = r#"
//! [fleet]
//! name = "doc"
//! seed = 7
//! shard_size = 4
//! wall_limit_s = 600.0
//! trace_duration_s = 10.0
//!
//! [[cohort]]
//! count = 4
//! benchmark = "matadd"
//! technique = "precise"
//! substrate = "clank"
//! "#;
//! let (fingerprint, _state) = client.submit(scenario)?;
//! let report = client.wait_report(fingerprint, Duration::from_secs(120))?;
//! assert!(report.contains("wn-fleet-report-v1"));
//!
//! client.shutdown()?;
//! handle.join();
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod store;

pub use client::{Client, ClientError};
pub use protocol::{Event, JobState, LineReader, ProtoError, Request, Response};
pub use queue::{JobQueue, PushError, QueuedJob};
pub use server::{journaled_job, start, JobFailure, ServeConfig, ServerHandle};
pub use store::Store;
