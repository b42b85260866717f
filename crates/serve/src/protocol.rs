//! The wn-serve wire protocol: JSON lines over a byte stream.
//!
//! Every message is one JSON object on one `\n`-terminated line.
//! Requests carry `"schema":"wn-serve-req-v1"`, responses
//! `"wn-serve-resp-v1"`, and progress events pushed to `watch`
//! subscribers `"wn-serve-evt-v1"` — versioned exactly like the
//! `wn-fleet-*-v1` artifact schemas so incompatible changes rev the
//! suffix instead of silently breaking peers.
//!
//! Lines are read with the workspace's one total JSON reader,
//! [`wn_telemetry::json::parse`], and must be a flat object of
//! string/number/bool/null values (scenario text rides inside a string
//! field, so `\"` and `\\` are routine, not edge cases). Anything else —
//! nesting, trailing bytes, bad escapes, truncation, an oversized line —
//! is a typed [`ProtoError`], never a panic and never a hang.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Read;

use wn_telemetry::json::{self, Obj};

/// Request-line schema tag.
pub const REQ_SCHEMA: &str = "wn-serve-req-v1";
/// Response-line schema tag.
pub const RESP_SCHEMA: &str = "wn-serve-resp-v1";
/// Pushed progress-event schema tag.
pub const EVT_SCHEMA: &str = "wn-serve-evt-v1";

/// Hard cap on one protocol line. Scenarios are a few KiB and reports a
/// few hundred KiB; anything beyond this is a confused or hostile peer,
/// and the reader must bound memory before parsing.
pub const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// Everything that can go wrong reading or parsing protocol lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Line exceeded [`MAX_LINE_BYTES`] before a `\n` arrived.
    Oversized { limit: usize },
    /// Stream ended mid-line (no trailing newline).
    Truncated,
    /// Line is not valid UTF-8.
    Utf8,
    /// Line is not the flat JSON object the protocol speaks.
    Malformed(String),
    /// Well-formed JSON, but not a valid message of the expected kind.
    BadMessage(String),
    /// Underlying transport error.
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Oversized { limit } => {
                write!(f, "protocol line exceeds {limit} bytes")
            }
            ProtoError::Truncated => write!(f, "stream ended mid-line"),
            ProtoError::Utf8 => write!(f, "protocol line is not valid UTF-8"),
            ProtoError::Malformed(m) => write!(f, "malformed protocol line: {m}"),
            ProtoError::BadMessage(m) => write!(f, "bad protocol message: {m}"),
            ProtoError::Io(m) => write!(f, "protocol transport error: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e.to_string())
    }
}

/// One value in a protocol object (always a leaf: string, number,
/// bool or null — [`parse_object`] refuses nesting).
pub use wn_telemetry::json::Value;

/// A parsed flat JSON object. `BTreeMap` so iteration (and thus any
/// re-serialization) is deterministic.
pub type Fields = BTreeMap<String, Value>;

/// Parses one protocol line into its fields.
///
/// # Errors
///
/// [`ProtoError::Malformed`] on anything that is not a flat JSON object
/// (nesting included — the protocol is deliberately flat), duplicate
/// keys included: a peer sending `{"op":"a","op":"b"}` is ambiguous and
/// gets an error, mirroring the scenario parser's duplicate-key stance.
pub fn parse_object(line: &str) -> Result<Fields, ProtoError> {
    let malformed = ProtoError::Malformed;
    let Value::Obj(fields) = json::parse(line).map_err(|e| malformed(e.to_string()))? else {
        return Err(malformed("expected `{`".to_string()));
    };
    let nested = |v: &Value| matches!(v, Value::Arr(_) | Value::Obj(_));
    if fields.values().any(nested) {
        return Err(malformed(
            "nested values are not part of this protocol".to_string(),
        ));
    }
    Ok(fields)
}

/// The fields of one line that must carry `"schema": schema`.
fn message(line: &str, schema: &str) -> Result<Fields, ProtoError> {
    let fields = parse_object(line)?;
    match fields.get("schema").and_then(Value::as_str) {
        Some(s) if s == schema => Ok(fields),
        Some(other) => Err(bad(format!("unexpected schema `{other}`"))),
        None => Err(bad("missing schema field")),
    }
}

fn bad(msg: impl Into<String>) -> ProtoError {
    ProtoError::BadMessage(msg.into())
}

/// The hex `fingerprint` field.
fn fingerprint_field(fields: &Fields) -> Option<u64> {
    let hex = fields.get("fingerprint")?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// Moves the string field `key` out of `fields` (reports and scenarios
/// are large; no copy).
fn take_str(fields: &mut Fields, key: &str) -> Option<String> {
    match fields.remove(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Reads `\n`-terminated lines from a byte stream with a hard length
/// cap, robust to arbitrary read fragmentation: a line split across
/// any number of reads reassembles byte-exactly.
pub struct LineReader<R> {
    inner: R,
    /// Bytes read but not yet consumed into a returned line.
    buf: Vec<u8>,
    /// Scan position: everything before this has been checked for `\n`.
    scanned: usize,
    max_line: usize,
    chunk: [u8; 8192],
}

impl<R: Read> LineReader<R> {
    pub fn new(inner: R) -> LineReader<R> {
        LineReader::with_max_line(inner, MAX_LINE_BYTES)
    }

    pub fn with_max_line(inner: R, max_line: usize) -> LineReader<R> {
        LineReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            max_line,
            chunk: [0; 8192],
        }
    }

    /// The next complete line (without its newline), `None` at a clean
    /// end of stream.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversized`] once a line passes the cap (without
    /// buffering the rest), [`ProtoError::Truncated`] if the stream
    /// ends mid-line, [`ProtoError::Utf8`] on invalid UTF-8, and
    /// [`ProtoError::Io`] on transport errors.
    pub fn next_line(&mut self) -> Result<Option<String>, ProtoError> {
        loop {
            if let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + nl;
                if end > self.max_line {
                    return Err(ProtoError::Oversized {
                        limit: self.max_line,
                    });
                }
                let mut line: Vec<u8> = self.buf.drain(..=end).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                let line = String::from_utf8(line).map_err(|_| ProtoError::Utf8)?;
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max_line {
                return Err(ProtoError::Oversized {
                    limit: self.max_line,
                });
            }
            let n = self.inner.read(&mut self.chunk)?;
            if n == 0 {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(ProtoError::Truncated);
            }
            self.buf.extend_from_slice(&self.chunk[..n]);
        }
    }
}

/// Client → server requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a scenario for execution; `scenario` is the raw scenario
    /// text (TOML or JSON), byte-exactly what a CLI run would parse —
    /// which is what keeps the fingerprint, and therefore the report,
    /// identical across the service and CLI paths.
    Submit { scenario: String },
    /// Fetch the finished `wn-fleet-report-v1` document for a
    /// fingerprint.
    Report { fingerprint: u64 },
    /// Subscribe to `wn-fleet-shard-v1` progress lines for a
    /// fingerprint; the connection receives `wn-serve-evt-v1` events
    /// until the job finishes.
    Watch { fingerprint: u64 },
    /// Queue, store, and compilation-cache statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful daemon shutdown (pause in-flight work at the next
    /// shard boundary).
    Shutdown,
}

impl Request {
    /// Serializes the request as one protocol line (no newline).
    pub fn to_line(&self) -> String {
        let o = Obj::new().str("schema", REQ_SCHEMA);
        match self {
            Request::Submit { scenario } => {
                o.str("op", "submit").str("scenario", scenario).finish()
            }
            Request::Report { fingerprint } => o
                .str("op", "report")
                .str("fingerprint", &format!("{fingerprint:016x}"))
                .finish(),
            Request::Watch { fingerprint } => o
                .str("op", "watch")
                .str("fingerprint", &format!("{fingerprint:016x}"))
                .finish(),
            Request::Stats => o.str("op", "stats").finish(),
            Request::Ping => o.str("op", "ping").finish(),
            Request::Shutdown => o.str("op", "shutdown").finish(),
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for non-JSON, [`ProtoError::BadMessage`]
    /// for JSON that is not a `wn-serve-req-v1` request.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let mut fields = message(line, REQ_SCHEMA)?;
        let op = take_str(&mut fields, "op").ok_or_else(|| bad("missing op field"))?;
        let fingerprint = || {
            fingerprint_field(&fields)
                .ok_or_else(|| bad(format!("op `{op}` needs a hex fingerprint")))
        };
        match op.as_str() {
            "submit" => Ok(Request::Submit {
                scenario: take_str(&mut fields, "scenario")
                    .ok_or_else(|| bad("submit needs a scenario field"))?,
            }),
            "report" => Ok(Request::Report {
                fingerprint: fingerprint()?,
            }),
            "watch" => Ok(Request::Watch {
                fingerprint: fingerprint()?,
            }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(format!("unknown op `{other}`"))),
        }
    }
}

/// Job lifecycle states reported by `submit` and `report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }

    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            _ => None,
        }
    }
}

/// Server → client responses (one per request, in order).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Submission accepted (or recognized: resubmitting a known
    /// fingerprint is idempotent and reports its current state).
    Submitted { fingerprint: u64, state: JobState },
    /// The finished report document, verbatim `wn-fleet-report-v1`
    /// bytes.
    Report { fingerprint: u64, report: String },
    /// The job exists but has not finished; poll again or `watch`.
    Pending { fingerprint: u64, state: JobState },
    /// Watch subscription confirmed; events follow on this connection.
    Watching { fingerprint: u64 },
    /// Daemon statistics.
    Stats {
        queued: u64,
        running: u64,
        done: u64,
        cache_len: u64,
        cache_capacity: u64,
        cache_evictions: u64,
        cache_hits: u64,
        cache_misses: u64,
        /// Recharge waits replayed from the supply's immutable
        /// wait-chain table (`wn_energy::memo_stats`), across every
        /// sweep this daemon ran.
        supply_memo_hits: u64,
        /// Recharge waits longer than the table, chained from its end.
        supply_memo_misses: u64,
        /// 1 ms recharge steps elided by zero-run charge sprints.
        supply_charge_ff_steps: u64,
    },
    /// Ping reply.
    Pong,
    /// Shutdown acknowledged.
    ShuttingDown,
    /// The request failed; `error` says why.
    Error { error: String },
}

impl Response {
    /// Serializes the response as one protocol line (no newline).
    pub fn to_line(&self) -> String {
        let o = Obj::new().str("schema", RESP_SCHEMA);
        match self {
            Response::Submitted { fingerprint, state } => o
                .str("op", "submit")
                .bool("ok", true)
                .str("fingerprint", &format!("{fingerprint:016x}"))
                .str("state", state.as_str())
                .finish(),
            Response::Report {
                fingerprint,
                report,
            } => o
                .str("op", "report")
                .bool("ok", true)
                .str("fingerprint", &format!("{fingerprint:016x}"))
                .str("report", report)
                .finish(),
            Response::Pending { fingerprint, state } => o
                .str("op", "report")
                .bool("ok", false)
                .str("fingerprint", &format!("{fingerprint:016x}"))
                .str("state", state.as_str())
                .str("error", "not finished")
                .finish(),
            Response::Watching { fingerprint } => o
                .str("op", "watch")
                .bool("ok", true)
                .str("fingerprint", &format!("{fingerprint:016x}"))
                .finish(),
            Response::Stats {
                queued,
                running,
                done,
                cache_len,
                cache_capacity,
                cache_evictions,
                cache_hits,
                cache_misses,
                supply_memo_hits,
                supply_memo_misses,
                supply_charge_ff_steps,
            } => o
                .str("op", "stats")
                .bool("ok", true)
                .u64("queued", *queued)
                .u64("running", *running)
                .u64("done", *done)
                .u64("cache_len", *cache_len)
                .u64("cache_capacity", *cache_capacity)
                .u64("cache_evictions", *cache_evictions)
                .u64("cache_hits", *cache_hits)
                .u64("cache_misses", *cache_misses)
                .u64("supply_memo_hits", *supply_memo_hits)
                .u64("supply_memo_misses", *supply_memo_misses)
                .u64("supply_charge_ff_steps", *supply_charge_ff_steps)
                .finish(),
            Response::Pong => o.str("op", "ping").bool("ok", true).finish(),
            Response::ShuttingDown => o.str("op", "shutdown").bool("ok", true).finish(),
            Response::Error { error } => o.bool("ok", false).str("error", error).finish(),
        }
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`], for responses.
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let mut fields = message(line, RESP_SCHEMA)?;
        let ok = fields
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or_else(|| bad("missing ok field"))?;
        let op = take_str(&mut fields, "op").unwrap_or_default();
        let fingerprint = |fields: &Fields| {
            fingerprint_field(fields).ok_or_else(|| bad("missing/invalid fingerprint"))
        };
        let state = |fields: &Fields| {
            fields
                .get("state")
                .and_then(Value::as_str)
                .and_then(JobState::parse)
                .ok_or_else(|| bad("missing/invalid state"))
        };
        let u64_field = |name: &str| {
            fields
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(format!("missing/invalid {name}")))
        };
        if !ok {
            // `report` on an unfinished job is the one structured
            // failure; everything else is a plain error.
            if op == "report" && fields.contains_key("state") {
                return Ok(Response::Pending {
                    fingerprint: fingerprint(&fields)?,
                    state: state(&fields)?,
                });
            }
            let error =
                take_str(&mut fields, "error").unwrap_or_else(|| "unspecified error".to_string());
            return Ok(Response::Error { error });
        }
        match op.as_str() {
            "submit" => Ok(Response::Submitted {
                fingerprint: fingerprint(&fields)?,
                state: state(&fields)?,
            }),
            "report" => Ok(Response::Report {
                fingerprint: fingerprint(&fields)?,
                report: take_str(&mut fields, "report")
                    .ok_or_else(|| bad("missing report field"))?,
            }),
            "watch" => Ok(Response::Watching {
                fingerprint: fingerprint(&fields)?,
            }),
            "stats" => Ok(Response::Stats {
                queued: u64_field("queued")?,
                running: u64_field("running")?,
                done: u64_field("done")?,
                cache_len: u64_field("cache_len")?,
                cache_capacity: u64_field("cache_capacity")?,
                cache_evictions: u64_field("cache_evictions")?,
                cache_hits: u64_field("cache_hits")?,
                cache_misses: u64_field("cache_misses")?,
                // Supply-memo fields default to zero so a newer client
                // can read a pre-supply-stats daemon's reply.
                supply_memo_hits: u64_field("supply_memo_hits").unwrap_or(0),
                supply_memo_misses: u64_field("supply_memo_misses").unwrap_or(0),
                supply_charge_ff_steps: u64_field("supply_charge_ff_steps").unwrap_or(0),
            }),
            "ping" => Ok(Response::Pong),
            "shutdown" => Ok(Response::ShuttingDown),
            other => Err(bad(format!("unknown response op `{other}`"))),
        }
    }
}

/// A pushed progress event for one `watch` subscription.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One completed shard; `line` carries the verbatim
    /// `wn-fleet-shard-v1` JSON line — byte-identical to what the
    /// shard log on disk receives.
    Shard {
        fingerprint: u64,
        shard: u64,
        shard_count: u64,
        line: String,
    },
    /// The job finished; the report is now fetchable.
    Done { fingerprint: u64 },
}

impl Event {
    pub fn to_line(&self) -> String {
        let o = Obj::new().str("schema", EVT_SCHEMA);
        match self {
            Event::Shard {
                fingerprint,
                shard,
                shard_count,
                line,
            } => o
                .str("event", "shard")
                .str("fingerprint", &format!("{fingerprint:016x}"))
                .u64("shard", *shard)
                .u64("shard_count", *shard_count)
                .str("line", line)
                .finish(),
            Event::Done { fingerprint } => o
                .str("event", "done")
                .str("fingerprint", &format!("{fingerprint:016x}"))
                .finish(),
        }
    }

    /// Parses one event line.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`], for events.
    pub fn parse(line: &str) -> Result<Event, ProtoError> {
        let mut fields = message(line, EVT_SCHEMA)?;
        let fingerprint =
            fingerprint_field(&fields).ok_or_else(|| bad("missing/invalid fingerprint"))?;
        let u64_field = |fields: &Fields, name: &str| {
            fields
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(format!("missing {name}")))
        };
        match take_str(&mut fields, "event").as_deref() {
            Some("shard") => Ok(Event::Shard {
                fingerprint,
                shard: u64_field(&fields, "shard")?,
                shard_count: u64_field(&fields, "shard_count")?,
                line: take_str(&mut fields, "line").ok_or_else(|| bad("missing line"))?,
            }),
            Some("done") => Ok(Event::Done { fingerprint }),
            Some(other) => Err(bad(format!("unknown event `{other}`"))),
            None => Err(bad("missing event field")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_lines() {
        let reqs = [
            Request::Submit {
                scenario: "[fleet]\nname = \"x\"\n".to_string(),
            },
            Request::Report { fingerprint: 0xabc },
            Request::Watch {
                fingerprint: u64::MAX,
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'), "line-framed: {line}");
            assert_eq!(Request::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn responses_round_trip_through_their_lines() {
        let resps = [
            Response::Submitted {
                fingerprint: 1,
                state: JobState::Queued,
            },
            Response::Report {
                fingerprint: 2,
                report: r#"{"schema":"wn-fleet-report-v1","x":"a\"b\\c"}"#.to_string(),
            },
            Response::Pending {
                fingerprint: 3,
                state: JobState::Running,
            },
            Response::Watching { fingerprint: 4 },
            Response::Stats {
                queued: 1,
                running: 2,
                done: 3,
                cache_len: 4,
                cache_capacity: 5,
                cache_evictions: 6,
                cache_hits: 7,
                cache_misses: 8,
                supply_memo_hits: 9,
                supply_memo_misses: 10,
                supply_charge_ff_steps: 11,
            },
            Response::Pong,
            Response::ShuttingDown,
            Response::Error {
                error: "nope".to_string(),
            },
        ];
        for r in resps {
            let line = r.to_line();
            assert!(!line.contains('\n'), "line-framed: {line}");
            assert_eq!(Response::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn events_round_trip_through_their_lines() {
        let evts = [
            Event::Shard {
                fingerprint: 9,
                shard: 0,
                shard_count: 3,
                line: r#"{"schema":"wn-fleet-shard-v1","shard":0}"#.to_string(),
            },
            Event::Done { fingerprint: 9 },
        ];
        for e in evts {
            let line = e.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Event::parse(&line).unwrap(), e);
        }
    }

    #[test]
    fn scenario_text_survives_the_submit_line_byte_exactly() {
        // The whole design rests on this: scenario text with quotes,
        // backslashes, newlines, tabs, and unicode crosses the wire
        // unchanged, so fingerprints agree with the CLI path.
        let scenario = "[fleet]\nname = \"we\\\"ird\"\n# π ≈ 3.14159\t(tab)\r\n";
        let line = Request::Submit {
            scenario: scenario.to_string(),
        }
        .to_line();
        match Request::parse(&line).unwrap() {
            Request::Submit { scenario: back } => assert_eq!(back, scenario),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in [
            "",
            "not json",
            "{",
            "{}",
            r#"{"schema":"wn-serve-req-v1"}"#,
            r#"{"schema":"wn-serve-req-v2","op":"ping"}"#,
            r#"{"schema":"wn-serve-req-v1","op":"nope"}"#,
            r#"{"schema":"wn-serve-req-v1","op":"report"}"#,
            r#"{"schema":"wn-serve-req-v1","op":"report","fingerprint":"zz"}"#,
            r#"{"op":"ping","op":"ping"}"#,
            r#"{"nested":{"not":"allowed"}}"#,
            r#"{"arr":[1,2]}"#,
            r#"{"bad":"\u12"}"#,
            r#"{"bad":"\ud800x"}"#,
            r#"{"n":1e999}"#,
            r#"{"x":"ok"} trailing"#,
        ] {
            assert!(Request::parse(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn line_reader_handles_split_and_crlf_lines() {
        // One byte per read: maximum fragmentation.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let data = b"alpha\nbeta\r\n\ngamma\n";
        let mut r = LineReader::new(OneByte(data, 0));
        assert_eq!(r.next_line().unwrap().as_deref(), Some("alpha"));
        assert_eq!(r.next_line().unwrap().as_deref(), Some("beta"));
        assert_eq!(r.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(r.next_line().unwrap().as_deref(), Some("gamma"));
        assert_eq!(r.next_line().unwrap(), None);
    }

    #[test]
    fn line_reader_rejects_oversized_and_truncated() {
        let mut r = LineReader::with_max_line(&b"aaaaaaaaaa\n"[..], 4);
        assert_eq!(r.next_line(), Err(ProtoError::Oversized { limit: 4 }));

        let mut r = LineReader::new(&b"complete\npartial"[..]);
        assert_eq!(r.next_line().unwrap().as_deref(), Some("complete"));
        assert_eq!(r.next_line(), Err(ProtoError::Truncated));
    }
}
