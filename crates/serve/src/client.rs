//! A blocking client for the wn-serve protocol — used by the CLI, the
//! integration tests, and anything else that wants a fleet run without
//! owning the machine it executes on.

use std::fmt;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::{Event, JobState, LineReader, ProtoError, Request, Response};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing problems.
    Proto(ProtoError),
    /// The server answered, but with an error or an unexpected
    /// response kind.
    Server(String),
    /// The server closed the connection mid-exchange.
    Disconnected,
    /// `wait_report` ran out of time.
    Timeout { fingerprint: u64 },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Timeout { fingerprint } => {
                write!(f, "timed out waiting for report {fingerprint:016x}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Proto(ProtoError::from(e))
    }
}

/// The error for a response the caller did not ask for: the server's
/// own error message, or the stray response itself.
fn unexpected(response: Response) -> ClientError {
    match response {
        Response::Error { error } => ClientError::Server(error),
        other => ClientError::Server(format!("unexpected response {other:?}")),
    }
}

/// One connection to a wn-serve daemon.
pub struct Client {
    stream: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let reader = LineReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Disconnected`] if the
    /// server hangs up instead of answering.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        use std::io::Write as _;
        // One write per request: a second small segment would wait on
        // the server's delayed ACK under Nagle's algorithm.
        let mut line = req.to_line();
        line.push('\n');
        self.stream.write_all(line.as_bytes())?;
        match self.reader.next_line()? {
            Some(line) => Ok(Response::parse(&line)?),
            None => Err(ClientError::Disconnected),
        }
    }

    /// Submits scenario text; returns `(fingerprint, state)`.
    /// Resubmitting a known scenario is idempotent.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries scenario parse errors and
    /// queue-full refusals.
    pub fn submit(&mut self, scenario_text: &str) -> Result<(u64, JobState), ClientError> {
        match self.request(&Request::Submit {
            scenario: scenario_text.to_string(),
        })? {
            Response::Submitted { fingerprint, state } => Ok((fingerprint, state)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches a finished report's bytes; `Ok(None)` while the job is
    /// still queued or running.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown fingerprints and failed
    /// jobs.
    pub fn report(&mut self, fingerprint: u64) -> Result<Option<String>, ClientError> {
        match self.request(&Request::Report { fingerprint })? {
            Response::Report { report, .. } => Ok(Some(report)),
            Response::Pending { .. } => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Watches `fingerprint` until its `done` event, then fetches the
    /// report once.
    ///
    /// The deadline is a read timeout on the socket, reset to the time
    /// left before every read. A timeout leaves the connection in the
    /// middle of the event stream, so drop the client after one.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] once `timeout` elapses; otherwise as
    /// [`Client::watch`] and [`Client::report`].
    pub fn wait_report(
        &mut self,
        fingerprint: u64,
        timeout: Duration,
    ) -> Result<String, ClientError> {
        let deadline = Instant::now() + timeout;
        let watched = self.watch_until(fingerprint, Some(deadline), |_| {});
        self.stream.set_read_timeout(None)?;
        match watched {
            Err(ClientError::Proto(ProtoError::Io(_))) if Instant::now() >= deadline => {
                return Err(ClientError::Timeout { fingerprint });
            }
            watched => watched?,
        }
        match self.request(&Request::Report { fingerprint })? {
            Response::Report { report, .. } => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Subscribes to progress events for `fingerprint`, invoking
    /// `on_event` per event until the job's `done` event arrives (the
    /// final `Done` is passed to the callback too).
    ///
    /// # Errors
    ///
    /// Transport errors; [`ClientError::Server`] for an unknown
    /// fingerprint or a failed job, including one that fails while
    /// watched; [`ClientError::Disconnected`] if the server closes the
    /// stream before `done` (e.g. it is shutting down).
    pub fn watch(
        &mut self,
        fingerprint: u64,
        on_event: impl FnMut(&Event),
    ) -> Result<(), ClientError> {
        self.watch_until(fingerprint, None, on_event)
    }

    /// [`Client::watch`], with every read bounded by `deadline`.
    fn watch_until(
        &mut self,
        fingerprint: u64,
        deadline: Option<Instant>,
        mut on_event: impl FnMut(&Event),
    ) -> Result<(), ClientError> {
        self.read_by(deadline, fingerprint)?;
        match self.request(&Request::Watch { fingerprint })? {
            Response::Watching { .. } => {}
            other => return Err(unexpected(other)),
        }
        loop {
            self.read_by(deadline, fingerprint)?;
            let line = self.reader.next_line()?.ok_or(ClientError::Disconnected)?;
            // A job that fails while watched ends its stream with the
            // server's error response instead of `done`.
            let event = Event::parse(&line).map_err(|e| match Response::parse(&line) {
                Ok(response @ Response::Error { .. }) => unexpected(response),
                _ => ClientError::Proto(e),
            })?;
            let done = matches!(event, Event::Done { .. });
            on_event(&event);
            if done {
                return Ok(());
            }
        }
    }

    /// Sets the socket's read timeout to the time left before
    /// `deadline`; a no-op without one.
    fn read_by(&self, deadline: Option<Instant>, fingerprint: u64) -> Result<(), ClientError> {
        let Some(deadline) = deadline else {
            return Ok(());
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ClientError::Timeout { fingerprint });
        }
        self.stream.set_read_timeout(Some(left))?;
        Ok(())
    }

    /// Daemon statistics.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        match self.request(&Request::Stats)? {
            r @ Response::Stats { .. } => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to stop gracefully.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}
