//! Structured event tracing for the intermittent stack.
//!
//! The intermittent executor collapses an entire run into a handful of
//! scalars; this crate adds the *when*: timestamped lifecycle events
//! (power-on/outage, checkpoint/restore, skim jump, lease grant/settle,
//! run start/end) emitted by the intermittent executor's power loop and
//! the substrates it drives into an [`EventSink`].
//!
//! The design constraint is that tracing must cost nothing when off.
//! [`NullSink`] reports `enabled() == false` from a trivially inlinable
//! method, every emission site is gated on it, and the executor is
//! generic over the sink — so the disabled path monomorphizes to
//! exactly the untraced code.
//!
//! Three sinks cover the common uses:
//! - [`NullSink`] — tracing off (the default for `IntermittentExecutor::run`);
//! - [`RingBufferSink`] — keeps the most recent N raw events plus exact
//!   per-kind counts, for debugging and event-level tests;
//! - [`RunReport`] — an online aggregator (counts, on/off-period
//!   histograms, outage inter-arrival stats, checkpoint-cause breakdown,
//!   lease totals) that serializes to JSON and CSV without buffering
//!   the event stream.
//!
//! ```
//! use wn_telemetry::{Event, EventKind, EventSink, RingBufferSink};
//!
//! let mut sink = RingBufferSink::new(8);
//! sink.record(Event { t_s: 0.0, kind: EventKind::RunStart });
//! sink.record(Event { t_s: 1.5e-3, kind: EventKind::Outage });
//! assert_eq!(sink.events().count(), 2);
//! assert_eq!(sink.count_of(EventKind::Outage.index()), 1);
//! ```

mod event;
pub mod json;
mod report;
mod sink;

pub use event::{CheckpointCause, Event, EventKind, KIND_COUNT, KIND_NAMES};
pub use report::{ClassRow, EventCounts, Histogram, LeaseStats, RunReport};
pub use sink::{EventSink, NullSink, RingBufferSink};
