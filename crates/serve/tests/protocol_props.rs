//! Property tests for the wn-serve wire protocol.
//!
//! The daemon reads from sockets it does not trust: lines fragment at
//! arbitrary byte boundaries, peers truncate mid-line, send garbage,
//! or send far too much. Under all of it the protocol layer must
//! return typed errors — never panic, never hang, never mis-frame the
//! lines around the damage.

use std::io::Read;

use proptest::prelude::*;
use wn_serve::protocol::{
    parse_object, Event, LineReader, ProtoError, Request, Response, MAX_LINE_BYTES,
};

/// A reader that hands out its data in caller-chosen fragment sizes —
/// the adversarial version of TCP's "read returns whatever it wants".
struct Fragmented {
    data: Vec<u8>,
    cuts: Vec<usize>,
    pos: usize,
    turn: usize,
}

impl Fragmented {
    fn new(data: Vec<u8>, cuts: Vec<usize>) -> Fragmented {
        Fragmented {
            data,
            cuts,
            pos: 0,
            turn: 0,
        }
    }
}

impl Read for Fragmented {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        // Fragment size cycles through the cut list; at least 1 byte.
        let want = self
            .cuts
            .get(self.turn % self.cuts.len().max(1))
            .copied()
            .unwrap_or(1)
            .clamp(1, buf.len());
        self.turn += 1;
        let n = want.min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Strategy: printable-ish scenario-like text including every byte the
/// escaper has an opinion about.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..=127, 0..200).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| match b {
                0..=8 | 11..=31 | 127 => '#',
                b => b as char,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any fragmentation of a stream of valid lines reassembles the
    /// exact same lines.
    #[test]
    fn split_reads_reassemble_lines_byte_exactly(
        lines in proptest::collection::vec(text_strategy(), 1..8),
        cuts in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let mut data = Vec::new();
        for l in &lines {
            data.extend_from_slice(l.replace(['\n', '\r'], " ").as_bytes());
            data.push(b'\n');
        }
        let expect: Vec<String> = lines.iter().map(|l| l.replace(['\n', '\r'], " ")).collect();
        let mut reader = LineReader::new(Fragmented::new(data, cuts));
        let mut got = Vec::new();
        while let Some(line) = reader.next_line().unwrap() {
            got.push(line);
        }
        prop_assert_eq!(got, expect);
    }

    /// A stream that dies mid-line yields each complete line, then a
    /// Truncated error — not a hang and not a silent partial line.
    #[test]
    fn truncated_streams_error_after_the_complete_lines(
        lines in proptest::collection::vec(text_strategy(), 0..4),
        partial in text_strategy(),
        cuts in proptest::collection::vec(1usize..32, 1..4),
    ) {
        let mut data = Vec::new();
        for l in &lines {
            data.extend_from_slice(l.replace(['\n', '\r'], " ").as_bytes());
            data.push(b'\n');
        }
        let partial = format!("{} ", partial.replace(['\n', '\r'], " "));
        data.extend_from_slice(partial.as_bytes()); // no trailing newline
        let mut reader = LineReader::new(Fragmented::new(data, cuts));
        for _ in &lines {
            prop_assert!(reader.next_line().unwrap().is_some());
        }
        prop_assert_eq!(reader.next_line(), Err(ProtoError::Truncated));
    }

    /// Oversized lines are refused without buffering the whole flood,
    /// regardless of where the cap falls relative to read boundaries.
    #[test]
    fn oversized_lines_are_refused(
        cap in 8usize..100,
        extra in 1usize..64,
        cuts in proptest::collection::vec(1usize..32, 1..4),
    ) {
        let mut data = vec![b'x'; cap + extra];
        data.push(b'\n');
        let mut reader = LineReader::with_max_line(Fragmented::new(data, cuts), cap);
        prop_assert_eq!(
            reader.next_line(),
            Err(ProtoError::Oversized { limit: cap })
        );
    }

    /// Arbitrary bytes through the JSON reader and the message parsers: errors, never
    /// panics. (The `unwrap_or` is the assertion — a panic fails the
    /// test harness.)
    #[test]
    fn arbitrary_input_never_panics_the_parsers(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _ = wn_telemetry::json::parse(&line);
        let _ = parse_object(&line);
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
        let _ = Event::parse(&line);
    }

    /// Mutating one byte of a valid request line parses to an error or
    /// to another valid request — never a panic, and never a submit
    /// whose scenario text silently changed framing.
    #[test]
    fn bit_damage_on_valid_lines_is_contained(
        scenario in text_strategy(),
        victim in any::<usize>(),
        replacement in 0u8..=255,
    ) {
        let line = Request::Submit { scenario }.to_line();
        let mut bytes = line.into_bytes();
        let i = victim % bytes.len();
        bytes[i] = replacement;
        let damaged = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Request::parse(&damaged);
    }

    /// Two subscriptions' event lines interleaved on one stream parse
    /// back out in order with nothing lost or cross-attributed — the
    /// wire-level form of "a subscriber sees exactly its events".
    #[test]
    fn interleaved_subscription_events_parse_in_order(
        shards_a in 1u64..6,
        shards_b in 1u64..6,
        order in proptest::collection::vec(any::<bool>(), 1..12),
        cuts in proptest::collection::vec(1usize..16, 1..4),
    ) {
        let mk = |fp: u64, shard: u64, count: u64| Event::Shard {
            fingerprint: fp,
            shard,
            shard_count: count,
            line: format!("{{\"schema\":\"wn-fleet-shard-v1\",\"shard\":{shard}}}"),
        };
        let (mut next_a, mut next_b) = (0u64, 0u64);
        let mut sent = Vec::new();
        for pick_a in order {
            if pick_a && next_a < shards_a {
                sent.push(mk(0xa, next_a, shards_a));
                next_a += 1;
            } else if next_b < shards_b {
                sent.push(mk(0xb, next_b, shards_b));
                next_b += 1;
            }
        }
        sent.push(Event::Done { fingerprint: 0xa });
        sent.push(Event::Done { fingerprint: 0xb });

        let mut data = Vec::new();
        for e in &sent {
            data.extend_from_slice(e.to_line().as_bytes());
            data.push(b'\n');
        }
        let mut reader = LineReader::new(Fragmented::new(data, cuts));
        let mut got = Vec::new();
        while let Some(line) = reader.next_line().unwrap() {
            got.push(Event::parse(&line).unwrap());
        }
        prop_assert_eq!(got, sent);
    }

    /// Submit lines round-trip arbitrary scenario text byte-exactly —
    /// the property the service's fingerprint equality rests on.
    #[test]
    fn submit_scenario_text_round_trips(scenario in text_strategy()) {
        let line = Request::Submit { scenario: scenario.clone() }.to_line();
        prop_assert!(line.len() < MAX_LINE_BYTES);
        match Request::parse(&line) {
            Ok(Request::Submit { scenario: back }) => prop_assert_eq!(back, scenario),
            other => prop_assert!(false, "round trip failed: {:?}", other),
        }
    }
}

/// A line of a MiB of unclosed nesting is a typed error from the
/// depth cap, not a stack overflow in the daemon.
#[test]
fn hostile_nesting_is_malformed_not_a_stack_overflow() {
    for line in ["[".repeat(1 << 20), "{\"a\":".repeat(1 << 20)] {
        assert!(matches!(parse_object(&line), Err(ProtoError::Malformed(_))));
        assert!(matches!(
            Request::parse(&line),
            Err(ProtoError::Malformed(_))
        ));
    }
}
