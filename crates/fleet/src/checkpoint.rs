//! Shard-granular fleet checkpoints (`wn-fleet-ckpt-v1`).
//!
//! Written atomically (tmp + rename) after every completed shard, so a
//! killed sweep can resume at the last shard boundary and finish
//! **byte-identical** to an uninterrupted run: the aggregate state
//! crosses the file as exact IEEE-754 bit patterns (see
//! [`crate::codec`]), and the scenario fingerprint guards against
//! resuming somebody else's sweep.

use std::fs;
use std::path::Path;

use wn_telemetry::json::{self, Obj, Value};

use crate::codec::{StateReader, StateWriter};
use crate::durable::persist_atomic;
use crate::runner::{CohortAggregate, FleetError};

pub const CKPT_SCHEMA: &str = "wn-fleet-ckpt-v1";

/// Resumable sweep state: which shard comes next and every cohort's
/// aggregate so far.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// [`crate::scenario::FleetScenario::fingerprint`] of the scenario
    /// that produced this state.
    pub fingerprint: u64,
    /// Shards already folded in; the resume starts here.
    pub shards_done: usize,
    /// Total shards in the sweep (provenance; recomputed on resume).
    pub shard_count: usize,
    pub cohorts: Vec<CohortAggregate>,
}

impl Checkpoint {
    pub fn to_json(&self) -> String {
        let mut w = StateWriter::new();
        w.u64(self.cohorts.len() as u64);
        for c in &self.cohorts {
            c.save(&mut w);
        }
        Obj::new()
            .str("schema", CKPT_SCHEMA)
            .str("fingerprint", &format!("{:016x}", self.fingerprint))
            .u64("shards_done", self.shards_done as u64)
            .u64("shard_count", self.shard_count as u64)
            .str("state", w.as_str())
            .finish()
    }

    /// Parses a checkpoint document. Checkpoints are only ever written
    /// by [`Checkpoint::to_json`], so a document that does not
    /// re-serialize to its own bytes is damaged and refused — bit damage
    /// that still parses (an upper-cased hex digit, a leading zero)
    /// never resumes a sweep from a guess.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Checkpoint`] on any malformed, truncated,
    /// non-canonical, or wrong-schema input.
    pub fn from_json(doc: &str) -> Result<Checkpoint, FleetError> {
        let bad = |msg: &str| FleetError::Checkpoint(msg.to_string());
        let fields = json::parse(doc).map_err(|e| bad(&format!("not a JSON document: {e}")))?;
        let str_field = |key: &str| fields.get(key).and_then(Value::as_str);
        let count_field = |key: &str| {
            fields
                .get(key)
                .and_then(Value::as_u64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| bad(&format!("missing/invalid {key}")))
        };
        match str_field("schema") {
            Some(CKPT_SCHEMA) => {}
            Some(other) => return Err(bad(&format!("unexpected schema `{other}`"))),
            None => return Err(bad("missing schema field")),
        }
        let fingerprint = str_field("fingerprint")
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad("missing/invalid fingerprint"))?;
        let shards_done = count_field("shards_done")?;
        let shard_count = count_field("shard_count")?;
        let state = str_field("state").ok_or_else(|| bad("missing state field"))?;
        let mut r = StateReader::new(state);
        let n = r.u64().ok_or_else(|| bad("truncated state stream"))?;
        let cohorts = (0..n)
            .map(|i| {
                CohortAggregate::load(&mut r)
                    .ok_or_else(|| bad(&format!("truncated state for cohort {i}")))
            })
            .collect::<Result<_, _>>()?;
        let ckpt = Checkpoint {
            fingerprint,
            shards_done,
            shard_count,
            cohorts,
        };
        if ckpt.to_json() != doc {
            return Err(bad("not the bytes the writer produces (damaged?)"));
        }
        Ok(ckpt)
    }
}

/// Writes `ckpt` atomically and durably: the file at `path` is always a
/// complete checkpoint, never a torn write (a kill mid-store leaves the
/// previous one), and once this returns the new checkpoint — including
/// the rename publishing it — survives power failure. See
/// [`crate::durable`] for the pinned write/sync/rename/sync-dir
/// sequence.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn store(path: &Path, ckpt: &Checkpoint) -> Result<(), FleetError> {
    persist_atomic(path, ckpt.to_json().as_bytes())?;
    Ok(())
}

/// Loads a checkpoint.
///
/// # Errors
///
/// I/O errors reading the file, [`FleetError::Checkpoint`] on malformed
/// content.
pub fn load(path: &Path) -> Result<Checkpoint, FleetError> {
    Checkpoint::from_json(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::MetricAgg;

    fn sample() -> Checkpoint {
        let mut a = CohortAggregate::new();
        a.devices = 40;
        a.completed = 37;
        a.skimmed = 12;
        a.starved = 2;
        a.timed_out = 1;
        let mut time = MetricAgg::new();
        for i in 0..37 {
            let v = 0.01 + (i as f64 * 0.731).fract();
            time.record(v);
            a.time_hist.record(v);
        }
        a.time = time;
        Checkpoint {
            fingerprint: 0xdead_beef_0123_4567,
            shards_done: 3,
            shard_count: 9,
            cohorts: vec![a, CohortAggregate::new()],
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let ckpt = sample();
        let doc = ckpt.to_json();
        assert!(doc.contains(CKPT_SCHEMA));
        let back = Checkpoint::from_json(&doc).unwrap();
        assert_eq!(back, ckpt);
        // And byte-stable: re-serializing the parse gives the same doc.
        assert_eq!(back.to_json(), doc);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for doc in [
            "{}",
            r#"{"schema":"wn-fleet-ckpt-v2","fingerprint":"00","shards_done":0,"shard_count":0,"state":"0"}"#,
            r#"{"schema":"wn-fleet-ckpt-v1","fingerprint":"zz","shards_done":0,"shard_count":0,"state":"0"}"#,
            r#"{"schema":"wn-fleet-ckpt-v1","fingerprint":"00","shards_done":1,"shard_count":2,"state":"1 5"}"#,
        ] {
            assert!(Checkpoint::from_json(doc).is_err(), "accepted: {doc}");
        }
    }

    #[test]
    fn store_and_load_via_tempfile() {
        let dir = std::env::temp_dir().join(format!("wn-fleet-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let ckpt = sample();
        store(&path, &ckpt).unwrap();
        assert_eq!(load(&path).unwrap(), ckpt);
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_loads_as_checkpoint_error() {
        let dir = std::env::temp_dir().join(format!("wn-fleet-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let ckpt = sample();
        store(&path, &ckpt).unwrap();
        // Simulate a torn write: chop the stored document in half.
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &doc[..doc.len() / 2]).unwrap();
        match load(&path) {
            Err(FleetError::Checkpoint(_)) => {}
            other => panic!("truncated checkpoint must be a Checkpoint error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
