//! The daemon's on-disk state, keyed by scenario fingerprint.
//!
//! Layout under the data directory:
//!
//! ```text
//! jobs/<fp>.scenario     raw submitted scenario text (the job journal)
//! ckpt/<fp>.ckpt.json    wn-fleet-ckpt-v1 shard checkpoint (while running)
//! shards/<fp>.jsonl      wn-fleet-shard-v1 progress lines (append-only)
//! store/<fp>.report.json finished wn-fleet-report-v1 document
//! ```
//!
//! Every publish goes through [`wn_fleet::persist_atomic`]'s pinned
//! write/sync/rename/sync-dir sequence, so the invariant a restart
//! leans on — *a journaled scenario without a stored report is exactly
//! an unfinished job* — holds across kill -9 and power failure. The
//! scenario is journaled byte-exactly as submitted: the fingerprint is
//! a pure function of the parsed scenario, so the resumed run and the
//! report it produces are byte-identical to an uninterrupted one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use wn_fleet::persist_atomic;
use wn_telemetry::json::{self, Value};

/// On-disk store rooted at one data directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

fn fp_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

impl Store {
    /// Opens (creating directories as needed) the store at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> io::Result<Store> {
        for sub in ["jobs", "ckpt", "shards", "store"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(Store {
            root: root.to_path_buf(),
        })
    }

    pub fn scenario_path(&self, fingerprint: u64) -> PathBuf {
        self.root
            .join("jobs")
            .join(format!("{}.scenario", fp_hex(fingerprint)))
    }

    pub fn checkpoint_path(&self, fingerprint: u64) -> PathBuf {
        self.root
            .join("ckpt")
            .join(format!("{}.ckpt.json", fp_hex(fingerprint)))
    }

    pub fn shard_log_path(&self, fingerprint: u64) -> PathBuf {
        self.root
            .join("shards")
            .join(format!("{}.jsonl", fp_hex(fingerprint)))
    }

    pub fn report_path(&self, fingerprint: u64) -> PathBuf {
        self.root
            .join("store")
            .join(format!("{}.report.json", fp_hex(fingerprint)))
    }

    /// Journals a submitted scenario durably. Must complete before the
    /// submit is acknowledged — an acknowledged job survives any crash.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn journal_scenario(&self, fingerprint: u64, text: &str) -> io::Result<()> {
        persist_atomic(&self.scenario_path(fingerprint), text.as_bytes())
    }

    /// The journaled scenario text, if this fingerprint was submitted.
    pub fn scenario(&self, fingerprint: u64) -> Option<String> {
        fs::read_to_string(self.scenario_path(fingerprint)).ok()
    }

    /// Publishes a finished report durably.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn publish_report(&self, fingerprint: u64, report_json: &str) -> io::Result<()> {
        persist_atomic(&self.report_path(fingerprint), report_json.as_bytes())
    }

    /// The stored report document: `Ok(None)` if none is stored,
    /// `Err` if the stored file is damaged. A report is served only
    /// when it re-parses as a JSON object whose `fingerprint` names this
    /// file, so a torn or foreign file is never handed out as this
    /// scenario's report.
    ///
    /// # Errors
    ///
    /// A description of the damage: unreadable, not UTF-8, not JSON, or
    /// another scenario's fingerprint.
    pub fn report(&self, fingerprint: u64) -> Result<Option<String>, String> {
        let path = self.report_path(fingerprint);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("stored report {} unreadable: {e}", path.display())),
        };
        let damaged = |why: String| format!("stored report {} is damaged: {why}", path.display());
        let text = String::from_utf8(bytes).map_err(|_| damaged("not UTF-8".into()))?;
        let doc = json::parse(&text).map_err(|e| damaged(e.to_string()))?;
        let stored = doc.get("fingerprint").and_then(Value::as_str);
        if stored != Some(fp_hex(fingerprint).as_str()) {
            return Err(damaged(format!("fingerprint {stored:?}")));
        }
        Ok(Some(text))
    }

    /// Whether a finished report exists.
    pub fn is_done(&self, fingerprint: u64) -> bool {
        self.report_path(fingerprint).exists()
    }

    /// Stored reports count (for `stats`).
    pub fn done_count(&self) -> u64 {
        fs::read_dir(self.root.join("store"))
            .map(|d| d.filter_map(Result::ok).count() as u64)
            .unwrap_or(0)
    }

    /// Fingerprints journaled but not finished — the restart-recovery
    /// set. Sorted, so recovery order is deterministic.
    pub fn unfinished(&self) -> Vec<u64> {
        let mut out = Vec::new();
        if let Ok(dir) = fs::read_dir(self.root.join("jobs")) {
            for entry in dir.filter_map(Result::ok) {
                let name = entry.file_name();
                let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".scenario")) else {
                    continue;
                };
                let Ok(fp) = u64::from_str_radix(stem, 16) else {
                    continue;
                };
                if !self.is_done(fp) {
                    out.push(fp);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, Store) {
        let root =
            std::env::temp_dir().join(format!("wn-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let store = Store::open(&root).unwrap();
        (root, store)
    }

    #[test]
    fn journal_then_publish_moves_a_job_from_unfinished_to_done() {
        let (root, store) = temp_store("lifecycle");
        assert!(store.unfinished().is_empty());

        store
            .journal_scenario(0xfeed, "[fleet]\nname = \"x\"\n")
            .unwrap();
        assert_eq!(store.unfinished(), vec![0xfeed]);
        assert!(!store.is_done(0xfeed));
        assert_eq!(store.scenario(0xfeed).unwrap(), "[fleet]\nname = \"x\"\n");

        assert_eq!(store.report(0xfeed), Ok(None));
        let report = "{\"schema\":\"wn-fleet-report-v1\",\"fingerprint\":\"000000000000feed\"}";
        store.publish_report(0xfeed, report).unwrap();
        assert!(store.is_done(0xfeed));
        assert!(store.unfinished().is_empty());
        assert_eq!(store.done_count(), 1);
        assert_eq!(store.report(0xfeed).unwrap().unwrap(), report);

        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn damaged_reports_are_never_served() {
        // A real report's shape: nested objects, floats, the fingerprint
        // among the leading fields.
        let report = concat!(
            "{\"schema\":\"wn-fleet-report-v1\",\"scenario\":\"smoke\",\"seed\":7,",
            "\"fingerprint\":\"00000000c0ffee42\",\"shard_size\":64,\"fleet\":",
            "{\"devices\":128,\"completion_rate\":0.984375,\"time_s\":{\"mean\":1.5}}}"
        );
        let (root, store) = temp_store("damage");
        let fp = 0xc0ffee42;
        let path = store.report_path(fp);
        store.publish_report(fp, report).unwrap();
        assert_eq!(store.report(fp).unwrap().as_deref(), Some(report));
        // Every truncation prefix fails to parse.
        for len in 0..report.len() {
            fs::write(&path, &report.as_bytes()[..len]).unwrap();
            assert!(store.report(fp).is_err(), "prefix of {len} bytes served");
        }
        // Every single-bit flip is refused or still parses as this
        // scenario's report: never unparsable bytes, never another
        // scenario's document. Flips inside the fingerprint are always
        // refused.
        let fp_at = report.find("00000000c0ffee42").unwrap();
        let mut served = 0;
        for bit in 0..report.len() * 8 {
            let mut bytes = report.as_bytes().to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            let Ok(Some(text)) = store.report(fp) else {
                continue;
            };
            served += 1;
            assert!(
                !(fp_at..fp_at + 16).contains(&(bit / 8)),
                "bit {bit} served"
            );
            assert_eq!(text.as_bytes(), &bytes[..], "bit {bit}: served other bytes");
            let doc = json::parse(&text).unwrap();
            assert_eq!(
                doc.get("fingerprint").and_then(Value::as_str),
                Some("00000000c0ffee42")
            );
        }
        assert!(served < report.len() * 8 / 2, "most flips are refused");
        // Another scenario's intact report under this name is refused.
        fs::write(&path, report.replace("c0ffee42", "c0ffee43")).unwrap();
        assert!(store.report(fp).is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unfinished_recovery_set_is_sorted_and_ignores_foreign_files() {
        let (root, store) = temp_store("recovery");
        store.journal_scenario(0xbbb, "b").unwrap();
        store.journal_scenario(0xaaa, "a").unwrap();
        fs::write(root.join("jobs").join("not-a-fingerprint.txt"), "x").unwrap();
        assert_eq!(store.unfinished(), vec![0xaaa, 0xbbb]);
        fs::remove_dir_all(&root).unwrap();
    }
}
