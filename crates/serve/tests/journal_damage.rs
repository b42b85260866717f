//! Damage tests for the daemon's job journal: every truncation prefix
//! and every single-bit flip of a `jobs/<fp>.scenario` entry, read back
//! the way restart recovery reads it. Each damaged entry either fails
//! its job with a typed journal reason or yields the scenario journaled
//! under that fingerprint — the daemon never sweeps another scenario
//! and publishes its report under the entry's name.

use wn_fleet::FleetScenario;
use wn_serve::{journaled_job, JobFailure, Store};

const SCENARIO: &str = r#"[fleet]
name = "journal"
seed = 17
shard_size = 4
wall_limit_s = 600.0
trace_duration_s = 15.0

[[cohort]]
count = 6
benchmark = "matadd"
technique = "anytime8"
substrate = "clank"
environment = "rf-bursty"
"#;

/// Every proper prefix and every single-bit flip of `bytes`.
fn damaged(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..bytes.len()).map(move |n| bytes[..n].to_vec());
    let flips = (0..bytes.len() * 8).map(move |bit| {
        let mut b = bytes.to_vec();
        b[bit / 8] ^= 1 << (bit % 8);
        b
    });
    prefixes.chain(flips)
}

#[test]
fn damaged_journal_entries_fail_typed_or_run_their_own_scenario() {
    let dir = std::env::temp_dir().join(format!("wn-serve-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let fp = FleetScenario::parse(SCENARIO).unwrap().fingerprint();

    let (mut unreadable, mut unparsable, mut mismatched, mut ran) = (0, 0, 0, 0);
    for bytes in damaged(SCENARIO.as_bytes()) {
        std::fs::write(store.scenario_path(fp), &bytes).unwrap();
        assert_eq!(store.unfinished(), vec![fp], "the entry stays journaled");
        // Recovery fails an unreadable entry and queues the text of a
        // readable one; the scheduler then runs `journaled_job`.
        let Some(text) = store.scenario(fp) else {
            unreadable += 1;
            continue;
        };
        match journaled_job(fp, &text) {
            Ok(scenario) => {
                assert_eq!(scenario.fingerprint(), fp, "ran another scenario");
                ran += 1;
            }
            Err(JobFailure::Journal(_)) => unparsable += 1,
            Err(JobFailure::Mismatch { journaled, parsed }) => {
                assert_eq!(journaled, fp);
                assert_ne!(parsed, fp);
                mismatched += 1;
            }
            Err(other) => panic!("untyped journal failure {other:?} for {text:?}"),
        }
    }
    // Damage that still parses to a different scenario (a flipped digit
    // of `seed` or `count`, a truncated last line) is the case the
    // fingerprint check exists for; it must actually occur here.
    assert!(
        unreadable > 0 && unparsable > 0 && mismatched > 0 && ran > 0,
        "{unreadable} unreadable, {unparsable} unparsable, {mismatched} mismatched, {ran} ran"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
