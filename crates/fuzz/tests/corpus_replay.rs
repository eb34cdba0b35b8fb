//! Tier-1 replay of the committed regression corpus.
//!
//! `fuzz/corpus/` is the fuzzer's externalized memory: every entry's
//! file name records the outcome the decoder produced when the entry
//! was committed. Replaying on every test run makes three guarantees
//! at once — hostile inputs keep failing *closed* with the *same*
//! stable code (the taxonomy cannot drift silently), legitimate seeds
//! keep decoding (the false-positive guard's committed half), and
//! `fuzz/crashes/` stays empty-or-clean (a committed crash input that
//! regresses again fails here before CI's fuzz-smoke job even runs).

use spanner_harness::corpus::{decode_outcome_labels, replay_dir};
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel)
}

#[test]
fn committed_corpus_replays_clean_and_covers_the_taxonomy() {
    let report = replay_dir(&repo_path("fuzz/corpus"), true).expect("corpus must be readable");
    assert!(
        report.is_clean(),
        "corpus replay mismatches {:?} / failures {:?}",
        report.mismatches,
        report.failures
    );
    assert!(
        report.files >= 30,
        "corpus shrank to {} entries",
        report.files
    );

    // The corpus is a regression gate on the whole decode taxonomy:
    // every decode-path code must be exercised, plus accepted inputs.
    for code in decode_outcome_labels() {
        assert!(
            report.by_code.get(code).is_some_and(|&n| n > 0),
            "no corpus entry exercises {code}; regenerate with `spanner-fuzz corpus`"
        );
    }
}

#[test]
fn committed_crash_corpus_is_clean() {
    // Empty (or absent) is the healthy state; any committed crash input
    // must stay fixed forever.
    let report =
        replay_dir(&repo_path("fuzz/crashes"), false).expect("crash corpus must be readable");
    assert!(
        report.is_clean(),
        "a committed crash input regressed: {:?} / {:?}",
        report.mismatches,
        report.failures
    );
}
