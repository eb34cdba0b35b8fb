//! Cross-process determinism of hostile-artifact handling.
//!
//! The decode determinism contract has two legs. The in-process leg
//! (same bytes ⇒ same typed error, three repeated decodes) lives in
//! `spanner_harness::corpus`. This test adds the process-boundary leg:
//! for every committed corpus entry, the `spanner-artifact` binary —
//! a separate process, decoding bytes it did not produce — must report
//! the *same* stable error code the in-process decode produced, as
//! `error[<code>]` plus a remediation hint on stderr with a non-zero
//! exit, and must do so byte-identically across repeated invocations.
//! No hostile input may panic the process.

use spanner_harness::corpus::{decode_outcome, replay_dir, DecodeOutcome};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_spanner-artifact")
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel)
}

fn inspect(path: &Path) -> Output {
    Command::new(bin())
        .arg("inspect")
        .arg(path)
        .output()
        .expect("spanner-artifact must spawn")
}

/// Extracts the stable code from an `error[<code>]` stderr line.
fn code_from_stderr(stderr: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(stderr);
    let start = text.find("error[")? + "error[".len();
    let end = text[start..].find(']')? + start;
    Some(text[start..end].to_string())
}

#[test]
fn inspect_matches_in_process_codes_deterministically_for_every_corpus_entry() {
    let dir = repo_path("fuzz/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fuzz/corpus must exist")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|n| n.ends_with(".bin"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 30,
        "corpus shrank to {} entries",
        names.len()
    );

    for name in names {
        let path = dir.join(&name);
        let bytes = std::fs::read(&path).unwrap();

        // In-process leg: three decodes, stable outcome (asserted
        // inside decode_outcome).
        let in_process = decode_outcome(&bytes)
            .unwrap_or_else(|why| panic!("{name}: in-process contract violated: {why}"));

        // Process-boundary leg, twice, byte-identical.
        let first = inspect(&path);
        let second = inspect(&path);
        assert_eq!(
            first.stderr, second.stderr,
            "{name}: hostile-input stderr must be byte-identical across runs"
        );
        assert_eq!(first.status.code(), second.status.code());

        // `inspect` speaks VFTSPANR; standalone VFTGRAPH corpus entries
        // are — correctly — a bad-magic rejection for this subcommand,
        // whatever the entry's own expected outcome is. And a
        // routing-only artifact is Rejected in-process (the witness
        // accessor's typed refusal) but inspects cleanly: inspect
        // reports metadata, it does not serve witness queries, and the
        // detached state is printed, not an error.
        let is_graph = bytes.len() >= 8 && &bytes[..8] == b"VFTGRAPH";
        let expected_code = match (&in_process, is_graph) {
            (_, true) => Some("artifact/bad-magic".to_string()),
            (DecodeOutcome::Accepted, false) => None,
            (DecodeOutcome::Rejected("artifact/witnesses-detached"), false) => None,
            (DecodeOutcome::Rejected(code), false) => Some(code.to_string()),
        };
        match expected_code {
            None => assert!(
                first.status.success(),
                "{name}: accepted artifact must inspect cleanly\nstderr: {}",
                String::from_utf8_lossy(&first.stderr)
            ),
            Some(code) => {
                assert!(
                    !first.status.success(),
                    "{name}: hostile artifact must exit non-zero"
                );
                assert_eq!(
                    code_from_stderr(&first.stderr).as_deref(),
                    Some(code.as_str()),
                    "{name}: subprocess code disagrees with in-process decode\nstderr: {}",
                    String::from_utf8_lossy(&first.stderr)
                );
                assert!(
                    String::from_utf8_lossy(&first.stderr).contains("remediation: "),
                    "{name}: hostile rejection must carry a remediation hint"
                );
            }
        }
    }
}

#[test]
fn build_is_reproducible_and_other_versions_fail_closed() {
    let dir = std::env::temp_dir().join(format!("artifact-build-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| -> Output {
        Command::new(bin())
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spanner-artifact must spawn")
    };
    let build = |out: &str| {
        let built = run(&[
            "build", "--family", "complete", "--n", "7", "--f", "1", "--out", out,
        ]);
        assert!(
            built.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&built.stderr)
        );
        std::fs::read(dir.join(out)).unwrap()
    };

    // Two builds of one spec in separate processes write the same bytes.
    let first = build("a.vfts");
    assert_eq!(first, build("b.vfts"), "build must be reproducible");

    // The in-place serve path passes its rebuild cross-check.
    let served = run(&[
        "serve",
        "a.vfts",
        "--in-place",
        "--epochs",
        "3",
        "--batch",
        "8",
    ]);
    assert!(
        served.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&served.stderr)
    );

    // An artifact whose header names version 2 is refused with the
    // stable code and the rebuild remediation, with or without a
    // checksum that matches.
    for reseal in [false, true] {
        let mut stale = first.clone();
        stale[8..12].copy_from_slice(&2u32.to_le_bytes());
        if reseal {
            let at = stale.len() - 8;
            let seal = spanner_graph::io::binary::fnv1a64_words(&stale[..at]);
            stale[at..].copy_from_slice(&seal.to_le_bytes());
        }
        std::fs::write(dir.join("v2.vfts"), &stale).unwrap();
        let hostile = run(&["inspect", "v2.vfts"]);
        assert!(!hostile.status.success());
        assert_eq!(
            code_from_stderr(&hostile.stderr).as_deref(),
            Some("artifact/bad-version"),
            "stderr: {}",
            String::from_utf8_lossy(&hostile.stderr)
        );
        assert!(String::from_utf8_lossy(&hostile.stderr).contains("spanner-artifact build"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_subcommand_gates_on_corpus_health() {
    // The committed corpus replays clean through the binary.
    let good = Command::new(bin())
        .arg("replay")
        .arg(repo_path("fuzz/corpus"))
        .output()
        .expect("spawn");
    assert!(
        good.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&good.stderr)
    );
    assert!(String::from_utf8_lossy(&good.stdout).contains("replay clean"));

    // A directory with a mislabeled entry fails, loudly.
    let dir = std::env::temp_dir().join(format!("artifact-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("truncation__ok__0000000000000000.bin"),
        b"not an artifact",
    )
    .unwrap();
    let bad = Command::new(bin())
        .arg("replay")
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("MISMATCH"));
    std::fs::remove_dir_all(&dir).ok();

    // And the library-level replay agrees with the binary on the
    // committed corpus (one contract, two consumers).
    let report = replay_dir(&repo_path("fuzz/corpus"), true).unwrap();
    assert!(report.is_clean());
}
