//! The fuzz regression corpus: file conventions and deterministic replay.
//!
//! The decode path (`parse_container`, `decode_frozen_csr`,
//! `FrozenSpanner::decode` / `open`) is a trust boundary — replicas ingest
//! artifact bytes they did not produce. The offline fuzzer
//! (`spanner-fuzz`, `crates/fuzz`) hunts that boundary and commits what
//! it finds under `fuzz/corpus/` (labeled hostile mutants plus
//! legitimate seeds) and `fuzz/crashes/` (any input that ever caused a
//! panic, a nondeterministic error signature, or an accepted-but-
//! non-canonical decode — empty for as long as the contract holds).
//! This module is the *replay* half, shared by the `spanner-artifact
//! replay` subcommand, the `spanner-fuzz` binary, and the tier-1
//! regression tests, so every consumer applies the identical contract:
//!
//! * **Fail closed, never open** — decoding returns `Ok` or a typed
//!   error; a panic is a finding.
//! * **Determinism** — the same bytes yield the same stable error code
//!   and the same message, every time ([`DETERMINISM_RUNS`] repeated
//!   in-process decodes; `crates/harness/tests/artifact_cli.rs` adds
//!   the cross-process leg through the `spanner-artifact` binary).
//! * **Canonical acceptance** — bytes that decode must re-encode to
//!   themselves; an accepted-but-different artifact is a finding.
//!
//! Corpus file names carry their expected outcome:
//! `<class>__<code-slug>__<fnv64-hex>.bin`, where `<class>` is the
//! attack class that produced the input, `<code-slug>` is the expected
//! stable error code with `/` written as `.` (or `ok` for inputs that
//! must decode), and the hash is the container checksum function
//! (`fnv1a64_words`) of the bytes. Replay verifies the detected outcome
//! against the name, which is what turns the corpus into a regression
//! gate on the error taxonomy itself.

use spanner_core::FrozenSpanner;
use spanner_graph::io::binary::{self, fnv1a64_words};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// How many times replay decodes each input in-process when asserting a
/// stable error signature.
pub const DETERMINISM_RUNS: usize = 3;

/// File-name label for inputs that must decode successfully.
pub const OK_LABEL: &str = "ok";

/// Every outcome a corpus entry can be labeled with: [`OK_LABEL`] plus
/// each stable decode-path error code. `artifact/invalid-edge` is left
/// out: it refuses a witness query for an edge id the caller chose, and
/// no byte string decodes into it. The committed corpus must exercise
/// every label here (`spanner-fuzz corpus` refuses to write one that
/// does not).
pub fn decode_outcome_labels() -> Vec<&'static str> {
    let mut labels = vec![OK_LABEL];
    labels.extend(
        binary::BINARY_ERROR_CODES
            .iter()
            .chain(spanner_core::frozen::ARTIFACT_ERROR_CODES)
            .filter(|&&code| code != "artifact/invalid-edge"),
    );
    labels
}

/// Extensions replay considers corpus entries (everything else in a
/// corpus directory — READMEs, manifests — is ignored).
pub const CORPUS_EXTENSIONS: &[&str] = &["bin", "vfts"];

/// Encodes a stable error code as a file-name-safe slug (`/` → `.`;
/// codes contain no dots, so the mapping is invertible).
pub fn code_to_slug(code: &str) -> String {
    code.replace('/', ".")
}

/// Inverts [`code_to_slug`].
pub fn slug_to_code(slug: &str) -> String {
    slug.replace('.', "/")
}

/// The canonical corpus file name for `bytes`: attack class, expected
/// outcome (`None` = must decode), content hash.
pub fn corpus_file_name(class: &str, expected_code: Option<&str>, bytes: &[u8]) -> String {
    let slug = match expected_code {
        None => OK_LABEL.to_string(),
        Some(code) => code_to_slug(code),
    };
    format!("{class}__{slug}__{:016x}.bin", fnv1a64_words(bytes))
}

/// The outcome a corpus file's name promises: `None` = must decode
/// successfully, `Some(code)` = must fail with exactly that stable
/// code. Returns `None` when the name does not follow the convention
/// (such files are replayed, but only for the fail-closed and
/// determinism contracts, not for an expected code).
pub fn expected_from_name(name: &str) -> Option<Option<String>> {
    let stem = name.rsplit_once('.').map(|(s, _)| s).unwrap_or(name);
    let mut parts = stem.split("__");
    let (_class, slug, _hash) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    Some((slug != OK_LABEL).then(|| slug_to_code(slug)))
}

/// What one deterministic decode of untrusted bytes produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The bytes decoded, and re-encoded to exactly themselves.
    Accepted,
    /// The bytes were rejected with this stable error code.
    Rejected(&'static str),
}

impl DecodeOutcome {
    /// The code replay tallies this outcome under (`"ok"` for
    /// accepted).
    pub fn label(&self) -> &'static str {
        match self {
            DecodeOutcome::Accepted => OK_LABEL,
            DecodeOutcome::Rejected(code) => code,
        }
    }
}

/// One decode through the codec the magic selects: `VFTGRAPH` files go
/// through [`binary::decode_frozen_csr`], everything else (including
/// garbage too short to carry a magic) through [`FrozenSpanner::decode`].
/// Returns the outcome plus the error's display string (the
/// "signature" the determinism contract compares), and re-encodes
/// accepted inputs to prove canonical acceptance. Accepted spanner
/// artifacts additionally have their witness accessor probed, so a
/// routing-only artifact is tallied under
/// `artifact/witnesses-detached` — the typed refusal witness queries
/// against it receive — keeping the detached arm inside the corpus's
/// taxonomy-coverage gate.
fn decode_once(bytes: &[u8]) -> Result<(DecodeOutcome, String), String> {
    let is_graph = bytes.len() >= 8 && bytes[..8] == *b"VFTGRAPH";
    let run = |bytes: &[u8]| -> Result<(DecodeOutcome, String), String> {
        if is_graph {
            match binary::decode_frozen_csr(bytes) {
                Ok(csr) => {
                    if binary::encode_frozen_csr(&csr) != bytes {
                        return Err("accepted input does not re-encode canonically".into());
                    }
                    Ok((DecodeOutcome::Accepted, String::new()))
                }
                Err(e) => Ok((DecodeOutcome::Rejected(e.code()), e.to_string())),
            }
        } else {
            match FrozenSpanner::decode(bytes) {
                Ok(frozen) => {
                    if frozen.encode() != bytes {
                        return Err("accepted input does not re-encode canonically".into());
                    }
                    // Witness availability is part of the replayed
                    // contract: a routing-only (witnesses-detached)
                    // artifact decodes, but serving witness queries from
                    // it must refuse with its typed code — pin that
                    // refusal rather than letting detachment blend into
                    // "ok".
                    if let Err(e) = frozen.witnesses() {
                        return Ok((DecodeOutcome::Rejected(e.code()), e.to_string()));
                    }
                    Ok((DecodeOutcome::Accepted, String::new()))
                }
                Err(e) => Ok((DecodeOutcome::Rejected(e.code()), e.to_string())),
            }
        }
    };
    // The decode contract says no input can panic; hold the line even
    // if that contract regresses, and report the panic as the finding
    // it is instead of tearing down the replay.
    catch_unwind(AssertUnwindSafe(|| run(bytes))).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("decode panicked: {msg}")
    })?
}

/// Decodes `bytes` [`DETERMINISM_RUNS`] times, asserting the fail-closed,
/// determinism, and canonical-acceptance contracts.
///
/// # Errors
///
/// A human-readable description of the violated contract (panic,
/// unstable error signature, or non-canonical acceptance).
pub fn decode_outcome(bytes: &[u8]) -> Result<DecodeOutcome, String> {
    let (outcome, signature) = decode_once(bytes)?;
    for run in 1..DETERMINISM_RUNS {
        let (again, sig_again) = decode_once(bytes)?;
        if again != outcome || sig_again != signature {
            return Err(format!(
                "nondeterministic decode: run 0 gave {}/{signature:?}, run {run} gave {}/{sig_again:?}",
                outcome.label(),
                again.label(),
            ));
        }
    }
    Ok(outcome)
}

/// The result of replaying a corpus directory.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Corpus entries replayed.
    pub files: usize,
    /// Outcomes tallied per label: stable error code, or `"ok"`.
    pub by_code: BTreeMap<String, usize>,
    /// Entries whose detected outcome contradicts their file name —
    /// the error taxonomy moved under the corpus.
    pub mismatches: Vec<String>,
    /// Entries that violated the fail-closed / determinism / canonical
    /// contracts outright.
    pub failures: Vec<String>,
}

impl ReplayReport {
    /// Whether every entry met its expectation and every contract held.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.failures.is_empty()
    }

    /// Replays one named corpus entry into the tallies.
    pub fn replay_entry(&mut self, name: &str, bytes: &[u8]) {
        self.files += 1;
        let outcome = match decode_outcome(bytes) {
            Ok(outcome) => outcome,
            Err(why) => {
                self.failures.push(format!("{name}: {why}"));
                return;
            }
        };
        *self.by_code.entry(outcome.label().to_string()).or_insert(0) += 1;
        if let Some(expected) = expected_from_name(name) {
            let got = match &outcome {
                DecodeOutcome::Accepted => None,
                DecodeOutcome::Rejected(code) => Some(code.to_string()),
            };
            if got != expected {
                self.mismatches.push(format!(
                    "{name}: expected {}, got {}",
                    expected.as_deref().unwrap_or(OK_LABEL),
                    outcome.label(),
                ));
            }
        }
    }

    /// Per-class count lines for human output, `code  count` in code
    /// order.
    pub fn count_lines(&self) -> Vec<String> {
        self.by_code
            .iter()
            .map(|(code, count)| format!("{code:<26} {count:>6}"))
            .collect()
    }
}

/// Replays every corpus entry in `dir` (non-recursive; files matching
/// [`CORPUS_EXTENSIONS`], in name order so reports are deterministic).
/// A missing or empty directory is an error only if `required` — the
/// crash corpus is expected to be empty.
///
/// # Errors
///
/// I/O problems reading the directory or a file. Contract violations
/// are *not* errors here; they land in the report's `failures` /
/// `mismatches` so the caller can print all of them before failing.
pub fn replay_dir(dir: &Path, required: bool) -> Result<ReplayReport, String> {
    let mut report = ReplayReport::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) if !required => return Ok(report),
        Err(e) => return Err(format!("cannot read corpus dir {}: {e}", dir.display())),
    };
    let mut names: Vec<String> = entries
        .filter_map(|entry| Some(entry.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|name| {
            name.rsplit_once('.')
                .is_some_and(|(_, ext)| CORPUS_EXTENSIONS.contains(&ext))
        })
        .collect();
    names.sort();
    if names.is_empty() && required {
        return Err(format!("corpus dir {} holds no entries", dir.display()));
    }
    for name in names {
        let path = dir.join(&name);
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        report.replay_entry(&name, &bytes);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::FtGreedy;
    use spanner_graph::generators::complete;

    #[test]
    fn file_name_round_trips_expectation() {
        let name = corpus_file_name("bit-flip", Some("artifact/bit-flip"), b"xyz");
        assert!(name.starts_with("bit-flip__artifact.bit-flip__"));
        assert_eq!(
            expected_from_name(&name),
            Some(Some("artifact/bit-flip".to_string()))
        );
        let seed = corpus_file_name("seed", None, b"xyz");
        assert_eq!(expected_from_name(&seed), Some(None));
        assert_eq!(expected_from_name("README.md"), None);
    }

    #[test]
    fn replay_tallies_and_checks_expectations() {
        let g = complete(6);
        let bytes = FtGreedy::new(&g, 3).faults(1).run().freeze(&g).encode();
        // Cut below the header + checksum minimum: longer cuts hit the
        // checksum gate first (the trailing bytes of a mid-stream cut
        // parse as a wrong checksum ⇒ artifact/bit-flip).
        let mut truncated = bytes.clone();
        truncated.truncate(10);

        let mut report = ReplayReport::default();
        report.replay_entry(&corpus_file_name("seed", None, &bytes), &bytes);
        report.replay_entry(
            &corpus_file_name("truncation", Some("artifact/truncation"), &truncated),
            &truncated,
        );
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.by_code.get(OK_LABEL), Some(&1));
        assert_eq!(report.by_code.get("artifact/truncation"), Some(&1));

        // A name that promises the wrong outcome is a mismatch.
        let mut bad = ReplayReport::default();
        bad.replay_entry(&corpus_file_name("seed", None, &truncated), &truncated);
        assert_eq!(bad.mismatches.len(), 1);
        assert!(!bad.is_clean());
    }

    #[test]
    fn missing_dir_is_only_an_error_when_required() {
        let missing = Path::new("/definitely/not/a/corpus");
        assert!(replay_dir(missing, false).unwrap().files == 0);
        assert!(replay_dir(missing, true).is_err());
    }
}
