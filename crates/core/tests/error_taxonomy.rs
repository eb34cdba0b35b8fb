//! Snapshot of the stable error-code taxonomy.
//!
//! Every typed error on the serving trust boundary — container decode
//! ([`BinaryError`]), artifact cross-validation ([`ArtifactError`]) and
//! query serving ([`RouteError`]) — carries a stable `code()`. Replicas
//! and operators match on those codes, so the *exact* set is part of
//! the public contract: this test pins it, and pins the documentation
//! appendix (`docs/ARTIFACT_FORMAT.md`, "Attack classes & error
//! taxonomy") to the same set. Adding or renaming a variant without
//! updating the snapshot below **and** the docs fails here, loudly.

use spanner_core::frozen::{ArtifactError, ARTIFACT_ERROR_CODES};
use spanner_core::routing::{RouteError, ROUTE_ERROR_CODES};
use spanner_graph::io::binary::{remediation_for_code, BinaryError, BINARY_ERROR_CODES};
use spanner_graph::{EdgeId, GraphError, NodeId};
use std::collections::BTreeSet;

/// The frozen taxonomy. This list is the snapshot: a new error variant
/// (or a renamed code) must be added here deliberately, with its
/// remediation documented, or the assertions below fail.
const SNAPSHOT: &[&str] = &[
    "artifact/bad-magic",
    "artifact/bad-version",
    "artifact/bit-flip",
    "artifact/cross-section",
    "artifact/graph-invariant",
    "artifact/invalid-edge",
    "artifact/malformed",
    "artifact/misaligned-section",
    "artifact/missing-section",
    "artifact/section-replay",
    "artifact/truncation",
    "artifact/unknown-section",
    "artifact/witnesses-detached",
    "route/endpoint-failed",
    "route/invalid-endpoint",
    "route/unreachable",
];

/// One constructed value per variant of every error type on the
/// boundary. If a crate adds a variant, its `code()` match arm is
/// compiler-enforced in-crate; this function is what drags the new code
/// into the snapshot comparison.
fn constructed_codes() -> BTreeSet<&'static str> {
    let binary = [
        BinaryError::Truncated { context: "t" },
        BinaryError::BadMagic {
            found: [0; 8],
            expected: *b"VFTSPANR",
        },
        BinaryError::UnsupportedVersion {
            found: 2,
            supported: 3,
        },
        BinaryError::ChecksumMismatch {
            stored: 0,
            computed: 1,
        },
        BinaryError::UnknownSection { tag: 7 },
        BinaryError::DuplicateSection { tag: 1 },
        BinaryError::MissingSection { name: "meta" },
        BinaryError::Malformed {
            context: "c",
            detail: String::new(),
        },
        BinaryError::Graph(GraphError::SelfLoop {
            node: NodeId::new(0),
        }),
        BinaryError::MisalignedSection {
            context: "c",
            offset: 1,
        },
    ];
    let artifact = [
        ArtifactError::Format(BinaryError::Truncated { context: "t" }),
        ArtifactError::Inconsistent {
            context: "c",
            detail: String::new(),
        },
        ArtifactError::WitnessesDetached,
        ArtifactError::InvalidEdge {
            edge: EdgeId::new(5),
            edge_count: 5,
        },
    ];
    let route = [
        RouteError::InvalidEndpoint(NodeId::new(0)),
        RouteError::EndpointFailed(NodeId::new(0)),
        RouteError::Unreachable {
            from: NodeId::new(0),
            to: NodeId::new(1),
        },
    ];
    let mut codes = BTreeSet::new();
    codes.extend(binary.iter().map(BinaryError::code));
    codes.extend(artifact.iter().map(ArtifactError::code));
    codes.extend(route.iter().map(RouteError::code));
    codes
}

#[test]
fn code_set_matches_the_snapshot_exactly() {
    let constructed = constructed_codes();
    let snapshot: BTreeSet<&str> = SNAPSHOT.iter().copied().collect();
    assert_eq!(
        constructed, snapshot,
        "the error-code taxonomy drifted: update the SNAPSHOT in this \
         test AND the appendix in docs/ARTIFACT_FORMAT.md together"
    );
    // The per-crate exported lists must agree with what the variants
    // actually produce (they are the docs' source of truth).
    let exported: BTreeSet<&str> = BINARY_ERROR_CODES
        .iter()
        .chain(ARTIFACT_ERROR_CODES)
        .chain(ROUTE_ERROR_CODES)
        .copied()
        .collect();
    assert_eq!(constructed, exported, "exported code lists drifted");
}

#[test]
fn format_errors_route_through_the_binary_taxonomy() {
    // One source of truth: wrapping a BinaryError must not invent a
    // second code for the same defect.
    let inner = BinaryError::ChecksumMismatch {
        stored: 1,
        computed: 2,
    };
    let code = inner.code();
    let wrapped = ArtifactError::from(BinaryError::ChecksumMismatch {
        stored: 1,
        computed: 2,
    });
    assert_eq!(wrapped.code(), code);
    assert_eq!(wrapped.remediation(), remediation_for_code(code));
}

#[test]
fn every_code_is_documented_with_a_remediation() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/ARTIFACT_FORMAT.md"
    ))
    .expect("docs/ARTIFACT_FORMAT.md must exist");
    for code in SNAPSHOT {
        assert!(
            doc.contains(&format!("`{code}`")),
            "code {code} is not documented in docs/ARTIFACT_FORMAT.md"
        );
        if code.starts_with("artifact/") {
            let hint = remediation_for_code(code);
            assert_ne!(
                hint,
                remediation_for_code("artifact/definitely-not-a-code"),
                "code {code} only has the generic fallback remediation"
            );
            assert!(
                doc.contains(hint),
                "remediation for {code} ({hint:?}) is not in the docs appendix"
            );
        }
    }
}
