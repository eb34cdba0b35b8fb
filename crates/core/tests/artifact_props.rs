//! The persisted artifact must be invisible in the answers.
//!
//! PR 5 gave [`FrozenSpanner`] a versioned binary codec
//! ([`FrozenSpanner::encode`] / [`FrozenSpanner::decode`]) so serving
//! replicas can load an artifact instead of re-running FT-greedy. These
//! property tests pin the codec's whole contract, across random weighted
//! graphs, both fault models, and budgets `f ∈ {0, 1, 2}`:
//!
//! * **Canonical roundtrip** — `decode(encode(a))` re-encodes to the
//!   exact original bytes (so artifacts can be content-addressed);
//! * **Serving bit-identity** — an [`EpochServer`] over the decoded
//!   artifact answers every epoch'd `route_batch` identically (routes,
//!   edges, distances, errors) to an engine over the original, for
//!   failure epochs within and beyond the budget, including replays of
//!   the artifact's own witness fault sets;
//! * **Hostile-input safety** — truncating the byte stream at any point
//!   or flipping any byte yields a typed error, never a panic.

use proptest::prelude::*;
use spanner_core::routing::{Route, RouteError};
use spanner_core::{EpochServer, FrozenSpanner, FtGreedy};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::{EdgeId, Graph, NodeId, Weight};
use std::sync::Arc;

fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (5..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let m = pairs.len();
        (
            proptest::collection::vec(0..10u32, m),
            proptest::collection::vec(1..=max_w, m),
        )
            .prop_map(move |(keep, ws)| {
                let mut g = Graph::new(n);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    if keep[i] < 7 {
                        g.add_edge_unchecked(
                            NodeId::new(u),
                            NodeId::new(v),
                            Weight::new(ws[i]).unwrap(),
                        );
                    }
                }
                g
            })
    })
}

fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (NodeId::new(u), NodeId::new(v))))
        .collect()
}

/// Serves one epoch'd batch: apply `failures` once, answer all pairs.
fn serve(
    server: &EpochServer,
    failures: &FaultSet,
    pairs: &[(NodeId, NodeId)],
) -> Vec<Result<Route, RouteError>> {
    server.epoch(failures).route_batch(pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn decoded_artifact_reencodes_and_serves_bit_identically(
        g in arb_graph(9, 4),
        f in 0usize..3,
        edge_model in any::<bool>(),
        fault_raw in proptest::collection::vec(any::<u32>(), 0..4),
    ) {
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let ft = FtGreedy::new(&g, 3).faults(f).model(model).run();
        let original = Arc::new(ft.freeze(&g));

        // Canonical roundtrip: decode, then re-encode byte-identically.
        let bytes = original.encode();
        let decoded = Arc::new(FrozenSpanner::decode(&bytes).expect("own encoding must decode"));
        prop_assert_eq!(decoded.encode(), bytes);

        // Serving bit-identity over a schedule of epochs: the random
        // failure set (within or beyond budget), the empty epoch, and a
        // replay of every nonempty recorded witness set.
        let random_set = match model {
            FaultModel::Vertex => FaultSet::vertices(
                fault_raw.iter().map(|r| NodeId::new(*r as usize % g.node_count())),
            ),
            FaultModel::Edge => FaultSet::edges(
                fault_raw
                    .iter()
                    .filter(|_| g.edge_count() > 0)
                    .map(|r| EdgeId::new(*r as usize % g.edge_count().max(1))),
            ),
        };
        let mut epochs = vec![random_set, FaultSet::empty(model)];
        epochs.extend(
            original
                .witnesses()
                .unwrap()
                .iter()
                .filter(|w| !w.is_empty() && w.model() == FaultModel::Vertex)
                .take(4)
                .cloned(),
        );
        let pairs = all_pairs(g.node_count());
        let served_original = EpochServer::new(Arc::clone(&original));
        let served_decoded = EpochServer::new(Arc::clone(&decoded));
        for failures in &epochs {
            prop_assert_eq!(
                serve(&served_decoded, failures, &pairs),
                serve(&served_original, failures, &pairs),
                "decoded artifact diverged under epoch {}",
                failures
            );
        }
    }

    #[test]
    fn hostile_bytes_error_and_never_panic(
        g in arb_graph(7, 3),
        f in 0usize..2,
        cut_raw in any::<u32>(),
        flip_at_raw in any::<u32>(),
        flip_with_raw in any::<u32>(),
    ) {
        let ft = FtGreedy::new(&g, 3).faults(f).run();
        let bytes = ft.freeze(&g).encode();
        // Any truncation point: typed error, no panic.
        let cut = cut_raw as usize % bytes.len();
        prop_assert!(FrozenSpanner::decode(&bytes[..cut]).is_err());
        // Any single-byte corruption: typed error, no panic.
        let mut corrupt = bytes.clone();
        let at = flip_at_raw as usize % corrupt.len();
        corrupt[at] ^= (flip_with_raw % 255 + 1) as u8;
        prop_assert!(FrozenSpanner::decode(&corrupt).is_err());
    }
}

/// The decoded artifact also plugs into the *pooled* batch path
/// unchanged — `Arc`-shared into a multi-threaded server with answers
/// bit-identical to the original's sequential batches.
#[test]
fn decoded_artifact_drives_the_worker_pool() {
    let g = spanner_graph::generators::complete(10);
    let ft = FtGreedy::new(&g, 3).faults(1).run();
    let original = Arc::new(ft.freeze(&g));
    let decoded = Arc::new(FrozenSpanner::decode(&original.encode()).unwrap());
    let pairs = all_pairs(10);
    let seq = EpochServer::new(Arc::clone(&original));
    let pooled = EpochServer::new(Arc::clone(&decoded)).with_threads(3);
    for failed in [0usize, 3, 9] {
        let failures = FaultSet::vertices([NodeId::new(failed)]);
        assert_eq!(
            pooled.epoch(&failures).par_route_batch(&pairs),
            serve(&seq, &failures, &pairs),
            "pooled decoded artifact diverged failing v{failed}"
        );
    }
}

/// The decoder must refuse, with a typed error, an artifact whose
/// header names any version but the current one — even when everything
/// else is valid and the checksum is resealed. Versions 1 and 2 are the
/// retired layouts: they are rebuilt from their parents, never read.
#[test]
fn future_versions_are_refused_not_guessed() {
    let g = spanner_graph::generators::cycle(5);
    let ft = FtGreedy::new(&g, 3).faults(1).run();
    let bytes = ft.freeze(&g).encode();
    let reseal = |mut bytes: Vec<u8>, version: u32| {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = spanner_graph::io::binary::fnv1a64_words(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&sum);
        bytes
    };
    for version in [1, 2, 4, 99] {
        let stale = reseal(bytes.clone(), version);
        let err = FrozenSpanner::decode(&stale).unwrap_err();
        assert_eq!(err.code(), "artifact/bad-version", "v{version}: {err}");
        assert!(
            err.remediation().contains("spanner-artifact build"),
            "{err}"
        );
        let shared = spanner_graph::SharedBytes::copy_aligned(&stale);
        let err = FrozenSpanner::open(shared).unwrap_err();
        assert_eq!(err.code(), "artifact/bad-version", "v{version}: {err}");
    }
}

/// Exhaustive single-corruption sweep over a complete artifact: *every*
/// truncation point and *every* single-bit flip must yield a typed
/// error — never a panic, never an accept. The proptests above sample
/// this space; the artifact is small enough to sweep it whole.
#[test]
fn v2_rejects_every_truncation_and_every_bit_flip() {
    let g = spanner_graph::generators::complete(6);
    let bytes = FtGreedy::new(&g, 3).faults(1).run().freeze(&g).encode();
    FrozenSpanner::decode(&bytes).expect("the uncorrupted artifact decodes");
    for cut in 0..bytes.len() {
        assert!(
            FrozenSpanner::decode(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 1 << bit;
            assert!(
                FrozenSpanner::decode(&corrupt).is_err(),
                "flipping bit {bit} of byte {at} was accepted"
            );
        }
    }
}

/// The in-place open path must refuse a buffer whose *base* misses the
/// 8-byte alignment — same bytes, wrong address — with the typed
/// alignment code, instead of reading the packed tables misaligned.
#[test]
fn open_rejects_an_offset_by_one_buffer() {
    use spanner_graph::SharedBytes;

    /// Serves its content from one byte past the first aligned position
    /// of its backing buffer, so the slice base is ≡ 1 (mod 8) wherever
    /// the allocator put the buffer.
    struct OffsetByOne {
        buf: Vec<u8>,
        len: usize,
    }
    impl AsRef<[u8]> for OffsetByOne {
        fn as_ref(&self) -> &[u8] {
            let start = (8 - self.buf.as_ptr() as usize % 8) % 8 + 1;
            &self.buf[start..start + self.len]
        }
    }

    let g = spanner_graph::generators::complete(6);
    let bytes = FtGreedy::new(&g, 3).faults(1).run().freeze(&g).encode();
    let mut buf = vec![0u8; bytes.len() + 16];
    let start = (8 - buf.as_ptr() as usize % 8) % 8 + 1;
    buf[start..start + bytes.len()].copy_from_slice(&bytes);
    let shared = SharedBytes::from_source(Arc::new(OffsetByOne {
        buf,
        len: bytes.len(),
    }));
    // The bytes are pristine — only the base address is hostile.
    assert_eq!(shared.as_slice(), &bytes[..]);
    let err = FrozenSpanner::open(shared).unwrap_err();
    assert_eq!(err.code(), "artifact/misaligned-section", "{err}");
}

/// The bytes `freeze(..).encode()` writes are pinned across changes to
/// how an artifact is sealed: a few fixed instances and the word-wise
/// FNV digest of their encodings. A change to these digests is a format
/// change (rebuild every artifact, bump `FORMAT_VERSION`), never a
/// refactor.
#[test]
fn encoded_bytes_match_their_golden_digests() {
    use spanner_core::greedy_spanner;
    use spanner_graph::generators::{complete, grid, petersen};
    use spanner_graph::io::binary::fnv1a64_words;

    let k8 = complete(8);
    let vertex = FtGreedy::new(&k8, 3).faults(1).run().freeze(&k8);
    let mesh = grid(4, 5);
    let edge = FtGreedy::new(&mesh, 3)
        .faults(2)
        .model(FaultModel::Edge)
        .run()
        .freeze(&mesh);
    let bare = greedy_spanner(&petersen(), 3).freeze();
    let detached = vertex.detach_witnesses();
    for (what, frozen, digest, len) in [
        (
            "complete(8), f = 1, vertex",
            &vertex,
            0xbdb5_f5c2_bf08_63d0u64,
            1632,
        ),
        (
            "grid(4, 5), f = 2, edge",
            &edge,
            0xd0ac_af21_8c51_3cca,
            2944,
        ),
        ("bare greedy petersen", &bare, 0x8226_9087_da14_1072, 1096),
        (
            "detached complete(8)",
            &detached,
            0xd7ed_35a5_875a_0770,
            1496,
        ),
    ] {
        let bytes = frozen.encode();
        assert_eq!(bytes.len(), len, "{what}");
        assert_eq!(
            fnv1a64_words(&bytes),
            digest,
            "{what}: {:#018x}",
            fnv1a64_words(&bytes)
        );
    }
}
