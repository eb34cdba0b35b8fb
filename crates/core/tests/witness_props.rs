//! The fixed-stride witness section must be invisible in the answers
//! and fail-closed everywhere else.
//!
//! The paper bounds every witness at |F_e| ≤ f under the artifact's
//! single fault model, so the witness section is a `u64` count followed
//! by one `(4 + 4f)`-byte record per spanner edge: a `u32` length, then
//! `f` `u32` id slots, sorted ascending, unused slots zero. These tests
//! pin the contracts that make the layout trustworthy:
//!
//! * **round-trip** — across random graphs, both fault models, and
//!   budgets `f ∈ {0, 1, 2}`, the owned decode and the zero-copy open
//!   answer `witnesses_for(e)` equal to the construction for every
//!   edge, and both re-encode byte-identically;
//! * **one record per lookup** — the bytes-touched meter grows by
//!   exactly `4 + 4f` per `witnesses_for`, and by the section length
//!   when `witnesses()` forces the full map;
//! * **hostile input** — every truncation and every bit flip is a typed
//!   error, and directed probes (an overflowing budget, a length above
//!   f, a dirty unused slot, unsorted or duplicate ids, an id out of
//!   range, a count that is neither 0 nor the edge count) land on
//!   stable codes through both `decode` and `open` + `witnesses_for`.

use proptest::prelude::*;
use spanner_core::frozen::{
    ArtifactError, ARTIFACT_MAGIC, FLAG_WITNESSES_DETACHED, SECTION_META, SECTION_WITNESSES,
};
use spanner_core::{FrozenSpanner, FtGreedy, Spanner};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::io::binary::{fnv1a64_words, parse_container};
use spanner_graph::{EdgeId, Graph, NodeId, SharedBytes, Weight};

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

/// `(offset, len)` of a section, read from the container's own table.
fn section_range(bytes: &[u8], tag: u32) -> (usize, usize) {
    let container = parse_container(bytes, ARTIFACT_MAGIC, FLAG_WITNESSES_DETACHED).unwrap();
    let s = container.section(tag).expect("section present");
    (s.offset, s.len)
}

/// Recomputes the trailing checksum after hostile surgery, so the
/// corruption reaches the section parsers instead of stopping at
/// `artifact/bit-flip`.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv1a64_words(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&sum);
}

fn put_u32_at(bytes: &mut [u8], at: usize, value: u32) {
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// A deterministic f = 2 vertex-model artifact: full metadata, parent
/// graph, 12-byte witness records.
fn fixture() -> (FrozenSpanner, Vec<u8>) {
    let g = spanner_graph::generators::complete(7);
    let frozen = FtGreedy::new(&g, 3).faults(2).run().freeze(&g);
    let bytes = frozen.encode();
    (frozen, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fixed_stride_round_trip_is_bit_identical_and_canonical(
        g in arb_graph(9, 4),
        f in 0usize..3,
        edge_model in any::<bool>(),
    ) {
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let frozen = FtGreedy::new(&g, 3).faults(f).model(model).run().freeze(&g);
        let expected = frozen.witnesses().unwrap().to_vec();
        let bytes = frozen.encode();
        let (_, w_len) = section_range(&bytes, SECTION_WITNESSES);
        prop_assert_eq!(w_len, 8 + expected.len() * (4 + 4 * f), "one stride per edge");

        let owned = FrozenSpanner::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(owned.encode(), bytes.clone(), "owned re-encode must be byte-identical");
        prop_assert_eq!(owned.witnesses().unwrap(), expected.as_slice());

        let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes))
            .expect("own encoding must open in place");
        prop_assert!(mapped.is_in_place(), "open() must borrow, not copy");
        for (e, wanted) in expected.iter().enumerate() {
            let id = EdgeId::new(e);
            prop_assert_eq!(&mapped.witnesses_for(id).unwrap(), wanted, "edge {} (mapped)", e);
            prop_assert_eq!(&owned.witnesses_for(id).unwrap(), wanted, "edge {} (owned)", e);
        }
        prop_assert_eq!(mapped.encode(), bytes, "mapped re-encode must be byte-identical");
    }
}

#[test]
fn each_lookup_touches_exactly_one_record() {
    let g = spanner_graph::generators::complete(8);
    for f in 0..3usize {
        let bytes = FtGreedy::new(&g, 3).faults(f).run().freeze(&g).encode();
        let (_, w_len) = section_range(&bytes, SECTION_WITNESSES);
        let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes)).unwrap();
        assert_eq!(
            mapped.witness_bytes_touched(),
            0,
            "open must not read records"
        );
        let stride = (4 + 4 * f) as u64;
        for (n, e) in [3usize, 0, 3, mapped.edge_count() - 1]
            .into_iter()
            .enumerate()
        {
            mapped.witnesses_for(EdgeId::new(e)).unwrap();
            assert_eq!(
                mapped.witness_bytes_touched(),
                (n as u64 + 1) * stride,
                "f={f}: lookup {n} must read one {stride}-byte record"
            );
        }
        let before = mapped.witness_bytes_touched();
        assert_eq!(mapped.witnesses().unwrap().len(), mapped.edge_count());
        assert_eq!(
            mapped.witness_bytes_touched(),
            before + w_len as u64,
            "f={f}: forcing the map reads the whole section once"
        );
        mapped.witnesses().unwrap();
        assert_eq!(mapped.witness_bytes_touched(), before + w_len as u64);
    }
}

#[test]
fn every_truncation_and_bit_flip_is_rejected() {
    let g = spanner_graph::generators::complete(6);
    let bytes = FtGreedy::new(&g, 3)
        .faults(2)
        .model(FaultModel::Edge)
        .run()
        .freeze(&g)
        .encode();
    for len in 0..bytes.len() {
        assert!(
            FrozenSpanner::decode(&bytes[..len]).is_err(),
            "truncation to {len} bytes must fail"
        );
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            assert!(
                FrozenSpanner::decode(&corrupt).is_err(),
                "flipping byte {i} bit {bit} must be detected"
            );
        }
    }
}

#[test]
fn directed_witness_probes_land_on_stable_codes() {
    let (frozen, bytes) = fixture();
    let (meta_at, _) = section_range(&bytes, SECTION_META);
    let (w_at, _) = section_range(&bytes, SECTION_WITNESSES);
    let m = frozen.edge_count();
    let n = frozen.node_count() as u32;
    assert!(m >= 2, "fixture must carry several records");
    // Record `i` of the f = 2 section: length at +0, slots at +4, +8.
    let record = |i: usize| w_at + 8 + 12 * i;
    let probe = |mutate: &dyn Fn(&mut Vec<u8>)| {
        let mut b = bytes.clone();
        mutate(&mut b);
        reseal(&mut b);
        b
    };
    let write_record = |i: usize, len: u32, ids: [u32; 2]| {
        move |b: &mut Vec<u8>| {
            put_u32_at(b, record(i), len);
            put_u32_at(b, record(i) + 4, ids[0]);
            put_u32_at(b, record(i) + 8, ids[1]);
        }
    };

    // Section-level defects: refused by decode and by open alike.
    let section_probes: [(&str, Vec<u8>, &str); 3] = [
        (
            "budget 2^62 overflows the stride",
            probe(&|b| b[meta_at + 10..meta_at + 18].copy_from_slice(&(1u64 << 62).to_le_bytes())),
            "artifact/malformed",
        ),
        (
            "count is neither 0 nor the edge count",
            probe(&|b| b[w_at..w_at + 8].copy_from_slice(&(m as u64 + 1).to_le_bytes())),
            "artifact/cross-section",
        ),
        (
            "count of one record for several edges",
            probe(&|b| b[w_at..w_at + 8].copy_from_slice(&1u64.to_le_bytes())),
            "artifact/cross-section",
        ),
    ];
    for (what, hostile, code) in &section_probes {
        let err = FrozenSpanner::decode(hostile).unwrap_err();
        assert_eq!(err.code(), *code, "{what} (decode): {err}");
        let err = FrozenSpanner::open(SharedBytes::copy_aligned(hostile)).unwrap_err();
        assert_eq!(err.code(), *code, "{what} (open): {err}");
    }

    // Record-level defects: decode validates every record and refuses
    // the file; open accepts the envelope, then the lookup of the bad
    // record fails typed while the other records keep serving.
    let record_probes: [(&str, Vec<u8>, &str); 5] = [
        (
            "length field above f",
            probe(&write_record(1, 3, [0, 1])),
            "artifact/malformed",
        ),
        (
            "nonzero unused slot",
            probe(&write_record(1, 1, [0, 5])),
            "artifact/malformed",
        ),
        (
            "unsorted ids",
            probe(&write_record(1, 2, [3, 1])),
            "artifact/cross-section",
        ),
        (
            "duplicate ids",
            probe(&write_record(1, 2, [2, 2])),
            "artifact/cross-section",
        ),
        (
            "id out of range",
            probe(&write_record(1, 1, [n, 0])),
            "artifact/cross-section",
        ),
    ];
    for (what, hostile, code) in &record_probes {
        let err = FrozenSpanner::decode(hostile).unwrap_err();
        assert_eq!(err.code(), *code, "{what} (decode): {err}");
        let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(hostile)).unwrap_or_else(|e| {
            panic!("{what}: the section shape is valid, open must accept: {e}")
        });
        let err = mapped.witnesses_for(EdgeId::new(1)).unwrap_err();
        assert_eq!(err.code(), *code, "{what} (witnesses_for): {err}");
        assert_eq!(
            mapped.witnesses().unwrap_err().code(),
            *code,
            "{what} (witnesses)"
        );
        assert_eq!(
            mapped.witnesses_for(EdgeId::new(0)).unwrap(),
            frozen.witnesses_for(EdgeId::new(0)).unwrap(),
            "{what}: untouched records must keep serving"
        );
    }
}

/// Every byte of every unused id slot is checked: dirtying any one of
/// them is refused by the eager `decode`, and by the lazy `open` only
/// when that record is read — the other records keep serving.
#[test]
fn dirty_record_padding_is_rejected_eagerly_and_lazily() {
    let (frozen, bytes) = fixture();
    let (w_at, _) = section_range(&bytes, SECTION_WITNESSES);
    let (f, stride) = (2usize, 12usize);
    let m = frozen.edge_count();
    let mut probed = 0;
    for e in 0..m {
        let at = w_at + 8 + stride * e;
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let other = EdgeId::new(if e == 0 { 1 } else { 0 });
        for byte in at + 4 + 4 * len..at + 4 + 4 * f {
            let mut hostile = bytes.clone();
            hostile[byte] = 0x80;
            reseal(&mut hostile);
            let err = FrozenSpanner::decode(&hostile).unwrap_err();
            assert_eq!(
                err.code(),
                "artifact/malformed",
                "edge {e} byte {byte}: {err}"
            );
            let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&hostile))
                .expect("the section shape is valid, open must accept");
            let err = mapped.witnesses_for(EdgeId::new(e)).unwrap_err();
            assert_eq!(
                err.code(),
                "artifact/malformed",
                "edge {e} byte {byte}: {err}"
            );
            assert_eq!(
                mapped.witnesses_for(other).unwrap(),
                frozen.witnesses_for(other).unwrap(),
                "edge {e} byte {byte}: untouched records must keep serving"
            );
            probed += 1;
        }
    }
    assert!(probed > 0, "fixture must carry a record with unused slots");
}

#[test]
fn out_of_range_edges_are_a_typed_error() {
    let (frozen, bytes) = fixture();
    let m = frozen.edge_count();
    let decoded = FrozenSpanner::decode(&bytes).unwrap();
    let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes)).unwrap();
    let detached = frozen.detach_witnesses();
    for (what, artifact) in [
        ("frozen", &frozen),
        ("decoded", &decoded),
        ("mapped", mapped.spanner()),
        ("detached", &detached),
    ] {
        for e in [m, m + 1, u32::MAX as usize] {
            let err = artifact.witnesses_for(EdgeId::new(e)).unwrap_err();
            assert!(
                matches!(err, ArtifactError::InvalidEdge { edge_count, .. } if edge_count == m),
                "{what} e={e}: {err}"
            );
            assert_eq!(err.code(), "artifact/invalid-edge");
            assert!(!err.remediation().is_empty());
        }
    }
    // A bad id meters nothing: no record was read.
    assert_eq!(mapped.witness_bytes_touched(), 0);
}

#[test]
fn bare_and_detached_artifacts_answer_without_records() {
    // A bare freeze records no budget and no witnesses: the section is
    // the count alone, and every lookup answers the empty set.
    let g = spanner_graph::generators::cycle(6);
    let bare = Spanner::from_parent_edges(&g, [EdgeId::new(1), EdgeId::new(4)], 5).freeze();
    let bytes = bare.encode();
    assert_eq!(section_range(&bytes, SECTION_WITNESSES).1, 8);
    let back = FrozenSpanner::decode(&bytes).unwrap();
    assert_eq!(back.encode(), bytes);
    assert_eq!(
        back.witnesses_for(EdgeId::new(0)).unwrap(),
        FaultSet::empty(FaultModel::Vertex)
    );
    let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes)).unwrap();
    assert!(mapped.witnesses_for(EdgeId::new(1)).unwrap().is_empty());
    assert_eq!(mapped.witness_bytes_touched(), 0);

    // A routing-only replica keeps refusing witness lookups with the
    // typed error, and the pipebench identity shim changes nothing.
    let (frozen, _) = fixture();
    let detached = frozen.detach_witnesses();
    assert_eq!(detached.to_v2_sharded().encode(), detached.encode());
    let reopened = FrozenSpanner::open(SharedBytes::copy_aligned(&detached.encode())).unwrap();
    assert!(matches!(
        reopened.witnesses_for(EdgeId::new(0)),
        Err(ArtifactError::WitnessesDetached)
    ));
}
