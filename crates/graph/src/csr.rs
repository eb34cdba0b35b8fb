//! The compressed-sparse-row serving layout.
//!
//! [`Graph`] is the growable layout: spanner constructions append to it
//! one kept edge at a time and search it between appends. Once a graph
//! stops changing and is only *served* — shared across query threads
//! behind an `Arc` — [`FrozenCsr`] takes over: one read-only snapshot
//! with the same node and edge ids and the same neighbor order. It
//! implements [`GraphView`] (so the generic
//! [`DijkstraEngine`](crate::DijkstraEngine) runs over it unchanged, with
//! identical tie-breaks) and is immutable by construction, hence
//! trivially `Send + Sync`.
//!
//! A `FrozenCsr` has one representation: the in-place CSR payload (a
//! header, the offset table, one packed `(target, via-edge, weight)`
//! record per adjacency slot — one cache line touch per neighbor instead
//! of three parallel-array touches — then the edge list), validated once
//! and read in place from a shared byte buffer.
//! [`FrozenCsr::from_view`] writes that payload for any view and reads
//! it back; [`FrozenCsr::from_bytes`] reads it from an artifact, mapped
//! or copied.

use crate::adjacency::GraphView;
use crate::bytes::{read_u32_at, read_u64_at, SharedBytes, BUFFER_ALIGN};
use crate::io::binary::{self, put_u32, put_u64, BinaryError};
use crate::{EdgeId, Graph, NodeId, Weight};

/// Byte width of the in-place CSR payload header (`node_count u64,
/// edge_count u64`).
pub const CSR_PAYLOAD_HEADER_LEN: usize = 16;

/// Byte width of one packed adjacency record in the in-place CSR payload
/// (`to u32, via u32, weight u64`).
pub const CSR_ADJ_RECORD_LEN: usize = 16;

/// Byte width of one edge record in the in-place CSR payload
/// (`u u32, v u32, weight u64`).
pub const CSR_EDGE_RECORD_LEN: usize = 16;

// Compile-time layout asserts: the on-disk record widths the in-place
// reader and the writer both assume, pinned against the field widths
// they are built from.
const _: () = assert!(CSR_PAYLOAD_HEADER_LEN == 8 + 8);
const _: () = assert!(CSR_ADJ_RECORD_LEN == 4 + 4 + 8);
const _: () = assert!(CSR_EDGE_RECORD_LEN == 4 + 4 + 8);
const _: () = assert!(std::mem::size_of::<u32>() == 4 && std::mem::size_of::<u64>() == 8);

/// A read-only, cache-packed CSR snapshot — the serving layout.
///
/// Built once from any [`GraphView`] (usually a finished [`Graph`]) with
/// the same node and edge ids and
/// the same neighbor order, so traversals over the frozen layout
/// tie-break exactly like traversals over the source. The structure is
/// immutable after construction and holds no interior mutability, so it
/// is `Send + Sync` and cheap to share across query threads behind an
/// `Arc` — this is what the freeze-and-serve read path
/// (`spanner_core`'s `FrozenSpanner`/`EpochServer`) hands to its threads.
///
/// The tables are read in place from a validated shared byte buffer
/// (see the module docs), so a replica serves straight off an mmap'd
/// artifact without rebuilding anything. Holding a clone of the buffer
/// keeps the bytes alive; every read decodes fixed-width little-endian
/// fields at offsets the validator proved in bounds.
///
/// # Examples
///
/// ```
/// use spanner_graph::{
///     csr::FrozenCsr, generators, DijkstraEngine, Dist, FaultMask, GraphView, NodeId,
/// };
///
/// let g = generators::complete(8);
/// let frozen = FrozenCsr::from_view(&g);
/// let mask = FaultMask::with_capacity(8, frozen.edge_count());
/// let mut engine = DijkstraEngine::new();
/// let d = engine.dist_bounded(&frozen, NodeId::new(0), NodeId::new(5), Dist::finite(3), &mask);
/// assert_eq!(d, Some(Dist::finite(1)));
/// ```
#[derive(Clone, Debug)]
pub struct FrozenCsr {
    bytes: SharedBytes,
    node_count: usize,
    edge_count: usize,
    /// Absolute payload range inside `bytes` (for canonical re-encode).
    start: usize,
    len: usize,
    /// Absolute offsets of the three packed tables inside `bytes`.
    offsets_at: usize,
    adj_at: usize,
    edges_at: usize,
}

impl FrozenCsr {
    /// Snapshots any graph view into the packed frozen layout (same node
    /// and edge ids, same neighbor order): writes the view's in-place CSR
    /// payload ([`FrozenCsr::write_view`]) and reads it back through
    /// [`FrozenCsr::from_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if the view breaks the [`GraphView`] contract (a neighbor
    /// order other than increasing edge id, a self-loop) or is not a
    /// simple graph (a parallel edge).
    pub fn from_view<V: GraphView>(view: &V) -> Self {
        let mut payload = Vec::new();
        FrozenCsr::write_view(view, &mut payload);
        let len = payload.len();
        FrozenCsr::from_bytes(SharedBytes::from_vec(payload), 0, len)
            .expect("a simple graph view's own CSR payload is well formed")
    }

    /// Serializes any graph view as the in-place CSR payload: `node_count
    /// u64, edge_count u64`, the `(n + 1) × u32` offset table zero-padded
    /// to an 8-byte boundary, the `2m` packed adjacency records, then the
    /// `m` edge records — all fixed-width little-endian, readable back in
    /// place by [`FrozenCsr::from_bytes`]. Canonical: one view, one byte
    /// string.
    pub fn write_view<V: GraphView>(view: &V, out: &mut Vec<u8>) {
        let base = out.len();
        let (n, m) = (view.node_count(), view.edge_count());
        out.reserve(payload_len(n, m));
        put_u64(out, n as u64);
        put_u64(out, m as u64);
        let offsets_at = out.len();
        out.resize(offsets_at + binary::align8(4 * (n + 1)), 0);
        let adj_at = out.len();
        for v in 0..n {
            view.for_each_neighbor(NodeId::new(v), |to, via, w| {
                put_u32(out, to.raw());
                put_u32(out, via.raw());
                put_u64(out, w.get());
            });
            let slots = ((out.len() - adj_at) / CSR_ADJ_RECORD_LEN) as u32;
            let at = offsets_at + 4 * (v + 1);
            out[at..at + 4].copy_from_slice(&slots.to_le_bytes());
        }
        for e in 0..m {
            let id = EdgeId::new(e);
            let (u, v) = view.edge_endpoints(id);
            put_u32(out, u.raw());
            put_u32(out, v.raw());
            put_u64(out, view.edge_weight(id).get());
        }
        debug_assert_eq!(out.len() - base, payload_len(n, m));
    }

    /// Opens an in-place CSR payload **in place**: validates the section at
    /// `bytes[start..start + len]` and returns a `FrozenCsr` that reads
    /// the buffer instead of rebuilding `Vec`s. O(n + m) validation
    /// scans, O(n) scratch, zero per-record materialization.
    ///
    /// The checks, in order: 8-byte alignment of the payload's actual
    /// address ([`BinaryError::MisalignedSection`]), header presence,
    /// node/edge counts bounded by the bytes present (the same
    /// proportionality guard as the graph-payload reader, so a hostile
    /// header cannot size an allocation), exact payload length for the
    /// claimed counts, zero padding, offset monotonicity, per-slot
    /// agreement of the adjacency table with its canonical derivation
    /// from the edge list (so a crafted adjacency cannot smuggle in edges
    /// the edge list does not carry), simple-graph invariants (no
    /// self-loops, no duplicate edges, positive weights).
    ///
    /// # Errors
    ///
    /// A typed [`BinaryError`] for any structural defect, including
    /// [`BinaryError::MisalignedSection`] when the payload's actual
    /// address misses the 8-byte alignment the in-place tables require.
    /// Hostile input cannot cause a panic or an unbounded allocation.
    pub fn from_bytes(bytes: SharedBytes, start: usize, len: usize) -> Result<Self, BinaryError> {
        let malformed =
            |context: &'static str, detail: String| BinaryError::Malformed { context, detail };
        let end =
            start
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or(BinaryError::Truncated {
                    context: "csr payload",
                })?;
        let data = bytes.as_slice();
        let addr = data.as_ptr() as usize;
        if (addr + start) % BUFFER_ALIGN != 0 {
            return Err(BinaryError::MisalignedSection {
                context: "csr payload base",
                offset: ((addr + start) % BUFFER_ALIGN) as u64,
            });
        }
        if len < CSR_PAYLOAD_HEADER_LEN {
            return Err(BinaryError::Truncated {
                context: "csr payload header",
            });
        }
        let sect = &data[start..end];
        let n_raw = read_u64_at(sect, 0);
        let m_raw = read_u64_at(sect, 8);
        let bound = binary::NODE_COUNT_FLOOR.max(len.saturating_mul(binary::NODE_BYTES_FACTOR));
        if n_raw > u32::MAX as u64 || n_raw > bound as u64 {
            return Err(malformed(
                "csr node count",
                format!(
                    "claimed {n_raw} nodes exceeds the decoder bound ({bound}) for a {len}-byte payload"
                ),
            ));
        }
        if m_raw > u32::MAX as u64 {
            return Err(malformed(
                "csr edge count",
                format!("claimed {m_raw} edges exceeds the u32 id space"),
            ));
        }
        let (n, m) = (n_raw as usize, m_raw as usize);
        let offsets_len = 4 * (n + 1);
        let adj_rel = CSR_PAYLOAD_HEADER_LEN + binary::align8(offsets_len);
        let expected = adj_rel
            .checked_add(2 * m * CSR_ADJ_RECORD_LEN)
            .and_then(|x| x.checked_add(m * CSR_EDGE_RECORD_LEN));
        if expected != Some(len) {
            return Err(malformed(
                "csr payload size",
                format!(
                    "payload is {len} bytes but {n} nodes and {m} edges require {}",
                    expected.map_or_else(|| "more than usize".to_string(), |e| e.to_string())
                ),
            ));
        }
        if sect[CSR_PAYLOAD_HEADER_LEN + offsets_len..adj_rel]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(malformed(
                "csr padding",
                "nonzero pad byte after the offset table".to_string(),
            ));
        }
        let off = |i: usize| read_u32_at(sect, CSR_PAYLOAD_HEADER_LEN + 4 * i) as usize;
        if off(0) != 0 {
            return Err(malformed(
                "csr offsets",
                format!("first offset is {}, expected 0", off(0)),
            ));
        }
        for i in 0..n {
            if off(i) > off(i + 1) {
                return Err(malformed(
                    "csr offsets",
                    format!("offset table decreases at vertex {i}"),
                ));
            }
        }
        if off(n) != 2 * m {
            return Err(malformed(
                "csr offsets",
                format!("{} adjacency slots disagree with edge count {m}", off(n)),
            ));
        }
        let edges_rel = adj_rel + 2 * m * CSR_ADJ_RECORD_LEN;
        let edge = |e: usize| {
            let at = edges_rel + e * CSR_EDGE_RECORD_LEN;
            (
                read_u32_at(sect, at) as usize,
                read_u32_at(sect, at + 4) as usize,
                read_u64_at(sect, at + 8),
            )
        };
        for e in 0..m {
            let (u, v, w) = edge(e);
            if u >= n || v >= n {
                return Err(malformed(
                    "csr edge record",
                    format!("edge {e} endpoint out of range for {n} nodes"),
                ));
            }
            if u == v {
                return Err(malformed(
                    "csr edge record",
                    format!("self-loop at vertex {u}"),
                ));
            }
            if w == 0 {
                return Err(malformed(
                    "csr edge record",
                    format!("edge {e} has zero weight"),
                ));
            }
        }
        // The adjacency table must be byte-for-byte the canonical
        // derivation from the edge list (each endpoint's slots in
        // increasing edge-id order) — the same order every freeze
        // writes and every GraphView consumer tie-breaks on.
        let mut next: Vec<u32> = (0..n).map(|a| off(a) as u32).collect();
        for e in 0..m {
            let (u, v, w) = edge(e);
            for (a, b) in [(u, v), (v, u)] {
                let slot = next[a] as usize;
                let at = adj_rel + slot * CSR_ADJ_RECORD_LEN;
                if slot >= off(a + 1)
                    || read_u32_at(sect, at) as usize != b
                    || read_u32_at(sect, at + 4) as usize != e
                    || read_u64_at(sect, at + 8) != w
                {
                    return Err(malformed(
                        "csr adjacency",
                        format!(
                            "adjacency table disagrees with its canonical derivation at vertex {a}, edge {e}"
                        ),
                    ));
                }
                next[a] += 1;
            }
        }
        // Parallel edges: every adjacency slot derives from the edge list
        // (checked above), so a duplicate shows up as one neighbor named
        // twice in a vertex's run.
        let mut mark = vec![u32::MAX; n];
        for a in 0..n {
            for slot in off(a)..off(a + 1) {
                let to = read_u32_at(sect, adj_rel + slot * CSR_ADJ_RECORD_LEN) as usize;
                if mark[to] == a as u32 {
                    return Err(malformed(
                        "csr adjacency",
                        format!("duplicate edge between vertices {a} and {to}"),
                    ));
                }
                mark[to] = a as u32;
            }
        }
        Ok(FrozenCsr {
            bytes,
            node_count: n,
            edge_count: m,
            start,
            len,
            offsets_at: start + CSR_PAYLOAD_HEADER_LEN,
            adj_at: start + adj_rel,
            edges_at: start + edges_rel,
        })
    }

    #[inline]
    fn data(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    #[inline]
    fn offset(&self, data: &[u8], i: usize) -> usize {
        read_u32_at(data, self.offsets_at + 4 * i) as usize
    }

    /// The in-place CSR payload this snapshot reads: canonical, so it is
    /// also this snapshot's encoding.
    pub fn payload(&self) -> &[u8] {
        &self.data()[self.start..self.start + self.len]
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        assert!(i < self.node_count, "node out of range");
        let data = self.data();
        self.offset(data, i + 1) - self.offset(data, i)
    }
}

/// Exact byte length of the in-place CSR payload of `n` nodes and `m`
/// edges.
fn payload_len(n: usize, m: usize) -> usize {
    CSR_PAYLOAD_HEADER_LEN
        + binary::align8(4 * (n + 1))
        + 2 * m * CSR_ADJ_RECORD_LEN
        + m * CSR_EDGE_RECORD_LEN
}

impl GraphView for FrozenCsr {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        assert!(edge.index() < self.edge_count, "edge out of range");
        let at = self.edges_at + edge.index() * CSR_EDGE_RECORD_LEN;
        let data = self.data();
        (
            NodeId::from(read_u32_at(data, at)),
            NodeId::from(read_u32_at(data, at + 4)),
        )
    }

    #[inline]
    fn edge_weight(&self, edge: EdgeId) -> Weight {
        assert!(edge.index() < self.edge_count, "edge out of range");
        let at = self.edges_at + edge.index() * CSR_EDGE_RECORD_LEN;
        Weight::new(read_u64_at(self.data(), at + 8)).expect("validated nonzero weight")
    }

    #[inline]
    fn for_each_neighbor(&self, node: NodeId, mut f: impl FnMut(NodeId, EdgeId, Weight)) {
        let i = node.index();
        assert!(i < self.node_count, "node out of range");
        let data = self.data();
        let lo = self.offset(data, i);
        let hi = self.offset(data, i + 1);
        for slot in lo..hi {
            let at = self.adj_at + slot * CSR_ADJ_RECORD_LEN;
            f(
                NodeId::from(read_u32_at(data, at)),
                EdgeId::from(read_u32_at(data, at + 4)),
                Weight::new(read_u64_at(data, at + 8)).expect("validated nonzero weight"),
            );
        }
    }

    fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        assert!(
            u.index() < self.node_count && v.index() < self.node_count,
            "node out of range"
        );
        let data = self.data();
        let lo = self.offset(data, u.index());
        let hi = self.offset(data, u.index() + 1);
        (lo..hi).find_map(|slot| {
            let at = self.adj_at + slot * CSR_ADJ_RECORD_LEN;
            (read_u32_at(data, at) == v.raw()).then(|| EdgeId::from(read_u32_at(data, at + 4)))
        })
    }
}

impl From<&Graph> for FrozenCsr {
    fn from(graph: &Graph) -> Self {
        FrozenCsr::from_view(graph)
    }
}

/// Compile-time proof of the serving contract: the frozen layout can be
/// shared across threads as-is.
#[allow(dead_code)]
fn frozen_csr_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<FrozenCsr>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra, generators, Dist, FaultMask};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view_neighbors(view: &impl GraphView, v: NodeId) -> Vec<(NodeId, EdgeId, Weight)> {
        let mut out = Vec::new();
        view.for_each_neighbor(v, |n, e, w| out.push((n, e, w)));
        out
    }

    #[test]
    fn frozen_view_mirrors_source_adjacency() {
        let mut rng = StdRng::seed_from_u64(93);
        let g = generators::erdos_renyi(30, 0.2, &mut rng);
        for frozen in [FrozenCsr::from_view(&g), (&g).into()] {
            assert_eq!(GraphView::node_count(&frozen), g.node_count());
            assert_eq!(GraphView::edge_count(&frozen), g.edge_count());
            for v in g.nodes() {
                assert_eq!(frozen.degree(v), g.degree(v));
                assert_eq!(view_neighbors(&frozen, v), view_neighbors(&g, v));
            }
            for (id, e) in g.edges() {
                assert_eq!(frozen.edge_endpoints(id), e.endpoints());
                assert_eq!(frozen.edge_weight(id), e.weight());
            }
        }
    }

    #[test]
    fn frozen_dijkstra_matches_graph_under_faults() {
        let mut rng = StdRng::seed_from_u64(94);
        let g = generators::erdos_renyi(40, 0.12, &mut rng);
        let frozen = FrozenCsr::from_view(&g);
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(5));
        if g.edge_count() > 2 {
            mask.fault_edge(EdgeId::new(2));
        }
        let mut engine = dijkstra::DijkstraEngine::new();
        for (src, dst) in [(0usize, 39usize), (3, 17), (11, 30)] {
            for bound in [2u64, 5, 100] {
                let over_frozen = engine.shortest_path_bounded(
                    &frozen,
                    NodeId::new(src),
                    NodeId::new(dst),
                    Dist::finite(bound),
                    &mask,
                );
                let over_graph = engine.shortest_path_bounded(
                    &g,
                    NodeId::new(src),
                    NodeId::new(dst),
                    Dist::finite(bound),
                    &mask,
                );
                // Not just equal distances: identical node/edge sequences
                // (the determinism contract the serving layer relies on).
                assert_eq!(over_frozen, over_graph, "pair ({src},{dst}) bound {bound}");
            }
        }
    }

    // ── in-place payload coverage ────────────────────────────────────

    use crate::bytes::SharedBytes;
    use crate::io::binary::BinaryError;

    fn payload_of(g: &Graph) -> Vec<u8> {
        let frozen = FrozenCsr::from_view(g);
        let mut out = Vec::new();
        FrozenCsr::write_view(g, &mut out);
        assert_eq!(out.len(), payload_len(g.node_count(), g.edge_count()));
        assert_eq!(
            frozen.payload(),
            &out[..],
            "from_view reads its own payload"
        );
        out
    }

    fn open_in_place(payload: &[u8]) -> FrozenCsr {
        let shared = SharedBytes::copy_aligned(payload);
        let len = shared.len();
        FrozenCsr::from_bytes(shared, 0, len).expect("canonical payload must validate")
    }

    #[test]
    fn byte_csr_round_trips_and_serves_identically() {
        for g in [
            generators::complete(9),
            generators::grid(4, 7),
            generators::path(1),
            Graph::new(3), // nodes but no edges
            Graph::new(0),
        ] {
            let payload = payload_of(&g);
            let mapped = open_in_place(&payload);
            assert_eq!(mapped.node_count(), g.node_count());
            assert_eq!(mapped.edge_count(), g.edge_count());
            for v in g.nodes() {
                assert_eq!(view_neighbors(&mapped, v), view_neighbors(&g, v));
                assert_eq!(mapped.degree(v), g.degree(v));
            }
            for (id, e) in g.edges() {
                assert_eq!(mapped.edge_endpoints(id), e.endpoints());
                assert_eq!(mapped.edge_weight(id), e.weight());
            }
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(mapped.find_edge(u, v), GraphView::find_edge(&g, u, v));
                }
            }
            // Re-encoding the view is byte-canonical.
            assert_eq!(
                mapped.payload(),
                &payload[..],
                "re-encode must be byte-identical"
            );
        }
    }

    #[test]
    fn parallel_edges_are_refused_by_from_bytes_and_from_view() {
        let mut g = Graph::new(3);
        let w = Weight::new(2).unwrap();
        for (u, v) in [(0, 1), (1, 2), (0, 1)] {
            g.add_edge_unchecked(NodeId::new(u), NodeId::new(v), w);
        }
        let mut payload = Vec::new();
        FrozenCsr::write_view(&g, &mut payload);
        let shared = SharedBytes::copy_aligned(&payload);
        let len = shared.len();
        let err = FrozenCsr::from_bytes(shared, 0, len).unwrap_err();
        assert_eq!(err.code(), "artifact/malformed");
        assert!(err.to_string().contains("duplicate edge"), "{err}");
        let panicked = std::panic::catch_unwind(|| FrozenCsr::from_view(&g));
        assert!(panicked.is_err(), "from_view must refuse a multigraph");
    }

    #[test]
    fn byte_csr_dijkstra_matches_graph() {
        let g = generators::grid(5, 6);
        let mapped = open_in_place(&payload_of(&g));
        let mut mask = FaultMask::with_capacity(g.node_count(), g.edge_count());
        mask.fault_edge(EdgeId::new(3));
        mask.fault_vertex(NodeId::new(7));
        let mut engine = dijkstra::DijkstraEngine::new();
        for (src, dst) in [(0usize, 29usize), (4, 25), (12, 18)] {
            let a = engine.shortest_path_bounded(
                &mapped,
                NodeId::new(src),
                NodeId::new(dst),
                Dist::finite(64),
                &mask,
            );
            let b = engine.shortest_path_bounded(
                &g,
                NodeId::new(src),
                NodeId::new(dst),
                Dist::finite(64),
                &mask,
            );
            assert_eq!(a, b, "pair ({src},{dst})");
        }
    }

    #[test]
    fn byte_csr_rejects_misaligned_start() {
        let payload = payload_of(&generators::complete(5));
        // Prepend one byte so the payload starts at an odd offset inside
        // an aligned buffer: typed rejection, no panic, no UB.
        let mut shifted = vec![0u8; 1];
        shifted.extend_from_slice(&payload);
        let shared = SharedBytes::copy_aligned(&shifted);
        let err = FrozenCsr::from_bytes(shared, 1, payload.len()).unwrap_err();
        assert!(
            matches!(err, BinaryError::MisalignedSection { .. }),
            "{err:?}"
        );
        assert_eq!(err.code(), "artifact/misaligned-section");
    }

    #[test]
    fn byte_csr_every_truncation_and_flip_is_typed() {
        let payload = payload_of(&generators::complete(4));
        for cut in 0..payload.len() {
            let shared = SharedBytes::copy_aligned(&payload[..cut]);
            assert!(
                FrozenCsr::from_bytes(shared, 0, cut).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut accepted_flips = 0usize;
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = payload.clone();
                mutated[byte] ^= 1 << bit;
                let shared = SharedBytes::copy_aligned(&mutated);
                let len = mutated.len();
                if FrozenCsr::from_bytes(shared, 0, len).is_ok() {
                    accepted_flips += 1;
                }
            }
        }
        // A flip that survives can only change a weight's payload bits
        // (weights are validated nonzero, not value-pinned) or swap edge
        // endpoints into another still-valid simple graph; everything
        // structural must be caught. The whole-container FNV gate is what
        // rejects those at the artifact level.
        let weight_bytes = payload.len() - CSR_PAYLOAD_HEADER_LEN;
        assert!(
            accepted_flips <= weight_bytes * 8,
            "structurally impossible number of accepted flips: {accepted_flips}"
        );
    }

    #[test]
    fn byte_csr_rejects_hostile_headers_without_big_allocs() {
        let payload = payload_of(&generators::complete(4));
        // Claim an absurd node count: bounded rejection.
        let mut huge = payload.clone();
        huge[0..8].copy_from_slice(&(u64::MAX).to_le_bytes());
        let shared = SharedBytes::copy_aligned(&huge);
        let len = huge.len();
        let err = FrozenCsr::from_bytes(shared, 0, len).unwrap_err();
        assert_eq!(err.code(), "artifact/malformed");
        // Nonzero pad byte after the offset table (complete(4) has n=4:
        // 5 offsets = 20 bytes, padded to 24 — pad at header + 20).
        let mut pad = payload.clone();
        pad[CSR_PAYLOAD_HEADER_LEN + 20] = 0xff;
        let shared = SharedBytes::copy_aligned(&pad);
        let err = FrozenCsr::from_bytes(shared, 0, len).unwrap_err();
        assert_eq!(err.code(), "artifact/malformed");
        // Swap two adjacency slots: canonical-derivation cross-check fires.
        let adj_at = CSR_PAYLOAD_HEADER_LEN + 24;
        let mut swapped = payload.clone();
        let (a, b) = (adj_at, adj_at + CSR_ADJ_RECORD_LEN);
        for i in 0..CSR_ADJ_RECORD_LEN {
            swapped.swap(a + i, b + i);
        }
        let shared = SharedBytes::copy_aligned(&swapped);
        let err = FrozenCsr::from_bytes(shared, 0, len).unwrap_err();
        assert_eq!(err.code(), "artifact/malformed");
    }
}
