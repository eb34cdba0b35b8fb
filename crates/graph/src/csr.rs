//! The compressed-sparse-row serving layout.
//!
//! [`Graph`] is the growable layout: spanner constructions append to it
//! one kept edge at a time and search it between appends. Once a graph
//! stops changing and is only *served* — shared across query threads
//! behind an `Arc` — [`FrozenCsr`] takes over: one read-only snapshot
//! with the same node and edge ids and the same neighbor order. It
//! implements [`GraphView`] (so the generic
//! [`DijkstraEngine`](crate::DijkstraEngine) runs over it unchanged, with
//! identical tie-breaks), packs each adjacency slot's `(target, via-edge,
//! weight)` into one contiguous record (one cache line touch per
//! neighbor instead of three parallel-array touches), and is immutable by
//! construction, hence trivially `Send + Sync`. Its storage is either
//! owned arrays or a [`ByteCsr`]: the same tables read in place from a
//! validated shared byte buffer.

use crate::adjacency::GraphView;
use crate::bytes::{read_u32_at, read_u64_at, SharedBytes, BUFFER_ALIGN};
use crate::io::binary::{self, BinaryError};
use crate::{EdgeId, Graph, NodeId, Weight};

/// One packed adjacency slot of a [`FrozenCsr`]: the neighbor, the edge
/// crossed to reach it, and that edge's weight, side by side so a
/// traversal touches one record instead of three parallel arrays.
#[derive(Clone, Copy, Debug)]
struct PackedAdj {
    to: u32,
    via: u32,
    weight: Weight,
}

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
// they are built from. `PackedAdj` (the owned layout) mirrors the
// packed on-disk record byte for byte in width, which is what makes the
// owned and borrowed storages interchangeable cache-wise.
const _: () = assert!(CSR_PAYLOAD_HEADER_LEN == 8 + 8);
const _: () = assert!(CSR_ADJ_RECORD_LEN == 4 + 4 + 8);
const _: () = assert!(CSR_EDGE_RECORD_LEN == 4 + 4 + 8);
const _: () = assert!(std::mem::size_of::<PackedAdj>() == CSR_ADJ_RECORD_LEN);
const _: () = assert!(std::mem::size_of::<u32>() == 4 && std::mem::size_of::<u64>() == 8);

/// The storage a [`FrozenCsr`] serves from: either owned `Vec`s built
/// by a freeze, or borrowed slices of a shared byte buffer validated by
/// [`FrozenCsr::from_bytes`] — the zero-copy open path.
///
/// Every [`GraphView`] method on [`FrozenCsr`] dispatches over this
/// enum, so `DijkstraEngine` and every other view consumer runs
/// unchanged (and tie-breaks identically) over both representations.
#[derive(Clone, Debug)]
pub enum CsrStorage {
    /// Heap-owned arrays (the result of [`FrozenCsr::from_view`] or
    /// [`FrozenCsr::materialize`]).
    Owned(OwnedCsr),
    /// Slices of a shared, aligned byte buffer read in place.
    Borrowed(ByteCsr),
}

/// Owned CSR arrays (the classic freeze output).
#[derive(Clone, Debug)]
pub struct OwnedCsr {
    node_count: usize,
    offsets: Vec<u32>,
    adj: Vec<PackedAdj>,
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    edge_w: Vec<Weight>,
}

/// A validated in-place view over an in-place CSR payload inside a shared
/// byte buffer. Holding a clone of the buffer keeps the bytes alive;
/// all reads decode fixed-width little-endian fields at offsets the
/// validator proved in bounds.
#[derive(Clone, Debug)]
pub struct ByteCsr {
    bytes: SharedBytes,
    node_count: usize,
    edge_count: usize,
    /// Absolute section range inside `bytes` (for canonical re-encode).
    start: usize,
    len: usize,
    /// Absolute offsets of the three packed tables inside `bytes`.
    offsets_at: usize,
    adj_at: usize,
    edges_at: usize,
}

impl ByteCsr {
    #[inline]
    fn data(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// The raw section bytes this view was validated over.
    fn section(&self) -> &[u8] {
        &self.data()[self.start..self.start + self.len]
    }

    #[inline]
    fn offset(&self, data: &[u8], i: usize) -> usize {
        read_u32_at(data, self.offsets_at + 4 * i) as usize
    }

    /// Validates an in-place CSR payload at `bytes[start..start + len]` and
    /// returns an in-place view over it.
    ///
    /// The checks, in order: 8-byte alignment of the payload's actual
    /// address ([`BinaryError::MisalignedSection`]), header presence,
    /// node/edge counts bounded by the bytes present (the same
    /// proportionality guard as the graph-payload reader, so a hostile header
    /// cannot size an allocation), exact payload length for the claimed
    /// counts, zero padding, offset monotonicity, per-slot agreement of
    /// the adjacency table with its canonical derivation from the edge
    /// list (so a crafted adjacency cannot smuggle in edges the edge
    /// list does not carry), simple-graph invariants (no self-loops, no
    /// duplicate edges, positive weights). O(n + m) time, O(n) scratch,
    /// and no allocation sized by unvalidated input.
    fn validate(bytes: SharedBytes, start: usize, len: usize) -> Result<ByteCsr, BinaryError> {
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
        // Every slot is consumed: each vertex contributed next[a] - off(a)
        // slots, the sums match off(n) == 2m, and no vertex overran, so
        // the per-vertex counts agree exactly. Duplicate edges remain:
        // they derive consistently, so detect them per vertex run.
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
        Ok(ByteCsr {
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
}

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
/// The arrays behind a `FrozenCsr` live in a [`CsrStorage`]: either
/// owned `Vec`s, or borrowed slices of a shared aligned buffer ([`FrozenCsr::from_bytes`]) so a replica can serve
/// straight off an mmap'd artifact without rebuilding anything.
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
    storage: CsrStorage,
}

impl FrozenCsr {
    /// Snapshots any graph view into the packed frozen layout (same node
    /// and edge ids, same neighbor order), owned storage.
    pub fn from_view<V: GraphView>(view: &V) -> Self {
        let n = view.node_count();
        let m = view.edge_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * m);
        offsets.push(0);
        for v in 0..n {
            view.for_each_neighbor(NodeId::new(v), |to, eid, w| {
                adj.push(PackedAdj {
                    to: to.raw(),
                    via: eid.raw(),
                    weight: w,
                });
            });
            offsets.push(adj.len() as u32);
        }
        let mut edge_u = Vec::with_capacity(m);
        let mut edge_v = Vec::with_capacity(m);
        let mut edge_w = Vec::with_capacity(m);
        for e in 0..m {
            let (u, v) = view.edge_endpoints(EdgeId::new(e));
            edge_u.push(u.raw());
            edge_v.push(v.raw());
            edge_w.push(view.edge_weight(EdgeId::new(e)));
        }
        FrozenCsr {
            storage: CsrStorage::Owned(OwnedCsr {
                node_count: n,
                offsets,
                adj,
                edge_u,
                edge_v,
                edge_w,
            }),
        }
    }

    /// Opens an in-place CSR payload **in place**: validates the section at
    /// `bytes[start..start + len]` (alignment, counts, ranges,
    /// adjacency/edge-list agreement — see the checked validator's
    /// docs) and returns a `FrozenCsr` whose storage borrows the buffer
    /// instead of rebuilding `Vec`s. O(n + m) validation scans, O(n)
    /// scratch, zero per-record materialization.
    ///
    /// # Errors
    ///
    /// A typed [`BinaryError`] for any structural defect, including
    /// [`BinaryError::MisalignedSection`] when the payload's actual
    /// address misses the 8-byte alignment the in-place tables require.
    /// Hostile input cannot cause a panic or an unbounded allocation.
    pub fn from_bytes(bytes: SharedBytes, start: usize, len: usize) -> Result<Self, BinaryError> {
        Ok(FrozenCsr {
            storage: CsrStorage::Borrowed(ByteCsr::validate(bytes, start, len)?),
        })
    }

    /// The storage this snapshot serves from.
    pub fn storage(&self) -> &CsrStorage {
        &self.storage
    }

    /// Whether this snapshot reads its tables in place from a shared
    /// buffer (as opposed to owned heap arrays).
    pub fn is_in_place(&self) -> bool {
        matches!(self.storage, CsrStorage::Borrowed(_))
    }

    /// Copies this snapshot into owned storage (a no-op clone when it
    /// already is owned). Useful to drop the backing buffer.
    pub fn materialize(&self) -> FrozenCsr {
        match &self.storage {
            CsrStorage::Owned(_) => self.clone(),
            CsrStorage::Borrowed(_) => {
                let n = self.node_count();
                let m = self.edge_count();
                let mut offsets = Vec::with_capacity(n + 1);
                let mut adj = Vec::with_capacity(2 * m);
                offsets.push(0);
                for v in 0..n {
                    self.for_each_neighbor(NodeId::new(v), |to, eid, w| {
                        adj.push(PackedAdj {
                            to: to.raw(),
                            via: eid.raw(),
                            weight: w,
                        });
                    });
                    offsets.push(adj.len() as u32);
                }
                let mut edge_u = Vec::with_capacity(m);
                let mut edge_v = Vec::with_capacity(m);
                let mut edge_w = Vec::with_capacity(m);
                for e in 0..m {
                    let (u, v) = self.edge_endpoints(EdgeId::new(e));
                    edge_u.push(u.raw());
                    edge_v.push(v.raw());
                    edge_w.push(self.edge_weight(EdgeId::new(e)));
                }
                FrozenCsr {
                    storage: CsrStorage::Owned(OwnedCsr {
                        node_count: n,
                        offsets,
                        adj,
                        edge_u,
                        edge_v,
                        edge_w,
                    }),
                }
            }
        }
    }

    /// Exact byte length of this snapshot's in-place CSR payload.
    pub fn payload_len(&self) -> usize {
        match &self.storage {
            CsrStorage::Owned(o) => {
                CSR_PAYLOAD_HEADER_LEN
                    + binary::align8(4 * (o.node_count + 1))
                    + 2 * o.edge_u.len() * CSR_ADJ_RECORD_LEN
                    + o.edge_u.len() * CSR_EDGE_RECORD_LEN
            }
            CsrStorage::Borrowed(b) => b.len,
        }
    }

    /// Serializes this snapshot as the in-place CSR payload: `node_count u64,
    /// edge_count u64`, the `(n + 1) × u32` offset table zero-padded to
    /// an 8-byte boundary, the `2m` packed adjacency records, then the
    /// `m` edge records — all fixed-width little-endian, readable back
    /// in place by [`FrozenCsr::from_bytes`]. Canonical: one snapshot,
    /// one byte string.
    pub fn write_payload(&self, out: &mut Vec<u8>) {
        if let CsrStorage::Borrowed(b) = &self.storage {
            // Validated borrowed bytes are already canonical.
            out.extend_from_slice(b.section());
            return;
        }
        let base = out.len();
        let n = self.node_count();
        let m = self.edge_count();
        binary::put_u64(out, n as u64);
        binary::put_u64(out, m as u64);
        match &self.storage {
            CsrStorage::Owned(o) => {
                for &off in &o.offsets {
                    binary::put_u32(out, off);
                }
                out.resize(
                    base + CSR_PAYLOAD_HEADER_LEN + binary::align8(4 * (n + 1)),
                    0,
                );
                for slot in &o.adj {
                    binary::put_u32(out, slot.to);
                    binary::put_u32(out, slot.via);
                    binary::put_u64(out, slot.weight.get());
                }
                for e in 0..m {
                    binary::put_u32(out, o.edge_u[e]);
                    binary::put_u32(out, o.edge_v[e]);
                    binary::put_u64(out, o.edge_w[e].get());
                }
            }
            CsrStorage::Borrowed(_) => unreachable!("handled above"),
        }
        debug_assert_eq!(out.len() - base, self.payload_len());
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        match &self.storage {
            CsrStorage::Owned(o) => (o.offsets[i + 1] - o.offsets[i]) as usize,
            CsrStorage::Borrowed(b) => {
                assert!(i < b.node_count, "node out of range");
                let data = b.data();
                b.offset(data, i + 1) - b.offset(data, i)
            }
        }
    }
}

impl GraphView for FrozenCsr {
    #[inline]
    fn node_count(&self) -> usize {
        match &self.storage {
            CsrStorage::Owned(o) => o.node_count,
            CsrStorage::Borrowed(b) => b.node_count,
        }
    }

    #[inline]
    fn edge_count(&self) -> usize {
        match &self.storage {
            CsrStorage::Owned(o) => o.edge_u.len(),
            CsrStorage::Borrowed(b) => b.edge_count,
        }
    }

    #[inline]
    fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        match &self.storage {
            CsrStorage::Owned(o) => (
                NodeId::from(o.edge_u[edge.index()]),
                NodeId::from(o.edge_v[edge.index()]),
            ),
            CsrStorage::Borrowed(b) => {
                assert!(edge.index() < b.edge_count, "edge out of range");
                let at = b.edges_at + edge.index() * CSR_EDGE_RECORD_LEN;
                let data = b.data();
                (
                    NodeId::from(read_u32_at(data, at)),
                    NodeId::from(read_u32_at(data, at + 4)),
                )
            }
        }
    }

    #[inline]
    fn edge_weight(&self, edge: EdgeId) -> Weight {
        match &self.storage {
            CsrStorage::Owned(o) => o.edge_w[edge.index()],
            CsrStorage::Borrowed(b) => {
                assert!(edge.index() < b.edge_count, "edge out of range");
                let at = b.edges_at + edge.index() * CSR_EDGE_RECORD_LEN;
                Weight::new(read_u64_at(b.data(), at + 8)).expect("validated nonzero weight")
            }
        }
    }

    #[inline]
    fn for_each_neighbor(&self, node: NodeId, mut f: impl FnMut(NodeId, EdgeId, Weight)) {
        let i = node.index();
        match &self.storage {
            CsrStorage::Owned(o) => {
                assert!(i < o.node_count, "node out of range");
                let lo = o.offsets[i] as usize;
                let hi = o.offsets[i + 1] as usize;
                for slot in &o.adj[lo..hi] {
                    f(NodeId::from(slot.to), EdgeId::from(slot.via), slot.weight);
                }
            }
            CsrStorage::Borrowed(b) => {
                assert!(i < b.node_count, "node out of range");
                let data = b.data();
                let lo = b.offset(data, i);
                let hi = b.offset(data, i + 1);
                for slot in lo..hi {
                    let at = b.adj_at + slot * CSR_ADJ_RECORD_LEN;
                    f(
                        NodeId::from(read_u32_at(data, at)),
                        EdgeId::from(read_u32_at(data, at + 4)),
                        Weight::new(read_u64_at(data, at + 8)).expect("validated nonzero weight"),
                    );
                }
            }
        }
    }

    fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        match &self.storage {
            CsrStorage::Owned(o) => {
                assert!(
                    u.index() < o.node_count && v.index() < o.node_count,
                    "node out of range"
                );
                let lo = o.offsets[u.index()] as usize;
                let hi = o.offsets[u.index() + 1] as usize;
                o.adj[lo..hi]
                    .iter()
                    .find(|slot| slot.to == v.raw())
                    .map(|slot| EdgeId::from(slot.via))
            }
            CsrStorage::Borrowed(b) => {
                assert!(
                    u.index() < b.node_count && v.index() < b.node_count,
                    "node out of range"
                );
                let data = b.data();
                let lo = b.offset(data, u.index());
                let hi = b.offset(data, u.index() + 1);
                (lo..hi).find_map(|slot| {
                    let at = b.adj_at + slot * CSR_ADJ_RECORD_LEN;
                    (read_u32_at(data, at) == v.raw())
                        .then(|| EdgeId::from(read_u32_at(data, at + 4)))
                })
            }
        }
    }
}

impl From<&Graph> for FrozenCsr {
    fn from(graph: &Graph) -> Self {
        FrozenCsr::from_view(graph)
    }
}

/// Compile-time proof of the serving contract: the frozen layout can be
/// shared across threads as-is — in both storages.
#[allow(dead_code)]
fn frozen_csr_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<FrozenCsr>();
    check::<CsrStorage>();
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

    // ── CsrStorage / in-place payload) coverage ────────────────────

    use crate::bytes::SharedBytes;
    use crate::io::binary::BinaryError;

    fn payload_of(g: &Graph) -> (FrozenCsr, Vec<u8>) {
        let frozen = FrozenCsr::from_view(g);
        let mut out = Vec::new();
        frozen.write_payload(&mut out);
        assert_eq!(out.len(), frozen.payload_len());
        (frozen, out)
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
            let (owned, payload) = payload_of(&g);
            let mapped = open_in_place(&payload);
            assert!(mapped.is_in_place());
            assert!(!owned.is_in_place());
            assert!(matches!(mapped.storage(), CsrStorage::Borrowed(_)));
            assert_eq!(mapped.node_count(), owned.node_count());
            assert_eq!(mapped.edge_count(), owned.edge_count());
            for v in 0..g.node_count() {
                assert_eq!(
                    view_neighbors(&mapped, NodeId::new(v)),
                    view_neighbors(&owned, NodeId::new(v)),
                );
                assert_eq!(mapped.degree(NodeId::new(v)), owned.degree(NodeId::new(v)));
            }
            for e in 0..g.edge_count() {
                assert_eq!(
                    mapped.edge_endpoints(EdgeId::new(e)),
                    owned.edge_endpoints(EdgeId::new(e))
                );
                assert_eq!(
                    mapped.edge_weight(EdgeId::new(e)),
                    owned.edge_weight(EdgeId::new(e))
                );
            }
            for u in 0..g.node_count() {
                for v in 0..g.node_count() {
                    assert_eq!(
                        mapped.find_edge(NodeId::new(u), NodeId::new(v)),
                        owned.find_edge(NodeId::new(u), NodeId::new(v))
                    );
                }
            }
            // Re-encoding the borrowed view is byte-canonical, and
            // materializing it re-owns the same structure.
            let mut re = Vec::new();
            mapped.write_payload(&mut re);
            assert_eq!(re, payload, "borrowed re-encode must be byte-identical");
            let mat = mapped.materialize();
            assert!(!mat.is_in_place());
            let mut mat_bytes = Vec::new();
            mat.write_payload(&mut mat_bytes);
            assert_eq!(mat_bytes, payload);
        }
    }

    #[test]
    fn byte_csr_dijkstra_matches_owned() {
        let g = generators::grid(5, 6);
        let (owned, payload) = payload_of(&g);
        let mapped = open_in_place(&payload);
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
                &owned,
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
        let (_, payload) = payload_of(&generators::complete(5));
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
        let (_, payload) = payload_of(&generators::complete(4));
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
        let (_, payload) = payload_of(&generators::complete(4));
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
