//! Compressed-sparse-row graph views, frozen and incremental.
//!
//! [`Graph`] optimizes for growth (FT-greedy appends edges constantly);
//! its `Vec<Vec<…>>` adjacency pays a pointer chase per vertex. Once a
//! graph stops changing — verification sweeps, routing services, repeated
//! audits — a CSR layout with all neighbors in one contiguous array is
//! friendlier to the cache. [`CsrGraph`] is that view: immutable, same
//! vertex/edge ids, with its own fault-masked bounded Dijkstra.
//!
//! [`IncrementalCsr`] covers the in-between case that dominates spanner
//! construction: a graph that *grows* (one kept edge at a time) but is
//! *queried* thousands of times between appends. It keeps a frozen CSR
//! snapshot plus a small append buffer, folding the buffer back into the
//! snapshot once it exceeds a fixed threshold, so queries stay within a
//! few dozen extra scans of flat memory and appends stay amortized O(1).
//!
//! [`FrozenCsr`] is the end state of that life cycle: a construction has
//! finished, the graph will never change again, and from now on it is
//! only *served* — shared across query threads behind an `Arc`. Unlike
//! [`CsrGraph`] it implements [`GraphView`] (so the generic
//! [`DijkstraEngine`](crate::DijkstraEngine) runs over it unchanged, with
//! identical tie-breaks), packs each adjacency slot's `(target, via-edge,
//! weight)` into one contiguous record (one cache line touch per
//! neighbor instead of three parallel-array touches), and is immutable by
//! construction, hence trivially `Send + Sync`.
//!
//! The `substrate` bench compares the layouts on identical query
//! workloads.

use crate::adjacency::GraphView;
use crate::bytes::{read_u32_at, read_u64_at, SharedBytes, BUFFER_ALIGN};
use crate::io::binary::{self, BinaryError};
use crate::{Dist, EdgeId, FaultMask, Graph, IndexedHeap, NodeId, Weight};

/// An immutable CSR snapshot of a [`Graph`] (same node and edge ids).
///
/// # Examples
///
/// ```
/// use spanner_graph::{csr::CsrGraph, generators, Dist, FaultMask, NodeId};
///
/// let g = generators::complete(8);
/// let csr = CsrGraph::from_graph(&g);
/// assert_eq!(csr.node_count(), 8);
/// assert_eq!(csr.edge_count(), 28);
/// let mask = FaultMask::for_graph(&g);
/// let d = csr.dist_bounded(NodeId::new(0), NodeId::new(5), Dist::finite(3), &mask);
/// assert_eq!(d, Some(Dist::finite(1)));
/// ```
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    via_edges: Vec<u32>,
    weights: Vec<Weight>,
    edge_count: usize,
}

impl CsrGraph {
    /// Snapshots `graph` into CSR form.
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        let mut via_edges = Vec::with_capacity(2 * graph.edge_count());
        let mut weights = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0);
        for v in graph.nodes() {
            for (to, eid) in graph.neighbors(v) {
                targets.push(to.raw());
                via_edges.push(eid.raw());
                weights.push(graph.weight(eid));
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            offsets,
            targets,
            via_edges,
            weights,
            edge_count: graph.edge_count(),
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterates over `(neighbor, edge, weight)` triples of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(
        &self,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        let lo = self.offsets[node.index()] as usize;
        let hi = self.offsets[node.index() + 1] as usize;
        (lo..hi).map(move |i| {
            (
                NodeId::from(self.targets[i]),
                EdgeId::from(self.via_edges[i]),
                self.weights[i],
            )
        })
    }

    /// Bounded fault-masked Dijkstra distance (same contract as
    /// [`crate::DijkstraEngine::dist_bounded`]).
    pub fn dist_bounded(
        &self,
        src: NodeId,
        dst: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) -> Option<Dist> {
        if mask.is_vertex_faulted(src) || mask.is_vertex_faulted(dst) {
            return None;
        }
        let n = self.node_count();
        let mut dist = vec![Dist::INFINITE; n];
        let mut heap = IndexedHeap::new(n);
        dist[src.index()] = Dist::ZERO;
        heap.push_or_decrease(src.index(), 0u64);
        while let Some((v, dv)) = heap.pop() {
            let dv = Dist::finite(dv);
            if v == dst.index() {
                return (dv <= bound).then_some(dv);
            }
            if dv > bound {
                return None;
            }
            for (to, eid, w) in self.neighbors(NodeId::new(v)) {
                if !mask.allows(to, eid) {
                    continue;
                }
                let cand = dv + w;
                if cand <= bound && cand < dist[to.index()] {
                    dist[to.index()] = cand;
                    heap.push_or_decrease(to.index(), cand.value().expect("finite"));
                }
            }
        }
        None
    }

    /// Fault-masked single-source distances (unbounded).
    pub fn sssp(&self, src: NodeId, mask: &FaultMask) -> Vec<Dist> {
        let n = self.node_count();
        let mut dist = vec![Dist::INFINITE; n];
        if mask.is_vertex_faulted(src) {
            return dist;
        }
        let mut heap = IndexedHeap::new(n);
        dist[src.index()] = Dist::ZERO;
        heap.push_or_decrease(src.index(), 0u64);
        while let Some((v, dv)) = heap.pop() {
            let dv = Dist::finite(dv);
            for (to, eid, w) in self.neighbors(NodeId::new(v)) {
                if !mask.allows(to, eid) {
                    continue;
                }
                let cand = dv + w;
                if cand < dist[to.index()] {
                    dist[to.index()] = cand;
                    heap.push_or_decrease(to.index(), cand.value().expect("finite"));
                }
            }
        }
        dist
    }
}

impl From<&Graph> for CsrGraph {
    fn from(graph: &Graph) -> Self {
        CsrGraph::from_graph(graph)
    }
}

/// How many appended edges [`IncrementalCsr`] tolerates before folding
/// them back into the frozen CSR arrays. Traversals scan the whole append
/// buffer once per visited vertex, so the buffer is kept small; rebuilds
/// reuse the existing allocations and cost O(n + m).
const PENDING_REBUILD_LIMIT: usize = 32;

/// A growable CSR view: a frozen snapshot plus a bounded append buffer.
///
/// Node and edge ids match the [`Graph`] the view mirrors (edges get dense
/// ids in append order). [`IncrementalCsr::push_edge`] is amortized O(1);
/// neighbor iteration touches the frozen contiguous slice for the vertex
/// plus at most `PENDING_REBUILD_LIMIT` buffered entries. This is the
/// structure the FT-greedy oracle hot loop runs its Dijkstras over.
///
/// Neighbor order follows the [`GraphView`] determinism contract
/// (increasing edge id), so traversals over the view tie-break exactly
/// like traversals over the mirrored [`Graph`].
///
/// # Examples
///
/// ```
/// use spanner_graph::{GraphView, IncrementalCsr, NodeId, Weight};
///
/// let mut view = IncrementalCsr::new(3);
/// view.push_edge(NodeId::new(0), NodeId::new(1), Weight::UNIT);
/// view.push_edge(NodeId::new(1), NodeId::new(2), Weight::UNIT);
/// assert_eq!(view.edge_count(), 2);
/// let mut around_one = Vec::new();
/// view.for_each_neighbor(NodeId::new(1), |to, _, _| around_one.push(to.index()));
/// assert_eq!(around_one, vec![0, 2]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IncrementalCsr {
    node_count: usize,
    /// Frozen CSR arrays covering edge ids `0..frozen`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    via_edges: Vec<u32>,
    csr_weights: Vec<Weight>,
    frozen: usize,
    /// Per-edge stores covering *all* edges (frozen and pending alike).
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    edge_w: Vec<Weight>,
    /// Rebuild counter (exposed for the scratch-reuse regression tests).
    rebuilds: u64,
    /// Reused cursor array for counting-sort rebuilds.
    cursor: Vec<u32>,
}

impl IncrementalCsr {
    /// Creates an empty view over `node_count` isolated vertices.
    pub fn new(node_count: usize) -> Self {
        IncrementalCsr {
            node_count,
            offsets: vec![0; node_count + 1],
            ..IncrementalCsr::default()
        }
    }

    /// Builds a view mirroring `graph` (same node and edge ids), fully
    /// frozen into CSR form.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut view = IncrementalCsr::new(graph.node_count());
        view.sync_from_graph(graph);
        view
    }

    /// Resets to `node_count` isolated vertices, keeping allocations.
    pub fn reset(&mut self, node_count: usize) {
        self.node_count = node_count;
        self.offsets.clear();
        self.offsets.resize(node_count + 1, 0);
        self.targets.clear();
        self.via_edges.clear();
        self.csr_weights.clear();
        self.frozen = 0;
        self.edge_u.clear();
        self.edge_v.clear();
        self.edge_w.clear();
    }

    /// Re-mirrors `graph` from scratch (reusing allocations) and freezes
    /// the whole edge set into CSR form. Used by oracles that accept an
    /// arbitrary [`Graph`] per query and must resynchronize their view.
    pub fn sync_from_graph(&mut self, graph: &Graph) {
        self.reset(graph.node_count());
        self.extend_edges(graph.edges().map(|(_, e)| (e.u(), e.v(), e.weight())));
    }

    /// Appends an edge, returning its dense id. Amortized O(1): every
    /// `PENDING_REBUILD_LIMIT` appends trigger an O(n + m) fold of the
    /// append buffer into the frozen arrays.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`. Duplicates are
    /// not detected (mirroring [`Graph::add_edge_unchecked`]).
    pub fn push_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> EdgeId {
        let id = self.append(u, v, weight);
        if self.pending_len() > PENDING_REBUILD_LIMIT {
            self.rebuild();
        }
        id
    }

    /// Appends every edge of `edges` in order, then folds the append
    /// buffer once. Edge ids, endpoints and neighbor order are exactly
    /// those of [`IncrementalCsr::push_edge`] called edge by edge, for
    /// one O(n + m) fold instead of one per `PENDING_REBUILD_LIMIT`
    /// edges: the way to load a large edge set before querying.
    ///
    /// # Panics
    ///
    /// Same conditions as [`IncrementalCsr::push_edge`].
    pub fn extend_edges(&mut self, edges: impl IntoIterator<Item = (NodeId, NodeId, Weight)>) {
        for (u, v, weight) in edges {
            self.append(u, v, weight);
        }
        if self.pending_len() > 0 {
            self.rebuild();
        }
    }

    /// Pushes one edge onto the append buffer without folding.
    fn append(&mut self, u: NodeId, v: NodeId, weight: Weight) -> EdgeId {
        assert!(
            u.index() < self.node_count && v.index() < self.node_count,
            "edge endpoint out of range"
        );
        assert!(u != v, "self-loop at {u}");
        let id = EdgeId::new(self.edge_u.len());
        self.edge_u.push(u.raw());
        self.edge_v.push(v.raw());
        self.edge_w.push(weight);
        id
    }

    /// Folds the append buffer into the frozen CSR arrays (counting sort
    /// by endpoint, filling in edge-id order so per-node neighbor lists
    /// stay sorted by edge id). Reuses all allocations.
    fn rebuild(&mut self) {
        self.rebuilds += 1;
        let n = self.node_count;
        let m = self.edge_u.len();
        self.cursor.clear();
        self.cursor.resize(n, 0);
        for i in 0..m {
            self.cursor[self.edge_u[i] as usize] += 1;
            self.cursor[self.edge_v[i] as usize] += 1;
        }
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.offsets.push(0);
        let mut running = 0u32;
        for v in 0..n {
            running += self.cursor[v];
            self.offsets.push(running);
        }
        self.targets.clear();
        self.targets.resize(2 * m, 0);
        self.via_edges.clear();
        self.via_edges.resize(2 * m, 0);
        self.csr_weights.clear();
        self.csr_weights.resize(2 * m, Weight::UNIT);
        // Reuse `cursor` as per-node write positions.
        self.cursor.copy_from_slice(&self.offsets[..n]);
        for i in 0..m {
            let (u, v, w) = (self.edge_u[i], self.edge_v[i], self.edge_w[i]);
            let pu = self.cursor[u as usize] as usize;
            self.targets[pu] = v;
            self.via_edges[pu] = i as u32;
            self.csr_weights[pu] = w;
            self.cursor[u as usize] += 1;
            let pv = self.cursor[v as usize] as usize;
            self.targets[pv] = u;
            self.via_edges[pv] = i as u32;
            self.csr_weights[pv] = w;
            self.cursor[v as usize] += 1;
        }
        self.frozen = m;
    }

    /// Number of buffer folds performed so far (a reuse diagnostic: after
    /// warm-up the count advances once per `PENDING_REBUILD_LIMIT`
    /// appends, never per query).
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Number of edges still in the append buffer (bounded by
    /// `PENDING_REBUILD_LIMIT`).
    pub fn pending_len(&self) -> usize {
        self.edge_u.len() - self.frozen
    }

    /// Finalizes this view into an immutable [`FrozenCsr`] (folding any
    /// pending appends into the packed layout). The view itself is left
    /// untouched; freezing is the hand-off point from construction to
    /// serving.
    pub fn freeze(&self) -> FrozenCsr {
        FrozenCsr::from_view(self)
    }
}

impl GraphView for IncrementalCsr {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_u.len()
    }

    #[inline]
    fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        (
            NodeId::from(self.edge_u[edge.index()]),
            NodeId::from(self.edge_v[edge.index()]),
        )
    }

    #[inline]
    fn edge_weight(&self, edge: EdgeId) -> Weight {
        self.edge_w[edge.index()]
    }

    #[inline]
    fn for_each_neighbor(&self, node: NodeId, mut f: impl FnMut(NodeId, EdgeId, Weight)) {
        let i = node.index();
        assert!(i < self.node_count, "node out of range");
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        for p in lo..hi {
            f(
                NodeId::from(self.targets[p]),
                EdgeId::from(self.via_edges[p]),
                self.csr_weights[p],
            );
        }
        let node = node.raw();
        for e in self.frozen..self.edge_u.len() {
            if self.edge_u[e] == node {
                f(NodeId::from(self.edge_v[e]), EdgeId::new(e), self.edge_w[e]);
            } else if self.edge_v[e] == node {
                f(NodeId::from(self.edge_u[e]), EdgeId::new(e), self.edge_w[e]);
            }
        }
    }

    fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        assert!(
            u.index() < self.node_count && v.index() < self.node_count,
            "node out of range"
        );
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        for p in lo..hi {
            if self.targets[p] == v.raw() {
                return Some(EdgeId::from(self.via_edges[p]));
            }
        }
        for e in self.frozen..self.edge_u.len() {
            if (self.edge_u[e] == u.raw() && self.edge_v[e] == v.raw())
                || (self.edge_u[e] == v.raw() && self.edge_v[e] == u.raw())
            {
                return Some(EdgeId::new(e));
            }
        }
        None
    }
}

impl From<&Graph> for IncrementalCsr {
    fn from(graph: &Graph) -> Self {
        IncrementalCsr::from_graph(graph)
    }
}

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
/// Built once from any [`GraphView`] (a [`Graph`], an [`IncrementalCsr`]
/// via [`IncrementalCsr::freeze`], …) with the same node and edge ids and
/// the same neighbor order, so traversals over the frozen layout
/// tie-break exactly like traversals over the source. The structure is
/// immutable after construction and holds no interior mutability, so it
/// is `Send + Sync` and cheap to share across query threads behind an
/// `Arc` — this is what the freeze-and-serve read path
/// (`spanner_core`'s `FrozenSpanner`/`EpochServer`) hands to its workers.
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
    use crate::{dijkstra, generators};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn structure_matches_source() {
        let g = generators::petersen();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(csr.degree(v), g.degree(v));
            let from_graph: Vec<(NodeId, EdgeId)> = g.neighbors(v).collect();
            let from_csr: Vec<(NodeId, EdgeId)> =
                csr.neighbors(v).map(|(n, e, _)| (n, e)).collect();
            assert_eq!(from_graph, from_csr);
        }
    }

    #[test]
    fn sssp_matches_engine_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..10 {
            let g = generators::erdos_renyi(40, 0.15, &mut rng);
            let csr = CsrGraph::from_graph(&g);
            let mask = FaultMask::for_graph(&g);
            let mut engine = dijkstra::DijkstraEngine::new();
            for s in [0usize, 7, 20] {
                assert_eq!(
                    csr.sssp(NodeId::new(s), &mask),
                    engine.sssp(&g, NodeId::new(s), &mask)
                );
            }
        }
    }

    #[test]
    fn bounded_queries_match_under_faults() {
        let mut rng = StdRng::seed_from_u64(72);
        let g = generators::erdos_renyi(30, 0.2, &mut rng);
        let csr = CsrGraph::from_graph(&g);
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(3));
        if g.edge_count() > 0 {
            mask.fault_edge(EdgeId::new(0));
        }
        let mut engine = dijkstra::DijkstraEngine::new();
        for bound in [1u64, 2, 4, 50] {
            for (u, v) in [(0usize, 1usize), (2, 29), (5, 17)] {
                assert_eq!(
                    csr.dist_bounded(NodeId::new(u), NodeId::new(v), Dist::finite(bound), &mask),
                    engine.dist_bounded(
                        &g,
                        NodeId::new(u),
                        NodeId::new(v),
                        Dist::finite(bound),
                        &mask
                    ),
                    "bound {bound} pair ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn weighted_distances_preserved() {
        let g =
            Graph::from_weighted_edges(4, [(0, 1, 5), (1, 2, 2), (0, 3, 1), (3, 2, 3)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let mask = FaultMask::for_graph(&g);
        let d = csr.sssp(NodeId::new(0), &mask);
        assert_eq!(d[2], Dist::finite(4)); // 0-3-2
        assert_eq!(d[1], Dist::finite(5));
    }

    #[test]
    fn from_ref_conversion() {
        let g = generators::cycle(5);
        let csr: CsrGraph = (&g).into();
        assert_eq!(csr.edge_count(), 5);
    }

    fn view_neighbors(view: &impl GraphView, v: NodeId) -> Vec<(NodeId, EdgeId, Weight)> {
        let mut out = Vec::new();
        view.for_each_neighbor(v, |n, e, w| out.push((n, e, w)));
        out
    }

    #[test]
    fn incremental_view_tracks_growing_graph() {
        // Grow a graph and its view in lockstep; adjacency must agree at
        // every step — including mid-buffer, straddling rebuilds.
        let mut rng = StdRng::seed_from_u64(91);
        let g = generators::erdos_renyi(30, 0.25, &mut rng);
        let mut mirror = Graph::new(30);
        let mut view = IncrementalCsr::new(30);
        for (i, (_, e)) in g.edges().enumerate() {
            mirror.add_edge_unchecked(e.u(), e.v(), e.weight());
            let id = view.push_edge(e.u(), e.v(), e.weight());
            assert_eq!(id.index(), i);
            if i % 7 == 0 || i + 1 == g.edge_count() {
                assert_eq!(view.edge_count(), mirror.edge_count());
                for v in mirror.nodes() {
                    assert_eq!(
                        view_neighbors(&view, v),
                        view_neighbors(&mirror, v),
                        "adjacency diverged at vertex {v} after {} edges",
                        i + 1
                    );
                }
            }
        }
        assert!(view.rebuild_count() > 0, "workload should cross the limit");
        assert!(view.pending_len() <= 32);
    }

    #[test]
    fn bulk_append_matches_edge_by_edge_with_one_fold() {
        // Seed both views with a few edges (leaving some pending), then
        // append the rest edge by edge to one and in bulk to the other.
        let mut rng = StdRng::seed_from_u64(93);
        let g = generators::erdos_renyi(40, 0.2, &mut rng);
        let edges: Vec<_> = g.edges().map(|(_, e)| (e.u(), e.v(), e.weight())).collect();
        assert!(edges.len() > 3 * 32, "workload must span several folds");
        let (head, tail) = edges.split_at(5);
        let mut one_by_one = IncrementalCsr::new(40);
        let mut bulk = IncrementalCsr::new(40);
        for &(u, v, w) in head {
            one_by_one.push_edge(u, v, w);
            bulk.push_edge(u, v, w);
        }
        for &(u, v, w) in tail {
            one_by_one.push_edge(u, v, w);
        }
        let folds = bulk.rebuild_count();
        bulk.extend_edges(tail.iter().copied());
        assert_eq!(bulk.rebuild_count(), folds + 1, "one fold for the batch");
        assert_eq!(bulk.pending_len(), 0);
        assert!(one_by_one.rebuild_count() > folds + 1);
        assert_eq!(bulk.edge_count(), one_by_one.edge_count());
        for i in 0..edges.len() {
            let id = EdgeId::new(i);
            assert_eq!(bulk.edge_endpoints(id), one_by_one.edge_endpoints(id));
            assert_eq!(bulk.edge_weight(id), one_by_one.edge_weight(id));
        }
        for v in g.nodes() {
            let order = view_neighbors(&bulk, v);
            assert!(order.windows(2).all(|w| w[0].1 < w[1].1), "by edge id");
            assert_eq!(order, view_neighbors(&one_by_one, v), "vertex {v}");
        }
    }

    #[test]
    fn incremental_view_endpoints_weights_find_edge() {
        let g =
            Graph::from_weighted_edges(4, [(0, 1, 5), (1, 2, 2), (0, 3, 1), (3, 2, 3)]).unwrap();
        let view = IncrementalCsr::from_graph(&g);
        for (id, e) in g.edges() {
            assert_eq!(view.edge_endpoints(id), e.endpoints());
            assert_eq!(view.edge_weight(id), e.weight());
        }
        for u in g.nodes() {
            for v in g.nodes() {
                if u != v {
                    assert_eq!(view.find_edge(u, v), g.contains_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn incremental_view_dijkstra_matches_graph_under_faults() {
        let mut rng = StdRng::seed_from_u64(92);
        let g = generators::erdos_renyi(40, 0.12, &mut rng);
        let mut view = IncrementalCsr::new(40);
        for (_, e) in g.edges() {
            view.push_edge(e.u(), e.v(), e.weight());
        }
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(5));
        if g.edge_count() > 2 {
            mask.fault_edge(EdgeId::new(2));
        }
        let mut engine = dijkstra::DijkstraEngine::new();
        for (src, dst) in [(0usize, 39usize), (3, 17), (11, 30)] {
            for bound in [2u64, 5, 100] {
                assert_eq!(
                    engine.dist_bounded(
                        &view,
                        NodeId::new(src),
                        NodeId::new(dst),
                        Dist::finite(bound),
                        &mask
                    ),
                    engine.dist_bounded(
                        &g,
                        NodeId::new(src),
                        NodeId::new(dst),
                        Dist::finite(bound),
                        &mask
                    ),
                    "pair ({src},{dst}) bound {bound}"
                );
            }
        }
    }

    #[test]
    fn incremental_view_reset_reuses() {
        let g = generators::cycle(6);
        let mut view = IncrementalCsr::from_graph(&g);
        view.reset(3);
        assert_eq!(GraphView::node_count(&view), 3);
        assert_eq!(GraphView::edge_count(&view), 0);
        view.push_edge(NodeId::new(0), NodeId::new(2), Weight::UNIT);
        assert_eq!(view_neighbors(&view, NodeId::new(0)).len(), 1);
    }

    #[test]
    fn frozen_view_mirrors_source_adjacency() {
        let mut rng = StdRng::seed_from_u64(93);
        let g = generators::erdos_renyi(30, 0.2, &mut rng);
        let inc = IncrementalCsr::from_graph(&g);
        for frozen in [FrozenCsr::from_view(&g), inc.freeze(), (&g).into()] {
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
    fn frozen_view_includes_pending_appends() {
        // Freeze mid-buffer: edges still in the append buffer must land
        // in the packed layout too, in the same edge-id order.
        let mut view = IncrementalCsr::new(5);
        let mut mirror = Graph::new(5);
        for (u, v) in [(0usize, 1usize), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)] {
            view.push_edge(NodeId::new(u), NodeId::new(v), Weight::UNIT);
            mirror.add_edge_unchecked(NodeId::new(u), NodeId::new(v), Weight::UNIT);
        }
        assert!(view.pending_len() > 0, "buffer must be mid-flight");
        let frozen = view.freeze();
        assert_eq!(GraphView::edge_count(&frozen), 6);
        for v in mirror.nodes() {
            assert_eq!(view_neighbors(&frozen, v), view_neighbors(&mirror, v));
        }
        assert_eq!(
            frozen.find_edge(NodeId::new(1), NodeId::new(3)),
            Some(EdgeId::new(5))
        );
        assert_eq!(frozen.find_edge(NodeId::new(0), NodeId::new(2)), None);
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

    #[test]
    fn incremental_sync_from_graph_mirrors() {
        let g = generators::grid(3, 4);
        let mut view = IncrementalCsr::new(1);
        view.sync_from_graph(&g);
        assert_eq!(GraphView::node_count(&view), g.node_count());
        assert_eq!(GraphView::edge_count(&view), g.edge_count());
        for v in g.nodes() {
            assert_eq!(view_neighbors(&view, v), view_neighbors(&g, v));
        }
        assert_eq!(view.pending_len(), 0, "sync must freeze everything");
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
