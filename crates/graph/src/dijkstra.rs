//! Fault-masked, bound-aware Dijkstra.
//!
//! Two features matter for spanner construction beyond textbook Dijkstra:
//!
//! 1. **Fault masks** — queries run against `H ∖ F` for many candidate fault
//!    sets `F` without copying the graph ([`FaultMask`]).
//! 2. **Distance bounds** — the greedy test only asks whether
//!    `dist(u, v) ≤ k·w`; the search can stop as soon as the frontier passes
//!    the bound, which on bounded queries turns Dijkstra from O(m log n)
//!    into "O(size of the k·w ball)".
//!
//! [`DijkstraEngine`] owns the scratch arrays (distances, parents, heap) and
//! reuses them across queries via epoch stamping, so a query allocates
//! nothing after warm-up. The fault-set search oracles issue up to `O(k^f)`
//! queries per greedy edge; this reuse is what keeps them tractable.
//!
//! # Scratch-reuse contract
//!
//! The engine is generic over [`GraphView`], so the same monomorphized
//! loop serves both the growable [`Graph`](crate::Graph) and the frozen
//! [`FrozenCsr`](crate::FrozenCsr) layouts. Two rules keep the
//! hot path allocation-free:
//!
//! 1. **Engine scratch grows, never shrinks.** `prepare` resizes the
//!    distance/parent/epoch arrays only when a larger graph appears;
//!    steady-state queries recycle them via epoch stamping.
//! 2. **Path extraction writes into caller buffers.**
//!    [`DijkstraEngine::shortest_path_bounded_into`] fills a caller-owned
//!    [`PathScratch`] (clearing, not reallocating, its vectors).
//!    [`DijkstraEngine::shortest_path_bounded`] is the allocating
//!    convenience wrapper; loops should prefer the `_into` form.
//!
//! # One tie rule
//!
//! Every search returns one answer per pair that does not depend on
//! which search produced it or on the potential that guided it. The
//! **canonical route** from `s` to `t` in `graph ∖ mask` is the shortest
//! path in which every vertex's predecessor edge is its *smallest-id
//! tight* predecessor edge (an edge `(u, v)` is tight when
//! `d(s, u) + w(u, v) = d(s, v)`). Every search — the fault oracles'
//! [`DijkstraEngine::shortest_path_bounded_into`], serving's
//! [`DijkstraEngine::astar`] and [`DijkstraEngine::search_from`], and
//! the distance-only helpers — applies the rule at relax time: on
//! `cand == dist[to]` it keeps the smaller edge id. Weights are
//! positive, so plain Dijkstra settles every tight predecessor of a
//! vertex before the vertex itself. A* under a consistent potential may
//! settle a tight predecessor *at the same key* after its successor, so
//! a pair search keeps expanding every vertex whose key is at most
//! `d(s, t)` before it stops. Either way every tight predecessor edge of
//! every vertex on the path has been relaxed before extraction, so
//! [`DijkstraEngine::extract_path_into`] returns the same path from all
//! of them, under [`NoPotential`] or a [`Landmarks`](crate::Landmarks)
//! potential alike.
//!
//! # Bounded A*
//!
//! A bounded pair search under a potential `h` pushes a relaxation only
//! when `d + h` is within the bound: `h` is a lower bound on the rest of
//! the way, so such a vertex lies on no path within the bound. Every
//! vertex of the canonical route, and every tight predecessor of one,
//! has a key of at most `d(s, t) ≤ bound`, so the pruning never changes
//! the route; it only shrinks the explored ball from radius
//! `bound` around `s` to the ellipse of vertices that could still reach
//! `t` in time.

use crate::adjacency::GraphView;
use crate::{Dist, EdgeId, FaultMask, IndexedHeap, NodeId, Weight};

/// A consistent lower bound on the remaining distance to an A* target.
///
/// [`DijkstraEngine::astar`] is exact iff the potential `h` is
/// *consistent* on the searched graph — `h(u) ≤ w(u, v) + h(v)` on every
/// edge — and `h(target) = 0`; together these make it admissible
/// (`h(v) ≤ dist(v, target)`). A bound that holds on a graph keeps
/// holding on any subgraph of it, so a potential built once on an
/// unfaulted graph stays valid under every fault mask.
pub trait Potential {
    /// The lower bound for vertex `v`.
    fn estimate(&self, v: NodeId) -> u64;
}

/// The zero potential: A* under it is plain Dijkstra.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoPotential;

impl Potential for NoPotential {
    #[inline(always)]
    fn estimate(&self, _: NodeId) -> u64 {
        0
    }
}

/// A shortest path found by [`DijkstraEngine::shortest_path_bounded`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShortestPath {
    /// Total weight of the path.
    pub dist: Dist,
    /// Vertices from source to target, inclusive.
    pub nodes: Vec<NodeId>,
    /// Edges in path order (`nodes.len() - 1` of them).
    pub edges: Vec<EdgeId>,
}

impl ShortestPath {
    /// The vertices strictly between source and target.
    ///
    /// These are the branching candidates for vertex fault search: any fault
    /// set that blocks this path must contain one of them (or an edge).
    pub fn interior_nodes(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// Number of edges on the path.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the path is a single vertex (source == target).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// A reusable shortest-path buffer for
/// [`DijkstraEngine::shortest_path_bounded_into`].
///
/// Holds the same data as [`ShortestPath`] but is designed to be owned by
/// a long-lived caller (a fault oracle's per-construction scratch) and
/// refilled on every query without reallocating.
#[derive(Clone, Debug, Default)]
pub struct PathScratch {
    dist: Dist,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl PathScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        PathScratch::default()
    }

    /// Total weight of the last extracted path.
    pub fn dist(&self) -> Dist {
        self.dist
    }

    /// Vertices from source to target, inclusive.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Edges in path order (`nodes().len() - 1` of them).
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The vertices strictly between source and target (the vertex-model
    /// branching candidates).
    pub fn interior_nodes(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// Number of edges on the path.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the path is a single vertex (source == target).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

const NO_PARENT: u32 = u32::MAX;

/// Sentinel for "the last search had no early-stop target".
const NO_TARGET: u32 = u32::MAX;

/// Reusable Dijkstra scratch space for one graph size.
///
/// The engine is sized lazily to the largest graph it has seen; it can be
/// shared across graphs as long as node ids fit.
///
/// # Examples
///
/// ```
/// use spanner_graph::{DijkstraEngine, Dist, FaultMask, Graph, NodeId};
///
/// let g = Graph::from_weighted_edges(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 5)])?;
/// let mut engine = DijkstraEngine::new();
/// let mask = FaultMask::for_graph(&g);
/// let d = engine.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(10), &mask);
/// assert_eq!(d, Some(Dist::finite(2)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DijkstraEngine {
    dist: Vec<Dist>,
    parent_node: Vec<u32>,
    parent_edge: Vec<u32>,
    epoch: Vec<u32>,
    current_epoch: u32,
    heap: Option<IndexedHeap<u64>>,
    /// The last search's early-stop target ([`NO_TARGET`] for a full
    /// [`DijkstraEngine::search_from`]-style run) and bound — what
    /// [`DijkstraEngine::extract_path_into`] needs to tell settled
    /// distances from tentative ones.
    last_dst: u32,
    last_bound: Dist,
    /// Number of heap pops across all queries (exposed for experiments that
    /// measure oracle work in machine-independent units).
    pops: u64,
}

impl Default for DijkstraEngine {
    fn default() -> Self {
        DijkstraEngine {
            dist: Vec::new(),
            parent_node: Vec::new(),
            parent_edge: Vec::new(),
            epoch: Vec::new(),
            current_epoch: 0,
            heap: None,
            last_dst: NO_TARGET,
            last_bound: Dist::INFINITE,
            pops: 0,
        }
    }
}

impl DijkstraEngine {
    /// Creates an engine with no allocated scratch space.
    pub fn new() -> Self {
        DijkstraEngine::default()
    }

    /// Total heap pops across all queries so far (a machine-independent
    /// work measure used by the oracle-cost experiments).
    pub fn pop_count(&self) -> u64 {
        self.pops
    }

    /// Resets the pop counter.
    pub fn reset_pop_count(&mut self) {
        self.pops = 0;
    }

    fn prepare(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, Dist::INFINITE);
            self.parent_node.resize(n, NO_PARENT);
            self.parent_edge.resize(n, NO_PARENT);
            self.epoch.resize(n, 0);
            self.heap = Some(IndexedHeap::new(n));
        } else if let Some(heap) = &mut self.heap {
            if heap.is_empty() {
                // nothing to do
            } else {
                heap.clear();
            }
        }
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            // Epoch counter wrapped: invalidate everything explicitly.
            self.epoch.fill(0);
            self.current_epoch = 1;
        }
    }

    #[inline]
    fn is_fresh(&self, v: usize) -> bool {
        self.epoch[v] == self.current_epoch
    }

    #[inline]
    fn touch(&mut self, v: usize) {
        if self.epoch[v] != self.current_epoch {
            self.epoch[v] = self.current_epoch;
            self.dist[v] = Dist::INFINITE;
            self.parent_node[v] = NO_PARENT;
            self.parent_edge[v] = NO_PARENT;
        }
    }

    /// Computes `dist(src, dst)` in `graph ∖ mask`, provided it is at most
    /// `bound`. Returns `None` when the distance exceeds `bound` (including
    /// unreachable). `src == dst` always yields `Some(Dist::ZERO)` unless the
    /// vertex itself is faulted.
    pub fn dist_bounded<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) -> Option<Dist> {
        self.run(graph, src, Some(dst), bound, mask, &NoPotential);
        let d = self.query_dist(dst);
        (d.is_finite() && d <= bound).then_some(d)
    }

    /// The unbounded pair search: exact A* from `src` to `dst` in
    /// `graph ∖ mask` under a consistent `potential` (see [`Potential`]),
    /// with the smallest-id tie rule (see the module docs). Returns the
    /// distance, or `None` when `dst` is unreachable; the canonical route
    /// is then one [`DijkstraEngine::extract_path_into`] away.
    ///
    /// Under [`NoPotential`] this is early-stopped Dijkstra; under a
    /// landmark potential it settles a small fraction of the vertices and
    /// returns the same path.
    pub fn astar<V: GraphView, P: Potential>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
        potential: &P,
    ) -> Option<Dist> {
        self.run(graph, src, Some(dst), Dist::INFINITE, mask, potential);
        Some(self.query_dist(dst)).filter(|d| d.is_finite())
    }

    /// Bounded A* from `src` to `dst` in `graph ∖ mask` under a
    /// consistent `potential` towards `dst`, reconstructing the canonical
    /// route into the reusable `out` buffer. Returns `true` (with `out`
    /// filled) when a path within `bound` exists; on `false`, `out` is
    /// cleared. The route does not depend on the potential (module docs);
    /// [`NoPotential`] makes this bounded Dijkstra.
    ///
    /// This is the zero-allocation form the oracle hot loop uses; see the
    /// module docs for the scratch-reuse contract.
    #[allow(clippy::too_many_arguments)]
    pub fn shortest_path_bounded_into<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        bound: Dist,
        mask: &FaultMask,
        potential: &impl Potential,
        out: &mut PathScratch,
    ) -> bool {
        self.run(graph, src, Some(dst), bound, mask, potential);
        self.extract_path_into(dst, bound, out)
    }

    /// Runs a full single-source search (no target early-stop,
    /// smallest-id tie rule), leaving the settled distances
    /// and parent links in the engine for subsequent
    /// [`DijkstraEngine::extract_path_into`] calls. This is the
    /// batch-serving amortization: queries sharing a source share one
    /// search and pay only per-target extraction.
    pub fn search_from<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) {
        self.run(graph, src, None, bound, mask, &NoPotential);
    }

    /// Extracts the shortest path to `dst` from the engine's most recent
    /// search. Returns `true` with `out` filled iff `dst` was **settled**
    /// within `bound` by that search; on `false`, `out` is cleared.
    ///
    /// The extracted path is the **canonical route** (module docs), so it
    /// is bit-identical across every search that settled `dst`, guided or
    /// not. The batch query engine and the guided fault oracles rely on
    /// this equivalence.
    ///
    /// Only settled values are trusted: after a target-less search
    /// ([`DijkstraEngine::search_from`]) every vertex within the
    /// *search's* bound is settled, so anything beyond that bound
    /// reports `false` even when a (tentative, possibly suboptimal)
    /// distance exists. After a pair query, only that query's own target
    /// is settled.
    ///
    /// # Panics
    ///
    /// Panics if the most recent search was a pair query for a different
    /// target — its other vertices may hold tentative, suboptimal
    /// distances, so extracting them would be silently wrong.
    pub fn extract_path_into(&self, dst: NodeId, bound: Dist, out: &mut PathScratch) -> bool {
        assert!(
            self.last_dst == NO_TARGET || self.last_dst == dst.raw(),
            "extract_path_into needs a full search (search_from) or the pair query's own target"
        );
        out.nodes.clear();
        out.edges.clear();
        let dist = self.query_dist(dst);
        // For a target-less search, distances beyond the search bound are
        // tentative (the vertex never settled) — refuse them.
        let settled_bound = if self.last_dst == NO_TARGET {
            bound.min(self.last_bound)
        } else {
            bound
        };
        if !dist.is_finite() || dist > settled_bound {
            return false;
        }
        out.dist = dist;
        out.nodes.push(dst);
        let mut cur = dst;
        loop {
            let pn = self.parent_node[cur.index()];
            if pn == NO_PARENT {
                break; // reached the search source
            }
            let pe = self.parent_edge[cur.index()];
            out.edges.push(EdgeId::new(pe as usize));
            cur = NodeId::new(pn as usize);
            out.nodes.push(cur);
        }
        out.nodes.reverse();
        out.edges.reverse();
        true
    }

    /// Like [`DijkstraEngine::dist_bounded`], but also reconstructs the
    /// canonical route. Allocates the result; loops should prefer
    /// [`DijkstraEngine::shortest_path_bounded_into`].
    pub fn shortest_path_bounded<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) -> Option<ShortestPath> {
        let mut out = PathScratch::new();
        if self.shortest_path_bounded_into(graph, src, dst, bound, mask, &NoPotential, &mut out) {
            Some(ShortestPath {
                dist: out.dist,
                nodes: out.nodes,
                edges: out.edges,
            })
        } else {
            None
        }
    }

    /// Single-source shortest distances in `graph ∖ mask`, stopping at
    /// `bound` (vertices farther than `bound` report `Dist::INFINITE`).
    pub fn sssp_bounded<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) -> Vec<Dist> {
        self.run(graph, src, None, bound, mask, &NoPotential);
        (0..graph.node_count())
            .map(|v| {
                let d = self.query_dist(NodeId::new(v));
                if d <= bound {
                    d
                } else {
                    Dist::INFINITE
                }
            })
            .collect()
    }

    /// Unbounded single-source shortest distances in `graph ∖ mask`.
    pub fn sssp<V: GraphView>(&mut self, graph: &V, src: NodeId, mask: &FaultMask) -> Vec<Dist> {
        self.sssp_bounded(graph, src, Dist::INFINITE, mask)
    }

    fn query_dist(&self, v: NodeId) -> Dist {
        if v.index() < self.epoch.len() && self.is_fresh(v.index()) {
            self.dist[v.index()]
        } else {
            Dist::INFINITE
        }
    }

    /// The one search loop. `potential` turns it into A* (keys are
    /// `dist + potential`, and a relaxation whose key exceeds `bound` is
    /// not pushed); every search applies the smallest-id tie rule and,
    /// for pair searches, keeps expanding every vertex whose key ties
    /// the target's before stopping (module docs).
    fn run<V: GraphView, P: Potential>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: Option<NodeId>,
        bound: Dist,
        mask: &FaultMask,
        potential: &P,
    ) {
        let n = graph.node_count();
        self.prepare(n);
        self.last_dst = dst.map(NodeId::raw).unwrap_or(NO_TARGET);
        self.last_bound = bound;
        if mask.is_vertex_faulted(src) {
            return;
        }
        if let Some(d) = dst {
            if mask.is_vertex_faulted(d) {
                return;
            }
        }
        self.touch(src.index());
        self.dist[src.index()] = Dist::ZERO;
        let mut heap = self.heap.take().expect("heap initialized by prepare");
        heap.clear();
        heap.push_or_decrease(src.index(), potential.estimate(src));
        let max_key = bound.value().unwrap_or(u64::MAX);
        let mut stop_key = max_key;
        while let Some((v, key)) = heap.pop() {
            self.pops += 1;
            if key > stop_key {
                break;
            }
            if Some(NodeId::new(v)) == dst {
                stop_key = key;
                continue;
            }
            let dv = self.dist[v];
            graph.for_each_neighbor(NodeId::new(v), |to, eid, w: Weight| {
                if !mask.allows(to, eid) {
                    return;
                }
                let cand = dv + w;
                if cand > bound {
                    return;
                }
                self.touch(to.index());
                if cand < self.dist[to.index()] {
                    let key = cand
                        .value()
                        .expect("finite")
                        .saturating_add(potential.estimate(to));
                    if key > max_key {
                        return;
                    }
                    self.dist[to.index()] = cand;
                    self.parent_node[to.index()] = v as u32;
                    self.parent_edge[to.index()] = eid.raw();
                    heap.push_or_decrease(to.index(), key);
                } else if cand == self.dist[to.index()] && eid.raw() < self.parent_edge[to.index()]
                {
                    self.parent_node[to.index()] = v as u32;
                    self.parent_edge[to.index()] = eid.raw();
                }
            });
        }
        self.heap = Some(heap);
    }
}

/// One-shot convenience: `dist(src, dst)` in `graph ∖ mask` if `≤ bound`.
///
/// Allocates a fresh engine; prefer [`DijkstraEngine`] in loops.
///
/// # Examples
///
/// ```
/// use spanner_graph::{dijkstra, Dist, FaultMask, Graph, NodeId};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let mask = FaultMask::for_graph(&g);
/// let d = dijkstra::dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(5), &mask);
/// assert_eq!(d, Some(Dist::finite(2)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn dist_bounded<V: GraphView>(
    graph: &V,
    src: NodeId,
    dst: NodeId,
    bound: Dist,
    mask: &FaultMask,
) -> Option<Dist> {
    DijkstraEngine::new().dist_bounded(graph, src, dst, bound, mask)
}

/// One-shot convenience: unbounded distance, `Dist::INFINITE` if unreachable.
pub fn dist<V: GraphView>(graph: &V, src: NodeId, dst: NodeId, mask: &FaultMask) -> Dist {
    dist_bounded(graph, src, dst, Dist::INFINITE, mask).unwrap_or(Dist::INFINITE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn weighted_diamond() -> Graph {
        // 0 -1- 1 -1- 2  and  0 -1- 3 -5- 2
        Graph::from_weighted_edges(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 5)]).unwrap()
    }

    #[test]
    fn finds_shortest_distance() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            Some(Dist::finite(2))
        );
    }

    #[test]
    fn respects_bound() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(1), &mask),
            None
        );
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(2), &mask),
            Some(Dist::finite(2))
        );
    }

    #[test]
    fn vertex_fault_reroutes() {
        let g = weighted_diamond();
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(1));
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            Some(Dist::finite(6))
        );
    }

    #[test]
    fn edge_fault_reroutes() {
        let g = weighted_diamond();
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_edge(EdgeId::new(1)); // 1-2
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            Some(Dist::finite(6))
        );
    }

    #[test]
    fn disconnection_reports_none() {
        let g = weighted_diamond();
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(1));
        mask.fault_vertex(NodeId::new(3));
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            None
        );
    }

    #[test]
    fn faulted_source_or_target_unreachable() {
        let g = weighted_diamond();
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(0));
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            None
        );
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(2), NodeId::new(0), Dist::INFINITE, &mask),
            None
        );
    }

    #[test]
    fn same_node_distance_zero() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(3), NodeId::new(3), Dist::ZERO, &mask),
            Some(Dist::ZERO)
        );
    }

    #[test]
    fn path_reconstruction_matches_distance() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        let p = e
            .shortest_path_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask)
            .unwrap();
        assert_eq!(p.dist, Dist::finite(2));
        assert_eq!(
            p.nodes,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(p.edges.len(), 2);
        assert_eq!(p.interior_nodes(), &[NodeId::new(1)]);
        let total: Dist = p.edges.iter().map(|e| g.weight(*e).to_dist()).sum();
        assert_eq!(total, p.dist);
    }

    #[test]
    fn engine_reuse_across_queries() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        for _ in 0..100 {
            assert_eq!(
                e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
                Some(Dist::finite(2))
            );
        }
        assert!(e.pop_count() > 0);
    }

    #[test]
    fn sssp_matches_pairwise() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        let d = e.sssp(&g, NodeId::new(0), &mask);
        assert_eq!(d[0], Dist::ZERO);
        assert_eq!(d[1], Dist::finite(1));
        assert_eq!(d[2], Dist::finite(2));
        assert_eq!(d[3], Dist::finite(1));
    }

    #[test]
    fn sssp_bounded_cuts_off() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        let d = e.sssp_bounded(&g, NodeId::new(0), Dist::finite(1), &mask);
        assert_eq!(d[2], Dist::INFINITE);
        assert_eq!(d[1], Dist::finite(1));
    }

    #[test]
    fn one_shot_helpers() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        assert_eq!(
            dist(&g, NodeId::new(0), NodeId::new(2), &mask),
            Dist::finite(2)
        );
        assert_eq!(
            dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(1), &mask),
            None
        );
    }

    /// The exact remaining distance to a target: the tightest
    /// consistent potential, so under it every vertex on every shortest
    /// path ties the target's key — the hardest case for the tie rule.
    struct ExactPotential(Vec<Dist>);

    impl Potential for ExactPotential {
        fn estimate(&self, v: NodeId) -> u64 {
            self.0[v.index()].value().unwrap_or(0)
        }
    }

    /// A route as `(dist, nodes, edges)`, `None` when unreachable.
    type Found = Option<(Dist, Vec<NodeId>, Vec<EdgeId>)>;

    /// The route each search returns for `src → dst`: A* under no
    /// potential, A* under the exact potential, and extraction from a
    /// full `search_from`.
    fn canonical_routes<V: GraphView>(
        g: &V,
        mask: &FaultMask,
        src: usize,
        dst: usize,
    ) -> [Found; 3] {
        let (s, t) = (NodeId::new(src), NodeId::new(dst));
        let mut e = DijkstraEngine::new();
        let mut out = PathScratch::new();
        let mut take = |e: &DijkstraEngine, found: bool| {
            (found && e.extract_path_into(t, Dist::INFINITE, &mut out))
                .then(|| (out.dist(), out.nodes().to_vec(), out.edges().to_vec()))
        };
        let plain = e.astar(g, s, t, mask, &NoPotential).is_some();
        let plain = take(&e, plain);
        let exact = ExactPotential(e.sssp(g, t, mask));
        let guided = e.astar(g, s, t, mask, &exact).is_some();
        let guided = take(&e, guided);
        e.search_from(g, s, Dist::INFINITE, mask);
        let full = take(&e, true);
        [plain, guided, full]
    }

    /// The route the bounded pair search returns under `potential`.
    fn bounded_route<P: Potential>(
        g: &Graph,
        mask: &FaultMask,
        src: usize,
        dst: usize,
        bound: Dist,
        potential: &P,
    ) -> Found {
        let mut out = PathScratch::new();
        DijkstraEngine::new()
            .shortest_path_bounded_into(
                g,
                NodeId::new(src),
                NodeId::new(dst),
                bound,
                mask,
                potential,
                &mut out,
            )
            .then(|| (out.dist(), out.nodes().to_vec(), out.edges().to_vec()))
    }

    #[test]
    fn tie_rule_keeps_the_smallest_tight_edge_in_every_search() {
        // Two tight routes 0→3: via 1 (edges 0, 3) and via 2 (edges 1,
        // 2). Vertex 1 enters the heap first, so it relaxes 3 through
        // the larger edge id 3 before vertex 2 offers edge 2; every
        // search must still keep edge 2.
        let g =
            Graph::from_weighted_edges(4, [(0, 1, 1), (0, 2, 1), (2, 3, 1), (1, 3, 1)]).unwrap();
        let mask = FaultMask::for_graph(&g);
        let canonical = Some((
            Dist::finite(2),
            vec![NodeId::new(0), NodeId::new(2), NodeId::new(3)],
            vec![EdgeId::new(1), EdgeId::new(2)],
        ));
        let exact = ExactPotential(DijkstraEngine::new().sssp(&g, NodeId::new(3), &mask));
        for bound in [Dist::finite(2), Dist::finite(3), Dist::INFINITE] {
            let plain = bounded_route(&g, &mask, 0, 3, bound, &NoPotential);
            assert_eq!(plain, canonical, "bounded search, bound {bound}");
            let guided = bounded_route(&g, &mask, 0, 3, bound, &exact);
            assert_eq!(guided, canonical, "guided bounded search, bound {bound}");
        }
        for (i, route) in canonical_routes(&g, &mask, 0, 3).into_iter().enumerate() {
            assert_eq!(route, canonical, "search {i}");
        }
    }

    #[test]
    fn canonical_searches_agree_on_tie_heavy_grids() {
        let g = crate::generators::grid(5, 6);
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(14));
        for src in [0usize, 7, 29] {
            for dst in 0..g.node_count() {
                if src == 14 || dst == 14 {
                    continue;
                }
                let [plain, guided, full] = canonical_routes(&g, &mask, src, dst);
                assert!(plain.is_some(), "{src}->{dst} reachable");
                assert_eq!(plain, guided, "{src}->{dst}");
                assert_eq!(plain, full, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn guided_search_matches_unguided_on_every_subgraph_of_the_table_graph() {
        // The construction setting: the table is built once on G, the
        // searches run on a subgraph H ⊆ G under fault masks, with bounds
        // on both sides of the true distance. Guided and unguided must
        // agree on every field of the answer.
        use crate::generators::{erdos_renyi, grid, random_geometric, with_uniform_weights};
        use crate::Landmarks;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA17);
        let (mut plain, mut guided) = (DijkstraEngine::new(), DijkstraEngine::new());
        let (mut plain_out, mut guided_out) = (PathScratch::new(), PathScratch::new());
        let mut outcomes = [0usize; 2];
        for trial in 0..24 {
            let g = match trial % 3 {
                0 => random_geometric(60, 0.3, &mut rng),
                // Small weights tie often; p = 0.06 leaves G disconnected.
                1 => with_uniform_weights(&erdos_renyi(50, 0.06, &mut rng), 1, 3, &mut rng),
                _ => grid(6, 7),
            };
            let table = Landmarks::build(&g);
            let mut h = Graph::new(g.node_count());
            for (_, e) in g.edges() {
                if rng.gen_bool(0.7) {
                    h.add_edge_unchecked(e.u(), e.v(), e.weight());
                }
            }
            let n = h.node_count();
            for _ in 0..30 {
                let mut mask = FaultMask::for_graph(&h);
                for _ in 0..rng.gen_range(0..3) {
                    mask.fault_vertex(NodeId::new(rng.gen_range(0..n)));
                }
                for _ in 0..rng.gen_range(0..3) {
                    if h.edge_count() > 0 {
                        mask.fault_edge(EdgeId::new(rng.gen_range(0..h.edge_count())));
                    }
                }
                let (s, t) = (
                    NodeId::new(rng.gen_range(0..n)),
                    NodeId::new(rng.gen_range(0..n)),
                );
                let exact = plain.dist_bounded(&h, s, t, Dist::INFINITE, &mask);
                let bounds = match exact.and_then(Dist::value) {
                    Some(d) => vec![d.saturating_sub(1), d, d + 1, 2 * d + 1],
                    None => vec![rng.gen_range(0..40)],
                };
                let bounds = bounds.into_iter().map(Dist::finite).chain([Dist::INFINITE]);
                let h_t = table.potential_to(t);
                for bound in bounds {
                    let label = format!("trial {trial}: {s}->{t} bound {bound}");
                    let a = plain.shortest_path_bounded_into(
                        &h,
                        s,
                        t,
                        bound,
                        &mask,
                        &NoPotential,
                        &mut plain_out,
                    );
                    let b = guided.shortest_path_bounded_into(
                        &h,
                        s,
                        t,
                        bound,
                        &mask,
                        &h_t,
                        &mut guided_out,
                    );
                    assert_eq!(a, b, "{label}: found");
                    assert_eq!(a, exact.is_some_and(|d| d <= bound), "{label}: exact");
                    outcomes[usize::from(a)] += 1;
                    if a {
                        assert_eq!(plain_out.dist(), guided_out.dist(), "{label}: dist");
                        assert_eq!(plain_out.nodes(), guided_out.nodes(), "{label}: nodes");
                        assert_eq!(plain_out.edges(), guided_out.edges(), "{label}: edges");
                    }
                }
            }
        }
        assert!(outcomes.iter().all(|&c| c > 200), "{outcomes:?}");
    }

    #[test]
    fn shared_search_extraction_matches_pair_queries() {
        // One search_from, many extractions — each must be bit-identical
        // to a dedicated canonical pair query (the batch-serving
        // equivalence the query engine relies on).
        use crate::generators;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::erdos_renyi(30, 0.15, &mut rng);
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(7));
        let mut shared = DijkstraEngine::new();
        let mut dedicated = DijkstraEngine::new();
        for src in [0usize, 11, 23] {
            shared.search_from(&g, NodeId::new(src), Dist::INFINITE, &mask);
            for dst in 0..30usize {
                let mut from_shared = PathScratch::new();
                let found =
                    shared.extract_path_into(NodeId::new(dst), Dist::INFINITE, &mut from_shared);
                let direct = dedicated
                    .astar(&g, NodeId::new(src), NodeId::new(dst), &mask, &NoPotential)
                    .is_some();
                assert_eq!(found, direct, "{src}->{dst} reachability");
                if direct {
                    let mut p = PathScratch::new();
                    assert!(dedicated.extract_path_into(NodeId::new(dst), Dist::INFINITE, &mut p));
                    assert_eq!(from_shared.dist(), p.dist(), "{src}->{dst} dist");
                    assert_eq!(from_shared.nodes(), p.nodes(), "{src}->{dst} nodes");
                    assert_eq!(from_shared.edges(), p.edges(), "{src}->{dst} edges");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pair query's own target")]
    fn extraction_after_pair_query_rejects_other_targets() {
        // s-t (1), s-x (5), t-x (1): the early-stopped s→t query leaves x
        // with a tentative dist of 5 (true dist 2). Extracting x would be
        // silently wrong — it must panic instead.
        let g = Graph::from_weighted_edges(3, [(0, 1, 1), (0, 2, 5), (1, 2, 1)]).unwrap();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert!(e
            .dist_bounded(&g, NodeId::new(0), NodeId::new(1), Dist::INFINITE, &mask)
            .is_some());
        let mut out = PathScratch::new();
        let _ = e.extract_path_into(NodeId::new(2), Dist::INFINITE, &mut out);
    }

    #[test]
    fn bounded_search_extraction_refuses_unsettled_frontier() {
        // Path 0-1-2-3 (unit weights), search bounded at 1: vertex 2 may
        // carry a tentative distance but was never settled — extraction
        // must refuse it rather than trust it, even with a larger
        // extraction bound.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        e.search_from(&g, NodeId::new(0), Dist::finite(1), &mask);
        let mut out = PathScratch::new();
        assert!(e.extract_path_into(NodeId::new(1), Dist::INFINITE, &mut out));
        assert_eq!(out.dist(), Dist::finite(1));
        assert!(
            !e.extract_path_into(NodeId::new(2), Dist::INFINITE, &mut out),
            "beyond the search bound nothing is settled"
        );
    }

    #[test]
    fn path_in_empty_graph_is_none() {
        let g = Graph::new(2);
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.shortest_path_bounded(&g, NodeId::new(0), NodeId::new(1), Dist::INFINITE, &mask),
            None
        );
    }
}
