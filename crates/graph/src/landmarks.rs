//! Landmark distance tables: the A* potential every exact search runs
//! on (ALT — A*, landmarks, triangle inequality; Goldberg–Harrelson,
//! SODA 2005).
//!
//! For a landmark `L` the triangle inequality gives
//! `|d_G(L, t) − d_G(L, v)| ≤ d_G(v, t)`, and the maximum over a few
//! landmarks is a consistent lower bound on the distance to `t`
//! ([`Potential`]). The table is computed once on an **unfaulted**
//! graph `G`, and it stays consistent on every subgraph `H ⊆ G` that
//! keeps `G`'s weights, under every fault mask: each edge of `H ∖ F` is
//! an edge of `G`, so `h(u) ≤ w(u, v) + h(v)` still holds on it, and
//! `d_G(v, t) ≤ d_{H∖F}(v, t)`. One table type serves both sides of the
//! pipeline:
//!
//! * **Construction.** FT-greedy builds the table once, on the input
//!   graph `G`. The spanner `H` it grows is a subgraph of `G`, so every
//!   fault-oracle search — while `H` grows, under every candidate fault
//!   set — runs as bounded A* under the same table, with no rebuild. A
//!   partitioned build guides each shard's induced subgraph with
//!   [`Landmarks::restrict`] of that one table (rows gathered into the
//!   shard's local ids) and the stitch with the table itself.
//! * **Serving.** `FrozenSpanner::landmarks` builds the table on the
//!   unfaulted spanner `H` at open. Faults only delete vertices and
//!   edges, so no epoch ever invalidates it.
//!
//! A* and Dijkstra return the same path under the engine's one tie rule
//! (see [`crate::dijkstra`]), so the table changes how much a search
//! explores, never what it answers.
//!
//! Layout: [`LANDMARKS`] landmarks chosen by farthest-point selection,
//! distances stored vertex-major as one cache-line row of `u32` per
//! vertex, finite distances clamped below the [`UNREACHABLE`] sentinel.
//! Clamping is 1-Lipschitz, and inside one component of `G` a landmark's
//! column is either all finite or all sentinel. Every edge of a subgraph
//! of `G` joins two vertices of one `G` component, so the absolute
//! differences stay consistent on it without a branch on the sentinel.
//! At n = 10⁴ the table is 640 KB; it is never persisted.
//!
//! Build: [`Landmarks::build`] snapshots the graph once into flat CSR
//! arcs and runs its 17 searches (vertex 0, then one per landmark) on a
//! private kernel, a lazy-deletion Dijkstra over a monotone radix heap
//! with reused buffers. It skips what the general engine pays for on
//! every search (fault-mask checks, epoch stamps, parent and tie
//! tracking, a decrease-key heap, a fresh distance vector), and the
//! table depends only on exact distances, so it comes out bit-identical
//! to one built from [`crate::DijkstraEngine`] searches. On a 2-vCPU
//! host (`cargo bench --bench substrate -- substrate_landmarks`) a
//! connected sparse geometric graph at n = 10⁴ builds in about 28 ms
//! (65 ms with the engine) and a dense one at n = 800 in about 8 ms
//! (21 ms).

use crate::{GraphView, NodeId, Potential, Weight};
use std::fmt;

/// Landmarks per table.
pub const LANDMARKS: usize = 16;

/// Table entry for a vertex the landmark cannot reach.
pub const UNREACHABLE: u32 = u32::MAX;

/// One vertex's distances to every landmark: one cache line.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
struct Row([u32; LANDMARKS]);

/// The landmark table of one graph (see the module docs). The default
/// table covers the empty graph.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Landmarks {
    vertices: Vec<NodeId>,
    rows: Vec<Row>,
}

impl Landmarks {
    /// Builds the table on the unfaulted `graph`: farthest-point
    /// selection (the first landmark is the vertex farthest from vertex
    /// 0, each next one the vertex farthest from all chosen so far,
    /// unreachable counting as farthest and ties going to the smaller
    /// id), one single-source search per landmark.
    ///
    /// The searches run on the module's radix-heap kernel over one CSR
    /// snapshot of `graph`. Its path sums saturate exactly as
    /// `Dist + Weight` does, and the landmark choice and the rows depend
    /// only on exact distances, so the table is the one a
    /// [`crate::DijkstraEngine`] `sssp` per search would give.
    pub fn build<V: GraphView>(graph: &V) -> Self {
        let n = graph.node_count();
        let mut rows = vec![Row([UNREACHABLE; LANDMARKS]); n];
        let mut vertices = Vec::with_capacity(LANDMARKS);
        if n == 0 {
            return Landmarks { vertices, rows };
        }
        let mut kernel = Kernel::snapshot(graph);
        // Distance from each vertex to its nearest chosen landmark
        // (before the first pick: to vertex 0).
        let mut nearest = kernel.sssp(0).to_vec();
        for i in 0..LANDMARKS {
            let far = (0..n).fold(
                0,
                |best, v| if nearest[v] > nearest[best] { v } else { best },
            );
            vertices.push(NodeId::new(far));
            for (v, &d) in kernel.sssp(far).iter().enumerate() {
                rows[v].0[i] = if d == u64::MAX {
                    UNREACHABLE
                } else {
                    d.min(u64::from(UNREACHABLE - 1)) as u32
                };
                nearest[v] = if i == 0 { d } else { nearest[v].min(d) };
            }
        }
        Landmarks { vertices, rows }
    }

    /// The table restricted to the subgraph induced by `members`: row
    /// `i` is this table's row for `members[i]`, so the result guides
    /// searches in the subgraph's local ids. Every edge of that subgraph
    /// (with this graph's weights) is an edge of this graph, so the
    /// restricted table is as consistent there as on any other subgraph
    /// (see the module docs). The landmarks need not lie in the subgraph,
    /// so the result's [`Landmarks::vertices`] is empty.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of range.
    pub fn restrict(&self, members: &[NodeId]) -> Landmarks {
        Landmarks {
            vertices: Vec::new(),
            rows: members.iter().map(|v| self.rows[v.index()]).collect(),
        }
    }

    /// The landmark vertices, in selection order (empty for a
    /// [`Landmarks::restrict`]ed table).
    pub fn vertices(&self) -> &[NodeId] {
        &self.vertices
    }

    /// `v`'s row: its (clamped) distance from each landmark, or
    /// [`UNREACHABLE`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn distances(&self, v: NodeId) -> &[u32; LANDMARKS] {
        &self.rows[v.index()].0
    }

    /// The A* potential towards `target`:
    /// `h(v) = max_L |d(L, target) − d(L, v)|`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn potential_to(&self, target: NodeId) -> LandmarkPotential<'_> {
        LandmarkPotential {
            rows: &self.rows,
            target: self.rows[target.index()],
        }
    }
}

impl fmt::Debug for Landmarks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Landmarks")
            .field("vertices", &self.vertices)
            .field("rows", &self.rows.len())
            .finish()
    }
}

/// The landmark lower bound towards one target (built by
/// [`Landmarks::potential_to`]).
#[derive(Clone, Copy)]
pub struct LandmarkPotential<'a> {
    rows: &'a [Row],
    target: Row,
}

impl Potential for LandmarkPotential<'_> {
    #[inline]
    fn estimate(&self, v: NodeId) -> u64 {
        let row = &self.rows[v.index()].0;
        let mut best = 0;
        for (a, b) in row.iter().zip(&self.target.0) {
            best = best.max(a.abs_diff(*b));
        }
        u64::from(best)
    }
}

/// The table builder's search state: the graph snapshotted once into
/// flat CSR arcs `(to, weight)`, and the distance buffer and heap every
/// search reuses.
struct Kernel {
    offsets: Vec<usize>,
    arcs: Vec<(u32, u64)>,
    dist: Vec<u64>,
    heap: RadixHeap,
}

impl Kernel {
    fn snapshot<V: GraphView>(graph: &V) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0);
        for v in 0..n {
            graph.for_each_neighbor(NodeId::new(v), |to, _, w: Weight| {
                arcs.push((to.raw(), w.get()))
            });
            offsets.push(arcs.len());
        }
        Kernel {
            offsets,
            arcs,
            dist: vec![u64::MAX; n],
            heap: RadixHeap::default(),
        }
    }

    /// Distances from `src` to every vertex, `u64::MAX` if unreachable.
    fn sssp(&mut self, src: usize) -> &[u64] {
        self.dist.fill(u64::MAX);
        self.dist[src] = 0;
        self.heap.clear();
        self.heap.push(0, src as u32);
        while let Some((key, v)) = self.heap.pop() {
            let v = v as usize;
            // Lazy deletion: every push strictly lowers `dist`, so only
            // the entry carrying the final distance is live.
            if key > self.dist[v] {
                continue;
            }
            for &(to, w) in &self.arcs[self.offsets[v]..self.offsets[v + 1]] {
                // Exactly `Dist + Weight`: saturate below the sentinel.
                let cand = key.saturating_add(w).min(u64::MAX - 1);
                if cand < self.dist[to as usize] {
                    self.dist[to as usize] = cand;
                    self.heap.push(cand, to);
                }
            }
        }
        &self.dist
    }
}

/// A monotone radix heap (Ahuja–Mehlhorn–Orlin–Tarjan, JACM 1990):
/// keys never drop below the last popped key, and bucket `i > 0` holds
/// the entries whose key first differs from it at bit `i − 1`.
struct RadixHeap {
    last: u64,
    /// Bit `i` set iff bucket `i` is non-empty.
    occupied: u128,
    buckets: [Vec<(u64, u32)>; 65],
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap {
            last: 0,
            occupied: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl RadixHeap {
    fn bucket(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.last = 0;
        self.occupied = 0;
    }

    fn push(&mut self, key: u64, item: u32) {
        debug_assert!(key >= self.last, "radix heap keys are monotone");
        let i = self.bucket(key);
        self.buckets[i].push((key, item));
        self.occupied |= 1 << i;
    }

    /// Pops an entry of the smallest key.
    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            // Refill bucket 0: the smallest key of the first non-empty
            // bucket becomes `last`, and its entries all move to lower
            // buckets.
            let i = self.occupied.trailing_zeros() as usize;
            let mut refill = std::mem::take(&mut self.buckets[i]);
            self.last = refill.iter().map(|&(key, _)| key).min().expect("non-empty");
            self.occupied &= !(1 << i);
            for (key, item) in refill.drain(..) {
                let j = self.bucket(key);
                self.buckets[j].push((key, item));
                self.occupied |= 1 << j;
            }
            self.buckets[i] = refill;
        }
        let top = self.buckets[0].pop();
        if self.buckets[0].is_empty() {
            self.occupied &= !1;
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, grid, random_geometric, with_uniform_weights};
    use crate::{DijkstraEngine, Dist, EdgeId, FaultMask, FrozenCsr, Graph, IncrementalCsr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A graph in three components: a weighted 4-cycle with a chord on
    /// {0..3}, the isolated vertex 4, and a weighted path on {5..11}.
    fn three_components() -> Graph {
        let mut g = Graph::new(12);
        for (u, v, w) in [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 0, 4), (1, 3, 2)] {
            g.add_edge_unchecked(NodeId::new(u), NodeId::new(v), Weight::new(w).unwrap());
        }
        for v in 5..11 {
            g.add_edge_unchecked(NodeId::new(v), NodeId::new(v + 1), Weight::new(5).unwrap());
        }
        g
    }

    /// Parents of a few generated families, one of them disconnected.
    fn parents() -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            grid(5, 6),
            with_uniform_weights(&erdos_renyi(40, 0.2, &mut rng), 1, 9, &mut rng),
            random_geometric(60, 0.3, &mut rng),
            three_components(),
        ]
    }

    /// A table built on G is consistent on every H ⊆ G: the construction
    /// guarantee (H is a spanner being grown from G) as well as the
    /// serving one (H = G).
    #[test]
    fn potential_is_zero_at_the_target_and_consistent_on_every_edge() {
        let mut rng = StdRng::seed_from_u64(11);
        for g in parents() {
            let table = Landmarks::build(&g);
            for keep in [1.0, 0.6, 0.25] {
                // H ⊆ G: a random subset of G's edges, G's weights.
                let mut h = Graph::new(g.node_count());
                for (_, e) in g.edges() {
                    if rng.gen_bool(keep) {
                        h.add_edge_unchecked(e.u(), e.v(), e.weight());
                    }
                }
                for t in 0..h.node_count() {
                    let pot = table.potential_to(NodeId::new(t));
                    assert_eq!(pot.estimate(NodeId::new(t)), 0);
                    for e in 0..h.edge_count() {
                        let e = EdgeId::new(e);
                        let (u, v) = h.edge_endpoints(e);
                        let w = h.edge_weight(e).get();
                        assert!(pot.estimate(u) <= w + pot.estimate(v), "{e} toward {t}");
                        assert!(pot.estimate(v) <= w + pot.estimate(u), "{e} toward {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn farthest_point_selection_reaches_every_component() {
        let g = three_components();
        let table = Landmarks::build(&g);
        assert_eq!(table.vertices().len(), LANDMARKS);
        // Three components: {0..3}, {4}, {5..11} — each holds a landmark,
        // so every vertex sees the sentinel in some column and a finite
        // distance in another.
        for comp in [&[0usize, 1, 2, 3][..], &[4], &[5, 6, 7, 8, 9, 10, 11]] {
            assert!(table.vertices().iter().any(|l| comp.contains(&l.index())));
        }
        for v in 0..g.node_count() {
            let row = table.distances(NodeId::new(v));
            assert!(row.contains(&UNREACHABLE) && row.iter().any(|&d| d != UNREACHABLE));
        }
    }

    /// The engine-based builder the kernel replaced: one
    /// `DijkstraEngine::sssp` per search, same selection and clamping.
    fn engine_table<V: GraphView>(graph: &V) -> Landmarks {
        let n = graph.node_count();
        let mut rows = vec![Row([UNREACHABLE; LANDMARKS]); n];
        let mut vertices = Vec::with_capacity(LANDMARKS);
        if n == 0 {
            return Landmarks { vertices, rows };
        }
        let mask = FaultMask::with_capacity(n, graph.edge_count());
        let mut engine = DijkstraEngine::new();
        let raw = |d: Dist| d.value().unwrap_or(u64::MAX);
        let mut nearest: Vec<u64> = engine
            .sssp(graph, NodeId::new(0), &mask)
            .into_iter()
            .map(raw)
            .collect();
        for i in 0..LANDMARKS {
            let far = (0..n).fold(
                0,
                |best, v| if nearest[v] > nearest[best] { v } else { best },
            );
            vertices.push(NodeId::new(far));
            let dist = engine.sssp(graph, NodeId::new(far), &mask);
            for (v, d) in dist.into_iter().map(raw).enumerate() {
                rows[v].0[i] = if d == u64::MAX {
                    UNREACHABLE
                } else {
                    d.min(u64::from(UNREACHABLE - 1)) as u32
                };
                nearest[v] = if i == 0 { d } else { nearest[v].min(d) };
            }
        }
        Landmarks { vertices, rows }
    }

    /// A path `0 – 1 – … – (n − 1)` whose every edge weighs `w`.
    fn path(n: usize, w: u64) -> Graph {
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge_unchecked(NodeId::new(v - 1), NodeId::new(v), Weight::new(w).unwrap());
        }
        g
    }

    fn assert_kernel_matches_engine(g: &Graph, what: &str) {
        let table = Landmarks::build(g);
        assert_eq!(table, engine_table(g), "{what}");
        // Every view of the same edges builds the same table, the
        // incremental one with some edges still in its append buffer.
        let mut incremental = IncrementalCsr::new(g.node_count());
        for (_, e) in g.edges() {
            incremental.push_edge(e.u(), e.v(), e.weight());
        }
        assert_eq!(
            Landmarks::build(&incremental),
            table,
            "{what}: IncrementalCsr"
        );
        assert_eq!(
            Landmarks::build(&FrozenCsr::from(g)),
            table,
            "{what}: FrozenCsr"
        );
    }

    #[test]
    fn kernel_builds_the_engine_table() {
        for (i, g) in parents().iter().enumerate() {
            assert_kernel_matches_engine(g, &format!("parent {i}"));
        }
        assert_kernel_matches_engine(&Graph::new(0), "empty graph");
        assert_kernel_matches_engine(&Graph::new(1), "one vertex");
        let mut rng = StdRng::seed_from_u64(5);
        let geometric =
            with_uniform_weights(&random_geometric(3000, 0.03, &mut rng), 1, 20, &mut rng);
        assert_kernel_matches_engine(&geometric, "geometric, n = 3000");

        // Distances past u32::MAX: rows clamp just below the sentinel.
        let long = path(9, 1 << 31);
        assert_kernel_matches_engine(&long, "long path");
        // The first landmark is vertex 8, 2³⁴ away from vertex 0.
        let table = Landmarks::build(&long);
        assert_eq!(table.vertices()[0], NodeId::new(8));
        assert_eq!(table.distances(NodeId::new(0))[0], UNREACHABLE - 1);

        // Weights past u64::MAX / 2: every two-edge sum saturates at
        // u64::MAX − 1, where a wrapping sum would come out small.
        let heavy = path(5, u64::MAX / 2 + 6);
        assert_kernel_matches_engine(&heavy, "heavy path");
        let mut kernel = Kernel::snapshot(&heavy);
        assert_eq!(kernel.sssp(0)[2], u64::MAX - 1);
        assert_eq!(kernel.sssp(0)[4], u64::MAX - 1);
    }

    /// A partitioned build guides every shard with G's table restricted
    /// to the shard: the rows must be G's rows in the shard's local ids,
    /// and the potential must stay consistent and admissible on the
    /// shard's induced subgraph.
    #[test]
    fn restricted_table_guides_induced_subgraphs() {
        let mut rng = StdRng::seed_from_u64(19);
        let geometric =
            with_uniform_weights(&random_geometric(3000, 0.03, &mut rng), 1, 20, &mut rng);
        let cases = parents()
            .into_iter()
            .map(|g| (g, 8))
            .chain([(geometric, 200)]);
        let mut engine = DijkstraEngine::new();
        for (case, (g, target)) in cases.enumerate() {
            let table = Landmarks::build(&g);
            let partition = crate::partition::bfs_balls(&g, target, 3);
            assert!(partition.shard_count() > 1, "case {case}: one shard");
            for (shard, members) in partition.shards().enumerate() {
                let what = format!("case {case}, shard {shard}");
                let restricted = table.restrict(members);
                assert!(restricted.vertices().is_empty(), "{what}");
                for (local, &global) in members.iter().enumerate() {
                    assert_eq!(
                        restricted.distances(NodeId::new(local)),
                        table.distances(global),
                        "{what}: row {local}"
                    );
                }
                // The induced subgraph in local ids, G's weights.
                let sub = crate::subgraph::induced(&g, members.iter().copied()).graph;
                let mask = FaultMask::with_capacity(sub.node_count(), sub.edge_count());
                let step = (members.len() / 4).max(1);
                for t in (0..members.len()).step_by(step).map(NodeId::new) {
                    let pot = restricted.potential_to(t);
                    assert_eq!(pot.estimate(t), 0, "{what}");
                    for (id, e) in sub.edges() {
                        let (hu, hv) = (pot.estimate(e.u()), pot.estimate(e.v()));
                        assert!(
                            hu.abs_diff(hv) <= e.weight().get(),
                            "{what}: {id} toward {t}"
                        );
                    }
                    for (v, d) in engine.sssp(&sub, t, &mask).into_iter().enumerate() {
                        if let Some(d) = d.value() {
                            assert!(pot.estimate(NodeId::new(v)) <= d, "{what}: {v} to {t}");
                        }
                    }
                }
            }
        }
    }
}
