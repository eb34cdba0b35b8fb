//! Landmark distance tables: the A* potential single-pair serving runs
//! on (ALT — A*, landmarks, triangle inequality; Goldberg–Harrelson,
//! SODA 2005).
//!
//! For a landmark `L` the triangle inequality gives
//! `|d_H(L, t) − d_H(L, v)| ≤ d_H(v, t)`, and the maximum over a few
//! landmarks is a consistent lower bound on the distance to `t`
//! ([`spanner_graph::Potential`]). The table is computed once on the
//! **unfaulted** spanner `H`. Faults only delete vertices and edges, so
//! `d_H(v, t) ≤ d_{H∖F}(v, t)` for every fault set `F`, and the bound
//! stays admissible and consistent in every epoch: no
//! [`EpochDelta`](crate::serve::EpochDelta) ever invalidates it.
//!
//! Layout: [`LANDMARKS`] landmarks chosen by farthest-point selection,
//! distances stored vertex-major as one cache-line row of `u32` per
//! vertex, finite distances clamped below the [`UNREACHABLE`] sentinel.
//! Clamping is 1-Lipschitz, and inside one component of `H` a landmark's
//! column is either all finite or all sentinel, so the absolute
//! differences stay consistent on every edge without a branch on the
//! sentinel. At n = 10⁴ the table is 640 KB and builds in tens of
//! milliseconds; it is never persisted (see `README.md`, "Serving
//! queries").

use spanner_graph::{DijkstraEngine, FaultMask, FrozenCsr, GraphView, NodeId, Potential};
use std::fmt;

/// Landmarks per table.
pub const LANDMARKS: usize = 16;

/// Table entry for a vertex the landmark cannot reach.
pub const UNREACHABLE: u32 = u32::MAX;

/// One vertex's distances to every landmark: one cache line.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
struct Row([u32; LANDMARKS]);

/// The landmark table of one spanner (see the module docs).
#[derive(Clone, PartialEq, Eq)]
pub struct Landmarks {
    vertices: Vec<NodeId>,
    rows: Vec<Row>,
}

impl Landmarks {
    /// Builds the table on the unfaulted `csr`: farthest-point selection
    /// (the first landmark is the vertex farthest from vertex 0, each
    /// next one the vertex farthest from all chosen so far, unreachable
    /// counting as farthest and ties going to the smaller id), one
    /// Dijkstra per landmark.
    pub fn build(csr: &FrozenCsr) -> Self {
        let n = csr.node_count();
        let mut rows = vec![Row([UNREACHABLE; LANDMARKS]); n];
        let mut vertices = Vec::with_capacity(LANDMARKS);
        if n == 0 {
            return Landmarks { vertices, rows };
        }
        let mask = FaultMask::with_capacity(n, csr.edge_count());
        let mut engine = DijkstraEngine::new();
        let raw = |d: spanner_graph::Dist| d.value().unwrap_or(u64::MAX);
        // Distance from each vertex to its nearest chosen landmark
        // (before the first pick: to vertex 0).
        let mut nearest: Vec<u64> = engine
            .sssp(csr, NodeId::new(0), &mask)
            .into_iter()
            .map(raw)
            .collect();
        for i in 0..LANDMARKS {
            let far = (0..n).fold(
                0,
                |best, v| if nearest[v] > nearest[best] { v } else { best },
            );
            vertices.push(NodeId::new(far));
            let dist = engine.sssp(csr, NodeId::new(far), &mask);
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

    /// The landmark vertices, in selection order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FtGreedy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{erdos_renyi, grid, random_geometric};
    use spanner_graph::{EdgeId, Graph, Weight};

    /// Spanners of a few generated families, one of them disconnected.
    fn spanners() -> Vec<FrozenCsr> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut two_parts = Graph::new(12);
        for (u, v, w) in [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 0, 4), (1, 3, 2)] {
            two_parts.add_edge_unchecked(NodeId::new(u), NodeId::new(v), Weight::new(w).unwrap());
        }
        for v in 5..11 {
            two_parts.add_edge_unchecked(
                NodeId::new(v),
                NodeId::new(v + 1),
                Weight::new(5).unwrap(),
            );
        }
        let parents = [
            grid(5, 6),
            erdos_renyi(40, 0.2, &mut rng),
            random_geometric(60, 0.3, &mut rng),
            two_parts,
        ];
        parents
            .iter()
            .map(|g| FtGreedy::new(g, 3).faults(1).run().freeze(g).csr().clone())
            .collect()
    }

    #[test]
    fn potential_is_zero_at_the_target_and_consistent_on_every_edge() {
        for csr in spanners() {
            let table = Landmarks::build(&csr);
            for t in 0..csr.node_count() {
                let h = table.potential_to(NodeId::new(t));
                assert_eq!(h.estimate(NodeId::new(t)), 0);
                for e in 0..csr.edge_count() {
                    let e = EdgeId::new(e);
                    let (u, v) = csr.edge_endpoints(e);
                    let w = csr.edge_weight(e).get();
                    assert!(h.estimate(u) <= w + h.estimate(v), "edge {e} toward {t}");
                    assert!(h.estimate(v) <= w + h.estimate(u), "edge {e} toward {t}");
                }
            }
        }
    }

    #[test]
    fn farthest_point_selection_reaches_every_component() {
        let csr = spanners().pop().unwrap();
        let table = Landmarks::build(&csr);
        assert_eq!(table.vertices().len(), LANDMARKS);
        // Three components: {0..3}, {4}, {5..11} — each holds a landmark,
        // so every vertex sees the sentinel in some column and a finite
        // distance in another.
        for comp in [&[0usize, 1, 2, 3][..], &[4], &[5, 6, 7, 8, 9, 10, 11]] {
            assert!(table.vertices().iter().any(|l| comp.contains(&l.index())));
        }
        for v in 0..csr.node_count() {
            let row = table.distances(NodeId::new(v));
            assert!(row.contains(&UNREACHABLE) && row.iter().any(|&d| d != UNREACHABLE));
        }
    }
}
