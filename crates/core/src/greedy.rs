//! The classic greedy spanner (Althöfer et al. 1993).
//!
//! Scan edges in increasing weight order; keep `(u, v)` iff the partial
//! spanner's distance `dist_H(u, v)` currently exceeds `k · w(u, v)`.
//! Correctness is immediate, and the output has girth > k + 1 (two
//! kept edges closing a short cycle would contradict the keep test), which
//! is exactly why its size is bounded by the extremal function `b(n, k+1)`.
//! It is also *existentially optimal* (Filtser–Solomon 2016).
//!
//! The FT greedy algorithm of the paper generalizes this scan; the `f = 0`
//! case of [`crate::FtGreedy`] reproduces it exactly (tested).

use crate::Spanner;
use spanner_graph::{DijkstraEngine, FaultMask, Graph};

/// Builds a greedy `stretch`-spanner of `graph`.
///
/// # Panics
///
/// Panics if `stretch == 0`.
///
/// # Examples
///
/// ```
/// use spanner_core::greedy_spanner;
/// use spanner_graph::generators::complete;
///
/// // A 3-spanner of K16 has girth > 4, so at most ~n^{3/2} edges.
/// let g = complete(16);
/// let s = greedy_spanner(&g, 3);
/// assert!(s.edge_count() < g.edge_count() / 2);
/// ```
pub fn greedy_spanner(graph: &Graph, stretch: u64) -> Spanner {
    greedy_spanner_masked(graph, stretch, &FaultMask::for_graph(graph))
}

/// Greedy spanner of `graph ∖ mask` (vertices/edges under the mask are
/// ignored entirely). Used by the union-of-spanners EFT baseline, which
/// repeatedly re-spans the graph minus previously chosen edges.
///
/// # Panics
///
/// Panics if `stretch == 0`.
pub fn greedy_spanner_masked(graph: &Graph, stretch: u64, mask: &FaultMask) -> Spanner {
    assert!(stretch >= 1, "stretch must be positive");
    let mut spanner = Spanner::empty(graph, stretch);
    let mut engine = DijkstraEngine::new();
    let spanner_mask = FaultMask::with_capacity(graph.node_count(), 0);
    for parent_id in graph.edges_by_weight() {
        if mask.is_edge_faulted(parent_id) {
            continue;
        }
        let e = graph.edge(parent_id);
        if mask.is_vertex_faulted(e.u()) || mask.is_vertex_faulted(e.v()) {
            continue;
        }
        let bound = e.weight().stretched(stretch);
        let within = engine
            .dist_bounded(spanner.graph(), e.u(), e.v(), bound, &spanner_mask)
            .is_some();
        if !within {
            spanner.push_edge(parent_id, e.u(), e.v(), e.weight());
        }
    }
    spanner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_spanner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{complete, cycle, with_uniform_weights};
    use spanner_graph::{girth, EdgeId, NodeId};

    #[test]
    fn stretch_one_keeps_shortest_path_structure() {
        // Stretch 1 on a cycle keeps all edges except across equal paths.
        let g = cycle(5);
        let s = greedy_spanner(&g, 1);
        // C5: removing any edge doubles some distance, all must stay.
        assert_eq!(s.edge_count(), 5);
    }

    #[test]
    fn tree_inputs_are_kept_verbatim() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)]).unwrap();
        let s = greedy_spanner(&g, 3);
        assert_eq!(s.edge_count(), 4);
    }

    #[test]
    fn output_is_a_valid_spanner() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = with_uniform_weights(&complete(20), 1, 50, &mut rng);
        for stretch in [1u64, 2, 3, 5] {
            let s = greedy_spanner(&g, stretch);
            let report = verify_spanner(&g, &s);
            assert!(report.satisfied, "stretch {stretch}: {report:?}");
        }
    }

    #[test]
    fn output_girth_exceeds_stretch_plus_one_unweighted() {
        let g = complete(24);
        for stretch in [2u64, 3, 5] {
            let s = greedy_spanner(&g, stretch);
            let mask = FaultMask::for_graph(s.graph());
            assert!(
                girth::has_girth_greater_than(s.graph(), &mask, (stretch + 1) as usize),
                "stretch {stretch} girth {:?}",
                girth::girth(s.graph(), &mask)
            );
        }
    }

    #[test]
    fn spanner_of_spanner_is_idempotent() {
        let g = complete(15);
        let s1 = greedy_spanner(&g, 3);
        let s2 = greedy_spanner(s1.graph(), 3);
        assert_eq!(s1.edge_count(), s2.edge_count());
    }

    #[test]
    fn masked_variant_ignores_masked_edges() {
        let g = cycle(6);
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_edge(EdgeId::new(0));
        let s = greedy_spanner_masked(&g, 3, &mask);
        assert!(!s.contains_parent_edge(EdgeId::new(0)));
        assert_eq!(s.edge_count(), 5);
    }

    #[test]
    fn masked_variant_ignores_masked_vertices() {
        let g = complete(6);
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(0));
        let s = greedy_spanner_masked(&g, 3, &mask);
        assert_eq!(s.graph().degree(NodeId::new(0)), 0);
    }

    #[test]
    fn dense_graph_sparsifies() {
        let g = complete(40);
        let s = greedy_spanner(&g, 5);
        // Girth > 6 graphs have O(n^{4/3}) edges; K40 has 780.
        assert!(s.edge_count() < 200, "got {}", s.edge_count());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stretch_rejected() {
        let g = cycle(3);
        let _ = greedy_spanner(&g, 0);
    }
}
