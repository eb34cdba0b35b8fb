//! Disjoint short-path packing: a sound pruning bound for fault search.
//!
//! If `H ∖ F₀` contains `c` pairwise disjoint `u→v` paths of weight at most
//! `bound` (internally vertex-disjoint in the vertex model, edge-disjoint in
//! the edge model), then any fault set blocking all of them needs at least
//! `c` faults beyond `F₀`: a single vertex fault can only hit one path's
//! interior, and a single edge fault only one path's edges. The converse is
//! *not* true (length-bounded Menger fails), so the packing count is a
//! lower bound for pruning, never a decision procedure.
//!
//! The probe packs greedily: each bounded shortest path found is faulted
//! out of a working mask before the next query. A caller that has just
//! found the first of those paths itself — a branching search node, whose
//! own Dijkstra ran under the same mask and bound — passes it as the
//! probe's *seed*, and the probe starts packing from it instead of
//! repeating that Dijkstra.

use crate::FaultModel;
use spanner_graph::{DijkstraEngine, Dist, FaultMask, Graph, GraphView, NodeId, PathScratch};

/// The outcome of a packing probe: how many disjoint paths were packed,
/// how many bounded Dijkstras that actually took, and the weight of the
/// heaviest packed path.
///
/// The query count is exact (one per loop iteration, including the final
/// miss; a seed path costs none), so
/// [`crate::OracleStats::shortest_path_queries`] charged from it reflects
/// real work — the pre-PR-2 accounting over-charged a flat `packed + 1`
/// even when the probe stopped early at its cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackingProbe {
    /// Number of pairwise disjoint short paths found (at most the cap).
    pub packed: usize,
    /// Number of bounded shortest-path queries the probe issued.
    pub queries: u64,
    /// Weight of the heaviest path actually packed ([`Dist::ZERO`] when
    /// none was). An unbounded probe whose `longest` fits a tighter bound
    /// has packed its paths under that bound too.
    pub longest: Dist,
}

/// Reusable buffers for [`disjoint_path_packing_counted`]: the working
/// fault mask (a copy of the caller's mask that the probe extends) and the
/// path extraction buffer. Owned by long-lived oracles so the probe
/// allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct PackingScratch {
    mask: FaultMask,
    path: PathScratch,
}

impl PackingScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        PackingScratch::default()
    }
}

/// Like [`disjoint_path_packing`], but generic over the graph layout,
/// allocation-free via `scratch`, and reporting its true query count.
///
/// `seed`, when given, must be the path the probe's first query would
/// find: the bounded shortest `u→v` path in `view ∖ mask` that a search
/// node has just extracted with the same engine, mask and bound. The
/// probe packs it without re-running that Dijkstra, so the packed count
/// is the unseeded one and the probe issues one query fewer.
#[allow(clippy::too_many_arguments)]
pub fn disjoint_path_packing_counted<V: GraphView>(
    view: &V,
    engine: &mut DijkstraEngine,
    mask: &FaultMask,
    u: NodeId,
    v: NodeId,
    bound: Dist,
    model: FaultModel,
    cap: usize,
    mut seed: Option<&PathScratch>,
    scratch: &mut PackingScratch,
) -> PackingProbe {
    let mut probe = PackingProbe {
        packed: 0,
        queries: 0,
        longest: Dist::ZERO,
    };
    if cap == 0 {
        return probe;
    }
    scratch.mask.copy_from(mask);
    loop {
        let path = match seed.take() {
            Some(path) => path,
            None => {
                probe.queries += 1;
                if !engine.shortest_path_bounded_into(
                    view,
                    u,
                    v,
                    bound,
                    &scratch.mask,
                    &mut scratch.path,
                ) {
                    break;
                }
                &scratch.path
            }
        };
        probe.packed += 1;
        probe.longest = probe.longest.max(path.dist());
        if probe.packed >= cap {
            break;
        }
        match model {
            FaultModel::Vertex => {
                let interior = path.interior_nodes();
                if interior.is_empty() {
                    // Direct edge: no vertex fault can ever block it.
                    probe.packed = cap;
                    return probe;
                }
                for n in interior {
                    scratch.mask.fault_vertex(*n);
                }
            }
            FaultModel::Edge => {
                for e in path.edges() {
                    scratch.mask.fault_edge(*e);
                }
            }
        }
    }
    probe
}

/// Greedily packs pairwise disjoint `u→v` paths of weight at most `bound`
/// in `graph ∖ mask`, stopping at `cap`.
///
/// Returns the number of paths packed (at most `cap`). In the vertex model,
/// a direct `u-v` edge of weight ≤ `bound` cannot be blocked by vertex
/// faults at all, so it forces the return value to `cap` immediately.
///
/// # Examples
///
/// ```
/// use spanner_faults::{packing, FaultModel};
/// use spanner_graph::{DijkstraEngine, Dist, FaultMask, Graph, NodeId};
///
/// // Three disjoint 2-hop routes from 0 to 4.
/// let g = Graph::from_edges(5, [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)])?;
/// let mut engine = DijkstraEngine::new();
/// let mask = FaultMask::for_graph(&g);
/// let c = packing::disjoint_path_packing(
///     &g, &mut engine, &mask,
///     NodeId::new(0), NodeId::new(4),
///     Dist::finite(2), FaultModel::Vertex, 10,
/// );
/// assert_eq!(c, 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn disjoint_path_packing(
    graph: &Graph,
    engine: &mut DijkstraEngine,
    mask: &FaultMask,
    u: NodeId,
    v: NodeId,
    bound: Dist,
    model: FaultModel,
    cap: usize,
) -> usize {
    let mut scratch = PackingScratch::new();
    disjoint_path_packing_counted(
        graph,
        engine,
        mask,
        u,
        v,
        bound,
        model,
        cap,
        None,
        &mut scratch,
    )
    .packed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn theta(routes: usize, hops: usize) -> Graph {
        // `routes` internally disjoint u→v paths of `hops` edges each.
        let mut g = Graph::new(2 + routes * (hops - 1));
        let u = NodeId::new(0);
        let v = NodeId::new(1);
        for r in 0..routes {
            let mut prev = u;
            for h in 0..hops - 1 {
                let mid = NodeId::new(2 + r * (hops - 1) + h);
                g.add_edge(prev, mid, spanner_graph::Weight::UNIT);
                prev = mid;
            }
            g.add_edge(prev, v, spanner_graph::Weight::UNIT);
        }
        g
    }

    #[test]
    fn counts_disjoint_routes() {
        for routes in 1..5 {
            let g = theta(routes, 3);
            let mut engine = DijkstraEngine::new();
            let mask = FaultMask::for_graph(&g);
            let c = disjoint_path_packing(
                &g,
                &mut engine,
                &mask,
                NodeId::new(0),
                NodeId::new(1),
                Dist::finite(3),
                FaultModel::Vertex,
                10,
            );
            assert_eq!(c, routes);
        }
    }

    #[test]
    fn bound_excludes_long_routes() {
        let g = theta(3, 4); // all routes have 4 hops
        let mut engine = DijkstraEngine::new();
        let mask = FaultMask::for_graph(&g);
        let c = disjoint_path_packing(
            &g,
            &mut engine,
            &mask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(3),
            FaultModel::Vertex,
            10,
        );
        assert_eq!(c, 0);
    }

    #[test]
    fn cap_truncates() {
        let g = theta(4, 3);
        let mut engine = DijkstraEngine::new();
        let mask = FaultMask::for_graph(&g);
        let c = disjoint_path_packing(
            &g,
            &mut engine,
            &mask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(3),
            FaultModel::Vertex,
            2,
        );
        assert_eq!(c, 2);
    }

    #[test]
    fn direct_edge_saturates_vertex_model() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut engine = DijkstraEngine::new();
        let mask = FaultMask::for_graph(&g);
        let c = disjoint_path_packing(
            &g,
            &mut engine,
            &mask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(1),
            FaultModel::Vertex,
            7,
        );
        assert_eq!(c, 7, "direct edge is unblockable, must saturate the cap");
        // In the edge model the same edge is one blockable path.
        let c = disjoint_path_packing(
            &g,
            &mut engine,
            &mask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(1),
            FaultModel::Edge,
            7,
        );
        assert_eq!(c, 1);
    }

    #[test]
    fn edge_model_counts_edge_disjoint() {
        // Two routes sharing a middle vertex but not edges:
        // 0-2-1 and 0-3-1 share nothing; plus 0-4, 4-1.
        let g = Graph::from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]).unwrap();
        let mut engine = DijkstraEngine::new();
        let mask = FaultMask::for_graph(&g);
        let c = disjoint_path_packing(
            &g,
            &mut engine,
            &mask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(2),
            FaultModel::Edge,
            10,
        );
        assert_eq!(c, 3);
    }

    #[test]
    fn counted_probe_reports_true_query_count() {
        // 3 disjoint routes, cap 10: probe packs 3 then misses once — the
        // true cost is 4 queries (the flat pre-fix accounting said 3 + 1
        // here, but over-charged whenever the cap truncated the loop).
        let g = theta(3, 3);
        let mut engine = DijkstraEngine::new();
        let mask = FaultMask::for_graph(&g);
        let mut scratch = PackingScratch::new();
        let probe = disjoint_path_packing_counted(
            &g,
            &mut engine,
            &mask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(3),
            FaultModel::Vertex,
            10,
            None,
            &mut scratch,
        );
        assert_eq!(
            probe,
            PackingProbe {
                packed: 3,
                queries: 4,
                longest: Dist::finite(3),
            }
        );
        // Cap truncation: stops right at the cap, no trailing miss query.
        let probe = disjoint_path_packing_counted(
            &g,
            &mut engine,
            &mask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(3),
            FaultModel::Vertex,
            2,
            None,
            &mut scratch,
        );
        assert_eq!(
            probe,
            PackingProbe {
                packed: 2,
                queries: 2,
                longest: Dist::finite(3),
            }
        );
        // Direct-edge saturation costs exactly one query.
        let direct = Graph::from_edges(2, [(0, 1)]).unwrap();
        let dmask = FaultMask::for_graph(&direct);
        let probe = disjoint_path_packing_counted(
            &direct,
            &mut engine,
            &dmask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(1),
            FaultModel::Vertex,
            7,
            None,
            &mut scratch,
        );
        assert_eq!(
            probe,
            PackingProbe {
                packed: 7,
                queries: 1,
                longest: Dist::finite(1),
            }
        );
        // Seeded with the path the first query would find, each probe
        // packs the same paths for one query fewer.
        for (graph, bound, cap, packed, queries) in
            [(&g, 3, 10, 3, 3), (&g, 3, 2, 2, 1), (&direct, 1, 7, 7, 0)]
        {
            let base = FaultMask::for_graph(graph);
            let (u, v, bound) = (NodeId::new(0), NodeId::new(1), Dist::finite(bound));
            let mut seed = PathScratch::new();
            assert!(engine.shortest_path_bounded_into(graph, u, v, bound, &base, &mut seed));
            let probe = disjoint_path_packing_counted(
                graph,
                &mut engine,
                &base,
                u,
                v,
                bound,
                FaultModel::Vertex,
                cap,
                Some(&seed),
                &mut scratch,
            );
            assert_eq!(
                probe,
                PackingProbe {
                    packed,
                    queries,
                    longest: bound,
                }
            );
        }
    }

    #[test]
    fn seeded_probe_matches_unseeded_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use spanner_graph::generators::{erdos_renyi, with_uniform_weights};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut engine = DijkstraEngine::new();
        let mut scratch = PackingScratch::new();
        let mut seed = PathScratch::new();
        let mut seeded_runs = 0;
        for _ in 0..60 {
            let n = rng.gen_range(6..16);
            let g = with_uniform_weights(&erdos_renyi(n, 0.45, &mut rng), 1, 5, &mut rng);
            let (u, v) = (NodeId::new(0), NodeId::new(n - 1));
            let mut mask = FaultMask::for_graph(&g);
            for _ in 0..rng.gen_range(0..3) {
                let x = rng.gen_range(1..n - 1);
                mask.fault_vertex(NodeId::new(x));
            }
            if g.edge_count() > 0 {
                mask.fault_edge(spanner_graph::EdgeId::new(rng.gen_range(0..g.edge_count())));
            }
            let bound = Dist::finite(rng.gen_range(2..12));
            for model in [FaultModel::Vertex, FaultModel::Edge] {
                for cap in 1..=4 {
                    if !engine.shortest_path_bounded_into(&g, u, v, bound, &mask, &mut seed) {
                        continue;
                    }
                    let seeded = disjoint_path_packing_counted(
                        &g,
                        &mut engine,
                        &mask,
                        u,
                        v,
                        bound,
                        model,
                        cap,
                        Some(&seed),
                        &mut scratch,
                    );
                    let plain = disjoint_path_packing_counted(
                        &g,
                        &mut engine,
                        &mask,
                        u,
                        v,
                        bound,
                        model,
                        cap,
                        None,
                        &mut scratch,
                    );
                    let label = format!("n={n} model={model:?} cap={cap}");
                    assert_eq!(seeded.packed, plain.packed, "{label}");
                    assert_eq!(seeded.longest, plain.longest, "{label}");
                    assert_eq!(seeded.queries + 1, plain.queries, "{label}");
                    seeded_runs += 1;
                }
            }
        }
        assert!(seeded_runs > 100, "too few instances had a seed path");
    }

    #[test]
    fn respects_existing_mask() {
        let g = theta(3, 3);
        let mut engine = DijkstraEngine::new();
        let mut mask = FaultMask::for_graph(&g);
        // Kill one route's interior vertex.
        mask.fault_vertex(NodeId::new(2));
        let c = disjoint_path_packing(
            &g,
            &mut engine,
            &mask,
            NodeId::new(0),
            NodeId::new(1),
            Dist::finite(3),
            FaultModel::Vertex,
            10,
        );
        assert_eq!(c, 2);
    }
}
