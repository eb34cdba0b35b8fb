//! Property-based tests for the graph substrate.
//!
//! The central comparisons: Dijkstra against a Floyd–Warshall reference
//! (including under fault masks), girth against brute-force short-cycle
//! enumeration, the minimum spanning forest against the cycle property,
//! the edge-list format against itself, and the container types against
//! std models.

use proptest::prelude::*;
use spanner_graph::{
    bfs, cycles, dijkstra, girth, io, mst, subgraph, BitSet, Dist, EdgeId, FaultMask, Graph,
    NodeId, Weight,
};

/// A random simple weighted graph on up to `max_n` vertices, as an edge list.
fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let m = pairs.len();
        (
            proptest::collection::vec(any::<bool>(), m),
            proptest::collection::vec(1..=max_w, m),
        )
            .prop_map(move |(keep, ws)| {
                let mut g = Graph::new(n);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    if keep[i] {
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

/// Floyd–Warshall all-pairs distances over `graph ∖ mask`.
fn floyd_warshall(graph: &Graph, mask: &FaultMask) -> Vec<Vec<Dist>> {
    let n = graph.node_count();
    let mut d = vec![vec![Dist::INFINITE; n]; n];
    for (v, row) in d.iter_mut().enumerate() {
        if !mask.is_vertex_faulted(NodeId::new(v)) {
            row[v] = Dist::ZERO;
        }
    }
    for (id, e) in graph.edges() {
        if mask.is_edge_faulted(id)
            || mask.is_vertex_faulted(e.u())
            || mask.is_vertex_faulted(e.v())
        {
            continue;
        }
        let (u, v) = (e.u().index(), e.v().index());
        let w = e.weight().to_dist();
        if w < d[u][v] {
            d[u][v] = w;
            d[v][u] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if !d[i][k].is_finite() {
                continue;
            }
            for j in 0..n {
                let through = d[i][k] + d[k][j];
                if through < d[i][j] {
                    d[i][j] = through;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_floyd_warshall(g in arb_graph(9, 8)) {
        let mask = FaultMask::for_graph(&g);
        let reference = floyd_warshall(&g, &mask);
        let mut engine = dijkstra::DijkstraEngine::new();
        for s in g.nodes() {
            let dist = engine.sssp(&g, s, &mask);
            for t in g.nodes() {
                prop_assert_eq!(dist[t.index()], reference[s.index()][t.index()],
                    "dist({}, {})", s, t);
            }
        }
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_under_faults(
        g in arb_graph(8, 5),
        fault_choices in proptest::collection::vec(any::<u32>(), 3),
    ) {
        let mut mask = FaultMask::for_graph(&g);
        // Fault up to 3 arbitrary vertices/edges chosen by the raw values.
        for (i, c) in fault_choices.iter().enumerate() {
            if i % 2 == 0 && g.node_count() > 0 {
                mask.fault_vertex(NodeId::new((*c as usize) % g.node_count()));
            } else if g.edge_count() > 0 {
                mask.fault_edge(EdgeId::new((*c as usize) % g.edge_count()));
            }
        }
        let reference = floyd_warshall(&g, &mask);
        let mut engine = dijkstra::DijkstraEngine::new();
        for s in g.nodes() {
            if mask.is_vertex_faulted(s) { continue; }
            let dist = engine.sssp(&g, s, &mask);
            for t in g.nodes() {
                if mask.is_vertex_faulted(t) { continue; }
                prop_assert_eq!(dist[t.index()], reference[s.index()][t.index()]);
            }
        }
    }

    #[test]
    fn bounded_dijkstra_agrees_with_unbounded(g in arb_graph(8, 6), bound in 0u64..30) {
        let mask = FaultMask::for_graph(&g);
        let mut engine = dijkstra::DijkstraEngine::new();
        let bound = Dist::finite(bound);
        for s in g.nodes() {
            for t in g.nodes() {
                let full = dijkstra::dist(&g, s, t, &mask);
                let bounded = engine.dist_bounded(&g, s, t, bound, &mask);
                if full.is_finite() && full <= bound {
                    prop_assert_eq!(bounded, Some(full));
                } else {
                    prop_assert_eq!(bounded, None);
                }
            }
        }
    }

    #[test]
    fn shortest_path_is_consistent(g in arb_graph(8, 6)) {
        let mask = FaultMask::for_graph(&g);
        let mut engine = dijkstra::DijkstraEngine::new();
        for s in g.nodes() {
            for t in g.nodes() {
                if let Some(p) = engine.shortest_path_bounded(&g, s, t, Dist::INFINITE, &mask) {
                    // Endpoints correct.
                    prop_assert_eq!(*p.nodes.first().unwrap(), s);
                    prop_assert_eq!(*p.nodes.last().unwrap(), t);
                    // Edge weights sum to the distance.
                    let total: Dist = p.edges.iter().map(|e| g.weight(*e).to_dist()).sum();
                    prop_assert_eq!(total, p.dist);
                    // Consecutive nodes joined by the listed edges.
                    for i in 0..p.edges.len() {
                        let (a, b) = g.endpoints(p.edges[i]);
                        let (x, y) = (p.nodes[i], p.nodes[i + 1]);
                        prop_assert!((a, b) == (x, y) || (a, b) == (y, x));
                    }
                    // No repeated vertices (paths are simple).
                    let mut sorted = p.nodes.clone();
                    sorted.sort();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), p.nodes.len());
                }
            }
        }
    }

    #[test]
    fn girth_matches_cycle_enumeration(g in arb_graph(8, 1)) {
        let mask = FaultMask::for_graph(&g);
        let by_girth = girth::girth(&g, &mask);
        let all = cycles::enumerate_short_cycles(&g, &mask, g.node_count(), 1_000_000);
        prop_assert!(!all.truncated);
        let by_enum = all.cycles.iter().map(|c| c.len()).min();
        prop_assert_eq!(by_girth, by_enum);
    }

    #[test]
    fn bfs_hops_equal_dijkstra_on_unit_weights(g in arb_graph(9, 1)) {
        let mask = FaultMask::for_graph(&g);
        let mut engine = dijkstra::DijkstraEngine::new();
        for s in g.nodes() {
            let hops = bfs::hop_distances(&g, s, &mask);
            let dist = engine.sssp(&g, s, &mask);
            for t in g.nodes() {
                match dist[t.index()].value() {
                    Some(d) => prop_assert_eq!(hops[t.index()] as u64, d),
                    None => prop_assert_eq!(hops[t.index()], u32::MAX),
                }
            }
        }
    }

    #[test]
    fn induced_subgraph_edges_are_exactly_inherited(
        g in arb_graph(9, 5),
        selector in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let kept: Vec<NodeId> = g
            .nodes()
            .filter(|v| selector.get(v.index()).copied().unwrap_or(false))
            .collect();
        let ind = subgraph::induced(&g, kept.iter().copied());
        // Every subgraph edge maps to a parent edge with the same weight and
        // mapped endpoints.
        for (eid, e) in ind.graph.edges() {
            let parent_edge = g.edge(ind.parent_edge(eid));
            prop_assert_eq!(parent_edge.weight(), e.weight());
            let pu = ind.parent_node(e.u());
            let pv = ind.parent_node(e.v());
            prop_assert!(
                (parent_edge.u(), parent_edge.v()) == (pu, pv)
                    || (parent_edge.u(), parent_edge.v()) == (pv, pu)
            );
        }
        // Counting: parent edges with both endpoints kept == subgraph edges.
        let expected = g
            .edges()
            .filter(|(_, e)| {
                ind.child_node(e.u()).is_some() && ind.child_node(e.v()).is_some()
            })
            .count();
        prop_assert_eq!(ind.graph.edge_count(), expected);
    }

    #[test]
    fn bitset_behaves_like_hashset(ops in proptest::collection::vec((0usize..128, any::<bool>()), 0..200)) {
        let mut bs = BitSet::new(128);
        let mut hs = std::collections::HashSet::new();
        for (v, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(v), hs.insert(v));
            } else {
                prop_assert_eq!(bs.remove(v), hs.remove(&v));
            }
        }
        prop_assert_eq!(bs.len(), hs.len());
        let mut from_hs: Vec<usize> = hs.into_iter().collect();
        from_hs.sort();
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), from_hs);
    }

    #[test]
    fn components_partition_vertices(g in arb_graph(10, 3)) {
        let mask = FaultMask::for_graph(&g);
        let (comp, count) = bfs::connected_components(&g, &mask);
        // Every vertex has a component below count.
        for v in g.nodes() {
            prop_assert!(comp[v.index()] < count);
        }
        // Edge endpoints share components.
        for (_, e) in g.edges() {
            prop_assert_eq!(comp[e.u().index()], comp[e.v().index()]);
        }
    }

    #[test]
    fn edge_list_round_trips_exactly(g in arb_graph(9, 9)) {
        let text = io::to_edge_list(&g);
        let back = io::from_edge_list(&text).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for (id, e) in g.edges() {
            let (u, v) = back.endpoints(id);
            prop_assert_eq!((u, v), (e.u(), e.v()));
            prop_assert_eq!(back.weight(id), e.weight());
        }
    }

    #[test]
    fn mst_is_minimum_over_connected_subgraphs(
        edges in proptest::collection::vec((0usize..5, 0usize..5, 1u64..8), 4..9),
    ) {
        // Build a small weighted graph, skipping loops/duplicates.
        let mut g = Graph::new(5);
        for (u, v, w) in edges {
            if u != v && g.contains_edge(NodeId::new(u), NodeId::new(v)).is_none() {
                g.add_edge_unchecked(NodeId::new(u), NodeId::new(v), Weight::new(w).unwrap());
            }
        }
        let mask = FaultMask::for_graph(&g);
        let forest = mst::minimum_spanning_forest(&g, &mask);
        // The cycle property, equivalent to minimality: every non-forest
        // edge closes a forest cycle on which it is a maximum-weight edge.
        prop_assume!(g.edge_count() >= 1);
        let in_forest: std::collections::HashSet<_> = forest.edges.iter().copied().collect();
        let sub = subgraph::edge_subgraph(&g, forest.edges.iter().copied());
        for e in g.edge_ids().filter(|e| !in_forest.contains(e)) {
            let (u, v) = g.endpoints(e);
            let path = dijkstra::dist(&sub.graph, u, v, &FaultMask::for_graph(&sub.graph));
            prop_assert!(path.is_finite(), "forest must connect endpoints of skipped edges");
            let heavy_ok = forest_path_max_weight(&sub.graph, u, v) <= g.weight(e).get();
            prop_assert!(heavy_ok, "cycle property violated at {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn watts_strogatz_keeps_edge_budget(
        n in 8usize..40,
        half_k in 1usize..3,
        beta in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let k = 2 * half_k;
        prop_assume!(k < n);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = spanner_graph::generators::watts_strogatz(n, k, beta, &mut rng);
        prop_assert_eq!(g.edge_count(), n * k / 2);
        // No duplicate edges.
        for v in g.nodes() {
            let mut neighbors: Vec<NodeId> = g.neighbors(v).map(|(to, _)| to).collect();
            let len = neighbors.len();
            neighbors.sort();
            neighbors.dedup();
            prop_assert_eq!(neighbors.len(), len, "duplicate edge at {}", v);
        }
    }
}

/// Max edge weight on the unique forest path between `u` and `v`.
fn forest_path_max_weight(forest: &Graph, u: NodeId, v: NodeId) -> u64 {
    fn dfs(
        g: &Graph,
        cur: NodeId,
        target: NodeId,
        prev: Option<EdgeId>,
        max_w: u64,
    ) -> Option<u64> {
        if cur == target {
            return Some(max_w);
        }
        for (to, eid) in g.neighbors(cur) {
            if Some(eid) == prev {
                continue;
            }
            if let Some(found) = dfs(g, to, target, Some(eid), max_w.max(g.weight(eid).get())) {
                return Some(found);
            }
        }
        None
    }
    dfs(forest, u, v, None, 0).expect("connected in forest")
}
