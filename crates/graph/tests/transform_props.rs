//! Property tests for transforms, serialization, and generators.

use proptest::prelude::*;
use spanner_graph::{io, transform, FaultMask, Graph, NodeId, Weight};

fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
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
                    if keep[i] < 5 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complement_partitions_the_pairs(g in arb_graph(10, 1)) {
        let c = transform::complement(&g);
        let n = g.node_count();
        prop_assert_eq!(g.edge_count() + c.edge_count(), n * (n - 1) / 2);
        for (_, e) in g.edges() {
            prop_assert!(c.contains_edge(e.u(), e.v()).is_none());
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
    fn relabel_by_rotation_preserves_degrees(g in arb_graph(8, 3), shift in 0usize..8) {
        let n = g.node_count();
        let perm: Vec<NodeId> = (0..n).map(|i| NodeId::new((i + shift) % n)).collect();
        let r = transform::relabel(&g, &perm);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), r.degree(perm[v.index()]));
        }
        prop_assert_eq!(r.edge_count(), g.edge_count());
    }

    #[test]
    fn compact_preserves_surviving_structure(
        g in arb_graph(9, 3),
        faults in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        let mut mask = FaultMask::for_graph(&g);
        for f in &faults {
            mask.fault_vertex(NodeId::new(*f as usize % g.node_count()));
        }
        let (c, kept) = transform::compact(&g, &mask);
        prop_assert_eq!(c.node_count(), kept.len());
        // Edge count: edges with both endpoints alive.
        let expected = g
            .edges()
            .filter(|(_, e)| {
                !mask.is_vertex_faulted(e.u()) && !mask.is_vertex_faulted(e.v())
            })
            .count();
        prop_assert_eq!(c.edge_count(), expected);
        // Degrees map over.
        for (new_id, old_id) in kept.iter().enumerate() {
            let alive_degree = g
                .neighbors(*old_id)
                .filter(|(to, eid)| mask.allows(*to, *eid))
                .count();
            prop_assert_eq!(c.degree(NodeId::new(new_id)), alive_degree);
        }
    }

    #[test]
    fn disjoint_union_is_structure_sum(a in arb_graph(6, 3), b in arb_graph(6, 3)) {
        let u = transform::disjoint_union(&a, &b);
        prop_assert_eq!(u.node_count(), a.node_count() + b.node_count());
        prop_assert_eq!(u.edge_count(), a.edge_count() + b.edge_count());
        let mask = FaultMask::for_graph(&u);
        let (_, components) = spanner_graph::bfs::connected_components(&u, &mask);
        let mask_a = FaultMask::for_graph(&a);
        let (_, ca) = spanner_graph::bfs::connected_components(&a, &mask_a);
        let mask_b = FaultMask::for_graph(&b);
        let (_, cb) = spanner_graph::bfs::connected_components(&b, &mask_b);
        prop_assert_eq!(components, ca + cb);
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
        // Simple graph invariants hold (no duplicate edges) by adjacency scan.
        for v in g.nodes() {
            let mut neighbors: Vec<NodeId> = g.neighbors(v).map(|(to, _)| to).collect();
            let len = neighbors.len();
            neighbors.sort();
            neighbors.dedup();
            prop_assert_eq!(neighbors.len(), len, "duplicate edge at {}", v);
        }
    }
}
