//! Cross-validation: the exact fault oracles must agree everywhere.
//!
//! `ExhaustiveOracle` is correct by inspection; `BranchingOracle` prunes
//! and memoizes a bounded search tree. Agreement across random graphs,
//! both fault models, random bounds and budgets is the core correctness
//! evidence for the FT-greedy implementation built on top of it.

use proptest::prelude::*;
use spanner_faults::{
    BranchingConfig, BranchingOracle, ExhaustiveOracle, FaultModel, FaultOracle, OracleQuery,
};
use spanner_graph::{dijkstra, Dist, Graph, NodeId, Weight};

fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (3..=max_n).prop_flat_map(move |n| {
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
                    // ~60% keep rate.
                    if keep[i] < 6 {
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

/// Checks that a returned fault set is a valid witness for the query.
fn assert_valid_witness(g: &Graph, q: &OracleQuery, f: &spanner_faults::FaultSet) {
    assert!(f.len() <= q.budget, "witness exceeds budget");
    assert_eq!(f.model(), q.model);
    for n in f.vertex_faults() {
        assert_ne!(*n, q.u, "witness faults an endpoint");
        assert_ne!(*n, q.v, "witness faults an endpoint");
    }
    let mask = f.to_mask(g.node_count(), g.edge_count());
    let d = dijkstra::dist(g, q.u, q.v, &mask);
    assert!(
        d > q.bound,
        "witness does not block: dist {d} <= bound {}",
        q.bound
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oracles_agree_vertex_model(
        g in arb_graph(7, 3),
        budget in 0usize..3,
        bound in 1u64..8,
    ) {
        let q = OracleQuery {
            u: NodeId::new(0),
            v: NodeId::new(1),
            bound: Dist::finite(bound),
            budget,
            model: FaultModel::Vertex,
        };
        let mut exhaustive = ExhaustiveOracle::new();
        let mut branching = BranchingOracle::new();
        let a = exhaustive.find_blocking_faults(&g, q);
        let b = branching.find_blocking_faults(&g, q);
        prop_assert_eq!(a.is_some(), b.is_some(), "exhaustive vs branching");
        for witness in [a, b].into_iter().flatten() {
            assert_valid_witness(&g, &q, &witness);
        }
    }

    #[test]
    fn oracles_agree_edge_model(
        g in arb_graph(6, 3),
        budget in 0usize..3,
        bound in 1u64..8,
    ) {
        let q = OracleQuery {
            u: NodeId::new(0),
            v: NodeId::new(1),
            bound: Dist::finite(bound),
            budget,
            model: FaultModel::Edge,
        };
        let mut exhaustive = ExhaustiveOracle::new();
        let mut branching = BranchingOracle::new();
        let a = exhaustive.find_blocking_faults(&g, q);
        let b = branching.find_blocking_faults(&g, q);
        prop_assert_eq!(a.is_some(), b.is_some(), "exhaustive vs branching");
        for witness in [a, b].into_iter().flatten() {
            assert_valid_witness(&g, &q, &witness);
        }
    }

    #[test]
    fn branching_ablations_agree(
        g in arb_graph(7, 2),
        budget in 0usize..4,
        bound in 1u64..7,
    ) {
        let q = OracleQuery {
            u: NodeId::new(0),
            v: NodeId::new(2),
            bound: Dist::finite(bound),
            budget,
            model: FaultModel::Vertex,
        };
        let mut reference: Option<bool> = None;
        for use_packing in [false, true] {
            for use_memo in [false, true] {
                let mut oracle = BranchingOracle::with_config(BranchingConfig {
                    use_packing,
                    use_memo,
                });
                let found = oracle.find_blocking_faults(&g, q);
                if let Some(ref w) = found {
                    assert_valid_witness(&g, &q, w);
                }
                match reference {
                    None => reference = Some(found.is_some()),
                    Some(r) => prop_assert_eq!(
                        r,
                        found.is_some(),
                        "packing={} memo={}",
                        use_packing,
                        use_memo
                    ),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The polynomial heuristic may miss blocking sets, but it must never
    /// fabricate one: every witness blocks (checked by `assert_valid_witness`)
    /// and a `Some` answer implies the exact oracle also answers `Some`.
    #[test]
    fn heuristic_is_sound_but_maybe_incomplete(
        g in arb_graph(7, 3),
        budget in 0usize..3,
        bound in 1u64..8,
    ) {
        use spanner_faults::GreedyHeuristicOracle;
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            let q = OracleQuery {
                u: NodeId::new(0),
                v: NodeId::new(1),
                bound: Dist::finite(bound),
                budget,
                model,
            };
            let mut heuristic = GreedyHeuristicOracle::new();
            let mut exact = ExhaustiveOracle::new();
            let h = heuristic.find_blocking_faults(&g, q);
            if let Some(ref w) = h {
                assert_valid_witness(&g, &q, w);
                let e = exact.find_blocking_faults(&g, q);
                prop_assert!(e.is_some(), "heuristic found a witness the exact oracle denies");
            }
        }
    }

    /// Oracle work counters are monotone under growing budgets for the
    /// exact branching search (more budget, at least as much exploration
    /// on failure-heavy instances is NOT guaranteed per-case, but the
    /// returned answers must be monotone: once blockable, always blockable
    /// with more budget).
    #[test]
    fn blockability_is_monotone_in_budget(
        g in arb_graph(7, 3),
        bound in 1u64..8,
    ) {
        let mut prev: Option<bool> = None;
        for budget in 0..4usize {
            let q = OracleQuery {
                u: NodeId::new(0),
                v: NodeId::new(1),
                bound: Dist::finite(bound),
                budget,
                model: FaultModel::Vertex,
            };
            let found = BranchingOracle::new().find_blocking_faults(&g, q).is_some();
            if let Some(p) = prev {
                prop_assert!(!p || found, "blockable at budget {} but not {}", budget - 1, budget);
            }
            prev = Some(found);
        }
    }
}
