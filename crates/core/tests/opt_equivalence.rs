//! The optimized hot path must be invisible in the output.
//!
//! The FT-greedy oracle loop runs on per-construction reusable scratch, a
//! Zobrist-fingerprint memo and a persistent parallel worker pool. None
//! of that is allowed to change a single bit of the result: these property tests pin both
//! optimized paths (sequential [`OracleKind::Branching`] and pooled
//! [`OracleKind::Parallel`]) to the frozen pre-optimization
//! [`ReferenceBranchingOracle`] — identical kept parent edges *and*
//! identical per-edge witness fault sets — across random weighted graphs,
//! stretches, fault budgets and both fault models.
//!
//! The optimized paths also run every oracle search as A* under the
//! parent graph's landmark table. The engine's one tie rule is what keeps
//! that invisible too: the tie-heavy families below (unit weights, many
//! equal-length routes) pin the guided builds to an unguided
//! [`BranchingOracle`] and to the reference.

use proptest::prelude::*;
use spanner_core::{FtGreedy, FtSpanner, OracleKind};
use spanner_faults::reference::ReferenceBranchingOracle;
use spanner_faults::{BranchingOracle, FaultModel};
use spanner_graph::{Graph, NodeId, Weight};

fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (4..=max_n).prop_flat_map(move |n| {
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
                    if keep[i] < 7 {
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

fn assert_same_output(label: &str, reference: &FtSpanner, candidate: &FtSpanner) {
    assert_eq!(
        reference.spanner().parent_edge_ids(),
        candidate.spanner().parent_edge_ids(),
        "{label}: kept parent edges diverged"
    );
    assert_eq!(
        reference.witnesses(),
        candidate.witnesses(),
        "{label}: recorded witnesses diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn optimized_paths_match_reference(
        g in arb_graph(9, 4),
        f in 0usize..3,
        k in 1u64..3,
        edge_model in any::<bool>(),
    ) {
        let stretch = 2 * k - 1;
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let reference = {
            let mut oracle = ReferenceBranchingOracle::new();
            FtGreedy::new(&g, stretch)
                .faults(f)
                .model(model)
                .run_with_oracle(&mut oracle)
        };
        let sequential = FtGreedy::new(&g, stretch).faults(f).model(model).run();
        assert_same_output("sequential CSR path", &reference, &sequential);
        let pooled = FtGreedy::new(&g, stretch)
            .faults(f)
            .model(model)
            .oracle(OracleKind::Parallel(3))
            .run();
        assert_same_output("pooled parallel path", &reference, &pooled);
    }
}

#[test]
fn scratch_reuse_is_observable_in_run_stats() {
    // Across a whole construction the oracle mask grows only when the
    // spanner's bitset words do: rebuilds stay far below query count.
    let g = spanner_graph::generators::complete(16);
    let ft = FtGreedy::new(&g, 3).faults(2).run();
    let stats = ft.stats();
    assert!(stats.shortest_path_queries > 100, "workload too small");
    assert!(
        stats.scratch_rebuilds * 20 <= stats.shortest_path_queries,
        "scratch rebuilt too often: {} rebuilds / {} queries",
        stats.scratch_rebuilds,
        stats.shortest_path_queries
    );
}

/// Drop-dense instances: on weighted complete graphs almost every
/// candidate is dropped, so the pooled driver leaves its inline mode and
/// decides wide speculative windows. Kept edges *and* witnesses must
/// still match the reference greedy at every pool width, and
/// `speculative_rechecks` proves windows opened and were re-decided at
/// every width with helpers — and never at width 1, which has none to
/// share a window with and so never opens one. The last input is a
/// sparse geometric graph (n = 1000, mean degree ≈ 7), where the
/// spanner grows to thousands of edges between windows.
#[test]
fn wide_speculative_windows_match_reference() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{complete, random_geometric, with_uniform_weights};
    let mut rng = StdRng::seed_from_u64(0x5EC);
    let mut graphs: Vec<Graph> = [16usize, 18, 20, 22, 24]
        .iter()
        .map(|&n| with_uniform_weights(&complete(n), 1, 10, &mut rng))
        .collect();
    graphs.push(random_geometric(1000, 0.05, &mut rng));
    let mut rechecks = [0u64; 4];
    for (gi, g) in graphs.iter().enumerate() {
        for f in 0..3 {
            for model in [FaultModel::Vertex, FaultModel::Edge] {
                let reference = FtGreedy::new(g, 3)
                    .faults(f)
                    .model(model)
                    .run_with_oracle(&mut ReferenceBranchingOracle::new());
                for (ti, threads) in [1usize, 2, 3, 8].into_iter().enumerate() {
                    let pooled = FtGreedy::new(g, 3)
                        .faults(f)
                        .model(model)
                        .oracle(OracleKind::Parallel(threads))
                        .run();
                    let label = format!("graph {gi} f={f} {model:?} threads={threads}");
                    assert_same_output(&label, &reference, &pooled);
                    rechecks[ti] += pooled.stats().speculative_rechecks;
                }
            }
        }
    }
    assert_eq!(rechecks[0], 0, "width 1 opened a window: {rechecks:?}");
    assert!(
        rechecks[1..].iter().all(|&r| r > 0),
        "some pool width never re-decided a window verdict: {rechecks:?}"
    );
}

/// Internally disjoint unit-weight `0 → 1` routes, one per entry of
/// `hops` (the route's edge count), plus a unit chord between the first
/// interior vertices of consecutive routes: every pair of routes of equal
/// length ties, and the chords add more tied detours.
fn theta(hops: &[usize]) -> Graph {
    let mut g = Graph::new(2);
    let mut firsts = Vec::new();
    for &h in hops {
        let mut prev = NodeId::new(0);
        for i in 1..h {
            let mid = g.add_node();
            if i == 1 {
                firsts.push(mid);
            }
            g.add_edge(prev, mid, Weight::UNIT);
            prev = mid;
        }
        g.add_edge(prev, NodeId::new(1), Weight::UNIT);
    }
    for pair in firsts.windows(2) {
        g.add_edge(pair[0], pair[1], Weight::UNIT);
    }
    g
}

/// Every exact path agrees on graphs where nearly every shortest path
/// ties: the guided builds (sequential and pooled at 1, 2 and 4 workers)
/// must keep the same edges with the same witnesses as an unguided
/// branching oracle and as the reference. A search whose path depended on
/// the landmark potential would pick a different tied route here, and
/// with it a different witness.
#[test]
fn guided_builds_match_unguided_and_reference_on_tie_heavy_families() {
    use spanner_graph::generators::{complete, cycle, grid};
    let mut families: Vec<(String, Graph)> = vec![("grid(4,5)".into(), grid(4, 5))];
    families.extend((9..=12).map(|n| (format!("complete({n})"), complete(n))));
    families.push(("cycle(8)".into(), cycle(8)));
    for hops in [&[2, 2, 2, 2][..], &[3, 3, 3], &[2, 3, 3, 4, 4]] {
        families.push((format!("theta{hops:?}"), theta(hops)));
    }
    for (name, g) in &families {
        for f in 0..3 {
            for model in [FaultModel::Vertex, FaultModel::Edge] {
                let mut build = FtGreedy::new(g, 3);
                build.faults(f).model(model);
                let label = format!("{name} f={f} {model:?}");
                let unguided = build.run_with_oracle(&mut BranchingOracle::new());
                let reference = build.run_with_oracle(&mut ReferenceBranchingOracle::new());
                assert_same_output(&format!("{label} unguided"), &reference, &unguided);
                for kind in [
                    OracleKind::Branching,
                    OracleKind::Parallel(1),
                    OracleKind::Parallel(2),
                    OracleKind::Parallel(4),
                ] {
                    let guided = build.oracle(kind).run();
                    assert_same_output(&format!("{label} {kind:?}"), &unguided, &guided);
                }
            }
        }
    }
}

/// The settled-vertex counter shows what the landmark table saves: on a
/// dense geometric parent at f = 2 the guided build settles fewer
/// vertices than the unguided one, for the same output.
#[test]
fn guided_build_settles_fewer_vertices_with_identical_output() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::random_geometric;
    let g = random_geometric(120, 0.45, &mut StdRng::seed_from_u64(0xA17));
    assert!(
        g.edge_count() > 2000,
        "parent not dense: {} edges",
        g.edge_count()
    );
    let mut ft = FtGreedy::new(&g, 3);
    ft.faults(2);
    let unguided = ft.run_with_oracle(&mut BranchingOracle::new());
    let guided = ft.run();
    assert_same_output("guided vs unguided", &unguided, &guided);
    let (plain, led) = (unguided.stats(), guided.stats());
    assert_eq!(plain.nodes_explored, led.nodes_explored);
    assert_eq!(plain.shortest_path_queries, led.shortest_path_queries);
    assert!(
        led.vertices_settled < plain.vertices_settled,
        "guided settled {} vertices, unguided {}",
        led.vertices_settled,
        plain.vertices_settled
    );
}
