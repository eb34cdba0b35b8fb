//! The optimized hot path must be invisible in the output.
//!
//! PR 2 rebuilt the FT-greedy oracle loop around an incremental CSR
//! spanner view, per-construction reusable scratch, a Zobrist-fingerprint
//! memo and a persistent parallel worker pool. None of that is allowed to
//! change a single bit of the result: these property tests pin both
//! optimized paths (sequential [`OracleKind::Branching`] and pooled
//! [`OracleKind::Parallel`]) to the frozen pre-optimization
//! [`ReferenceBranchingOracle`] — identical kept parent edges *and*
//! identical per-edge witness fault sets — across random weighted graphs,
//! stretches, fault budgets and both fault models.

use proptest::prelude::*;
use spanner_core::{FtGreedy, FtSpanner, OracleKind};
use spanner_faults::reference::ReferenceBranchingOracle;
use spanner_faults::FaultModel;
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

#[test]
fn spanner_view_stays_in_lockstep() {
    use spanner_graph::GraphView;
    let g = spanner_graph::generators::complete(12);
    let ft = FtGreedy::new(&g, 3).faults(1).run();
    let spanner = ft.spanner();
    assert_eq!(spanner.view().node_count(), spanner.graph().node_count());
    assert_eq!(spanner.view().edge_count(), spanner.graph().edge_count());
    for v in spanner.graph().nodes() {
        let mut from_view = Vec::new();
        spanner
            .view()
            .for_each_neighbor(v, |to, eid, w| from_view.push((to, eid, w)));
        let from_graph: Vec<_> = spanner
            .graph()
            .neighbors(v)
            .map(|(to, eid)| (to, eid, spanner.graph().weight(eid)))
            .collect();
        assert_eq!(from_view, from_graph, "view diverged at {v}");
    }
}

/// Drop-dense instances: on weighted complete graphs almost every
/// candidate is dropped, so the pooled driver leaves its inline mode and
/// decides wide speculative windows. Kept edges *and* witnesses must
/// still match the reference greedy at every pool width, and
/// `speculative_rechecks` proves windows opened and were re-decided.
#[test]
fn wide_speculative_windows_match_reference() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{complete, with_uniform_weights};
    let mut rng = StdRng::seed_from_u64(0x5EC);
    let graphs: Vec<Graph> = [16usize, 18, 20, 22, 24]
        .iter()
        .map(|&n| with_uniform_weights(&complete(n), 1, 10, &mut rng))
        .collect();
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
    assert!(
        rechecks.iter().all(|&r| r > 0),
        "some pool width never re-decided a window verdict: {rechecks:?}"
    );
}
