//! Larger stress tests, ignored by default.
//!
//! Run with:
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! These push the construction/verification machinery to sizes the normal
//! suite avoids (to keep `cargo test` fast) and assert the same invariants.

use vft_spanner::prelude::*;

#[test]
#[ignore = "multi-second stress test; run with --ignored --release"]
fn large_vft_construction_and_audit() {
    let mut rng = StdRng::seed_from_u64(1);
    let g = generators::erdos_renyi(300, 0.08, &mut rng);
    let f = 3usize;
    let ft = FtGreedy::new(&g, 3).faults(f).run();
    assert!(ft.spanner().edge_count() < g.edge_count());
    let audit = verify_ft_sampled(&g, ft.spanner(), f, FaultModel::Vertex, 100, &mut rng);
    assert!(audit.satisfied(), "{:?}", audit.first_violation);
    let adv = verify_ft_adversarial(&g, &ft);
    assert!(adv.satisfied());
}

#[test]
#[ignore = "multi-second stress test; run with --ignored --release"]
fn large_blocking_and_peeling_pipeline() {
    let mut rng = StdRng::seed_from_u64(2);
    let g = generators::erdos_renyi(250, 0.1, &mut rng);
    let f = 2usize;
    let ft = FtGreedy::new(&g, 3).faults(f).run();
    let b = BlockingSet::from_witnesses(&ft);
    assert!(b.len() <= f * ft.spanner().edge_count());
    let report = verify_blocking_set(ft.spanner().graph(), &b, 4, 5_000_000);
    assert!(report.is_valid(), "{} unblocked", report.unblocked.len());
    for seed in 0..20 {
        let mut peel_rng = StdRng::seed_from_u64(seed);
        let out = peel(ft.spanner().graph(), &b, f, 4, &mut peel_rng);
        assert!(out.girth_ok);
    }
}

#[test]
#[ignore = "multi-second stress test; run with --ignored --release"]
fn large_blowup_retention() {
    use vft_spanner::extremal::{lower_bound::biclique_blowup, projective};
    let base = projective::incidence_graph(5).expect("5 is prime"); // 62 nodes, 186 edges
    let blow = biclique_blowup(&base, 3); // 186 * 9 = 1674 edges
    let ft = FtGreedy::new(blow.graph(), 3).faults(4).run();
    assert_eq!(
        ft.spanner().edge_count(),
        blow.graph().edge_count(),
        "lower-bound family must be fully retained"
    );
}

#[test]
#[ignore = "multi-second stress test; run with --ignored --release"]
fn weighted_geometric_eft_with_all_baselines() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = generators::random_geometric(250, 0.15, &mut rng);
    let f = 2usize;
    let greedy = FtGreedy::new(&g, 3).faults(f).model(FaultModel::Edge).run();
    let union = union_eft_spanner(&g, 3, f);
    assert!(greedy.spanner().edge_count() <= union.edge_count());
    for s in [&greedy.into_spanner(), &union] {
        let audit = verify_ft_sampled(&g, s, f, FaultModel::Edge, 60, &mut rng);
        assert!(audit.satisfied());
    }
}

#[test]
#[ignore = "multi-second stress test; run with --ignored --release"]
fn deep_fault_budget_oracle_consistency() {
    // f = 6 on a moderate graph: the sequential and the pooled oracle
    // must produce identical spanners and witnesses.
    let mut rng = StdRng::seed_from_u64(4);
    let g = generators::erdos_renyi(60, 0.25, &mut rng);
    let sequential = FtGreedy::new(&g, 3).faults(6).run();
    let pooled = FtGreedy::new(&g, 3)
        .faults(6)
        .oracle(OracleKind::Parallel(2))
        .run();
    assert_eq!(
        sequential.spanner().parent_edge_ids(),
        pooled.spanner().parent_edge_ids()
    );
    assert_eq!(sequential.witnesses(), pooled.witnesses());
}
