//! End-to-end property tests for the paper's claims on random instances.
//!
//! * Algorithm 1's output really is an f-FT spanner (exhaustive ∀F audit);
//! * the exact per-edge certificate decides the f-fault contract exactly
//!   like that enumeration, in both fault models, on arbitrary subgraphs;
//! * Lemma 3's blocking set really blocks every ≤ (k+1)-cycle and respects
//!   the `|B| ≤ f·m` size bound;
//! * Lemma 4's peeling always produces girth > k+1;
//! * the greedy is existentially reasonable: never larger than the trivial
//!   spanner, monotone in `f`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::verify::{
    certify_ft_exact, verify_ft_exhaustive, verify_spanner, verify_under_faults,
};
use spanner_core::{peel, BlockingSet, FtGreedy, Spanner};
use spanner_faults::FaultModel;
use spanner_graph::{EdgeId, Graph, NodeId, Weight};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ft_greedy_is_vertex_fault_tolerant(g in arb_graph(8, 4), f in 0usize..3, k in 1u64..4) {
        let stretch = 2 * k - 1;
        let ft = FtGreedy::new(&g, stretch).faults(f).run();
        let audit = verify_ft_exhaustive(&g, ft.spanner(), f, FaultModel::Vertex);
        prop_assert!(audit.satisfied(),
            "f={} k={} violations={}/{} first={:?}",
            f, stretch, audit.violations, audit.trials, audit.first_violation);
    }

    #[test]
    fn ft_greedy_is_edge_fault_tolerant(g in arb_graph(7, 3), f in 0usize..3) {
        let ft = FtGreedy::new(&g, 3).faults(f).model(FaultModel::Edge).run();
        let audit = verify_ft_exhaustive(&g, ft.spanner(), f, FaultModel::Edge);
        prop_assert!(audit.satisfied(),
            "f={} violations={}/{}", f, audit.violations, audit.trials);
    }

    #[test]
    fn lemma3_blocking_set_on_random_graphs(g in arb_graph(8, 1), f in 1usize..3) {
        lemma3_check(&g, f)?;
    }

    /// Weighted variant: Lemma 3's proof is weight-aware (the last edge of
    /// a short cycle considered by greedy has maximum weight), so the
    /// blocking property must hold on weighted inputs too.
    #[test]
    fn lemma3_blocking_set_on_weighted_graphs(g in arb_graph(7, 4), f in 1usize..3) {
        lemma3_check(&g, f)?;
    }
}

fn lemma3_check(g: &Graph, f: usize) -> Result<(), proptest::test_runner::TestCaseError> {
    {
        let stretch = 3u64;
        let ft = FtGreedy::new(g, stretch).faults(f).run();
        let b = BlockingSet::from_witnesses(&ft);
        // Size bound.
        prop_assert!(b.len() <= f * ft.spanner().edge_count());
        prop_assert!(b.is_well_formed(ft.spanner().graph()));
        // Blocking property over all (k+1)-cycles.
        let report = spanner_core::verify_blocking_set(
            ft.spanner().graph(),
            &b,
            (stretch + 1) as usize,
            100_000,
        );
        prop_assert!(
            report.is_valid(),
            "unblocked={} of {}",
            report.unblocked.len(),
            report.cycles_checked
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lemma4_peel_girth_on_random_graphs(g in arb_graph(10, 1), f in 1usize..3, seed in 0u64..1000) {
        let stretch = 3u64;
        let ft = FtGreedy::new(&g, stretch).faults(f).run();
        let b = BlockingSet::from_witnesses(&ft);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = peel(ft.spanner().graph(), &b, f, (stretch + 1) as usize, &mut rng);
        prop_assert!(out.girth_ok);
        prop_assert_eq!(out.final_edges(), out.induced_edges - out.deleted_edges);
    }

    #[test]
    fn greedy_size_is_monotone_in_f(g in arb_graph(8, 3)) {
        let mut last = 0usize;
        for f in 0..3 {
            let ft = FtGreedy::new(&g, 3).faults(f).run();
            let size = ft.spanner().edge_count();
            prop_assert!(size >= last, "size dropped from {} to {} at f={}", last, size, f);
            prop_assert!(size <= g.edge_count());
            last = size;
        }
    }

    #[test]
    fn ft_spanner_is_also_plain_spanner(g in arb_graph(8, 4), f in 0usize..3) {
        let ft = FtGreedy::new(&g, 3).faults(f).run();
        let report = verify_spanner(&g, ft.spanner());
        prop_assert!(report.satisfied, "max stretch {}", report.max_stretch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `certify_ft_exact` against the enumerating reference on random
    /// subgraphs H: every parent edge with `keep ≥ drop` (all of them at
    /// `drop = 0`), plus an FT-greedy build at budget `base` if `base ≤ 2`,
    /// so clean and violating H (about a quarter) appear at every `f`.
    /// A returned certificate must be a real violation: a dropped edge
    /// and at most `f` faults under which H stops spanning.
    #[test]
    fn exact_certificate_matches_enumeration_in_both_models(
        g in arb_graph(7, 3),
        keep in proptest::collection::vec(0..4u32, 21),
        drop in 0..4u32,
        base in 0usize..5,
        f in 0usize..3,
        k in 1u64..4,
    ) {
        let stretch = 2 * k - 1;
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            let mut kept: Vec<EdgeId> = g.edge_ids().filter(|e| keep[e.index()] >= drop).collect();
            if base <= 2 {
                let ft = FtGreedy::new(&g, stretch).faults(base).model(model).run();
                kept.extend(ft.spanner().parent_edge_ids());
                kept.sort();
                kept.dedup();
            }
            let h = Spanner::from_parent_edges(&g, kept, stretch);
            let cert = certify_ft_exact(&g, &h, f, model);
            let audit = verify_ft_exhaustive(&g, &h, f, model);
            prop_assert_eq!(cert.is_none(), audit.satisfied(),
                "{} f={} k={}: certificate {:?}, enumeration {:?}",
                model, f, stretch, cert, audit.first_violation);
            if let Some((e, faults)) = cert {
                prop_assert!(faults.len() <= f, "{} faults over budget {}", faults.len(), f);
                prop_assert_eq!(faults.model(), model);
                prop_assert!(!h.contains_parent_edge(e), "certified a kept edge {}", e);
                prop_assert!(!verify_under_faults(&g, &h, &faults).satisfied,
                    "{:?} does not break H", faults);
            }
        }
    }
}
