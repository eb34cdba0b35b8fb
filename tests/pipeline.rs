//! Cross-crate integration: the full Theorem 1 pipeline through the facade.
//!
//! graph generation → FT-greedy (Algorithm 1) → witness blocking set
//! (Lemma 3) → peeling (Lemma 4) → girth witness, plus the lower-bound
//! family and baselines — every crate touching every other one the way the
//! paper's proof does.

use vft_spanner::prelude::*;

#[test]
fn theorem1_pipeline_end_to_end() {
    let mut rng = StdRng::seed_from_u64(2019);
    let g = generators::erdos_renyi(50, 0.25, &mut rng);
    let stretch = 3u64;
    let f = 2usize;

    // Algorithm 1.
    let ft = FtGreedy::new(&g, stretch).faults(f).run();
    let h = ft.spanner();
    assert!(h.edge_count() < g.edge_count(), "must sparsify this input");

    // The FT property, audited by sampling.
    let audit = verify_ft_sampled(&g, h, f, FaultModel::Vertex, 40, &mut rng);
    assert!(audit.satisfied(), "{:?}", audit.first_violation);

    // Lemma 3.
    let b = BlockingSet::from_witnesses(&ft);
    assert!(b.len() <= f * h.edge_count());
    let report = verify_blocking_set(h.graph(), &b, (stretch + 1) as usize, 1_000_000);
    assert!(report.is_valid());

    // Lemma 4, many samples: girth always holds.
    for seed in 0..10 {
        let mut peel_rng = StdRng::seed_from_u64(seed);
        let outcome = peel(h.graph(), &b, f, (stretch + 1) as usize, &mut peel_rng);
        assert!(outcome.girth_ok, "seed {seed}");
        assert_eq!(
            outcome.sampled_nodes,
            h.graph().node_count().div_ceil(2 * f)
        );
    }
}

#[test]
fn lower_bound_family_is_incompressible_end_to_end() {
    use vft_spanner::extremal::lower_bound::{biclique_blowup, max_copies_for_fault_budget};

    let base = vft_spanner::extremal::projective::heawood();
    let f = 2usize;
    let t = max_copies_for_fault_budget(f);
    let blow = biclique_blowup(&base, t);
    let g = blow.graph();

    // Greedy keeps everything.
    let ft = FtGreedy::new(g, 3).faults(f).run();
    assert_eq!(ft.spanner().edge_count(), g.edge_count());

    // And indeed each edge is critical: dropping any one edge breaks the
    // FT property under its critical fault set.
    for probe in [0usize, 7, 41] {
        let e = EdgeId::new(probe % g.edge_count());
        let kept: Vec<EdgeId> = g.edge_ids().filter(|id| *id != e).collect();
        let without = Spanner::from_parent_edges(g, kept, 3);
        let faults = FaultSet::vertices(blow.critical_fault_set(e));
        assert!(faults.len() <= f);
        let report = verify_under_faults(g, &without, &faults);
        assert!(
            !report.satisfied,
            "edge {e} should be critical under {faults}"
        );
    }
}

#[test]
fn baselines_compose_with_verification() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::erdos_renyi(40, 0.25, &mut rng);
    let f = 1usize;

    let dk = dk_spanner(&g, 3, DkParams::provable(40, f), &mut rng);
    let audit = verify_ft_exhaustive(&g, &dk, f, FaultModel::Vertex);
    assert!(audit.satisfied());

    let union = union_eft_spanner(&g, 3, f);
    let audit = verify_ft_exhaustive(&g, &union, f, FaultModel::Edge);
    assert!(audit.satisfied());

    // Greedy is the smallest of the three.
    let greedy = FtGreedy::new(&g, 3).faults(f).run();
    assert!(greedy.spanner().edge_count() <= dk.edge_count());
    let greedy_eft = FtGreedy::new(&g, 3).faults(f).model(FaultModel::Edge).run();
    assert!(greedy_eft.spanner().edge_count() <= union.edge_count());
}

#[test]
fn weighted_pipeline_with_geometric_graph() {
    let mut rng = StdRng::seed_from_u64(99);
    let g = generators::random_geometric(60, 0.35, &mut rng);
    let f = 1usize;
    let ft = FtGreedy::new(&g, 3).faults(f).run();
    // Weighted instance: verify under every single-vertex fault.
    let audit = verify_ft_exhaustive(&g, ft.spanner(), f, FaultModel::Vertex);
    assert!(audit.satisfied(), "{:?}", audit.first_violation);
    // Adversarial replay too.
    let adv = verify_ft_adversarial(&g, &ft);
    assert!(adv.satisfied());
}

#[test]
fn oracle_kinds_agree_through_the_facade() {
    let g = generators::grid(3, 4);
    let mut sizes = std::collections::HashSet::new();
    for kind in [OracleKind::Branching, OracleKind::Exhaustive] {
        let ft = FtGreedy::new(&g, 3).faults(1).oracle(kind).run();
        sizes.insert(ft.spanner().edge_count());
    }
    assert_eq!(sizes.len(), 1, "oracle implementations disagree: {sizes:?}");
}

#[test]
fn blowup_connectivity_matches_theory() {
    // Vertex connectivity multiplies under the biclique blow-up:
    // kappa(blowup(G, t)) = t * kappa(G). For C8 (kappa = 2) with t = 2,
    // the result must be exactly 4-connected, in vertices and in edges —
    // the structural fact behind per-edge criticality with 2(t-1) faults.
    use vft_spanner::extremal::lower_bound::biclique_blowup;
    let blow = biclique_blowup(&generators::cycle(8), 2);
    let g = blow.graph();
    assert_eq!((g.node_count(), g.edge_count()), (16, 32));
    // No 3 faults disconnect it: every vertex set and every edge set of
    // size 1..=3.
    let (mut vertex_sets, mut edge_sets) = (0, 0);
    for_each_subset(g.node_count(), 3, &mut |faults| {
        let mut mask = FaultMask::for_graph(g);
        for &v in faults {
            mask.fault_vertex(NodeId::new(v));
        }
        assert!(bfs::is_connected(g, &mask), "vertices {faults:?} cut it");
        vertex_sets += 1;
    });
    for_each_subset(g.edge_count(), 3, &mut |faults| {
        let mut mask = FaultMask::for_graph(g);
        for &e in faults {
            mask.fault_edge(EdgeId::new(e));
        }
        assert!(bfs::is_connected(g, &mask), "edges {faults:?} cut it");
        edge_sets += 1;
    });
    assert_eq!((vertex_sets, edge_sets), (696, 5_488));
    // Four faults do: the 4 neighbours of a vertex, or its 4 edges.
    let v = NodeId::new(0);
    assert_eq!(g.degree(v), 4);
    let mut by_vertices = FaultMask::for_graph(g);
    let mut by_edges = FaultMask::for_graph(g);
    for (to, e) in g.neighbors(v) {
        by_vertices.fault_vertex(to);
        by_edges.fault_edge(e);
    }
    for mask in [by_vertices, by_edges] {
        let hops = bfs::hop_distances(g, v, &mask);
        assert_eq!(hops.iter().filter(|&&h| h != u32::MAX).count(), 1);
    }
}

/// Calls `visit` on every subset of `0..n` with 1 to `max` elements.
fn for_each_subset(n: usize, max: usize, visit: &mut dyn FnMut(&[usize])) {
    fn grow(
        n: usize,
        max: usize,
        from: usize,
        set: &mut Vec<usize>,
        visit: &mut dyn FnMut(&[usize]),
    ) {
        for i in from..n {
            set.push(i);
            visit(set);
            if set.len() < max {
                grow(n, max, i + 1, set, visit);
            }
            set.pop();
        }
    }
    grow(n, max, 0, &mut Vec::new(), visit);
}

#[test]
fn spanner_io_round_trip_preserves_verification() {
    // Serialize a constructed spanner's graph, read it back, and confirm
    // the stretch verification still passes — I/O is faithful.
    use vft_spanner::graph::io;
    let mut rng = StdRng::seed_from_u64(31);
    let g = generators::erdos_renyi(30, 0.3, &mut rng);
    let ft = FtGreedy::new(&g, 3).faults(1).run();
    let text = io::to_edge_list(ft.spanner().graph());
    let back = io::from_edge_list(&text).expect("parse back");
    assert_eq!(back.edge_count(), ft.spanner().edge_count());
    // Rebuild a spanner object over the same parent via matching edges.
    let kept: Vec<EdgeId> = ft.spanner().parent_edge_ids().to_vec();
    let rebuilt = Spanner::from_parent_edges(&g, kept, 3);
    assert!(verify_spanner(&g, &rebuilt).satisfied);
}

#[test]
fn metrics_track_fault_budget() {
    let mut rng = StdRng::seed_from_u64(77);
    let g = generators::random_geometric(50, 0.4, &mut rng);
    let mut last = 0.0f64;
    for f in 0..3 {
        let ft = FtGreedy::new(&g, 3).faults(f).run();
        let m = spanner_metrics(&g, ft.spanner());
        assert!(m.lightness >= last, "lightness must not drop as f grows");
        assert!(m.retention <= 1.0);
        last = m.lightness;
    }
}

#[test]
fn heuristic_mode_is_usable_but_flagged() {
    let mut rng = StdRng::seed_from_u64(13);
    let g = generators::erdos_renyi(30, 0.3, &mut rng);
    let ft = FtGreedy::new(&g, 3)
        .faults(1)
        .run_with_oracle(&mut GreedyHeuristicOracle::new());
    // Whatever it kept is at least a plain spanner (f=0 guarantees hold:
    // the final H distance check is genuine for kept edges, and dropped
    // edges had SOME certified path at drop time; the plain property can
    // still be verified directly).
    assert!(verify_spanner(&g, ft.spanner()).satisfied);
}

#[test]
fn greedy_outputs_have_low_degeneracy() {
    // The girth > k+1 structure of greedy outputs shows up when peeling:
    // K40's 3-spanner is C4-free, so every subgraph of it has a vertex of
    // degree O(sqrt(n)) — far below the input's n-1.
    let g = generators::complete(40);
    let d = peeling_number(greedy_spanner(&g, 3).graph());
    assert!(
        d <= 8,
        "3-spanner of K40 has peeling number {d} (expected O(sqrt n))"
    );
    // Fault tolerance raises it only mildly (Corollary 2: ~sqrt(f) factor).
    let dft = peeling_number(FtGreedy::new(&g, 3).faults(2).run().spanner().graph());
    assert!(dft >= d);
    assert!(dft <= 4 * d, "2-VFT peeling number {dft} vs plain {d}");
}

/// The largest minimum degree met while repeatedly deleting a
/// minimum-degree vertex: the least `d` such that every subgraph of `g`
/// has a vertex of degree at most `d`.
fn peeling_number(g: &Graph) -> usize {
    let mut degree: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let mut removed = vec![false; g.node_count()];
    let mut max_seen = 0;
    for _ in 0..g.node_count() {
        let v = (0..g.node_count())
            .filter(|&v| !removed[v])
            .min_by_key(|&v| degree[v])
            .expect("a vertex is left");
        max_seen = max_seen.max(degree[v]);
        removed[v] = true;
        for (to, _) in g.neighbors(NodeId::new(v)) {
            degree[to.index()] -= usize::from(!removed[to.index()]);
        }
    }
    max_seen
}

#[test]
fn exact_edge_certificate_through_the_facade() {
    let mut rng = StdRng::seed_from_u64(17);
    let g = generators::erdos_renyi(35, 0.3, &mut rng);
    let f = 2usize;
    let ft = FtGreedy::new(&g, 3).faults(f).model(FaultModel::Edge).run();
    // One oracle query per dropped parent edge decides the edge-model
    // contract exactly, over every fault set of at most f edges.
    let cert = certify_ft_exact(&g, ft.spanner(), f, FaultModel::Edge);
    assert!(cert.is_none(), "{cert:?}");
}
