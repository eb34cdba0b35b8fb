//! The partitioned construction must not leak approximation onto the
//! default path: for small instances we check the stretch contract
//! under **every** fault set of size ≤ f — both fault models, budgets
//! 1 and 2 — via the same exhaustive auditor the monolithic
//! construction is held to ([`verify_ft_exhaustive`]).
//!
//! Shard targets are chosen so each instance actually splits into
//! several shards with a non-trivial stitch; a sanity assertion keeps
//! that from silently degenerating into the single-shard case.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::partition::PartitionedFtGreedy;
use spanner_core::verify::verify_ft_exhaustive;
use spanner_faults::reference::ReferenceBranchingOracle;
use spanner_faults::{FaultModel, FaultOracle, OracleQuery};
use spanner_graph::generators::{complete, cycle, grid, random_geometric, with_uniform_weights};
use spanner_graph::partition::bfs_balls;
use spanner_graph::Graph;

/// The n ≤ 12 instance zoo: name, graph, shard target.
fn instances() -> Vec<(&'static str, Graph, usize)> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    vec![
        (
            "complete-10-weighted",
            with_uniform_weights(&complete(10), 1, 25, &mut rng),
            3,
        ),
        ("grid-3x4", grid(3, 4), 4),
        ("cycle-12", cycle(12), 4),
        ("geometric-12", random_geometric(12, 0.45, &mut rng), 4),
        (
            "grid-2x6-weighted",
            with_uniform_weights(&grid(2, 6), 1, 9, &mut rng),
            3,
        ),
    ]
}

fn audit_all(model: FaultModel) {
    for (name, g, target) in instances() {
        for f in [1usize, 2] {
            let built = PartitionedFtGreedy::new(&g, 3)
                .faults(f)
                .model(model)
                .shard_target(target)
                .run();
            assert!(
                built.report().shards > 1,
                "{name}: instance must actually shard (got 1 shard)"
            );
            let audit = verify_ft_exhaustive(&g, built.ft().spanner(), f, model);
            assert!(
                audit.satisfied(),
                "{name} f={f} model={model:?}: exhaustive audit failed: {audit:?}"
            );
        }
    }
}

#[test]
fn vertex_model_contract_exhaustive() {
    audit_all(FaultModel::Vertex);
}

#[test]
fn edge_model_contract_exhaustive() {
    audit_all(FaultModel::Edge);
}

#[test]
fn stitch_actually_fires_on_these_instances() {
    // The audit above would pass vacuously if the stitch never kept an
    // edge; pin that at least one instance exercises it.
    let mut fired = false;
    for (_, g, target) in instances() {
        let built = PartitionedFtGreedy::new(&g, 3)
            .faults(1)
            .shard_target(target)
            .run();
        fired |= built.report().stitch_kept > 0;
    }
    assert!(fired, "no instance kept any stitch edge");
}

/// The dense zoo: weighted complete graphs and high-radius geometric
/// graphs, sharded so that *every* vertex is a boundary vertex. This is
/// the regime where the stitch does most of the work (and where the
/// pooled driver opens its widest speculative windows).
fn dense_instances() -> Vec<(&'static str, Graph, usize)> {
    let mut rng = StdRng::seed_from_u64(0xDE45E);
    vec![
        (
            "complete-12-weighted",
            with_uniform_weights(&complete(12), 1, 30, &mut rng),
            3,
        ),
        (
            "complete-11-weighted",
            with_uniform_weights(&complete(11), 1, 6, &mut rng),
            4,
        ),
        ("geometric-12-r0.8", random_geometric(12, 0.8, &mut rng), 3),
        ("geometric-12-r0.9", random_geometric(12, 0.9, &mut rng), 4),
    ]
}

#[test]
fn dense_contract_exhaustive_with_every_vertex_on_the_boundary() {
    for (name, g, target) in dense_instances() {
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            for f in [1usize, 2] {
                let built = PartitionedFtGreedy::new(&g, 3)
                    .faults(f)
                    .model(model)
                    .shard_target(target)
                    .threads(2)
                    .run();
                let report = built.report();
                assert!(report.shards > 1, "{name}: instance must actually shard");
                assert_eq!(
                    report.boundary_vertices,
                    g.node_count(),
                    "{name}: every vertex must be a boundary vertex"
                );
                let audit = verify_ft_exhaustive(&g, built.ft().spanner(), f, model);
                assert!(
                    audit.satisfied(),
                    "{name} f={f} model={model:?}: exhaustive audit failed: {audit:?}"
                );
            }
        }
    }
}

#[test]
fn dense_output_is_identical_across_pool_widths() {
    for (name, g, target) in dense_instances() {
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            for f in [1usize, 2] {
                let runs: Vec<_> = [1usize, 2, 4]
                    .into_iter()
                    .map(|threads| {
                        PartitionedFtGreedy::new(&g, 3)
                            .faults(f)
                            .model(model)
                            .shard_target(target)
                            .threads(threads)
                            .run()
                    })
                    .collect();
                for (built, threads) in runs.iter().zip([1, 2, 4]) {
                    assert!(
                        built.report().pool_spawns <= 1,
                        "{name} threads={threads}: pool spawned more than once"
                    );
                }
                let first = runs[0].ft();
                let bytes = first.freeze(&g).encode();
                for (built, threads) in runs.iter().zip([1, 2, 4]).skip(1) {
                    let label = format!("{name} f={f} model={model:?} threads={threads}");
                    assert_eq!(
                        first.spanner().parent_edge_ids(),
                        built.ft().spanner().parent_edge_ids(),
                        "{label}: kept edges diverged"
                    );
                    assert_eq!(
                        first.witnesses(),
                        built.ft().witnesses(),
                        "{label}: witnesses diverged"
                    );
                    assert_eq!(
                        bytes,
                        built.ft().freeze(&g).encode(),
                        "{label}: artifact bytes diverged"
                    );
                }
            }
        }
    }
}

/// The stitch decides cross edges only. That is exact because an
/// intra-shard edge its shard dropped is still a drop against the final
/// union at the global budget — including boundary-closure edges, whose
/// endpoints both touch other shards. Pin it with the frozen reference
/// oracle on every zoo instance, both models, f ∈ {1, 2}.
#[test]
fn dropped_intra_shard_edges_stay_dropped_in_the_union() {
    const SEED: u64 = 9;
    let mut closure_drops = 0;
    for (name, g, target) in instances().into_iter().chain(dense_instances()) {
        let partition = bfs_balls(&g, target, SEED);
        let boundary = partition.boundary(&g);
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            for f in [1usize, 2] {
                let built = PartitionedFtGreedy::new(&g, 3)
                    .faults(f)
                    .model(model)
                    .shard_target(target)
                    .seed(SEED)
                    .threads(2)
                    .run();
                let report = built.report();
                assert_eq!(report.cross_edges, partition.cross_edge_count(&g), "{name}");
                assert_eq!(report.stitch_candidates, report.cross_edges, "{name}");
                let union = built.ft().spanner();
                let mut oracle = ReferenceBranchingOracle::new();
                for (id, e) in g.edges() {
                    if partition.shard_of(e.u()) != partition.shard_of(e.v())
                        || union.contains_parent_edge(id)
                    {
                        continue;
                    }
                    if boundary.contains(e.u().index()) && boundary.contains(e.v().index()) {
                        closure_drops += 1;
                    }
                    let query = OracleQuery {
                        u: e.u(),
                        v: e.v(),
                        bound: e.weight().stretched(3),
                        budget: f,
                        model,
                    };
                    assert_eq!(
                        oracle.find_blocking_faults(union.graph(), query),
                        None,
                        "{name} f={f} model={model:?}: dropped edge {id:?} is stretched in the union"
                    );
                }
            }
        }
    }
    assert!(
        closure_drops > 0,
        "no boundary-closure edge was ever dropped"
    );
}
