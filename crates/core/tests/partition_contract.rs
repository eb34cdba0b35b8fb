//! The partitioned construction must not leak approximation onto the
//! default path: for small instances we check the stretch contract
//! under **every** fault set of size ≤ f — both fault models, budgets
//! 1 and 2 — via the same exhaustive auditor the monolithic
//! construction is held to ([`verify_ft_exhaustive`]). At a few
//! hundred vertices, where enumeration is out of reach, the exact
//! per-edge certificate ([`certify_vft_exact`]) takes its place, next
//! to the size bound against the monolithic build.
//!
//! Shard targets are chosen so each instance actually splits into
//! several shards with a non-trivial stitch; a sanity assertion keeps
//! that from silently degenerating into the single-shard case.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::partition::PartitionedFtGreedy;
use spanner_core::verify::{certify_vft_exact, verify_ft_exhaustive};
use spanner_core::{FtGreedy, OracleKind};
use spanner_faults::reference::ReferenceBranchingOracle;
use spanner_faults::{FaultModel, FaultOracle, FaultSet, OracleQuery};
use spanner_graph::generators::{complete, cycle, grid, random_geometric, with_uniform_weights};
use spanner_graph::partition::{bfs_balls, Partition};
use spanner_graph::subgraph::induced;
use spanner_graph::{EdgeId, Graph};

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

/// Partitioning trades size optimality, never correctness: the stitch
/// does not interleave with the shards in one global weight order, so
/// the union can keep edges a monolithic run drops. On fixed instances
/// — two sparse geometric cells (mean degree ≈ 7) and one dense one —
/// pin that trade at three properties: the partitioned spanner is at
/// most 1.25× the monolithic pooled one, the whole construction spawns
/// its worker pool exactly once, and the exact per-edge certificate
/// finds no fault set that stretches any parent edge.
#[test]
fn partitioned_size_stays_within_a_quarter_of_monolithic_and_certifies_exactly() {
    const MAX_INFLATION: f64 = 1.25;
    let sparse = |n: usize| {
        let radius = (7.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let mut rng = StdRng::seed_from_u64(0x9F0 + n as u64);
        (random_geometric(n, radius, &mut rng), 64, 1)
    };
    let dense = {
        let mut rng = StdRng::seed_from_u64(0xD15E);
        (random_geometric(150, 0.3, &mut rng), 32, 2)
    };
    for (g, target, f) in [sparse(240), sparse(480), dense] {
        let label = format!("n={} m={} f={f}", g.node_count(), g.edge_count());
        let built = PartitionedFtGreedy::new(&g, 3)
            .faults(f)
            .shard_target(target)
            .threads(2)
            .run();
        let report = built.report();
        assert!(report.shards > 1, "{label}: instance must actually shard");
        assert_eq!(
            report.pool_spawns, 1,
            "{label}: pool must spawn exactly once"
        );
        let monolithic = FtGreedy::new(&g, 3)
            .faults(f)
            .oracle(OracleKind::Parallel(2))
            .run();
        let (partitioned, monolithic) = (
            built.ft().spanner().edge_count(),
            monolithic.spanner().edge_count(),
        );
        assert!(
            partitioned as f64 <= MAX_INFLATION * monolithic as f64,
            "{label}: partitioned {partitioned} edges vs monolithic {monolithic}"
        );
        assert_eq!(
            certify_vft_exact(&g, built.ft().spanner(), f),
            None,
            "{label}: exact certificate found a violation"
        );
    }
}

/// The unguided reference for the shard phase of a partitioned build:
/// FT-greedy over [`ReferenceBranchingOracle`] on each shard's induced
/// subgraph ([`induced`]: local ids in member order, edges in parent
/// edge-id order, as the partitioned build numbers them),
/// its keeps and witnesses translated to union coordinates and
/// concatenated in shard order.
fn reference_shard_builds(
    g: &Graph,
    partition: &Partition,
    f: usize,
    model: FaultModel,
) -> (Vec<EdgeId>, Vec<FaultSet>) {
    let (mut kept, mut witnesses) = (Vec::new(), Vec::new());
    for members in partition.shards() {
        let shard = induced(g, members.iter().copied());
        let built = FtGreedy::new(&shard.graph, 3)
            .faults(f)
            .model(model)
            .run_with_oracle(&mut ReferenceBranchingOracle::new());
        let offset = kept.len();
        let spanner = built.spanner();
        kept.extend(
            spanner
                .parent_edge_ids()
                .iter()
                .map(|&l| shard.parent_edge(l)),
        );
        for w in built.witnesses() {
            witnesses.push(match model {
                FaultModel::Vertex => {
                    FaultSet::vertices(w.vertex_faults().iter().map(|&v| shard.parent_node(v)))
                }
                FaultModel::Edge => FaultSet::edges(
                    w.edge_faults()
                        .iter()
                        .map(|e| EdgeId::new(e.index() + offset)),
                ),
            });
        }
    }
    (kept, witnesses)
}

/// Every shard build runs under the input graph's landmark table
/// restricted to the shard, where it used to build the shard's own. A*
/// under any consistent table answers like unguided Dijkstra, so each
/// shard's keeps and witnesses must be exactly the reference's on the
/// shard's induced subgraph. On two sparse geometric graphs (n = 1000,
/// mean degree ≈ 7) and the dense n = 150 instance above, both models,
/// f ∈ {1, 2}: the first `shard_kept` union edges and witnesses must
/// equal [`reference_shard_builds`], and pool widths 1, 2 and 4 must
/// encode identical artifacts.
#[test]
fn shard_builds_match_the_unguided_reference() {
    const SEED: u64 = 9;
    let sparse = |salt: u64| {
        let n = 1000;
        let radius = (7.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let mut rng = StdRng::seed_from_u64(0x5A4D + salt);
        (random_geometric(n, radius, &mut rng), 128)
    };
    let dense = {
        let mut rng = StdRng::seed_from_u64(0xD15E);
        (random_geometric(150, 0.3, &mut rng), 32)
    };
    for (g, target) in [sparse(0), sparse(1), dense] {
        let partition = bfs_balls(&g, target, SEED);
        assert!(partition.shard_count() >= 4, "too few shards");
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            for f in [1usize, 2] {
                let label = format!("n={} f={f} model={model:?}", g.node_count());
                let (kept, witnesses) = reference_shard_builds(&g, &partition, f, model);
                assert!(!kept.is_empty(), "{label}: the shards kept nothing");
                let mut bytes = None;
                for threads in [1usize, 2, 4] {
                    let built = PartitionedFtGreedy::new(&g, 3)
                        .faults(f)
                        .model(model)
                        .shard_target(target)
                        .seed(SEED)
                        .threads(threads)
                        .run();
                    let label = format!("{label} threads={threads}");
                    let shard_kept = built.report().shard_kept;
                    let ft = built.ft();
                    assert_eq!(
                        &ft.spanner().parent_edge_ids()[..shard_kept],
                        &kept[..],
                        "{label}: shard keeps diverged from the reference"
                    );
                    assert_eq!(
                        &ft.witnesses()[..shard_kept],
                        &witnesses[..],
                        "{label}: shard witnesses diverged from the reference"
                    );
                    let encoded = ft.freeze(&g).encode();
                    let first = bytes.get_or_insert_with(|| encoded.clone());
                    assert!(*first == encoded, "{label}: artifact bytes diverged");
                }
            }
        }
    }
}
