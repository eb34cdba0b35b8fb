//! Every recorded witness must be a certificate for the keep it
//! justifies, at every density and on both construction paths.
//!
//! FT-greedy keeps the i-th spanner edge `(u, v)` because some fault set
//! `F_i` with `|F_i| ≤ f` stretches it beyond `k·w(u, v)` in the spanner
//! built so far, and it records that `F_i`. The certificate is
//! checkable from the output alone: replay the keep order, and before
//! adding edge `i` confirm that `F_i` is within budget, misses the
//! edge's endpoints (vertex model), and leaves no `u–v` path of weight
//! `≤ k·w` in `kept[..i] ∖ F_i`.
//!
//! The same replay holds for a partitioned build, whose keep order is
//! shard after shard, then the stitch. Before the stitch the prefix only
//! holds intra-shard edges, so a shard edge's prefix path stays inside
//! its own shard's spanner, where the witness was found; a stitch
//! witness was found against exactly the prefix.
//!
//! The Lemma 3 property tests check witnesses on graphs of at most eight
//! vertices; these instances run from 150 to 1,500 vertices.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::partition::PartitionedFtGreedy;
use spanner_core::{FtGreedy, FtSpanner, OracleKind};
use spanner_faults::FaultModel;
use spanner_graph::generators::random_geometric;
use spanner_graph::{DijkstraEngine, FaultMask, Graph, IncrementalCsr};

const STRETCH: u64 = 3;

/// Replays `ft`'s keep order over `g` and checks every witness against
/// the prefix it was recorded for. Panics naming the first kept edge
/// whose witness does not certify its keep.
fn assert_witnesses_certify(label: &str, g: &Graph, ft: &FtSpanner, f: usize, model: FaultModel) {
    let kept = ft.spanner().parent_edge_ids();
    let witnesses = ft.witnesses();
    assert_eq!(
        witnesses.len(),
        kept.len(),
        "{label}: one witness per kept edge"
    );
    let mut prefix = IncrementalCsr::new(g.node_count());
    let mut mask = FaultMask::with_capacity(g.node_count(), kept.len());
    let mut engine = DijkstraEngine::new();
    for (i, (&id, witness)) in kept.iter().zip(witnesses).enumerate() {
        let e = g.edge(id);
        let (u, v) = (e.u(), e.v());
        let edge = format!("{label}: kept edge #{i} (parent {id:?}, {u}-{v})");
        assert_eq!(witness.model(), model, "{edge}: witness in the wrong model");
        assert!(
            witness.len() <= f,
            "{edge}: witness {witness:?} exceeds the budget {f}"
        );
        if model == FaultModel::Vertex {
            assert!(
                !witness.vertex_faults().contains(&u) && !witness.vertex_faults().contains(&v),
                "{edge}: witness {witness:?} faults an endpoint"
            );
        }
        witness.apply_to(&mut mask);
        let bound = e.weight().stretched(STRETCH);
        let within = engine.dist_bounded(&prefix, u, v, bound, &mask);
        assert_eq!(
            within, None,
            "{edge}: witness {witness:?} leaves a path of weight ≤ {bound:?}"
        );
        witness.remove_from(&mut mask);
        prefix.push_edge(u, v, e.weight());
    }
}

/// Builds `g` monolithically (pooled, the CLI's path) and partitioned,
/// and checks every witness of both.
fn check_both_paths(label: &str, g: &Graph, f: usize, model: FaultModel, shard_target: usize) {
    let monolithic = FtGreedy::new(g, STRETCH)
        .faults(f)
        .model(model)
        .oracle(OracleKind::Parallel(2))
        .run();
    assert!(
        monolithic.witnesses().iter().any(|w| !w.is_empty()),
        "{label}: no keep needed a fault, the instance certifies nothing"
    );
    assert_witnesses_certify(&format!("{label} monolithic"), g, &monolithic, f, model);
    let partitioned = PartitionedFtGreedy::new(g, STRETCH)
        .faults(f)
        .model(model)
        .shard_target(shard_target)
        .threads(2)
        .run();
    assert!(
        partitioned.report().shards > 1 && partitioned.report().stitch_kept > 0,
        "{label}: the partitioned build must shard and stitch"
    );
    assert_witnesses_certify(
        &format!("{label} partitioned"),
        g,
        partitioned.ft(),
        f,
        model,
    );
}

/// A geometric graph of mean degree about `degree`.
fn sparse_geometric(n: usize, degree: f64, seed: u64) -> Graph {
    let radius = (degree / (std::f64::consts::PI * n as f64)).sqrt();
    random_geometric(n, radius, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn sparse_vertex_model_witnesses_certify_every_keep() {
    let g = sparse_geometric(1500, 7.0, 0x5EED_0001);
    check_both_paths("sparse n=1500 f=1", &g, 1, FaultModel::Vertex, 256);
}

#[test]
fn dense_vertex_model_witnesses_certify_every_keep() {
    let g = random_geometric(150, 0.3, &mut StdRng::seed_from_u64(0x5EED_0002));
    check_both_paths("dense n=150 r=0.3 f=2", &g, 2, FaultModel::Vertex, 48);
}

#[test]
fn edge_model_witnesses_certify_every_keep() {
    let g = random_geometric(200, 0.2, &mut StdRng::seed_from_u64(0x5EED_0003));
    check_both_paths("edge n=200 r=0.2 f=2", &g, 2, FaultModel::Edge, 64);
}
