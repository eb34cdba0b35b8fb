//! Partitioned spanners must be first-class artifact citizens.
//!
//! The stitched union's witnesses are translated to union coordinates,
//! so it should freeze, encode to the in-place VFTSPANR layout,
//! `open` without copying, and serve **bit-identically** to its owned
//! decode — exactly the property `mapped_serving_props.rs` pins for
//! monolithic constructions. These property tests run the same
//! owned-vs-mapped schedule over partitioned builds (random weighted
//! graphs, both fault models, budgets 1–2, shard targets small enough
//! to force several shards and a live stitch).

use proptest::prelude::*;
use spanner_core::partition::PartitionedFtGreedy;
use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::EpochServer;
use spanner_core::FrozenSpanner;
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::{EdgeId, Graph, NodeId, SharedBytes, Weight};
use std::sync::Arc;

fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (6..=max_n).prop_flat_map(move |n| {
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

fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (NodeId::new(u), NodeId::new(v))))
        .collect()
}

type Answers = Vec<Result<Route, RouteError>>;

fn serve_both(
    server: &EpochServer,
    failures: &FaultSet,
    pairs: &[(NodeId, NodeId)],
) -> (Answers, Answers) {
    let mut session = server.epoch(failures);
    (session.route_batch(pairs), session.par_route_batch(pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn partitioned_artifact_round_trips_and_serves_identically(
        g in arb_graph(11, 5),
        f in 1usize..3,
        edge_model in any::<bool>(),
        shard_target in 3usize..6,
        fault_raw in proptest::collection::vec(any::<u32>(), 0..4),
    ) {
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let built = PartitionedFtGreedy::new(&g, 3)
            .faults(f)
            .model(model)
            .shard_target(shard_target)
            .run();
        let ft = built.ft();
        prop_assert_eq!(ft.witnesses().len(), ft.spanner().edge_count());

        // Freeze → encode → open must round-trip the stitched union.
        let bytes = ft.freeze(&g).encode();
        let owned = Arc::new(FrozenSpanner::decode(&bytes).expect("own encoding must decode"));
        prop_assert_eq!(owned.edge_count(), ft.spanner().edge_count());
        prop_assert_eq!(owned.budget(), Some(f));
        let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes))
            .expect("own encoding must open in place");
        prop_assert!(mapped.is_in_place(), "open() must borrow, not copy");

        let served_owned = EpochServer::new(Arc::clone(&owned)).with_threads(3);
        let served_mapped = EpochServer::from_mapped(mapped).with_threads(3);

        let random_set = match model {
            FaultModel::Vertex => FaultSet::vertices(
                fault_raw.iter().map(|r| NodeId::new(*r as usize % g.node_count())),
            ),
            FaultModel::Edge => FaultSet::edges(
                fault_raw
                    .iter()
                    .filter(|_| g.edge_count() > 0)
                    .map(|r| EdgeId::new(*r as usize % g.edge_count().max(1))),
            ),
        };
        let pairs = all_pairs(g.node_count());
        for failures in &[random_set, FaultSet::empty(model)] {
            let (seq, pooled) = serve_both(&served_owned, failures, &pairs);
            prop_assert_eq!(
                &serve_both(&served_mapped, failures, &pairs),
                &(seq, pooled),
                "mapped serving of a partitioned spanner diverged under epoch {}", failures
            );
        }
    }
}
