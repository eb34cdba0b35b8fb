//! Zero-copy serving must be invisible in the answers.
//!
//! The `VFTSPANR` layout is read in place: [`FrozenSpanner::open`]
//! borrows the packed adjacency straight out of an aligned byte buffer
//! ([`MappedSpanner`]) instead of decoding it into owned tables. These
//! property tests pin the whole point of that machinery: across random
//! weighted graphs, both fault models, and budgets `f ∈ {0, 1, 2}`,
//! a server over the **mapped** artifact answers every epoch'd
//! `route_batch` and `par_route_batch` bit-identically (routes, edges,
//! distances, errors) to a server over the same artifact **eagerly
//! decoded** — and so does the routing-only detached-witness variant,
//! whose answers cannot depend on the witness section it no longer
//! carries.

use proptest::prelude::*;
use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::EpochServer;
use spanner_core::{FrozenSpanner, FtGreedy};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::{EdgeId, Graph, NodeId, SharedBytes, Weight};
use std::sync::Arc;

fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (5..=max_n).prop_flat_map(move |n| {
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

/// One epoch'd batch per entry point: sequential and pooled.
fn serve_both(
    server: &EpochServer,
    failures: &FaultSet,
    pairs: &[(NodeId, NodeId)],
) -> (Answers, Answers) {
    let mut session = server.epoch(failures);
    (session.route_batch(pairs), session.par_route_batch(pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn mapped_artifact_serves_bit_identically_to_owned_decode(
        g in arb_graph(9, 4),
        f in 0usize..3,
        edge_model in any::<bool>(),
        fault_raw in proptest::collection::vec(any::<u32>(), 0..4),
    ) {
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let ft = FtGreedy::new(&g, 3).faults(f).model(model).run();
        let bytes = ft.freeze(&g).encode();

        let owned = Arc::new(FrozenSpanner::decode(&bytes).expect("own encoding must decode"));
        let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes))
            .expect("own encoding must open in place");
        prop_assert!(mapped.is_in_place(), "open() must borrow, not copy");

        // The detached routing-only replica: same bytes minus witnesses.
        let detached_bytes = owned.detach_witnesses().encode();
        let detached = FrozenSpanner::open(SharedBytes::copy_aligned(&detached_bytes))
            .expect("detached artifact must open in place");
        prop_assert!(detached.witnesses_detached());

        let served_owned = EpochServer::new(Arc::clone(&owned)).with_threads(3);
        let served_mapped = EpochServer::from_mapped(mapped).with_threads(3);
        let served_detached = EpochServer::from_mapped(detached).with_threads(3);

        // Epoch schedule: a random draw (within and beyond budget), and
        // the empty epoch.
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
                &(seq.clone(), pooled.clone()),
                "mapped serving diverged under epoch {}", failures
            );
            prop_assert_eq!(
                &serve_both(&served_detached, failures, &pairs),
                &(seq, pooled),
                "detached serving diverged under epoch {}", failures
            );
        }
    }
}
