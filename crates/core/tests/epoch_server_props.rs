//! Concurrent epoch serving must be invisible in the answers.
//!
//! PR 6 rebuilt the read path around a shared `EpochServer` handing out
//! independent `EpochHandle` sessions with interned fault views and
//! O(Δ) epoch deltas. None of that machinery — view sharing between
//! tenants, per-handle scratch, delta derivation, batch coalescing — is
//! allowed to change a single bit of any answer: these property tests
//! pin N *interleaved* sessions with distinct fault sets to the
//! primitive [`route_one`] reference served pair by pair over a fresh
//! artifact (identical routes, distances and
//! errors across both fault models and `f ∈ {0, 1, 2}`), pin a
//! delta-derived epoch to the from-scratch epoch of the same final
//! fault set, and pin the instrumented delta counter to Σ|Δ| — the
//! serving-side work is proportional to the change, never to `|F|` or
//! `n`.

use proptest::prelude::*;
use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::route_one;
use spanner_core::{BatchCoalescer, EpochDelta, EpochServer, FrozenSpanner, FtGreedy};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::{DijkstraEngine, EdgeId, FaultMask, Graph, NodeId, PathScratch, Weight};
use std::sync::Arc;

/// Serves every pair alone through the primitive reference — one fresh
/// mask plus [`route_one`], no session machinery — the independent
/// answer the server sessions must agree with bit for bit.
fn reference_answers(
    frozen: &FrozenSpanner,
    failures: &FaultSet,
    pairs: &[(NodeId, NodeId)],
) -> Vec<Result<Route, RouteError>> {
    let mut mask = FaultMask::with_capacity(frozen.node_count(), frozen.edge_count());
    frozen.apply_faults(failures, &mut mask);
    let mut engine = DijkstraEngine::new();
    let mut scratch = PathScratch::new();
    pairs
        .iter()
        .map(|&(u, v)| route_one(frozen, &mut engine, &mut scratch, &mask, u, v))
        .collect()
}

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

/// Decodes one tenant's raw fault draw into a failure set in parent ids
/// (sized 0..3 — within and beyond the budget alike).
fn fault_set(model: FaultModel, raw: &[u32], g: &Graph) -> FaultSet {
    match model {
        FaultModel::Vertex => FaultSet::vertices(
            raw.iter()
                .map(|r| NodeId::new(*r as usize % g.node_count())),
        ),
        FaultModel::Edge => FaultSet::edges(
            raw.iter()
                .filter(|_| g.edge_count() > 0)
                .map(|r| EdgeId::new(*r as usize % g.edge_count().max(1))),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cross-tenant isolation property: N sessions over one server,
    /// each under its own fault set, answering with their queries
    /// *interleaved* round-robin (so any state leak between handles or
    /// through the shared view table would surface), must each be
    /// bit-identical to the primitive reference served over a fresh
    /// artifact that only ever saw that tenant's faults.
    #[test]
    fn interleaved_tenants_match_fresh_sequential_reference(
        g in arb_graph(8, 4),
        f in 0usize..3,
        edge_model in any::<bool>(),
        tenant_raw in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..3), 2..5),
    ) {
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let ft = FtGreedy::new(&g, 3).faults(f).model(model).run();
        let spanner = ft.into_spanner();
        let fresh = spanner.freeze();
        let server = EpochServer::new(Arc::new(spanner.freeze()));
        let tenants: Vec<FaultSet> = tenant_raw
            .iter()
            .map(|raw| fault_set(model, raw, &g))
            .collect();
        let pairs = all_pairs(g.node_count());
        let mut sessions: Vec<_> = tenants.iter().map(|t| server.epoch(t)).collect();
        // Interleave: every pair is asked of every tenant, round-robin,
        // before moving to the next pair.
        let mut answers: Vec<Vec<Result<Route, RouteError>>> =
            vec![Vec::with_capacity(pairs.len()); sessions.len()];
        for &(u, v) in &pairs {
            for (tenant, session) in sessions.iter_mut().enumerate() {
                answers[tenant].push(session.route(u, v));
            }
        }
        for (tenant, faults) in tenants.iter().enumerate() {
            let expected = reference_answers(&fresh, faults, &pairs);
            prop_assert_eq!(&answers[tenant], &expected, "tenant {}", tenant);
        }
    }

    /// The delta regression: an epoch reached by deriving from an
    /// arbitrary parent must answer exactly like the epoch built from
    /// scratch for the same final fault set (vertex model; the edge
    /// translation is pinned by unit tests and the scenario engine).
    #[test]
    fn delta_derived_epoch_equals_from_scratch(
        g in arb_graph(8, 4),
        start_raw in proptest::collection::vec(any::<u32>(), 0..3),
        end_raw in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        let server = EpochServer::new(Arc::new(ft.into_spanner().freeze()));
        let n = g.node_count();
        let start: Vec<NodeId> =
            start_raw.iter().map(|r| NodeId::new(*r as usize % n)).collect();
        let end: Vec<NodeId> =
            end_raw.iter().map(|r| NodeId::new(*r as usize % n)).collect();
        // Delta = restore everything in start, fault everything in end
        // (overlaps and duplicates included — the delta must normalize).
        let mut delta = EpochDelta::new();
        for &v in &start {
            delta.restore_vertex(v);
        }
        for &v in &end {
            delta.fault_vertex(v);
        }
        let parent = server.epoch(&FaultSet::vertices(start));
        let mut derived = parent.step(&delta);
        let mut scratch = server.epoch(&FaultSet::vertices(end));
        prop_assert!(
            Arc::ptr_eq(derived.view(), scratch.view()),
            "derived and from-scratch epochs must intern to one view"
        );
        let pairs = all_pairs(n);
        prop_assert_eq!(derived.route_batch(&pairs), scratch.route_batch(&pairs));
    }

    /// Batches mix the two batch strategies — one full search for a
    /// source with many targets, one A* per pair below the (private,
    /// 16-target) threshold — so group sizes here straddle it. Whatever
    /// the strategy, every answer must equal the pair served alone
    /// through `route`, under both fault models, f ∈ {0, 1, 2}, and with
    /// out-of-range endpoints mixed in.
    #[test]
    fn batches_straddling_the_full_search_threshold_match_single_routes(
        g in arb_graph(8, 2),
        f in 0usize..3,
        edge_model in any::<bool>(),
        raw in proptest::collection::vec(any::<u32>(), 0..3),
        groups in proptest::collection::vec(
            (any::<u32>(), 0usize..8, proptest::collection::vec(any::<u32>(), 40)), 1..5),
    ) {
        const SIZES: [usize; 8] = [1, 2, 15, 16, 17, 24, 33, 40];
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let ft = FtGreedy::new(&g, 3).faults(f).model(model).run();
        let server = EpochServer::new(Arc::new(ft.into_spanner().freeze())).with_threads(2);
        let mut session = server.epoch(&fault_set(model, &raw, &g));
        // Ids range one past the graph, so some endpoints are invalid.
        let id = |r: u32| NodeId::new(r as usize % (g.node_count() + 1));
        let pairs: Vec<(NodeId, NodeId)> = groups
            .iter()
            .flat_map(|(src, size, targets)| {
                targets[..SIZES[*size]].iter().map(move |t| (id(*src), id(*t)))
            })
            .collect();
        let single: Vec<_> = pairs.iter().map(|&(u, v)| session.route(u, v)).collect();
        prop_assert_eq!(&session.route_batch(&pairs), &single);
        prop_assert_eq!(&session.par_route_batch(&pairs), &single);
    }

    /// The coalescer front-end: per-submission answers are exactly the
    /// submitting session's own `route_batch`, regardless of how many
    /// tenants (with shared or distinct views) flushed together.
    #[test]
    fn coalesced_flush_matches_private_batches(
        g in arb_graph(8, 4),
        tenant_raw in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..3), 2..5),
    ) {
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        let server = EpochServer::new(Arc::new(ft.into_spanner().freeze()));
        let pairs = all_pairs(g.node_count());
        let sessions: Vec<_> = tenant_raw
            .iter()
            .map(|raw| server.epoch(&fault_set(FaultModel::Vertex, raw, &g)))
            .collect();
        let mut front = BatchCoalescer::new(&server);
        let tickets: Vec<_> = sessions
            .iter()
            .map(|session| front.submit(session, &pairs))
            .collect();
        let coalesced = front.flush();
        for (mut session, ticket) in sessions.into_iter().zip(tickets) {
            prop_assert_eq!(
                &coalesced[ticket.index()],
                &session.route_batch(&pairs)
            );
        }
    }
}

/// The O(Δ) instrumentation: stepping a session charges exactly the
/// delta's operation count to the server's counter — independent of how
/// many faults are already live (`|F|`) and of the graph size (`n`).
#[test]
fn delta_work_is_proportional_to_delta_not_fault_count_or_n() {
    for n in [12usize, 24] {
        let g = spanner_graph::generators::complete(n);
        let ft = FtGreedy::new(&g, 3).faults(2).run();
        let server = EpochServer::new(Arc::new(ft.into_spanner().freeze()));
        // Pile up a large standing fault set, then step by small deltas:
        // the counter must grow by Σ|Δ| only.
        let standing = FaultSet::vertices((0..n / 2).map(NodeId::new));
        let mut session = server.epoch(&standing);
        assert_eq!(server.stats().delta_component_ops, 0);
        let mut expected_ops = 0u64;
        for round in 0..5usize {
            let mut delta = EpochDelta::new();
            delta
                .fault_vertex(NodeId::new(n / 2 + (round % (n / 2 - 1))))
                .restore_vertex(NodeId::new(round % (n / 2)));
            expected_ops += delta.len() as u64;
            session.advance(&delta);
            assert_eq!(
                server.stats().delta_component_ops,
                expected_ops,
                "n={n} round={round}: delta work must equal Σ|Δ| exactly, \
                 not scale with |F|={} or n",
                n / 2
            );
        }
    }
}

/// Handles really are independent across threads: concurrent pooled and
/// sequential batches from different tenants agree with each tenant's
/// own sequential answers.
#[test]
fn concurrent_mixed_batches_are_isolated() {
    let g = spanner_graph::generators::complete(10);
    let ft = FtGreedy::new(&g, 3).faults(1).run();
    let server = EpochServer::new(Arc::new(ft.into_spanner().freeze())).with_threads(2);
    let pairs = all_pairs(10);
    let tenants: Vec<FaultSet> = (0..4)
        .map(|i| FaultSet::vertices([NodeId::new(i), NodeId::new(i + 4)]))
        .collect();
    let expected: Vec<Vec<Result<Route, RouteError>>> = tenants
        .iter()
        .map(|t| server.epoch(t).route_batch(&pairs))
        .collect();
    let got: Vec<Vec<Result<Route, RouteError>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut session = server.epoch(t);
                let pairs = &pairs;
                scope.spawn(move || {
                    if i % 2 == 0 {
                        session.par_route_batch(pairs)
                    } else {
                        session.route_batch(pairs)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(got, expected);
}
