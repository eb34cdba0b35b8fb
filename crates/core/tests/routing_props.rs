//! Property tests for the routing and simulation layers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::route_one;
use spanner_core::simulation::{simulate, SimulationConfig};
use spanner_core::{EpochServer, FrozenSpanner, FtGreedy};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::generators::{complete, grid};
use spanner_graph::transform::disjoint_union;
use spanner_graph::{
    DijkstraEngine, Dist, EdgeId, FaultMask, Graph, GraphView, NodeId, PathScratch, Weight,
};
use std::sync::Arc;

/// The canonical route by its definition, independent of any serving
/// search: distances from a plain SSSP, then a walk back from `to` that
/// takes, at every vertex, the smallest-id tight predecessor edge. The
/// endpoint checks follow the documented order (ids in range, then
/// endpoints alive).
fn canonical_reference(
    frozen: &FrozenSpanner,
    mask: &FaultMask,
    from: NodeId,
    to: NodeId,
) -> Result<Route, RouteError> {
    for v in [from, to] {
        if v.index() >= frozen.node_count() {
            return Err(RouteError::InvalidEndpoint(v));
        }
    }
    for v in [from, to] {
        if mask.is_vertex_faulted(v) {
            return Err(RouteError::EndpointFailed(v));
        }
    }
    let csr = frozen.csr();
    let dist = DijkstraEngine::new().sssp(csr, from, mask);
    if !dist[to.index()].is_finite() {
        return Err(RouteError::Unreachable { from, to });
    }
    let (mut nodes, mut edges) = (vec![to], Vec::new());
    let mut v = to;
    while v != from {
        let mut best: Option<(EdgeId, NodeId)> = None;
        csr.for_each_neighbor(v, |u, e, w| {
            let tight = mask.allows(u, e) && dist[u.index()] + w == dist[v.index()];
            if tight && best.map_or(true, |(b, _)| e < b) {
                best = Some((e, u));
            }
        });
        let (e, u) = best.expect("a reachable vertex has a tight predecessor");
        edges.push(e);
        nodes.push(u);
        v = u;
    }
    nodes.reverse();
    edges.reverse();
    Ok(Route {
        nodes,
        edges,
        dist: dist[to.index()],
    })
}

/// The same pair answered by extraction from a full `search_from`.
fn full_search_answer(
    frozen: &FrozenSpanner,
    mask: &FaultMask,
    from: NodeId,
    to: NodeId,
) -> Result<Route, RouteError> {
    // Endpoint errors come from the reference; only compare searches.
    let checked = canonical_reference(frozen, mask, from, to);
    if matches!(
        checked,
        Err(RouteError::InvalidEndpoint(_) | RouteError::EndpointFailed(_))
    ) {
        return checked;
    }
    let mut engine = DijkstraEngine::new();
    let mut out = PathScratch::new();
    engine.search_from(frozen.csr(), from, Dist::INFINITE, mask);
    if engine.extract_path_into(to, Dist::INFINITE, &mut out) {
        Ok(Route {
            nodes: out.nodes().to_vec(),
            edges: out.edges().to_vec(),
            dist: out.dist(),
        })
    } else {
        Err(RouteError::Unreachable { from, to })
    }
}

/// Tie-heavy parents: unit-weight grids, unit-weight complete graphs,
/// random graphs with weights in {1, 2}, and two disjoint random pieces
/// (so the spanner has several components and the landmark table holds
/// unreachable entries).
fn tie_heavy_graph(family: usize, shape: (usize, usize), a: &Graph, b: &Graph) -> Graph {
    match family {
        0 => grid(shape.0, shape.1),
        1 => complete(shape.0 + shape.1),
        2 => a.clone(),
        _ => disjoint_union(a, b),
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every route a serving session returns is structurally valid:
    /// consecutive nodes joined by the listed spanner edges, no faulted
    /// component used, weight adds up.
    #[test]
    fn routes_are_structurally_valid(
        g in arb_graph(9, 4),
        faults in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        let ft = FtGreedy::new(&g, 3).faults(faults.len()).run();
        let spanner = ft.into_spanner();
        let h = spanner.graph().clone();
        let server = EpochServer::new(Arc::new(spanner.freeze()));
        let fault_set = FaultSet::vertices(
            faults.iter().map(|f| NodeId::new(*f as usize % g.node_count())),
        );
        let mut session = server.epoch(&fault_set);
        for u in 0..g.node_count() {
            for v in (u + 1)..g.node_count() {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                match session.route(u, v) {
                    Ok(route) => {
                        prop_assert_eq!(*route.nodes.first().unwrap(), u);
                        prop_assert_eq!(*route.nodes.last().unwrap(), v);
                        prop_assert_eq!(route.edges.len() + 1, route.nodes.len());
                        let mut total = 0u64;
                        for (i, e) in route.edges.iter().enumerate() {
                            let (a, b) = h.endpoints(*e);
                            let (x, y) = (route.nodes[i], route.nodes[i + 1]);
                            prop_assert!((a, b) == (x, y) || (a, b) == (y, x));
                            total += h.weight(*e).get();
                        }
                        prop_assert_eq!(route.dist.value(), Some(total));
                        for n in &route.nodes {
                            prop_assert!(!fault_set.vertex_faults().contains(n));
                        }
                    }
                    Err(RouteError::EndpointFailed(x)) => {
                        prop_assert!(x == u || x == v);
                        prop_assert!(fault_set.vertex_faults().contains(&x));
                    }
                    Err(RouteError::Unreachable { .. }) => {
                        // Allowed only when faults exceed what the spanner
                        // was built for OR the parent is disconnected too —
                        // checked by the FT property tests elsewhere.
                    }
                    // RouteError is #[non_exhaustive].
                    Err(other) => prop_assert!(false, "unexpected error {other}"),
                }
            }
        }
    }

    /// One definition of "the route": on tie-heavy spanners, under both
    /// fault models and f ∈ {0, 1, 2}, the served route (landmark A*),
    /// the primitive `route_one`, extraction from a full `search_from`,
    /// and the by-definition canonical reference agree bit for bit on
    /// every ordered pair — out-of-range endpoints included.
    #[test]
    fn every_search_serves_the_canonical_route(
        family in 0usize..4,
        shape in (2usize..5, 2usize..5),
        a in arb_graph(8, 2),
        b in arb_graph(6, 2),
        f in 0usize..3,
        edge_model in any::<bool>(),
        raw in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        let g = tie_heavy_graph(family, shape, &a, &b);
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let ft = FtGreedy::new(&g, 3).faults(f).model(model).run();
        let frozen = Arc::new(ft.freeze(&g));
        let server = EpochServer::new(Arc::clone(&frozen));
        let faults = match model {
            FaultModel::Vertex => FaultSet::vertices(
                raw.iter().map(|r| NodeId::new(*r as usize % g.node_count())),
            ),
            FaultModel::Edge => FaultSet::edges(
                raw.iter()
                    .filter(|_| g.edge_count() > 0)
                    .map(|r| EdgeId::new(*r as usize % g.edge_count().max(1))),
            ),
        };
        let mut session = server.epoch(&faults);
        let mask = session.view().mask().clone();
        let (mut engine, mut scratch) = (DijkstraEngine::new(), PathScratch::new());
        let n = g.node_count();
        for u in 0..n + 2 {
            for v in 0..n + 2 {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                let want = canonical_reference(&frozen, &mask, u, v);
                prop_assert_eq!(&session.route(u, v), &want, "route {}->{}", u, v);
                prop_assert_eq!(
                    &route_one(&frozen, &mut engine, &mut scratch, &mask, u, v),
                    &want,
                    "route_one {}->{}", u, v
                );
                prop_assert_eq!(
                    &full_search_answer(&frozen, &mask, u, v),
                    &want,
                    "search_from {}->{}", u, v
                );
                prop_assert_eq!(
                    session.route_cost(u, v),
                    want.map(|r| r.dist),
                    "route_cost {}->{}", u, v
                );
            }
        }
    }

    /// Simulation invariants hold for arbitrary (sane) configurations.
    #[test]
    fn simulation_counters_consistent(
        g in arb_graph(8, 3),
        steps in 5usize..40,
        fail_pct in 0u32..20,
        repair_pct in 10u32..90,
        seed in 0u64..1000,
    ) {
        let f = 1usize;
        let ft = FtGreedy::new(&g, 3).faults(f).run();
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = simulate(
            &g,
            ft.into_spanner(),
            f,
            SimulationConfig {
                steps,
                failure_probability: fail_pct as f64 / 100.0,
                repair_probability: repair_pct as f64 / 100.0,
                queries_per_step: 3,
                model: FaultModel::Vertex,
            },
            &mut rng,
        );
        prop_assert_eq!(outcome.steps, steps);
        prop_assert!(outcome.steps_within_budget <= steps);
        prop_assert!(outcome.routed <= outcome.queries);
        prop_assert!(outcome.served_within_stretch <= outcome.routed);
        prop_assert!(outcome.in_budget_queries <= outcome.queries);
        prop_assert!(outcome.in_budget_served_within_stretch <= outcome.in_budget_queries);
        prop_assert!(outcome.in_budget_hit_rate() <= 1.0 + 1e-9);
        prop_assert!(outcome.overall_hit_rate() <= 1.0 + 1e-9);
        // FT contract: a correct f-FT spanner never violates in budget,
        // so its in-budget hit rate is exactly 1.
        prop_assert_eq!(outcome.contract_violations, 0);
        prop_assert_eq!(outcome.in_budget_hit_rate(), 1.0);
        prop_assert!(outcome.events.iter().all(|e| !e.in_budget));
    }
}
