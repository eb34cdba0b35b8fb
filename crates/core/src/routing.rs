//! Route values, routing errors, and stretch auditing.
//!
//! Serving happens in [`serve`](crate::serve): freeze the spanner
//! ([`Spanner::freeze`](crate::Spanner::freeze)), open
//! [`EpochServer`](crate::serve::EpochServer) sessions, and answer
//! queries through them (or through the primitive
//! [`serve::route_one`](crate::serve::route_one) reference). This
//! module holds what those answers are made of — [`Route`] and
//! [`RouteError`], with the stable error-code taxonomy — plus
//! [`stretch_against`], the audit that prices a served route against
//! the surviving *parent* graph.
//!
//! (The one-query-at-a-time `ResilientRouter` and the mutate-then-query
//! `QueryEngine` shims that used to live here and in `query` were
//! deprecated in PR 6 and are gone; every caller speaks to the serving
//! layer directly and gets bit-identical answers, because the shims
//! were already routing through it.)

use spanner_faults::FaultSet;
use spanner_graph::{DijkstraEngine, Dist, EdgeId, FaultMask, Graph, NodeId};

/// A route served from a frozen spanner artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Vertices from source to target inclusive.
    pub nodes: Vec<NodeId>,
    /// Spanner edges in path order.
    pub edges: Vec<EdgeId>,
    /// Total route weight.
    pub dist: Dist,
}

/// Routing errors.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// Source or target is not a vertex of the artifact (id out of
    /// range). Reported before any fault-view check.
    InvalidEndpoint(NodeId),
    /// Source or target is currently failed.
    EndpointFailed(NodeId),
    /// No surviving route exists in the spanner.
    Unreachable {
        /// The query source.
        from: NodeId,
        /// The query target.
        to: NodeId,
    },
}

/// Every stable [`RouteError`] code, one per variant; pinned together
/// with the decode-path codes by `tests/error_taxonomy.rs`.
pub const ROUTE_ERROR_CODES: &[&str] = &[
    "route/invalid-endpoint",
    "route/endpoint-failed",
    "route/unreachable",
];

impl RouteError {
    /// A stable, machine-readable error code (part of the public error
    /// taxonomy: codes never change meaning; new variants get new
    /// codes). Match on codes, not on variants, when forward
    /// compatibility matters — the enum is `#[non_exhaustive]`.
    pub fn code(&self) -> &'static str {
        match self {
            RouteError::InvalidEndpoint(_) => "route/invalid-endpoint",
            RouteError::EndpointFailed(_) => "route/endpoint-failed",
            RouteError::Unreachable { .. } => "route/unreachable",
        }
    }
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::InvalidEndpoint(v) => write!(f, "endpoint {v} is not a vertex"),
            RouteError::EndpointFailed(v) => write!(f, "endpoint {v} is failed"),
            RouteError::Unreachable { from, to } => {
                write!(f, "no surviving route from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The achieved stretch of a route against the parent graph under the
/// same failures: `1.0` means the route is optimal; `None` if the
/// parent itself has no surviving path (then any route is a bonus) or
/// the route is empty.
///
/// This is the audit side of the spanner contract — an `f`-FT
/// `k`-spanner promises every in-budget answer stays within `k×` of
/// what the surviving *parent* would charge.
///
/// # Examples
///
/// ```
/// use spanner_core::{routing::stretch_against, serve::EpochServer, FtGreedy};
/// use spanner_faults::FaultSet;
/// use spanner_graph::{generators::complete, NodeId};
/// use std::sync::Arc;
///
/// let g = complete(8);
/// let ft = FtGreedy::new(&g, 3).faults(1).run();
/// let server = EpochServer::new(Arc::new(ft.freeze(&g)));
///
/// let failed = FaultSet::vertices([NodeId::new(3)]);
/// let route = server.epoch(&failed).route(NodeId::new(0), NodeId::new(7))?;
/// let stretch = stretch_against(&g, &route, &failed).unwrap();
/// assert!(stretch <= 3.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn stretch_against(parent: &Graph, route: &Route, failures: &FaultSet) -> Option<f64> {
    let (from, to) = (*route.nodes.first()?, *route.nodes.last()?);
    let mut parent_mask = FaultMask::for_graph(parent);
    for v in failures.vertex_faults() {
        parent_mask.fault_vertex(*v);
    }
    for e in failures.edge_faults() {
        parent_mask.fault_edge(*e);
    }
    let best =
        DijkstraEngine::new().dist_bounded(parent, from, to, Dist::INFINITE, &parent_mask)?;
    let achieved = route.dist.value()? as f64;
    Some(achieved / best.value().max(Some(1))? as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::EpochServer;
    use crate::FtGreedy;
    use spanner_graph::generators::{complete, cycle};
    use std::sync::Arc;

    fn server_over_complete(n: usize, f: usize) -> (Graph, EpochServer) {
        let g = complete(n);
        let ft = FtGreedy::new(&g, 3).faults(f).run();
        let server = EpochServer::new(Arc::new(ft.freeze(&g)));
        (g, server)
    }

    #[test]
    fn routes_within_stretch_with_no_failures() {
        let (g, server) = server_over_complete(10, 1);
        let empty = FaultSet::vertices([]);
        let mut session = server.epoch(&empty);
        for u in 0..10 {
            for v in (u + 1)..10 {
                let route = session.route(NodeId::new(u), NodeId::new(v)).unwrap();
                assert!(route.dist <= Dist::finite(3));
                let stretch = stretch_against(&g, &route, &empty).unwrap();
                assert!(stretch <= 3.0);
            }
        }
    }

    #[test]
    fn survives_every_single_vertex_failure() {
        let (g, server) = server_over_complete(9, 1);
        for failed in 0..9usize {
            let failures = FaultSet::vertices([NodeId::new(failed)]);
            let mut session = server.epoch(&failures);
            for u in 0..9 {
                for v in (u + 1)..9 {
                    if u == failed || v == failed {
                        continue;
                    }
                    let route = session.route(NodeId::new(u), NodeId::new(v)).unwrap();
                    let stretch = stretch_against(&g, &route, &failures).unwrap();
                    assert!(stretch <= 3.0, "stretch {stretch} after failing v{failed}");
                }
            }
        }
    }

    #[test]
    fn endpoint_failure_is_reported() {
        let (_, server) = server_over_complete(6, 1);
        let failures = FaultSet::vertices([NodeId::new(2)]);
        let err = server
            .epoch(&failures)
            .route(NodeId::new(2), NodeId::new(4))
            .unwrap_err();
        assert_eq!(err, RouteError::EndpointFailed(NodeId::new(2)));
        assert!(err.to_string().contains("v2"));
    }

    #[test]
    fn unreachable_is_reported_beyond_budget() {
        // A plain (f=0) 3-spanner of C4 drops one edge (the detour has
        // exactly 3 hops); failing an interior vertex of the remaining
        // path disconnects survivors.
        let g = cycle(4);
        let plain = crate::greedy_spanner(&g, 3);
        assert!(plain.edge_count() < 4);
        let server = EpochServer::new(Arc::new(plain.freeze()));
        // Find some failure that disconnects a pair.
        let mut saw_unreachable = false;
        for failed in 0..4usize {
            let failures = FaultSet::vertices([NodeId::new(failed)]);
            let mut session = server.epoch(&failures);
            for u in 0..4 {
                for v in (u + 1)..4 {
                    if u == failed || v == failed {
                        continue;
                    }
                    if let Err(RouteError::Unreachable { .. }) =
                        session.route(NodeId::new(u), NodeId::new(v))
                    {
                        saw_unreachable = true;
                    }
                }
            }
        }
        assert!(
            saw_unreachable,
            "under-built spanner must disconnect somewhere"
        );
    }

    #[test]
    fn route_cost_matches_route_dist() {
        let (_, server) = server_over_complete(9, 1);
        for failed in 0..9usize {
            let failures = FaultSet::vertices([NodeId::new(failed)]);
            let mut session = server.epoch(&failures);
            for u in 0..9 {
                for v in (u + 1)..9 {
                    let (u, v) = (NodeId::new(u), NodeId::new(v));
                    let by_route = session.route(u, v).map(|r| r.dist);
                    let by_cost = session.route_cost(u, v);
                    assert_eq!(by_route, by_cost, "{u}->{v} failing v{failed}");
                }
            }
        }
    }

    #[test]
    fn route_cost_reports_masked_endpoint() {
        let (_, server) = server_over_complete(6, 1);
        let err = server
            .epoch(&FaultSet::vertices([NodeId::new(2)]))
            .route_cost(NodeId::new(2), NodeId::new(4))
            .unwrap_err();
        assert_eq!(err, RouteError::EndpointFailed(NodeId::new(2)));
    }

    #[test]
    fn parent_edge_failures_translate() {
        let g = cycle(6);
        let full = crate::Spanner::from_parent_edges(&g, g.edge_ids(), 3);
        let server = EpochServer::new(Arc::new(full.freeze()));
        // Fail one parent edge; the route detours the long way.
        let failures = FaultSet::edges([EdgeId::new(0)]);
        let route = server
            .epoch(&failures)
            .route(NodeId::new(0), NodeId::new(1))
            .unwrap();
        assert_eq!(route.dist, Dist::finite(5));
    }

    #[test]
    fn route_structure_is_consistent() {
        let (_, server) = server_over_complete(8, 1);
        let failures = FaultSet::vertices([NodeId::new(5)]);
        let route = server
            .epoch(&failures)
            .route(NodeId::new(0), NodeId::new(7))
            .unwrap();
        assert_eq!(*route.nodes.first().unwrap(), NodeId::new(0));
        assert_eq!(*route.nodes.last().unwrap(), NodeId::new(7));
        assert_eq!(route.edges.len() + 1, route.nodes.len());
        assert!(!route.nodes.contains(&NodeId::new(5)));
    }
}
