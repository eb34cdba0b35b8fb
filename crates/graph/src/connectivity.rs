//! Edge and vertex connectivity via Menger/max-flow.
//!
//! Why a spanner library needs this: an `f`-VFT spanner can only preserve
//! `s–t` reachability if `G` itself has more than `f` internally disjoint
//! `s–t` routes. These exact connectivity queries power feasibility checks
//! in examples and tests (e.g. the lower-bound blow-up must be exactly
//! `2t`-connected for its criticality argument to bite), and provide the
//! ground truth that the length-bounded greedy packing in
//! `spanner-faults` is validated against.

use crate::adjacency::GraphView;
use crate::flow::FlowNetwork;
use crate::{EdgeId, FaultMask, NodeId};

/// Iterates live (unmasked) edges of a view in edge-id order — the shared
/// scan of both network builders, deterministic across graph layouts.
fn for_each_live_edge<V: GraphView>(view: &V, mask: &FaultMask, mut f: impl FnMut(NodeId, NodeId)) {
    for i in 0..view.edge_count() {
        let id = EdgeId::new(i);
        let (u, v) = view.edge_endpoints(id);
        if mask.is_edge_faulted(id) || mask.is_vertex_faulted(u) || mask.is_vertex_faulted(v) {
            continue;
        }
        f(u, v);
    }
}

/// Builds the unit-capacity network of `graph ∖ mask` for edge cuts.
fn edge_network<V: GraphView>(graph: &V, mask: &FaultMask) -> FlowNetwork {
    let mut net = FlowNetwork::new(graph.node_count());
    for_each_live_edge(graph, mask, |u, v| {
        net.add_undirected_unit(u.index(), v.index());
    });
    net
}

/// Maximum number of edge-disjoint `s–t` paths in `graph ∖ mask`
/// (equivalently, the minimum `s–t` edge cut), capped at `limit`.
///
/// # Panics
///
/// Panics if `s == t` or either vertex is out of range.
///
/// # Examples
///
/// ```
/// use spanner_graph::{connectivity, FaultMask, Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])?;
/// let mask = FaultMask::for_graph(&g);
/// let lambda = connectivity::edge_connectivity_st(
///     &g, &mask, NodeId::new(0), NodeId::new(3), u32::MAX);
/// assert_eq!(lambda, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn edge_connectivity_st<V: GraphView>(
    graph: &V,
    mask: &FaultMask,
    s: NodeId,
    t: NodeId,
    limit: u32,
) -> u32 {
    edge_network(graph, mask).max_flow(s.index(), t.index(), limit)
}

/// Global edge connectivity `λ(G ∖ mask)`: the minimum over all vertices
/// `t ≠ s` of `λ(s, t)` for a fixed live `s`. Returns 0 for graphs with
/// fewer than two live vertices or disconnected graphs.
pub fn edge_connectivity<V: GraphView>(graph: &V, mask: &FaultMask) -> u32 {
    let live: Vec<NodeId> = (0..graph.node_count())
        .map(NodeId::new)
        .filter(|v| !mask.is_vertex_faulted(*v))
        .collect();
    if live.len() < 2 {
        return 0;
    }
    let s = live[0];
    let mut best = u32::MAX;
    for &t in &live[1..] {
        best = best.min(edge_connectivity_st(graph, mask, s, t, best));
        if best == 0 {
            break;
        }
    }
    best
}

/// Maximum number of internally vertex-disjoint `s–t` paths in
/// `graph ∖ mask`, capped at `limit`; `None` if `s` and `t` are adjacent
/// (then κ(s,t) is unbounded by convention — no vertex cut separates
/// them).
///
/// Implemented by vertex splitting: each vertex `v ∉ {s, t}` becomes
/// `v_in → v_out` with capacity 1; each surviving edge contributes arcs
/// between the split halves.
///
/// # Panics
///
/// Panics if `s == t` or either vertex is out of range or faulted.
pub fn vertex_connectivity_st<V: GraphView>(
    graph: &V,
    mask: &FaultMask,
    s: NodeId,
    t: NodeId,
    limit: u32,
) -> Option<u32> {
    assert!(
        !mask.is_vertex_faulted(s) && !mask.is_vertex_faulted(t),
        "terminal is faulted"
    );
    if graph
        .find_edge(s, t)
        .is_some_and(|e| !mask.is_edge_faulted(e))
    {
        return None;
    }
    let mut net = split_network(graph, mask, s, t);
    Some(net.max_flow(s.index(), t.index(), limit))
}

/// The vertex-split network: node `v` becomes `v_in = v`, `v_out = v + n`
/// joined by a capacity-1 arc (terminals collapsed to a single node). Edge
/// arcs get effectively infinite capacity, so only split arcs limit the
/// flow.
fn split_network<V: GraphView>(graph: &V, mask: &FaultMask, s: NodeId, t: NodeId) -> FlowNetwork {
    let n = graph.node_count();
    let big = n as u32 + 1; // no s-t flow can exceed n
    let mut net = FlowNetwork::new(2 * n);
    for i in 0..n {
        let v = NodeId::new(i);
        if v == s || v == t || mask.is_vertex_faulted(v) {
            continue;
        }
        net.add_arc(v.index(), v.index() + n, 1);
    }
    let out_of = |v: NodeId| {
        if v == s || v == t {
            v.index()
        } else {
            v.index() + n
        }
    };
    let in_of = |v: NodeId| v.index();
    for_each_live_edge(graph, mask, |u, v| {
        net.add_arc(out_of(u), in_of(v), big);
        net.add_arc(out_of(v), in_of(u), big);
    });
    net
}

/// Decides whether `graph ∖ mask` is `k`-vertex-connected: at least `k+1`
/// live vertices and every non-adjacent live pair joined by ≥ k
/// internally disjoint paths.
///
/// Cost: O(n²) bounded max-flows in the worst case; intended for
/// moderate-size feasibility checks and tests.
pub fn is_k_vertex_connected<V: GraphView>(graph: &V, mask: &FaultMask, k: u32) -> bool {
    if k == 0 {
        return true;
    }
    let live: Vec<NodeId> = (0..graph.node_count())
        .map(NodeId::new)
        .filter(|v| !mask.is_vertex_faulted(*v))
        .collect();
    if (live.len() as u32) < k + 1 {
        return false;
    }
    for (i, &u) in live.iter().enumerate() {
        for &v in &live[i + 1..] {
            match vertex_connectivity_st(graph, mask, u, v, k) {
                None => continue, // adjacent pairs impose no cut constraint
                Some(kappa) => {
                    if kappa < k {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Global vertex connectivity `κ(G ∖ mask)`: the largest `k` for which
/// [`is_k_vertex_connected`] holds; complete live subgraphs report
/// `live − 1`. Intended for small graphs (binary search over `k` with
/// O(n²) flows per probe).
pub fn vertex_connectivity<V: GraphView>(graph: &V, mask: &FaultMask) -> u32 {
    let live = (0..graph.node_count())
        .map(NodeId::new)
        .filter(|v| !mask.is_vertex_faulted(*v))
        .count() as u32;
    if live < 2 {
        return 0;
    }
    let mut lo = 0u32; // always k-connected for k = 0
    let mut hi = live - 1;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if is_k_vertex_connected(graph, mask, mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::{EdgeId, Graph};

    fn no_faults(g: &Graph) -> FaultMask {
        FaultMask::for_graph(g)
    }

    #[test]
    fn cycle_is_two_connected() {
        let g = generators::cycle(6);
        let mask = no_faults(&g);
        assert_eq!(edge_connectivity(&g, &mask), 2);
        assert_eq!(vertex_connectivity(&g, &mask), 2);
    }

    #[test]
    fn path_is_one_connected() {
        let g = generators::path(5);
        let mask = no_faults(&g);
        assert_eq!(edge_connectivity(&g, &mask), 1);
        assert_eq!(vertex_connectivity(&g, &mask), 1);
    }

    #[test]
    fn complete_graph_connectivity() {
        let g = generators::complete(6);
        let mask = no_faults(&g);
        assert_eq!(edge_connectivity(&g, &mask), 5);
        assert_eq!(vertex_connectivity(&g, &mask), 5);
    }

    #[test]
    fn complete_bipartite_vertex_connectivity_is_min_side() {
        let g = generators::complete_bipartite(3, 5);
        let mask = no_faults(&g);
        assert_eq!(vertex_connectivity(&g, &mask), 3);
        assert_eq!(edge_connectivity(&g, &mask), 3);
    }

    #[test]
    fn petersen_is_three_connected() {
        let g = generators::petersen();
        let mask = no_faults(&g);
        assert_eq!(vertex_connectivity(&g, &mask), 3);
        assert_eq!(edge_connectivity(&g, &mask), 3);
    }

    #[test]
    fn st_vertex_connectivity_none_for_adjacent() {
        let g = generators::complete(4);
        let mask = no_faults(&g);
        assert_eq!(
            vertex_connectivity_st(&g, &mask, NodeId::new(0), NodeId::new(1), u32::MAX),
            None
        );
    }

    #[test]
    fn st_vertex_connectivity_counts_disjoint_paths() {
        // Diamond: 0 and 3 joined via 1 and via 2 (non-adjacent).
        let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let mask = no_faults(&g);
        assert_eq!(
            vertex_connectivity_st(&g, &mask, NodeId::new(0), NodeId::new(3), u32::MAX),
            Some(2)
        );
    }

    #[test]
    fn faults_reduce_connectivity() {
        let g = generators::cycle(5);
        let mut mask = no_faults(&g);
        mask.fault_edge(EdgeId::new(0));
        assert_eq!(edge_connectivity(&g, &mask), 1);
        let mut mask = no_faults(&g);
        mask.fault_vertex(NodeId::new(0));
        // C5 minus a vertex is a path: 1-connected.
        assert_eq!(vertex_connectivity(&g, &mask), 1);
    }

    #[test]
    fn disconnected_graph_is_zero_connected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mask = no_faults(&g);
        assert_eq!(edge_connectivity(&g, &mask), 0);
        assert_eq!(vertex_connectivity(&g, &mask), 0);
        assert!(!is_k_vertex_connected(&g, &mask, 1));
    }

    #[test]
    fn grid_is_two_connected() {
        let g = generators::grid(3, 3);
        let mask = no_faults(&g);
        assert_eq!(vertex_connectivity(&g, &mask), 2);
    }

    #[test]
    fn limit_caps_the_answer() {
        let g = generators::complete(8);
        let mask = no_faults(&g);
        assert_eq!(
            edge_connectivity_st(&g, &mask, NodeId::new(0), NodeId::new(1), 3),
            3
        );
    }
}
