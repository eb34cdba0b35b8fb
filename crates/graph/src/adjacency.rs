//! The [`GraphView`] abstraction: one adjacency contract, many layouts.
//!
//! The FT-greedy oracle loop issues up to `O(k^f)` bounded Dijkstras per
//! candidate edge, and the structure those Dijkstras traverse changes as
//! the spanner grows. [`Graph`](crate::Graph) is the growable
//! Vec-of-Vec representation; [`IncrementalCsr`](crate::IncrementalCsr)
//! is the cache-friendly flat layout the hot path prefers. Algorithms
//! that only *read* adjacency ([`DijkstraEngine`](crate::DijkstraEngine),
//! the max-flow queries in [`connectivity`](crate::connectivity)) are
//! generic over this trait, so both layouts run through identical —
//! monomorphized, allocation-free — code paths.
//!
//! # Determinism contract
//!
//! Implementations must present each vertex's neighbors **in increasing
//! edge-id order** (which for [`Graph`] equals insertion order). Greedy
//! spanner outputs depend on shortest-path tie-breaks, which depend on
//! neighbor iteration order; the equivalence property tests between the
//! adjacency-list and CSR paths rely on this contract.

use crate::{EdgeId, NodeId, Weight};

/// Read-only access to an undirected weighted graph's adjacency.
///
/// See the module docs for the ordering contract. The trait is not
/// object-safe ([`GraphView::for_each_neighbor`] is generic) by design:
/// the hot loops that use it must monomorphize.
pub trait GraphView {
    /// Number of vertices (ids are dense in `0..node_count()`).
    fn node_count(&self) -> usize;

    /// Number of undirected edges (ids are dense in `0..edge_count()`).
    fn edge_count(&self) -> usize;

    /// Endpoints of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId);

    /// Weight of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    fn edge_weight(&self, edge: EdgeId) -> Weight;

    /// Calls `f` for every `(neighbor, via-edge, weight)` incident to
    /// `node`, in increasing edge-id order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn for_each_neighbor(&self, node: NodeId, f: impl FnMut(NodeId, EdgeId, Weight));

    /// Looks up the edge joining `u` and `v`, if any (graphs are simple,
    /// so it is unique).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let mut found = None;
        self.for_each_neighbor(u, |to, eid, _| {
            if to == v && found.is_none() {
                found = Some(eid);
            }
        });
        found
    }
}

impl GraphView for crate::Graph {
    #[inline]
    fn node_count(&self) -> usize {
        crate::Graph::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        crate::Graph::edge_count(self)
    }

    #[inline]
    fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        self.endpoints(edge)
    }

    #[inline]
    fn edge_weight(&self, edge: EdgeId) -> Weight {
        self.weight(edge)
    }

    #[inline]
    fn for_each_neighbor(&self, node: NodeId, mut f: impl FnMut(NodeId, EdgeId, Weight)) {
        for (to, eid) in self.neighbors(node) {
            f(to, eid, self.weight(eid));
        }
    }

    #[inline]
    fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.contains_edge(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph};

    fn collect<V: GraphView>(view: &V, v: NodeId) -> Vec<(NodeId, EdgeId, Weight)> {
        let mut out = Vec::new();
        view.for_each_neighbor(v, |n, e, w| out.push((n, e, w)));
        out
    }

    #[test]
    fn graph_impl_matches_inherent_methods() {
        let g = generators::petersen();
        assert_eq!(GraphView::node_count(&g), g.node_count());
        assert_eq!(GraphView::edge_count(&g), g.edge_count());
        for v in g.nodes() {
            let via_trait: Vec<(NodeId, EdgeId)> =
                collect(&g, v).into_iter().map(|(n, e, _)| (n, e)).collect();
            let direct: Vec<(NodeId, EdgeId)> = g.neighbors(v).collect();
            assert_eq!(via_trait, direct);
        }
        for (id, e) in g.edges() {
            assert_eq!(GraphView::edge_endpoints(&g, id), e.endpoints());
            assert_eq!(GraphView::edge_weight(&g, id), e.weight());
        }
    }

    #[test]
    fn neighbor_order_is_edge_id_order() {
        // The determinism contract: per-node lists sorted by edge id.
        let g = Graph::from_edges(4, [(0, 1), (2, 0), (0, 3), (1, 2)]).unwrap();
        for v in g.nodes() {
            let eids: Vec<EdgeId> = collect(&g, v).into_iter().map(|(_, e, _)| e).collect();
            let mut sorted = eids.clone();
            sorted.sort();
            assert_eq!(eids, sorted, "neighbors of {v} not in edge-id order");
        }
    }

    #[test]
    fn default_find_edge_agrees_with_contains_edge() {
        struct Wrapper<'a>(&'a Graph);
        impl GraphView for Wrapper<'_> {
            fn node_count(&self) -> usize {
                GraphView::node_count(self.0)
            }
            fn edge_count(&self) -> usize {
                GraphView::edge_count(self.0)
            }
            fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
                GraphView::edge_endpoints(self.0, edge)
            }
            fn edge_weight(&self, edge: EdgeId) -> Weight {
                GraphView::edge_weight(self.0, edge)
            }
            fn for_each_neighbor(&self, node: NodeId, f: impl FnMut(NodeId, EdgeId, Weight)) {
                self.0.for_each_neighbor(node, f);
            }
        }
        let g = generators::grid(3, 3);
        let w = Wrapper(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                assert_eq!(w.find_edge(u, v), g.contains_edge(u, v));
            }
        }
    }
}
