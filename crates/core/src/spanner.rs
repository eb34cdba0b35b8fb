//! The spanner type: a subgraph with bookkeeping back to its parent.

use spanner_faults::FaultSet;
use spanner_graph::{EdgeId, FaultMask, Graph, NodeId, Weight};

/// A spanner of a parent graph: a subgraph on the same vertex set, with a
/// per-edge mapping back to parent edge ids and the stretch it was built
/// for.
///
/// Spanner edge ids are dense in insertion (construction) order;
/// [`Spanner::parent_edge`] translates them to the parent's ids. The
/// classic greedy grows [`Spanner::graph`] one kept edge at a time and
/// runs its bounded searches on it directly; FT-greedy grows its
/// oracle's shared `Graph` the same way and assembles the spanner once
/// at the end.
///
/// # Examples
///
/// ```
/// use spanner_core::greedy_spanner;
/// use spanner_graph::generators::complete;
///
/// let g = complete(8);
/// let s = greedy_spanner(&g, 3);
/// assert_eq!(s.graph().node_count(), 8);
/// assert!(s.edge_count() < g.edge_count());
/// assert_eq!(s.stretch(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Spanner {
    graph: Graph,
    parent_edges: Vec<EdgeId>,
    stretch: u64,
}

impl Spanner {
    /// Assembles a spanner from a parent graph and a set of kept parent
    /// edges (deduplicated, kept in sorted parent-id order).
    ///
    /// # Panics
    ///
    /// Panics if an edge id is out of range for `parent`.
    pub fn from_parent_edges<I>(parent: &Graph, kept: I, stretch: u64) -> Self
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let mut ids: Vec<EdgeId> = kept.into_iter().collect();
        ids.sort();
        ids.dedup();
        let mut graph = Graph::with_edge_capacity(parent.node_count(), ids.len());
        for id in &ids {
            let e = parent.edge(*id);
            graph.add_edge_unchecked(e.u(), e.v(), e.weight());
        }
        Spanner {
            graph,
            parent_edges: ids,
            stretch,
        }
    }

    /// Assembles a spanner from parent edges in the given (construction)
    /// order — no sorting, no dedup, so spanner edge ids match the
    /// caller's keep order. Used by runners that track kept edges
    /// externally (the pooled FT-greedy path, whose oracle maintains its
    /// own shared view during the run) and build the spanner once at the
    /// end.
    ///
    /// # Panics
    ///
    /// Panics if an edge id is out of range for `parent`.
    pub(crate) fn from_kept_edges_in_order(
        parent: &Graph,
        kept: Vec<EdgeId>,
        stretch: u64,
    ) -> Self {
        let mut graph = Graph::with_edge_capacity(parent.node_count(), kept.len());
        for id in &kept {
            let e = parent.edge(*id);
            graph.add_edge_unchecked(e.u(), e.v(), e.weight());
        }
        Spanner {
            graph,
            parent_edges: kept,
            stretch,
        }
    }

    /// Creates an empty spanner over `parent`'s vertex set, to be grown with
    /// `Spanner::push_edge` (used by the greedy constructions).
    pub(crate) fn empty(parent: &Graph, stretch: u64) -> Self {
        Spanner {
            graph: Graph::new(parent.node_count()),
            parent_edges: Vec::new(),
            stretch,
        }
    }

    /// Appends a parent edge to the spanner (construction order).
    pub(crate) fn push_edge(
        &mut self,
        parent_id: EdgeId,
        u: NodeId,
        v: NodeId,
        w: Weight,
    ) -> EdgeId {
        let id = self.graph.add_edge_unchecked(u, v, w);
        self.parent_edges.push(parent_id);
        id
    }

    /// The spanner as a graph (same vertex ids as the parent).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The stretch parameter the spanner was built for.
    pub fn stretch(&self) -> u64 {
        self.stretch
    }

    /// Number of spanner edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Parent edge id of a spanner edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn parent_edge(&self, edge: EdgeId) -> EdgeId {
        self.parent_edges[edge.index()]
    }

    /// All kept parent edge ids, in spanner edge-id order.
    pub fn parent_edge_ids(&self) -> &[EdgeId] {
        &self.parent_edges
    }

    /// Whether the parent edge survived into the spanner.
    pub fn contains_parent_edge(&self, parent_edge: EdgeId) -> bool {
        // parent_edges is not sorted for greedy constructions (insertion is
        // by weight order) — but ids are unique, so a linear scan is exact;
        // callers needing many lookups should build their own index.
        self.parent_edges.contains(&parent_edge)
    }

    /// Fraction of parent edges kept, `|E(H)| / |E(G)|` (1.0 for an
    /// edgeless parent).
    pub fn retention(&self, parent: &Graph) -> f64 {
        if parent.edge_count() == 0 {
            1.0
        } else {
            self.edge_count() as f64 / parent.edge_count() as f64
        }
    }

    /// Seals this spanner into an immutable, `Send + Sync`
    /// [`FrozenSpanner`](crate::FrozenSpanner) serving artifact: the
    /// packed CSR adjacency and O(1) parent-edge translation, sealed into
    /// the artifact's canonical bytes and read in place, shareable via
    /// `Arc`.
    /// Construction metadata (parent handle, budget, witnesses) is only
    /// recorded by [`FtSpanner::freeze`](crate::FtSpanner::freeze); a bare
    /// spanner has none to give.
    pub fn freeze(&self) -> crate::FrozenSpanner {
        crate::FrozenSpanner::from_spanner(self)
    }

    /// Translates a fault set expressed in *parent* ids into a mask over
    /// the spanner's graph: vertex faults carry over unchanged; edge faults
    /// hit the spanner copies of those parent edges.
    pub fn fault_mask(&self, faults: &FaultSet) -> FaultMask {
        let mut mask = FaultMask::for_graph(&self.graph);
        for v in faults.vertex_faults() {
            mask.fault_vertex(*v);
        }
        if !faults.edge_faults().is_empty() {
            for (own, parent) in self.parent_edges.iter().enumerate() {
                if faults.edge_faults().contains(parent) {
                    mask.fault_edge(EdgeId::new(own));
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::generators::cycle;

    #[test]
    fn from_parent_edges_preserves_weights_and_maps() {
        let g =
            Graph::from_weighted_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 0, 5)]).unwrap();
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(2), EdgeId::new(0)], 3);
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.parent_edge(EdgeId::new(0)), EdgeId::new(0));
        assert_eq!(s.parent_edge(EdgeId::new(1)), EdgeId::new(2));
        assert_eq!(s.graph().weight(EdgeId::new(1)).get(), 4);
        assert!(s.contains_parent_edge(EdgeId::new(0)));
        assert!(!s.contains_parent_edge(EdgeId::new(1)));
    }

    #[test]
    fn retention_ratio() {
        let g = cycle(10);
        let s = Spanner::from_parent_edges(&g, g.edge_ids().take(5), 1);
        assert_eq!(s.retention(&g), 0.5);
    }

    #[test]
    fn fault_mask_translates_parent_edges() {
        let g = cycle(4);
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(1), EdgeId::new(3)], 3);
        let mask = s.fault_mask(&FaultSet::edges([EdgeId::new(3), EdgeId::new(0)]));
        // Parent edge 3 is spanner edge 1; parent edge 0 is not in the spanner.
        assert!(mask.is_edge_faulted(EdgeId::new(1)));
        assert!(!mask.is_edge_faulted(EdgeId::new(0)));
        assert_eq!(mask.fault_count(), 1);
    }

    #[test]
    fn fault_mask_vertex_passthrough() {
        let g = cycle(4);
        let s = Spanner::from_parent_edges(&g, g.edge_ids(), 1);
        let mask = s.fault_mask(&FaultSet::vertices([NodeId::new(2)]));
        assert!(mask.is_vertex_faulted(NodeId::new(2)));
    }

    #[test]
    fn empty_parent_retention_is_one() {
        let g = Graph::new(3);
        let s = Spanner::from_parent_edges(&g, [], 3);
        assert_eq!(s.retention(&g), 1.0);
        assert_eq!(s.edge_count(), 0);
    }
}
