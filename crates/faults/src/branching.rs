//! The bounded-search-tree fault oracle.
//!
//! The key observation: any fault set `F` that pushes `dist(u, v)` above
//! the bound must *hit the current shortest path* — in the vertex model one
//! of its (at most `⌈bound/min-weight⌉ − 1`) interior vertices, in the edge
//! model one of its edges. Branching over those candidates and recursing
//! with budget `f − 1` explores `O(k^f)` search nodes instead of the
//! `O(n^f)` of brute force, while remaining exact.
//!
//! Two accelerations, both optional (for the ablation experiments) and both
//! sound:
//!
//! * **Packing pruning** ([`crate::packing`]): if more than
//!   `remaining-budget` pairwise disjoint short paths survive, no extension
//!   of the current fault set can work — stop. Each node's probe starts
//!   from the shortest path the node has just found, so it never repeats
//!   the node's own Dijkstra. At the root, `f + 1` disjoint short paths
//!   are the cheap drop certificate: the query ends after a handful of
//!   Dijkstras.
//! * **Memoization**: the same fault *set* reached by different orders
//!   explores the same subtree; a hash set of visited sets collapses those
//!   permutations.
//!
//! This is still exponential in `f` — the paper explicitly leaves a faster
//! FT-greedy as an open problem, and experiment E9 measures exactly this
//! growth.
//!
//! # Guided searches
//!
//! Every Dijkstra a query runs — each search node's bounded path and the
//! seeded packing probes, all bounded by the query's `bound` — can run as A*
//! towards `v` under a [`Landmarks`] table. FT-greedy builds the table
//! once per run on the parent graph `G` whose edges it decides. The
//! spanner `H` is a subgraph of `G` with `G`'s weights, so
//! `d_G(x, v) ≤ d_{H∖F}(x, v)` for every fault set `F`: the table is a
//! consistent potential for every search of the run, while `H` grows and
//! under every mask, with no rebuild. The engine keeps the smallest-id
//! tight predecessor in every search, so a guided search finds the very
//! path the unguided one does; branching candidates, packing counts and
//! witnesses are identical with or without the table (property-tested
//! against [`crate::reference::ReferenceBranchingOracle`], which runs
//! unguided). What the table saves shows in
//! [`OracleStats::vertices_settled`].
//!
//! # Scratch-reuse contract
//!
//! One oracle instance is meant to serve a whole FT-greedy construction
//! (thousands of queries against a growing spanner). Everything the
//! search needs lives in a per-oracle [`SearchScratch`]:
//!
//! * the working [`FaultMask`] is cleared in place per query
//!   ([`FaultMask::reset_for`]) — growth is counted in
//!   [`OracleStats::scratch_rebuilds`] and goes flat after warm-up;
//! * branching candidates go into a segmented arena (one `Vec`, ranges
//!   per recursion level) instead of a fresh `Vec` per search node;
//! * path extraction reuses [`PathScratch`] buffers
//!   ([`DijkstraEngine::shortest_path_bounded_into`]);
//! * the memo keys are order-independent 128-bit Zobrist fingerprints of
//!   the current fault set, maintained incrementally on push/pop — the
//!   pre-PR-2 clone + sort of the fault vector per search node is gone.
//!
//! Queries are generic over [`GraphView`]: FT-greedy points the oracle
//! at the spanner [`Graph`] it grows, and any other layout of the same
//! edges answers identically. The frozen
//! pre-optimization implementation survives as
//! [`crate::reference::ReferenceBranchingOracle`] and the equivalence
//! property tests pin this oracle's output (spanner and witnesses) to it.

use crate::fingerprint::{component_hash, SetFingerprint};
use crate::packing::{disjoint_path_packing_counted, PackingScratch};
use crate::{FaultModel, FaultOracle, FaultSet, OracleQuery, OracleStats};
use spanner_graph::{
    DijkstraEngine, EdgeId, FaultMask, Graph, GraphView, Landmarks, NoPotential, NodeId,
    PathScratch, Potential,
};
use std::collections::HashSet;

/// Feature toggles for [`BranchingOracle`] (used by the ablation benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchingConfig {
    /// Enable the disjoint-path packing prune.
    pub use_packing: bool,
    /// Enable fault-set memoization.
    pub use_memo: bool,
}

impl Default for BranchingConfig {
    fn default() -> Self {
        BranchingConfig {
            use_packing: true,
            use_memo: true,
        }
    }
}

/// The branching fault oracle. See the module docs.
///
/// # Examples
///
/// ```
/// use spanner_faults::{BranchingOracle, FaultModel, FaultOracle, OracleQuery};
/// use spanner_graph::{Dist, Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])?;
/// let mut oracle = BranchingOracle::new();
/// let query = OracleQuery {
///     u: NodeId::new(0),
///     v: NodeId::new(3),
///     bound: Dist::finite(2),
///     budget: 2,
///     model: FaultModel::Vertex,
/// };
/// let f = oracle.find_blocking_faults(&g, query).unwrap();
/// assert_eq!(f.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct BranchingOracle {
    engine: DijkstraEngine,
    config: BranchingConfig,
    stats: OracleStats,
    scratch: SearchScratch,
}

/// Per-oracle reusable state (see the module docs). Everything here is
/// cleared — not reallocated — between queries.
#[derive(Debug, Default)]
struct SearchScratch {
    /// Working fault mask the DFS toggles in place.
    mask: FaultMask,
    /// The fault set along the current DFS root-to-node path.
    current: Vec<usize>,
    /// Order-independent fingerprints of visited fault sets.
    memo: HashSet<(u64, u64)>,
    /// Segmented candidate arena: each recursion level appends its
    /// candidates and truncates back on exit.
    cand: Vec<usize>,
    /// Incremental Zobrist fingerprint of `current` (shared scheme:
    /// [`crate::fingerprint`]).
    key: SetFingerprint,
    /// Shortest-path buffer for the node's witness path.
    path: PathScratch,
    /// Buffers for the packing probe.
    packing: PackingScratch,
}

impl BranchingOracle {
    /// Creates an oracle with both accelerations enabled.
    pub fn new() -> Self {
        BranchingOracle::default()
    }

    /// Creates an oracle with explicit feature toggles.
    pub fn with_config(config: BranchingConfig) -> Self {
        BranchingOracle {
            engine: DijkstraEngine::new(),
            config,
            stats: OracleStats::default(),
            scratch: SearchScratch::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> BranchingConfig {
        self.config
    }

    /// Replaces the configuration, keeping the scratch (the pooled
    /// oracle's helpers run each batch under the configuration it carries).
    pub(crate) fn set_config(&mut self, config: BranchingConfig) {
        self.config = config;
    }

    /// Clears the per-query scratch (keeping allocations) and sizes the
    /// working mask for `view`. Counts a scratch rebuild when the mask
    /// storage genuinely grew.
    fn begin_query<V: GraphView>(&mut self, view: &V) {
        if self
            .scratch
            .mask
            .reset_for(view.node_count(), view.edge_count())
        {
            self.stats.scratch_rebuilds += 1;
        }
        self.scratch.current.clear();
        self.scratch.memo.clear();
        self.scratch.cand.clear();
        self.scratch.key = SetFingerprint::EMPTY;
    }

    /// Applies fault `c`: mask bit, DFS path, fingerprint.
    fn push_fault(&mut self, model: FaultModel, c: usize) {
        match model {
            FaultModel::Vertex => {
                self.scratch.mask.fault_vertex(NodeId::new(c));
            }
            FaultModel::Edge => {
                self.scratch.mask.fault_edge(EdgeId::new(c));
            }
        }
        self.scratch.current.push(c);
        self.scratch.key.add(component_hash(model, c));
    }

    /// Reverts [`BranchingOracle::push_fault`].
    fn pop_fault(&mut self, model: FaultModel) {
        let c = self.scratch.current.pop().expect("pop without push");
        match model {
            FaultModel::Vertex => {
                self.scratch.mask.restore_vertex(NodeId::new(c));
            }
            FaultModel::Edge => {
                self.scratch.mask.restore_edge(EdgeId::new(c));
            }
        }
        self.scratch.key.remove(component_hash(model, c));
    }

    /// The bounded-search-tree DFS, every Dijkstra guided by `h` (a
    /// consistent potential towards `q.v`). On success (`true`) the
    /// blocking set is left applied in `scratch.current`/`scratch.mask`;
    /// on failure all faults pushed at this level are reverted.
    fn search<V: GraphView, P: Potential>(&mut self, view: &V, h: &P, q: &OracleQuery) -> bool {
        self.stats.nodes_explored += 1;
        self.stats.shortest_path_queries += 1;
        if !self.engine.shortest_path_bounded_into(
            view,
            q.u,
            q.v,
            q.bound,
            &self.scratch.mask,
            h,
            &mut self.scratch.path,
        ) {
            return true; // dist already exceeds the bound
        }
        let remaining = q.budget - self.scratch.current.len();
        if remaining == 0 {
            return false;
        }
        let cand_start = self.scratch.cand.len();
        match q.model {
            FaultModel::Vertex => {
                for n in self.scratch.path.interior_nodes() {
                    self.scratch.cand.push(n.index());
                }
            }
            FaultModel::Edge => {
                for e in self.scratch.path.edges() {
                    self.scratch.cand.push(e.index());
                }
            }
        }
        let cand_end = self.scratch.cand.len();
        if cand_end == cand_start {
            // Vertex model, direct u-v edge: unblockable.
            return false;
        }
        if self.config.use_packing {
            let probe = disjoint_path_packing_counted(
                view,
                &mut self.engine,
                &self.scratch.mask,
                q.u,
                q.v,
                q.bound,
                q.model,
                remaining + 1,
                Some(&self.scratch.path),
                h,
                &mut self.scratch.packing,
            );
            self.stats.shortest_path_queries += probe.queries;
            if probe.packed > remaining {
                self.stats.packing_prunes += 1;
                self.scratch.cand.truncate(cand_start);
                return false;
            }
        }
        let mut found = false;
        for i in cand_start..cand_end {
            let c = self.scratch.cand[i];
            self.push_fault(q.model, c);
            let skip = if self.config.use_memo {
                let key = self.scratch.key.pair();
                if self.scratch.memo.insert(key) {
                    false
                } else {
                    self.stats.memo_hits += 1;
                    true
                }
            } else {
                false
            };
            if !skip && self.search(view, h, q) {
                found = true;
                break;
            }
            self.pop_fault(q.model);
        }
        self.scratch.cand.truncate(cand_start);
        found
    }

    /// Builds the result fault set from the DFS path left in scratch.
    fn collect_current(&self, model: FaultModel) -> FaultSet {
        match model {
            FaultModel::Vertex => {
                FaultSet::vertices(self.scratch.current.iter().map(|c| NodeId::new(*c)))
            }
            FaultModel::Edge => {
                FaultSet::edges(self.scratch.current.iter().map(|c| EdgeId::new(*c)))
            }
        }
    }

    /// Like [`FaultOracle::find_blocking_faults`] but generic over the
    /// graph layout — FT-greedy points this at the spanner [`Graph`] it
    /// grows — and guided by `landmarks` when given (see the module
    /// docs).
    ///
    /// `landmarks` must be a table built on a supergraph of `view` with
    /// `view`'s weights: the construction's parent graph, covering every
    /// spanner the construction grows. The answer is the same with or
    /// without it; only the work differs.
    pub fn find_blocking_faults_in<V: GraphView>(
        &mut self,
        view: &V,
        landmarks: Option<&Landmarks>,
        query: OracleQuery,
    ) -> Option<FaultSet> {
        match landmarks {
            Some(table) => self.decide(view, &table.potential_to(query.v), query),
            None => self.decide(view, &NoPotential, query),
        }
    }

    /// One query under the potential `h` towards `query.v`.
    fn decide<V: GraphView, P: Potential>(
        &mut self,
        view: &V,
        h: &P,
        query: OracleQuery,
    ) -> Option<FaultSet> {
        self.begin_query(view);
        if self.search(view, h, &query) {
            Some(self.collect_current(query.model))
        } else {
            None
        }
    }
}

impl FaultOracle for BranchingOracle {
    /// One unguided query: an arbitrary graph comes with no landmark
    /// table.
    fn find_blocking_faults(&mut self, graph: &Graph, query: OracleQuery) -> Option<FaultSet> {
        self.find_blocking_faults_in(graph, None, query)
    }

    fn stats(&self) -> OracleStats {
        OracleStats {
            vertices_settled: self.engine.pop_count(),
            ..self.stats
        }
    }

    fn reset_stats(&mut self) {
        self.stats = OracleStats::default();
        self.engine.reset_pop_count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::Dist;

    fn q(u: usize, v: usize, bound: u64, budget: usize, model: FaultModel) -> OracleQuery {
        OracleQuery {
            u: NodeId::new(u),
            v: NodeId::new(v),
            bound: Dist::finite(bound),
            budget,
            model,
        }
    }

    fn diamond() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn finds_vertex_cut() {
        let g = diamond();
        let mut o = BranchingOracle::new();
        let f = o
            .find_blocking_faults(&g, q(0, 3, 2, 2, FaultModel::Vertex))
            .unwrap();
        assert_eq!(f, FaultSet::vertices([NodeId::new(1), NodeId::new(2)]));
    }

    #[test]
    fn budget_too_small_fails() {
        let g = diamond();
        let mut o = BranchingOracle::new();
        assert!(o
            .find_blocking_faults(&g, q(0, 3, 2, 1, FaultModel::Vertex))
            .is_none());
    }

    #[test]
    fn direct_edge_unblockable_in_vertex_model() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut o = BranchingOracle::new();
        assert!(o
            .find_blocking_faults(&g, q(0, 1, 1, 10, FaultModel::Vertex))
            .is_none());
    }

    #[test]
    fn edge_model_blocks_direct_edge() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut o = BranchingOracle::new();
        let f = o
            .find_blocking_faults(&g, q(0, 1, 1, 1, FaultModel::Edge))
            .unwrap();
        assert_eq!(f, FaultSet::edges([EdgeId::new(0)]));
    }

    #[test]
    fn already_far_needs_no_faults() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut o = BranchingOracle::new();
        let f = o
            .find_blocking_faults(&g, q(0, 2, 1, 0, FaultModel::Vertex))
            .unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn all_config_variants_agree_on_diamond() {
        let g = diamond();
        for use_packing in [false, true] {
            for use_memo in [false, true] {
                let mut o = BranchingOracle::with_config(BranchingConfig {
                    use_packing,
                    use_memo,
                });
                let f = o.find_blocking_faults(&g, q(0, 3, 2, 2, FaultModel::Vertex));
                assert!(f.is_some(), "packing={use_packing} memo={use_memo}");
                let none = o.find_blocking_faults(&g, q(0, 3, 2, 1, FaultModel::Vertex));
                assert!(none.is_none(), "packing={use_packing} memo={use_memo}");
            }
        }
    }

    #[test]
    fn weighted_bound_respected() {
        // 0 -5- 1, alternative 0 -1- 2 -1- 1. Stretch bound 10: alt path
        // weight 2 <= 10, needs vertex 2 faulted.
        let g = Graph::from_weighted_edges(3, [(0, 2, 1), (2, 1, 1)]).unwrap();
        let mut o = BranchingOracle::new();
        let f = o
            .find_blocking_faults(&g, q(0, 1, 10, 1, FaultModel::Vertex))
            .unwrap();
        assert_eq!(f, FaultSet::vertices([NodeId::new(2)]));
    }

    #[test]
    fn returned_set_actually_blocks() {
        use spanner_graph::dijkstra;
        let g =
            Graph::from_edges(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4), (4, 5)]).unwrap();
        let mut o = BranchingOracle::new();
        let query = q(0, 5, 2, 2, FaultModel::Vertex);
        let f = o.find_blocking_faults(&g, query).unwrap();
        let mask = f.to_mask(g.node_count(), g.edge_count());
        let d = dijkstra::dist(&g, NodeId::new(0), NodeId::new(5), &mask);
        assert!(d > Dist::finite(2));
    }

    #[test]
    fn scratch_rebuilds_go_flat_after_first_query() {
        // The mask/memo/arena reuse contract: the first query on a graph
        // of a given size may grow scratch; repeats must not.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4), (4, 5)]).unwrap();
        let mut o = BranchingOracle::new();
        let query = q(0, 5, 2, 2, FaultModel::Vertex);
        let _ = o.find_blocking_faults(&g, query);
        let after_first = o.stats().scratch_rebuilds;
        assert!(after_first >= 1, "first query must size the scratch");
        for _ in 0..50 {
            let _ = o.find_blocking_faults(&g, query);
        }
        assert_eq!(
            o.stats().scratch_rebuilds,
            after_first,
            "steady-state queries must not rebuild scratch"
        );
    }

    #[test]
    fn memo_reduces_exploration() {
        // A graph with many symmetric routes provokes permutation blowup.
        let mut g = Graph::new(2);
        for _ in 0..6 {
            let a = g.add_node();
            let b = g.add_node();
            g.add_edge(NodeId::new(0), a, spanner_graph::Weight::UNIT);
            g.add_edge(a, b, spanner_graph::Weight::UNIT);
            g.add_edge(b, NodeId::new(1), spanner_graph::Weight::UNIT);
        }
        let query = q(0, 1, 3, 4, FaultModel::Vertex);
        let mut with_memo = BranchingOracle::with_config(BranchingConfig {
            use_packing: false,
            use_memo: true,
        });
        let mut without_memo = BranchingOracle::with_config(BranchingConfig {
            use_packing: false,
            use_memo: false,
        });
        let a = with_memo.find_blocking_faults(&g, query);
        let b = without_memo.find_blocking_faults(&g, query);
        assert_eq!(a.is_some(), b.is_some());
        assert!(
            with_memo.stats().nodes_explored <= without_memo.stats().nodes_explored,
            "memo {} vs plain {}",
            with_memo.stats().nodes_explored,
            without_memo.stats().nodes_explored
        );
    }

    /// Internally disjoint unit-weight `0 → 1` routes, one per entry of
    /// `hops` (the route's edge count).
    fn theta(hops: &[usize]) -> Graph {
        let mut g = Graph::new(2);
        for &h in hops {
            let mut prev = NodeId::new(0);
            for _ in 1..h {
                let mid = g.add_node();
                g.add_edge(prev, mid, spanner_graph::Weight::UNIT);
                prev = mid;
            }
            g.add_edge(prev, NodeId::new(1), spanner_graph::Weight::UNIT);
        }
        g
    }

    #[test]
    fn root_prefilter_certifies_drop_when_every_route_fits_the_bound() {
        // The root packing probe filters a query before any branching.
        // Three disjoint 2-hop routes, bound 3, f = 2: the root's own
        // Dijkstra finds one route, the probe seeded with it packs the
        // other two, and three disjoint short routes outlast any two
        // faults, so the query ends at the root as one packing prune.
        let g = theta(&[2, 2, 2]);
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            let mut o = BranchingOracle::new();
            assert_eq!(o.find_blocking_faults(&g, q(0, 1, 3, 2, model)), None);
            let stats = o.stats();
            assert_eq!(stats.shortest_path_queries, 3, "{model:?}");
            assert_eq!(stats.packing_prunes, 1, "{model:?}");
            assert_eq!(stats.nodes_explored, 1, "{model:?}");
            assert_eq!(stats.cut_shortcuts, 0, "{model:?}");
        }
    }

    #[test]
    fn root_prefilter_with_a_route_over_the_bound_falls_through_to_search() {
        // The third route has 4 hops > bound 3: the root packing probe
        // packs only two short routes, so the search branches and finds
        // the 2-fault witness the reference oracle finds.
        use crate::reference::ReferenceBranchingOracle;
        let g = theta(&[2, 2, 4]);
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            let query = q(0, 1, 3, 2, model);
            let mut o = BranchingOracle::new();
            let found = o.find_blocking_faults(&g, query);
            assert!(found.is_some(), "{model:?}");
            assert_eq!(
                found,
                ReferenceBranchingOracle::new().find_blocking_faults(&g, query),
                "{model:?}"
            );
            assert!(o.stats().nodes_explored > 1, "{model:?}: search must run");
        }
    }
}
