//! The frozen pre-optimization branching oracle.
//!
//! [`ReferenceBranchingOracle`] is a byte-for-byte behavioral snapshot of
//! [`crate::BranchingOracle`] as it stood before the PR-2 hot-path work:
//! per query it allocates a fresh [`FaultMask`], memoizes on sorted
//! `Vec<usize>` clones, collects branching candidates into fresh vectors,
//! and runs its Dijkstras over the pointer-chasing [`Graph`] adjacency
//! list. It exists for one job, **equivalence testing**: the optimized
//! oracle (CSR view, reusable scratch, Zobrist memo, pooled candidate
//! windows) must produce identical spanners *and witnesses*; the
//! property tests in `spanner-core` pin that.
//!
//! It deliberately keeps the old flat `packed + 1` stats charge for the
//! packing probe (the accounting drift fixed in the live oracle), because
//! a reference that silently improves stops being a reference.
//!
//! Every query is the bounded search alone, as in the live oracle. A
//! global min-cut that once answered queries before the search is gone
//! from both: a cut witness and a search witness are both valid
//! certificates but often differ, so a reference keeping the cut would
//! pin witnesses the live oracle no longer returns.

use crate::packing::disjoint_path_packing;
use crate::{FaultModel, FaultOracle, FaultSet, OracleQuery, OracleStats};
use spanner_graph::{DijkstraEngine, EdgeId, FaultMask, Graph, NodeId};
use std::collections::HashSet;

/// The frozen naive-allocation branching oracle. See the module docs.
///
/// # Examples
///
/// ```
/// use spanner_faults::reference::ReferenceBranchingOracle;
/// use spanner_faults::{FaultModel, FaultOracle, OracleQuery};
/// use spanner_graph::{Dist, Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])?;
/// let mut oracle = ReferenceBranchingOracle::new();
/// let query = OracleQuery {
///     u: NodeId::new(0),
///     v: NodeId::new(3),
///     bound: Dist::finite(2),
///     budget: 2,
///     model: FaultModel::Vertex,
/// };
/// assert_eq!(oracle.find_blocking_faults(&g, query).unwrap().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct ReferenceBranchingOracle {
    engine: DijkstraEngine,
    stats: OracleStats,
}

impl ReferenceBranchingOracle {
    /// Creates a reference oracle (always the full default feature set:
    /// packing prune and memoization).
    pub fn new() -> Self {
        ReferenceBranchingOracle::default()
    }

    fn search(
        &mut self,
        graph: &Graph,
        q: &OracleQuery,
        mask: &mut FaultMask,
        current: &mut Vec<usize>,
        memo: &mut HashSet<Vec<usize>>,
    ) -> bool {
        self.stats.nodes_explored += 1;
        self.stats.shortest_path_queries += 1;
        let Some(path) = self
            .engine
            .shortest_path_bounded(graph, q.u, q.v, q.bound, mask)
        else {
            return true; // dist already exceeds the bound
        };
        let remaining = q.budget - current.len();
        if remaining == 0 {
            return false;
        }
        let candidates: Vec<usize> = match q.model {
            FaultModel::Vertex => path.interior_nodes().iter().map(|n| n.index()).collect(),
            FaultModel::Edge => path.edges.iter().map(|e| e.index()).collect(),
        };
        if candidates.is_empty() {
            // Vertex model, direct u-v edge: unblockable.
            return false;
        }
        let pack = disjoint_path_packing(
            graph,
            &mut self.engine,
            mask,
            q.u,
            q.v,
            q.bound,
            q.model,
            remaining + 1,
        );
        // The historical flat charge (see the module docs).
        self.stats.shortest_path_queries += pack as u64 + 1;
        if pack > remaining {
            self.stats.packing_prunes += 1;
            return false;
        }
        for c in candidates {
            match q.model {
                FaultModel::Vertex => {
                    mask.fault_vertex(NodeId::new(c));
                }
                FaultModel::Edge => {
                    mask.fault_edge(EdgeId::new(c));
                }
            }
            current.push(c);
            let mut key = current.clone();
            key.sort_unstable();
            let skip = if memo.insert(key) {
                false
            } else {
                self.stats.memo_hits += 1;
                true
            };
            if !skip && self.search(graph, q, mask, current, memo) {
                return true;
            }
            current.pop();
            match q.model {
                FaultModel::Vertex => {
                    mask.restore_vertex(NodeId::new(c));
                }
                FaultModel::Edge => {
                    mask.restore_edge(EdgeId::new(c));
                }
            }
        }
        false
    }
}

impl FaultOracle for ReferenceBranchingOracle {
    fn find_blocking_faults(&mut self, graph: &Graph, query: OracleQuery) -> Option<FaultSet> {
        let mut mask = FaultMask::for_graph(graph);
        let mut current = Vec::with_capacity(query.budget);
        let mut memo: HashSet<Vec<usize>> = HashSet::new();
        if self.search(graph, &query, &mut mask, &mut current, &mut memo) {
            Some(match query.model {
                FaultModel::Vertex => FaultSet::vertices(current.into_iter().map(NodeId::new)),
                FaultModel::Edge => FaultSet::edges(current.into_iter().map(EdgeId::new)),
            })
        } else {
            None
        }
    }

    fn stats(&self) -> OracleStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = OracleStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchingOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::erdos_renyi;
    use spanner_graph::Dist;

    #[test]
    fn reference_and_optimized_agree_on_random_queries() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..25 {
            let g = erdos_renyi(14, 0.3, &mut rng);
            let mut reference = ReferenceBranchingOracle::new();
            let mut optimized = BranchingOracle::new();
            for budget in 0..3 {
                for model in [FaultModel::Vertex, FaultModel::Edge] {
                    let query = OracleQuery {
                        u: NodeId::new(0),
                        v: NodeId::new(1),
                        bound: Dist::finite(3),
                        budget,
                        model,
                    };
                    assert_eq!(
                        reference.find_blocking_faults(&g, query),
                        optimized.find_blocking_faults(&g, query),
                        "trial {trial} budget {budget} model {model}"
                    );
                }
            }
        }
    }
}
