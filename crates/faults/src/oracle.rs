//! The fault-oracle interface: the decision procedure inside FT-greedy.
//!
//! The FT greedy algorithm (Algorithm 1 of the paper) keeps an edge
//! `(u, v)` exactly when some fault set `F` of size at most `f` pushes
//! `dist_{H∖F}(u, v)` above `k·w(u, v)`. Deciding that is a *length-bounded
//! cut* problem — NP-hard in general and exponential in `f` in the naive
//! implementation, which the paper explicitly flags as an open problem.
//! This crate ships several oracles with identical contracts so they can be
//! cross-validated and benchmarked against each other.

use crate::{FaultModel, FaultSet};
use spanner_graph::{Dist, Graph, NodeId};
use std::fmt;

/// A query to a [`FaultOracle`].
#[derive(Clone, Copy, Debug)]
pub struct OracleQuery {
    /// One endpoint.
    pub u: NodeId,
    /// Other endpoint.
    pub v: NodeId,
    /// The distance bound (`k·w(u, v)` in greedy).
    pub bound: Dist,
    /// Maximum number of faults (`f`).
    pub budget: usize,
    /// Vertex or edge faults.
    pub model: FaultModel,
}

/// Counters describing how much work an oracle did (machine-independent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of search-tree nodes (or candidate subsets) explored.
    pub nodes_explored: u64,
    /// Number of shortest-path queries issued.
    pub shortest_path_queries: u64,
    /// Number of branches pruned by the disjoint-path packing bound.
    pub packing_prunes: u64,
    /// Number of branches skipped by fault-set memoization.
    pub memo_hits: u64,
    /// Number of queries answered directly by a global min-cut witness.
    pub cut_shortcuts: u64,
    /// Number of times reusable scratch (fault mask words, memo table,
    /// candidate arena) had to be allocated or grown. After the first
    /// query on a graph of a given size this stays flat — the regression
    /// tests assert exactly that.
    pub scratch_rebuilds: u64,
    /// Number of times a persistent worker pool was spawned. A pooled
    /// oracle reused across constructions (e.g. every shard of a
    /// partitioned build) spawns exactly once; the frontier bench
    /// asserts that.
    pub pool_spawns: u64,
    /// Number of batch verdicts a pooled construction threw away because
    /// an earlier keep in the same batch grew the spanner they were
    /// decided against (each is decided again; see
    /// [`ParallelBranchingOracle`](crate::ParallelBranchingOracle)).
    /// Wasted work: zero for the sequential oracles.
    pub speculative_rechecks: u64,
    /// Number of vertices the oracle's searches settled (heap pops of
    /// its [`DijkstraEngine`](spanner_graph::DijkstraEngine)s). Counted
    /// by [`BranchingOracle`](crate::BranchingOracle) and the pooled
    /// oracle, zero for the others. This is the work a landmark
    /// potential saves, where [`OracleStats::shortest_path_queries`]
    /// stays the same.
    pub vertices_settled: u64,
}

impl OracleStats {
    /// Adds another stats record into this one.
    pub fn absorb(&mut self, other: OracleStats) {
        self.nodes_explored += other.nodes_explored;
        self.shortest_path_queries += other.shortest_path_queries;
        self.packing_prunes += other.packing_prunes;
        self.memo_hits += other.memo_hits;
        self.cut_shortcuts += other.cut_shortcuts;
        self.scratch_rebuilds += other.scratch_rebuilds;
        self.pool_spawns += other.pool_spawns;
        self.speculative_rechecks += other.speculative_rechecks;
        self.vertices_settled += other.vertices_settled;
    }
}

impl fmt::Display for OracleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} sp-queries={} packing-prunes={} memo-hits={} cut-shortcuts={} scratch-rebuilds={} pool-spawns={} speculative-rechecks={} settled={}",
            self.nodes_explored,
            self.shortest_path_queries,
            self.packing_prunes,
            self.memo_hits,
            self.cut_shortcuts,
            self.scratch_rebuilds,
            self.pool_spawns,
            self.speculative_rechecks,
            self.vertices_settled
        )
    }
}

/// A decision procedure for the FT-greedy edge test.
///
/// Implementations must be **exact**: return `Some(F)` with `|F| ≤ budget`,
/// `F` disjoint from `{u, v}` (vertex model), and
/// `dist_{graph∖F}(u, v) > bound` — or `None` only when no such `F` exists.
pub trait FaultOracle {
    /// Searches for a blocking fault set for `query` against `graph`.
    fn find_blocking_faults(&mut self, graph: &Graph, query: OracleQuery) -> Option<FaultSet>;

    /// Work counters accumulated so far.
    fn stats(&self) -> OracleStats;

    /// Resets the work counters.
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_absorb_adds_fields() {
        let mut a = OracleStats {
            nodes_explored: 1,
            shortest_path_queries: 2,
            packing_prunes: 3,
            memo_hits: 4,
            cut_shortcuts: 5,
            scratch_rebuilds: 6,
            pool_spawns: 7,
            speculative_rechecks: 8,
            vertices_settled: 9,
        };
        a.absorb(OracleStats {
            nodes_explored: 10,
            shortest_path_queries: 20,
            packing_prunes: 30,
            memo_hits: 40,
            cut_shortcuts: 50,
            scratch_rebuilds: 60,
            pool_spawns: 70,
            speculative_rechecks: 80,
            vertices_settled: 90,
        });
        assert_eq!(a.nodes_explored, 11);
        assert_eq!(a.shortest_path_queries, 22);
        assert_eq!(a.packing_prunes, 33);
        assert_eq!(a.memo_hits, 44);
        assert_eq!(a.cut_shortcuts, 55);
        assert_eq!(a.scratch_rebuilds, 66);
        assert_eq!(a.pool_spawns, 77);
        assert_eq!(a.speculative_rechecks, 88);
        assert_eq!(a.vertices_settled, 99);
    }

    #[test]
    fn stats_display_nonempty() {
        let s = OracleStats::default();
        assert!(s.to_string().contains("nodes=0"));
        assert!(s.to_string().contains("speculative-rechecks=0"));
        assert!(s.to_string().contains("settled=0"));
    }
}
