//! Algorithm 1 of Bodwin–Patel: the fault tolerant greedy spanner.
//!
//! ```text
//! function ft-greedy(G = (V, E, w), k, f)
//!     H ← (V, ∅, w)
//!     for (u, v) ∈ E in order of increasing weight do
//!         if ∃ F, |F| ≤ f vertices (edges), with dist_{H∖F}(u, v) > k·w(u, v) then
//!             add (u, v) to H
//!     return H
//! ```
//!
//! The existence test is delegated to a [`FaultOracle`]; the witness `F_e`
//! found for every kept edge is recorded, because Lemma 3 turns exactly
//! those witnesses into the `(k+1)`-blocking set that drives the size
//! analysis (see [`crate::blocking`]).
//!
//! With `f = 0` this is precisely the classic greedy algorithm
//! ([`crate::greedy_spanner`]); the equivalence is tested.

use crate::Spanner;
use spanner_faults::{
    BranchingConfig, BranchingOracle, ExhaustiveOracle, FaultModel, FaultOracle, FaultSet,
    GreedyHeuristicOracle, HittingSetOracle, OracleQuery, OracleStats, ParallelBranchingOracle,
};
use spanner_graph::{EdgeId, Graph};
use std::collections::VecDeque;

/// Which oracle implementation FT-greedy should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleKind {
    /// Bounded search tree with packing pruning and memoization (default).
    #[default]
    Branching,
    /// Branching with explicit feature toggles (for ablations).
    BranchingWith(BranchingConfig),
    /// Brute-force subset enumeration (tiny instances only).
    Exhaustive,
    /// Path-enumeration + hitting-set branch & bound.
    HittingSet,
    /// Branching on a persistent pool of this many worker threads:
    /// windows of upcoming candidates are decided concurrently, one whole
    /// query per worker, and committed in weight order, so the output is
    /// the sequential [`OracleKind::Branching`] output bit for bit. Pays
    /// off where most candidates are dropped (dense inputs); keep-dense
    /// runs stay on the calling thread.
    Parallel(usize),
    /// **Inexact** polynomial-time heuristic (the open-problem probe):
    /// kept edges are always justified, but edges may be dropped wrongly,
    /// so the output can fail fault audits. For experiment E11; do not use
    /// when the fault-tolerance contract must hold.
    Heuristic,
}

impl OracleKind {
    fn instantiate(self) -> Box<dyn FaultOracle> {
        match self {
            OracleKind::Branching => Box::new(BranchingOracle::new()),
            OracleKind::BranchingWith(cfg) => Box::new(BranchingOracle::with_config(cfg)),
            OracleKind::Exhaustive => Box::new(ExhaustiveOracle::new()),
            OracleKind::HittingSet => Box::new(HittingSetOracle::new()),
            OracleKind::Parallel(threads) => Box::new(ParallelBranchingOracle::new(threads)),
            OracleKind::Heuristic => Box::new(GreedyHeuristicOracle::new()),
        }
    }

    /// Whether this oracle is exact (`false` only for
    /// [`OracleKind::Heuristic`]).
    pub fn is_exact(self) -> bool {
        !matches!(self, OracleKind::Heuristic)
    }
}

/// Configurable FT-greedy runner (non-consuming builder).
///
/// # Examples
///
/// ```
/// use spanner_core::FtGreedy;
/// use spanner_faults::FaultModel;
/// use spanner_graph::generators::complete;
///
/// let g = complete(10);
/// let ft = FtGreedy::new(&g, 3).faults(1).model(FaultModel::Vertex).run();
/// // A 1-VFT spanner needs at least min-degree 2 everywhere.
/// assert!(ft.spanner().edge_count() >= g.node_count());
/// ```
#[derive(Debug)]
pub struct FtGreedy<'a> {
    graph: &'a Graph,
    stretch: u64,
    faults: usize,
    model: FaultModel,
    oracle: OracleKind,
}

impl<'a> FtGreedy<'a> {
    /// Starts configuring a run over `graph` with the given stretch.
    ///
    /// Defaults: `faults = 0`, vertex model, branching oracle.
    ///
    /// # Panics
    ///
    /// Panics if `stretch == 0`.
    pub fn new(graph: &'a Graph, stretch: u64) -> Self {
        assert!(stretch >= 1, "stretch must be positive");
        FtGreedy {
            graph,
            stretch,
            faults: 0,
            model: FaultModel::Vertex,
            oracle: OracleKind::default(),
        }
    }

    /// Sets the fault budget `f`.
    pub fn faults(&mut self, faults: usize) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Sets the fault model (vertex or edge).
    pub fn model(&mut self, model: FaultModel) -> &mut Self {
        self.model = model;
        self
    }

    /// Selects the oracle implementation.
    pub fn oracle(&mut self, oracle: OracleKind) -> &mut Self {
        self.oracle = oracle;
        self
    }

    /// The oracle query for a parent edge at this run's parameters.
    fn query_for(&self, parent_id: EdgeId) -> OracleQuery {
        let e = self.graph.edge(parent_id);
        OracleQuery {
            u: e.u(),
            v: e.v(),
            bound: e.weight().stretched(self.stretch),
            budget: self.faults,
            model: self.model,
        }
    }

    /// Runs Algorithm 1 and returns the fault tolerant spanner with its
    /// recorded witnesses.
    ///
    /// The default branching oracle (and its `BranchingWith`/`Parallel`
    /// variants) runs through a monomorphized hot loop over the spanner's
    /// incremental CSR view — no `Box<dyn>` dispatch, no per-query
    /// allocation. The remaining oracle kinds go through the generic
    /// [`FtGreedy::run_with_oracle`] path.
    pub fn run(&self) -> FtSpanner {
        match self.oracle {
            OracleKind::Branching => self.run_branching(BranchingConfig::default()),
            OracleKind::BranchingWith(config) => self.run_branching(config),
            OracleKind::Parallel(threads) => self.run_pooled(threads),
            kind => {
                let mut oracle = kind.instantiate();
                self.run_with_oracle(oracle.as_mut())
            }
        }
    }

    /// Runs Algorithm 1 with a caller-provided oracle, querying the
    /// growing spanner's [`Graph`]. Monomorphized over the oracle type;
    /// useful for custom oracles and for pinning the optimized paths to
    /// [`spanner_faults::reference::ReferenceBranchingOracle`] in tests
    /// and benchmarks.
    pub fn run_with_oracle<O: FaultOracle + ?Sized>(&self, oracle: &mut O) -> FtSpanner {
        let mut spanner = Spanner::empty(self.graph, self.stretch);
        let mut witnesses = Vec::new();
        // The (weight, id) scan order is computed exactly once per run.
        for parent_id in self.graph.edges_by_weight() {
            let query = self.query_for(parent_id);
            if let Some(found) = oracle.find_blocking_faults(spanner.graph(), query) {
                let e = self.graph.edge(parent_id);
                spanner.push_edge(parent_id, e.u(), e.v(), e.weight());
                witnesses.push(found);
            }
        }
        self.finish(spanner, witnesses, oracle.stats())
    }

    /// The optimized sequential path: one [`BranchingOracle`] whose
    /// scratch lives for the whole construction, querying the spanner's
    /// flat CSR view.
    fn run_branching(&self, config: BranchingConfig) -> FtSpanner {
        let mut oracle = BranchingOracle::with_config(config);
        let mut spanner = Spanner::empty(self.graph, self.stretch);
        let mut witnesses = Vec::new();
        for parent_id in self.graph.edges_by_weight() {
            let query = self.query_for(parent_id);
            if let Some(found) = oracle.find_blocking_faults_in(spanner.view(), query) {
                let e = self.graph.edge(parent_id);
                spanner.push_edge(parent_id, e.u(), e.v(), e.weight());
                witnesses.push(found);
            }
        }
        self.finish(spanner, witnesses, oracle.stats())
    }

    /// The optimized parallel path: a persistent worker pool sharing an
    /// incremental CSR view of the spanner, alive for the whole run.
    fn run_pooled(&self, threads: usize) -> FtSpanner {
        let mut oracle = ParallelBranchingOracle::new(threads);
        self.run_pooled_with(&mut oracle)
    }

    /// The `Parallel` path of [`FtGreedy::run`] over a **caller-owned**
    /// pooled oracle, so one persistent worker pool (and its scratch)
    /// can serve many constructions: partitioned builds
    /// ([`crate::partition`]) run every shard and the boundary stitch
    /// through a single oracle, and
    /// [`spanner_faults::OracleStats::pool_spawns`] proves it.
    ///
    /// The shared view is reset to this run's graph; the oracle's
    /// cumulative work counters keep accumulating across runs (reset
    /// them with [`spanner_faults::FaultOracle::reset_stats`] if
    /// per-run numbers are wanted). The returned
    /// [`FtSpanner::stats`] is the cumulative snapshot at finish.
    pub fn run_pooled_with(&self, oracle: &mut ParallelBranchingOracle) -> FtSpanner {
        oracle.view_reset(self.graph.node_count());
        // During the run the oracle's shared view *is* the growing
        // spanner; the `Spanner` (with its own CSR mirror) is assembled
        // once at the end rather than maintained redundantly per edge.
        let mut kept = Vec::new();
        let mut witnesses = Vec::new();
        self.keep_pooled(
            oracle,
            &self.graph.edges_by_weight(),
            &mut kept,
            &mut witnesses,
        );
        let spanner = Spanner::from_kept_edges_in_order(self.graph, kept, self.stretch);
        self.finish(spanner, witnesses, oracle.stats())
    }

    /// Algorithm 1's keep loop over a pooled oracle: decides `candidates`
    /// (parent edge ids, in the order the greedy scans them) against the
    /// oracle's shared view, which must already hold the spanner built so
    /// far. Every kept edge is pushed to the view and appended to `kept`
    /// with its witness. The output is exactly the sequential loop's.
    ///
    /// Upcoming candidates are decided speculatively in *windows*, one
    /// whole query per pool job, all against the current view. The view
    /// only grows, so a drop verdict holds in every later view and is
    /// final wherever it sits in the window; the first keep saw the
    /// sequential view (only drops precede it) and is committed; later
    /// keeps were decided against a view that now lacks an edge, so they
    /// are decided again. The window adapts to the verdicts alone: the
    /// loop runs inline until `2 × threads` drops in a row, then doubles
    /// the window (up to `16 × threads`) while no window needs a re-check,
    /// and drops back inline as soon as one does — keep-dense runs (sparse
    /// shards keep most of their edges) never pay a pool round trip per
    /// keep.
    pub(crate) fn keep_pooled(
        &self,
        oracle: &mut ParallelBranchingOracle,
        candidates: &[EdgeId],
        kept: &mut Vec<EdgeId>,
        witnesses: &mut Vec<FaultSet>,
    ) {
        let entry_run = 2 * oracle.threads();
        let max_window = 16 * oracle.threads();
        let mut keep = |oracle: &mut ParallelBranchingOracle, id: EdgeId, found: FaultSet| {
            let e = self.graph.edge(id);
            oracle.view_push_edge(e.u(), e.v(), e.weight());
            kept.push(id);
            witnesses.push(found);
        };
        let mut upcoming = candidates.iter().copied();
        // Earlier keeps to decide again, in scan order, ahead of
        // `upcoming`.
        let mut rechecks: VecDeque<EdgeId> = VecDeque::new();
        let mut drop_run = 0;
        // 0 = decide inline on the calling thread.
        let mut window = 0;
        let mut batch = Vec::new();
        let mut queries = Vec::new();
        let mut verdicts = Vec::new();
        let mut stale = Vec::new();
        loop {
            if window == 0 {
                let Some(id) = rechecks.pop_front().or_else(|| upcoming.next()) else {
                    break;
                };
                match oracle.find_blocking_faults_in_view(self.query_for(id)) {
                    Some(found) => {
                        keep(oracle, id, found);
                        drop_run = 0;
                    }
                    None => {
                        drop_run += 1;
                        if drop_run >= entry_run {
                            window = entry_run;
                        }
                    }
                }
                continue;
            }
            batch.clear();
            while batch.len() < window {
                match rechecks.pop_front().or_else(|| upcoming.next()) {
                    Some(id) => batch.push(id),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            queries.clear();
            queries.extend(batch.iter().map(|&id| self.query_for(id)));
            oracle.find_blocking_faults_batch_in_view(&queries, &mut verdicts);
            let mut kept_in_batch = false;
            stale.clear();
            for (&id, verdict) in batch.iter().zip(verdicts.drain(..)) {
                match verdict {
                    // H only grows: a drop is final wherever it sits.
                    None => {}
                    // Only drops precede it: decided on the sequential view.
                    Some(found) if !kept_in_batch => {
                        keep(oracle, id, found);
                        kept_in_batch = true;
                    }
                    Some(_) => stale.push(id),
                }
            }
            if stale.is_empty() {
                window = (window * 2).min(max_window);
            } else {
                oracle.note_speculative_rechecks(stale.len());
                for &id in stale.iter().rev() {
                    rechecks.push_front(id);
                }
                window = 0;
                drop_run = 0;
            }
        }
    }

    fn finish(&self, spanner: Spanner, witnesses: Vec<FaultSet>, stats: OracleStats) -> FtSpanner {
        FtSpanner {
            spanner,
            witnesses,
            model: self.model,
            faults: self.faults,
            stats,
        }
    }
}

/// The output of [`FtGreedy::run`]: the spanner plus the per-edge witness
/// fault sets and oracle work counters.
#[derive(Clone, Debug)]
pub struct FtSpanner {
    spanner: Spanner,
    witnesses: Vec<FaultSet>,
    model: FaultModel,
    faults: usize,
    stats: OracleStats,
}

impl FtSpanner {
    /// Assembles an `FtSpanner` from its parts; the partitioned
    /// construction ([`crate::partition`]) builds its stitched union
    /// result through this.
    pub(crate) fn from_parts(
        spanner: Spanner,
        witnesses: Vec<FaultSet>,
        model: FaultModel,
        faults: usize,
        stats: OracleStats,
    ) -> Self {
        FtSpanner {
            spanner,
            witnesses,
            model,
            faults,
            stats,
        }
    }

    /// The constructed spanner.
    pub fn spanner(&self) -> &Spanner {
        &self.spanner
    }

    /// Consumes self, returning the spanner.
    pub fn into_spanner(self) -> Spanner {
        self.spanner
    }

    /// The witness fault set recorded when spanner edge `i` was added:
    /// at that moment, `dist_{H∖F_i}(u_i, v_i) > k·w_i` held.
    ///
    /// Indexed by *spanner* edge id. Fault-set edge ids refer to spanner
    /// edge ids (the partial `H` the oracle ran against), matching the
    /// blocking-set definition of the paper.
    pub fn witnesses(&self) -> &[FaultSet] {
        &self.witnesses
    }

    /// The fault model the spanner was built for.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// The fault budget `f` the spanner was built for.
    pub fn faults(&self) -> usize {
        self.faults
    }

    /// Oracle work counters for the whole construction.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// Seals the construction into an immutable
    /// [`FrozenSpanner`](crate::FrozenSpanner) serving artifact carrying
    /// the full metadata: a handle on `parent` (cloned once, shared via
    /// `Arc` from then on), the fault budget and model it was built for,
    /// and the recorded witness fault sets.
    pub fn freeze(&self, parent: &Graph) -> crate::FrozenSpanner {
        crate::FrozenSpanner::assemble(
            &self.spanner,
            Some(std::sync::Arc::new(parent.clone())),
            Some(self.faults),
            self.model,
            self.witnesses.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_spanner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{complete, cycle, grid, with_uniform_weights};

    #[test]
    fn zero_faults_matches_classic_greedy() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = with_uniform_weights(&complete(14), 1, 30, &mut rng);
        for stretch in [1u64, 3, 5] {
            let classic = greedy_spanner(&g, stretch);
            let ft = FtGreedy::new(&g, stretch).run();
            assert_eq!(
                classic.parent_edge_ids(),
                ft.spanner().parent_edge_ids(),
                "stretch {stretch}"
            );
            // All witnesses are empty at f = 0.
            assert!(ft.witnesses().iter().all(|w| w.is_empty()));
        }
    }

    #[test]
    fn witnesses_match_edges() {
        let g = complete(8);
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        assert_eq!(ft.witnesses().len(), ft.spanner().edge_count());
        assert!(ft.witnesses().iter().all(|w| w.len() <= 1));
        assert_eq!(ft.faults(), 1);
        assert_eq!(ft.model(), FaultModel::Vertex);
    }

    #[test]
    fn ft_spanner_grows_with_budget() {
        let g = complete(12);
        let mut sizes = Vec::new();
        for f in 0..3 {
            let ft = FtGreedy::new(&g, 3).faults(f).run();
            sizes.push(ft.spanner().edge_count());
        }
        assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2], "{sizes:?}");
        assert!(sizes[2] > sizes[0], "budget should change the output here");
    }

    #[test]
    fn cycle_is_fully_kept_under_one_vertex_fault() {
        // C6 with f=1, k=3: losing any vertex makes the cycle a path;
        // every edge is needed.
        let g = cycle(6);
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        assert_eq!(ft.spanner().edge_count(), 6);
    }

    #[test]
    fn oracle_kinds_agree_on_small_graphs() {
        let g = grid(3, 3);
        let mut sizes = Vec::new();
        for kind in [
            OracleKind::Branching,
            OracleKind::Exhaustive,
            OracleKind::HittingSet,
            OracleKind::BranchingWith(BranchingConfig {
                use_packing: false,
                use_memo: false,
                use_cut_shortcut: false,
            }),
            OracleKind::Parallel(3),
        ] {
            let ft = FtGreedy::new(&g, 3).faults(1).oracle(kind).run();
            sizes.push(ft.spanner().edge_count());
        }
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "oracle kinds disagree: {sizes:?}"
        );
    }

    #[test]
    fn edge_model_also_runs() {
        let g = complete(8);
        let ft = FtGreedy::new(&g, 3).faults(1).model(FaultModel::Edge).run();
        assert!(ft.spanner().edge_count() >= 8);
        assert_eq!(ft.model(), FaultModel::Edge);
    }

    #[test]
    fn stats_are_populated() {
        let g = complete(8);
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        assert!(ft.stats().shortest_path_queries > 0);
        assert!(ft.stats().nodes_explored > 0);
    }
}
