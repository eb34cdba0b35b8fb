//! Partitioned FT-greedy: sharded construction with a boundary stitch.
//!
//! Monolithic FT-greedy scales as the oracle's whole-graph work: every
//! kept-edge decision runs a min-cut shortcut whose Menger prefilter
//! issues *unbounded* Dijkstras over the entire growing spanner, so the
//! construction is quadratic-ish in practice and tops out around
//! `n ≈ 10²–10³`. This module trades a bounded size inflation for
//! near-linear scaling:
//!
//! 1. **Partition** — [`spanner_graph::partition::bfs_balls`] shards
//!    the vertex set into deterministic seeded BFS balls.
//! 2. **Per-shard build** — Algorithm 1 runs exactly on each shard's
//!    induced subgraph, every shard through **one** persistent
//!    [`ParallelBranchingOracle`] worker pool
//!    ([`FtGreedy::run_pooled_with`]; the pool spawns once, and
//!    [`OracleStats::pool_spawns`](spanner_faults::OracleStats) proves
//!    it).
//! 3. **Boundary stitch** — the cross-shard edges, and only those, are
//!    run through the FT-greedy keep rule with the **global** budget
//!    `f`, querying the union of all shard spanners as it grows. No
//!    intra-shard edge is re-decided: a kept one is in the union, and a
//!    dropped one — even between two boundary vertices — carries its
//!    shard's drop certificate into every union (the "Intra-shard edge"
//!    case below), so the stitch oracle could only answer "drop" again.
//!    The stitch disables the root min-cut shortcut — with it off, every
//!    stitch Dijkstra is bounded by `k·w` (ball-sized), which is the
//!    whole scaling win; all oracle configurations are exact, so this is
//!    a pure perf trade.
//!
//! Steps 2 and 3 share one keep loop, the pooled FT-greedy driver
//! behind [`FtGreedy::run_pooled_with`]: it decides windows of upcoming
//! candidates concurrently, one whole query per pool job, and commits
//! them in weight order (drops are final because the union only grows;
//! the first keep of a window is exact; later keeps are decided again).
//! Its output is the sequential keep loop's, bit for bit, at every pool
//! width. Nearly all stitch candidates on dense inputs are drops, so the
//! stitch is where the windows grow widest.
//!
//! # Why the union satisfies the `(2k−1)`-stretch `f`-fault contract
//!
//! Fix any fault set `F`, `|F| ≤ f`, and any parent edge `e = (u, v)`
//! surviving `F`. Per the per-edge criterion (see
//! [`crate::verify::verify_under_faults`]) it suffices that
//! `dist_{H∖F}(u, v) ≤ k·w(e)`:
//!
//! * **Intra-shard edge.** Restrict `F` to shard `i`: `F_i` has at most
//!   `f` faults and lives entirely inside the induced subgraph `G_i`,
//!   so the per-shard guarantee gives a path of length `≤ k·w(e)` in
//!   `H_i ∖ F_i`. That path uses only shard-`i` vertices and `H_i`
//!   edges, so no fault of `F ∖ F_i` touches it, and `H ⊇ H_i`. The
//!   argument holds for kept and dropped intra-shard edges alike, whatever
//!   their endpoints' boundary status — which is why the stitch never
//!   re-checks a dropped one: against the union (⊇ `H_i`) at budget `f`
//!   the exact oracle would return the same "drop".
//! * **Stitch candidate kept.** The edge itself is in `H`.
//! * **Stitch candidate dropped.** At drop time the oracle certified
//!   that *no* fault set of size `≤ f` stretches `(u, v)` beyond
//!   `k·w(e)` in the union built so far — and `H` only grows from
//!   there, so the certificate stands in the final `H`.
//!
//! Size optimality is what's traded away: the stitch does not interleave
//! with the shards in one global weight order, so the union can keep
//! edges a monolithic run would have dropped. The frontier bench
//! (`BENCH_9.json`) tracks that inflation per PR and gates it at 1.25×.

use crate::ft_greedy::{FtGreedy, FtSpanner};
use crate::Spanner;
use spanner_faults::{FaultModel, FaultOracle, FaultSet, ParallelBranchingOracle};
use spanner_graph::partition::bfs_balls;
use spanner_graph::{EdgeId, Graph, NodeId};
use std::time::Instant;

/// Configurable partitioned FT-greedy runner (non-consuming builder),
/// mirroring [`FtGreedy`].
///
/// # Examples
///
/// ```
/// use spanner_core::partition::PartitionedFtGreedy;
/// use spanner_core::verify::verify_ft_exhaustive;
/// use spanner_faults::FaultModel;
/// use spanner_graph::generators::grid;
///
/// let g = grid(3, 4);
/// let built = PartitionedFtGreedy::new(&g, 3).faults(1).shard_target(4).run();
/// // The stitched union satisfies the contract under EVERY fault set.
/// let audit = verify_ft_exhaustive(&g, built.ft().spanner(), 1, FaultModel::Vertex);
/// assert!(audit.satisfied());
/// ```
#[derive(Debug)]
pub struct PartitionedFtGreedy<'a> {
    graph: &'a Graph,
    stretch: u64,
    faults: usize,
    model: FaultModel,
    shard_target: usize,
    seed: u64,
    threads: usize,
}

impl<'a> PartitionedFtGreedy<'a> {
    /// Starts configuring a partitioned run over `graph` with the given
    /// stretch.
    ///
    /// Defaults: `faults = 0`, vertex model, shard target 256, seed 9,
    /// one pool worker per logical CPU.
    ///
    /// # Panics
    ///
    /// Panics if `stretch == 0`.
    pub fn new(graph: &'a Graph, stretch: u64) -> Self {
        assert!(stretch >= 1, "stretch must be positive");
        PartitionedFtGreedy {
            graph,
            stretch,
            faults: 0,
            model: FaultModel::Vertex,
            shard_target: 256,
            seed: 9,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Sets the fault budget `f` (applied per shard *and* by the stitch).
    pub fn faults(&mut self, faults: usize) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Sets the fault model (vertex or edge).
    pub fn model(&mut self, model: FaultModel) -> &mut Self {
        self.model = model;
        self
    }

    /// Sets the target shard size (clamped to at least 1).
    pub fn shard_target(&mut self, target: usize) -> &mut Self {
        self.shard_target = target.max(1);
        self
    }

    /// Sets the partitioner's shuffle seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-pool width shared by all shard builds and the
    /// stitch.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs partition → per-shard FT-greedy → boundary stitch and
    /// returns the stitched union with its phase report.
    ///
    /// The result's witnesses are translated to union coordinates
    /// (global vertex ids; fault-set edge ids refer to union spanner
    /// edge ids), so it freezes and serves through the standard
    /// [`FtSpanner::freeze`] → `VFTSPANR` pipeline unchanged.
    pub fn run(&self) -> PartitionedSpanner {
        let n = self.graph.node_count();

        // Phase 1: partition the vertex set, classify the edges.
        let t0 = Instant::now();
        let partition = bfs_balls(self.graph, self.shard_target, self.seed);
        let boundary = partition.boundary(self.graph);
        let mut shard_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); partition.shard_count()];
        let mut cross_edges: Vec<EdgeId> = Vec::new();
        for (id, e) in self.graph.edges() {
            let (su, sv) = (partition.shard_of(e.u()), partition.shard_of(e.v()));
            if su == sv {
                shard_edges[su].push(id);
            } else {
                cross_edges.push(id);
            }
        }
        let partition_secs = t0.elapsed().as_secs_f64();

        // Phase 2: per-shard FT-greedy over one shared worker pool.
        let t1 = Instant::now();
        let mut oracle = ParallelBranchingOracle::new(self.threads);
        let mut union_kept: Vec<EdgeId> = Vec::new();
        let mut union_witnesses: Vec<FaultSet> = Vec::new();
        let mut local_of = vec![u32::MAX; n];
        for (shard, edges) in shard_edges.iter().enumerate() {
            let members = partition.members(shard);
            if edges.is_empty() {
                continue;
            }
            for (li, v) in members.iter().enumerate() {
                local_of[v.index()] = li as u32;
            }
            let mut shard_graph = Graph::with_edge_capacity(members.len(), edges.len());
            for &id in edges {
                let e = self.graph.edge(id);
                shard_graph.add_edge_unchecked(
                    NodeId::new(local_of[e.u().index()] as usize),
                    NodeId::new(local_of[e.v().index()] as usize),
                    e.weight(),
                );
            }
            let ft = FtGreedy::new(&shard_graph, self.stretch)
                .faults(self.faults)
                .model(self.model)
                .run_pooled_with(&mut oracle);
            let edge_offset = union_kept.len();
            for &local in ft.spanner().parent_edge_ids() {
                let global = edges[local.index()];
                union_kept.push(global);
            }
            for w in ft.witnesses() {
                union_witnesses.push(translate_witness(w, members, edge_offset));
            }
            for v in members {
                local_of[v.index()] = u32::MAX;
            }
        }
        let shard_kept = union_kept.len();
        let build_secs = t1.elapsed().as_secs_f64();

        // Phase 3: boundary stitch over the union, global budget f. Only
        // cross edges are candidates: an intra-shard edge its shard
        // dropped is already a drop against any union ⊇ its shard
        // spanner (see the module docs).
        let t2 = Instant::now();
        let mut candidates = cross_edges;
        candidates.sort_by_key(|&e| (self.graph.weight(e), e));
        // Bounded-ball Dijkstras only from here on: the root min-cut
        // shortcut's unbounded packing probes are what partitioning is
        // escaping (exactness is unaffected; see the module docs).
        oracle.set_root_cut_shortcut(false);
        oracle.view_reset(n);
        for &id in &union_kept {
            let e = self.graph.edge(id);
            oracle.view_push_edge(e.u(), e.v(), e.weight());
        }
        FtGreedy::new(self.graph, self.stretch)
            .faults(self.faults)
            .model(self.model)
            .keep_pooled(
                &mut oracle,
                &candidates,
                &mut union_kept,
                &mut union_witnesses,
            );
        let stitch_secs = t2.elapsed().as_secs_f64();

        let report = PartitionReport {
            shards: partition.shard_count(),
            largest_shard: partition.largest_shard(),
            boundary_vertices: boundary.len(),
            cross_edges: candidates.len(),
            stitch_candidates: candidates.len(),
            shard_kept,
            stitch_kept: union_kept.len() - shard_kept,
            partition_secs,
            build_secs,
            stitch_secs,
            pool_spawns: oracle.stats().pool_spawns,
        };
        let stats = oracle.stats();
        let spanner = Spanner::from_kept_edges_in_order(self.graph, union_kept, self.stretch);
        PartitionedSpanner {
            ft: FtSpanner::from_parts(spanner, union_witnesses, self.model, self.faults, stats),
            report,
        }
    }
}

/// Translates a shard-local witness to union coordinates: vertex faults
/// through the shard's member list, edge faults (which refer to the
/// shard spanner's own edge ids) by the shard's offset in the union
/// keep order.
fn translate_witness(w: &FaultSet, members: &[NodeId], edge_offset: usize) -> FaultSet {
    match w.model() {
        FaultModel::Vertex => {
            FaultSet::vertices(w.vertex_faults().iter().map(|v| members[v.index()]))
        }
        FaultModel::Edge => FaultSet::edges(
            w.edge_faults()
                .iter()
                .map(|e| EdgeId::new(e.index() + edge_offset)),
        ),
    }
}

/// The output of [`PartitionedFtGreedy::run`]: the stitched union
/// spanner plus the per-phase report the frontier bench records.
#[derive(Clone, Debug)]
pub struct PartitionedSpanner {
    ft: FtSpanner,
    report: PartitionReport,
}

impl PartitionedSpanner {
    /// The stitched union as a standard [`FtSpanner`] (witnesses in
    /// union coordinates; freezes and serves like any other).
    pub fn ft(&self) -> &FtSpanner {
        &self.ft
    }

    /// Consumes self, returning the union spanner.
    pub fn into_ft(self) -> FtSpanner {
        self.ft
    }

    /// Phase timings and partition shape.
    pub fn report(&self) -> &PartitionReport {
        &self.report
    }
}

/// Partition shape, per-phase wall times, and keep counts for one
/// partitioned construction.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Number of shards the vertex set was split into.
    pub shards: usize,
    /// Size of the largest shard.
    pub largest_shard: usize,
    /// Vertices with a neighbor in another shard.
    pub boundary_vertices: usize,
    /// Parent edges whose endpoints lie in different shards.
    pub cross_edges: usize,
    /// Edges the stitch pass decided: exactly the cross edges. Intra-shard
    /// edges are settled by their shard build (a dropped one stays a drop
    /// in every union; see the module docs), so none is re-examined.
    pub stitch_candidates: usize,
    /// Edges kept by the per-shard builds.
    pub shard_kept: usize,
    /// Edges added by the stitch pass.
    pub stitch_kept: usize,
    /// Wall time of the partition/classification phase.
    pub partition_secs: f64,
    /// Wall time of the per-shard build phase.
    pub build_secs: f64,
    /// Wall time of the boundary stitch phase.
    pub stitch_secs: f64,
    /// Worker-pool spawns across all phases; 1 whenever any oracle
    /// query ran (the pool reuse contract the bench asserts).
    pub pool_spawns: u64,
}

impl PartitionReport {
    /// Total construction wall time across the three phases.
    pub fn total_secs(&self) -> f64 {
        self.partition_secs + self.build_secs + self.stitch_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_ft_exhaustive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{complete, grid, random_geometric, with_uniform_weights};

    #[test]
    fn contract_holds_on_grid_under_every_fault_set() {
        let g = grid(3, 4);
        for f in [1usize, 2] {
            let built = PartitionedFtGreedy::new(&g, 3)
                .faults(f)
                .shard_target(4)
                .threads(2)
                .run();
            let audit = verify_ft_exhaustive(&g, built.ft().spanner(), f, FaultModel::Vertex);
            assert!(audit.satisfied(), "f={f}: {audit:?}");
        }
    }

    #[test]
    fn pool_spawns_exactly_once_across_shards_and_stitch() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = with_uniform_weights(&complete(20), 1, 40, &mut rng);
        let built = PartitionedFtGreedy::new(&g, 3)
            .faults(1)
            .shard_target(5)
            .threads(2)
            .run();
        assert!(built.report().shards >= 4);
        assert_eq!(built.report().pool_spawns, 1);
        assert_eq!(built.ft().stats().pool_spawns, 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = random_geometric(60, 0.25, &mut rng);
        let a = PartitionedFtGreedy::new(&g, 3)
            .faults(1)
            .shard_target(12)
            .run();
        let b = PartitionedFtGreedy::new(&g, 3)
            .faults(1)
            .shard_target(12)
            .run();
        assert_eq!(
            a.ft().spanner().parent_edge_ids(),
            b.ft().spanner().parent_edge_ids()
        );
        assert_eq!(a.ft().witnesses(), b.ft().witnesses());
    }

    #[test]
    fn witnesses_line_up_with_union_edges() {
        let g = grid(4, 4);
        let built = PartitionedFtGreedy::new(&g, 3)
            .faults(1)
            .shard_target(5)
            .run();
        let ft = built.ft();
        assert_eq!(ft.witnesses().len(), ft.spanner().edge_count());
        assert!(ft.witnesses().iter().all(|w| w.len() <= 1));
        // Vertex witnesses must be valid global ids.
        for w in ft.witnesses() {
            for v in w.vertex_faults() {
                assert!(v.index() < g.node_count());
            }
        }
    }

    #[test]
    fn one_big_shard_matches_monolithic_ft_greedy() {
        // With every vertex in a single shard, there is nothing to
        // stitch: the output must be exactly the monolithic spanner.
        let mut rng = StdRng::seed_from_u64(13);
        let g = with_uniform_weights(&complete(14), 1, 30, &mut rng);
        let built = PartitionedFtGreedy::new(&g, 3)
            .faults(1)
            .shard_target(g.node_count())
            .run();
        let mono = FtGreedy::new(&g, 3).faults(1).run();
        assert_eq!(built.report().shards, 1);
        assert_eq!(built.report().stitch_kept, 0);
        assert_eq!(
            built.ft().spanner().parent_edge_ids(),
            mono.spanner().parent_edge_ids()
        );
    }

    #[test]
    fn edge_model_contract_holds_exhaustively() {
        let g = grid(3, 3);
        let built = PartitionedFtGreedy::new(&g, 3)
            .faults(1)
            .model(FaultModel::Edge)
            .shard_target(3)
            .run();
        let audit = verify_ft_exhaustive(&g, built.ft().spanner(), 1, FaultModel::Edge);
        assert!(audit.satisfied(), "{audit:?}");
    }

    #[test]
    fn report_phases_are_accounted() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_geometric(80, 0.22, &mut rng);
        let built = PartitionedFtGreedy::new(&g, 3)
            .faults(1)
            .shard_target(16)
            .run();
        let r = built.report();
        assert!(r.shards > 1);
        assert_eq!(
            r.shard_kept + r.stitch_kept,
            built.ft().spanner().edge_count()
        );
        assert_eq!(r.stitch_candidates, r.cross_edges);
        assert!(r.total_secs() >= r.build_secs);
    }
}
