//! A pooled exact fault oracle: whole queries are the unit of
//! parallelism.
//!
//! FT-greedy (Algorithm 1 of Bodwin–Patel) decides its candidate edges
//! in weight order against a spanner `H` that only ever grows. Almost
//! every decision in a dense construction is a *drop* settled by the
//! root packing prune within a handful of Dijkstras, so splitting one
//! query's search tree across threads leaves the extra cores idle.
//! This oracle instead runs **one whole sequential [`BranchingOracle`]
//! query per pool job**, so a batch of upcoming candidates is decided
//! concurrently against one snapshot of the spanner.
//!
//! # Why a batch can be committed exactly
//!
//! A drop verdict ("no `F` with `|F| ≤ f` stretches `(u, v)` beyond the
//! bound in `H`") survives every later edge insertion: for any fault set
//! `F` of a supergraph `H' ⊇ H`, `H ∖ (F ∩ H)` is a subgraph of
//! `H' ∖ F`, so distances only shrink. Only a *keep* needs the exact
//! current `H`. The greedy driver (`spanner_core`'s FT-greedy) therefore
//! commits a batch in weight order: every drop is final, the first keep
//! is exact (everything before it was a drop, so it saw the sequential
//! view), and later keeps are re-decided against the grown view. Kept
//! edges and witnesses stay bit-identical to the sequential greedy; the
//! verdicts thrown away are counted in
//! [`OracleStats::speculative_rechecks`].
//!
//! # Determinism
//!
//! A [`BranchingOracle`] query is a pure function of the view, the
//! query and the configuration: every scratch buffer is cleared, never
//! carried over, between queries. So it does not matter which worker
//! ran which query, or in what order results came back — batch verdicts
//! are re-ordered by index before the caller sees them.
//!
//! # Sharing the view
//!
//! Workers outlive any one query, so they cannot borrow the caller's
//! graph: they share an [`IncrementalCsr`] spanner view, together with
//! the [`Landmarks`] table of the construction's parent graph, behind an
//! `Arc<RwLock<…>>`. A construction starts with
//! [`ParallelBranchingOracle::view_reset`], which takes the parent, builds
//! its table once and empties the view; the caller grows the view with
//! [`ParallelBranchingOracle::view_push_edge`] between batches (never
//! while one is in flight). Every query on the view, pooled or inline,
//! is a guided [`BranchingOracle`] query (see the branching module
//! docs): the view only ever holds parent edges, so the parent's table
//! stays a consistent A* potential for the whole construction. Queries
//! FT-greedy decides on the calling thread go through
//! [`ParallelBranchingOracle::find_blocking_faults_in_view`]; the
//! [`FaultOracle`] entry point is the same single-query decision over an
//! arbitrary graph, unguided because that graph comes with no table.

use crate::{BranchingConfig, BranchingOracle, FaultOracle, FaultSet, OracleQuery, OracleStats};
use spanner_graph::{
    EdgeId, Graph, GraphView, IncrementalCsr, Landmarks, NodeId, Potential, Weight,
};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// One whole query handed to a pool worker.
struct Job {
    seq: u64,
    index: usize,
    query: OracleQuery,
    config: BranchingConfig,
}

/// A worker's answer for one job.
type JobResult = (u64, usize, Option<FaultSet>, OracleStats);

/// What every query of one construction runs against: the spanner grown
/// so far and the landmark table of the parent graph it is a subgraph of.
#[derive(Debug)]
struct SharedView {
    spanner: IncrementalCsr,
    landmarks: Landmarks,
}

impl SharedView {
    fn decide(&self, oracle: &mut BranchingOracle, query: OracleQuery) -> Option<FaultSet> {
        oracle.find_blocking_faults_in(&self.spanner, Some(&self.landmarks), query)
    }
}

/// The long-lived worker pool: a shared job queue, a result channel and
/// the thread handles (joined on drop).
struct Pool {
    jobs: mpsc::Sender<Job>,
    results: mpsc::Receiver<JobResult>,
    handles: Vec<JoinHandle<()>>,
}

/// Pooled exact oracle. Every answer is the answer [`BranchingOracle`]
/// gives for the same view, query and configuration (property-tested);
/// batches of queries run concurrently on a persistent worker pool.
///
/// # Examples
///
/// ```
/// use spanner_faults::{FaultModel, FaultOracle, OracleQuery, ParallelBranchingOracle};
/// use spanner_graph::{Dist, Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])?;
/// let mut oracle = ParallelBranchingOracle::new(4);
/// let found = oracle.find_blocking_faults(&g, OracleQuery {
///     u: NodeId::new(0),
///     v: NodeId::new(3),
///     bound: Dist::finite(2),
///     budget: 2,
///     model: FaultModel::Vertex,
/// });
/// assert!(found.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ParallelBranchingOracle {
    threads: usize,
    /// The caller's own oracle, for single queries.
    inline: BranchingOracle,
    /// Counters absorbed from the workers, plus the pool's own.
    stats: OracleStats,
    view: Arc<RwLock<SharedView>>,
    pool: Option<PoolHandle>,
    seq: u64,
}

/// Wrapper so the pool (whose channels are not `Debug`) can live inside a
/// `#[derive(Debug)]` struct.
struct PoolHandle(Pool);

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.0.handles.len())
            .finish()
    }
}

impl ParallelBranchingOracle {
    /// Creates an oracle using `threads` persistent workers (at least 1).
    /// Workers are spawned when the first construction resets the view
    /// ([`ParallelBranchingOracle::view_reset`]), so configuring the
    /// oracle first costs nothing.
    pub fn new(threads: usize) -> Self {
        ParallelBranchingOracle {
            threads: threads.max(1),
            inline: BranchingOracle::new(),
            stats: OracleStats::default(),
            view: Arc::new(RwLock::new(SharedView {
                spanner: IncrementalCsr::new(0),
                landmarks: Landmarks::default(),
            })),
            pool: None,
            seq: 0,
        }
    }

    /// Sets the branching configuration of every subsequent query, on
    /// the calling thread and on the workers alike.
    pub fn with_config(mut self, config: BranchingConfig) -> Self {
        self.inline.set_config(config);
        self
    }

    /// The number of pool workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables or disables the min-cut shortcut (which only ever runs at
    /// the root of a query) for every subsequent query, inline and
    /// pooled alike; safe at any time, because each job carries the
    /// configuration it runs under. All configurations are exact; the
    /// shortcut is a performance trade. Partitioned construction turns
    /// it off for the boundary stitch, where the shortcut's unbounded
    /// whole-graph packing probes dominate the cost of the
    /// (ball-bounded) search they would prune.
    pub fn set_root_cut_shortcut(&mut self, enabled: bool) {
        let config = BranchingConfig {
            use_cut_shortcut: enabled,
            ..self.inline.config()
        };
        self.inline.set_config(config);
    }

    /// Starts a construction over `parent`: builds `parent`'s landmark
    /// table (the A* potential of every query until the next reset),
    /// resets the shared spanner view to `parent`'s vertices with no
    /// edges, and makes sure the worker pool is up. FT-greedy calls this
    /// once per construction, then grows the view with
    /// [`ParallelBranchingOracle::view_push_edge`].
    pub fn view_reset<V: GraphView>(&mut self, parent: &V) {
        self.ensure_pool();
        let landmarks = Landmarks::build(parent);
        let mut view = self.view.write().expect("view lock");
        view.spanner.reset(parent.node_count());
        view.landmarks = landmarks;
    }

    /// Appends a kept edge to the shared spanner view, returning its
    /// dense id (which matches the spanner's own edge id). The edge must
    /// be an edge of the parent given to the last
    /// [`ParallelBranchingOracle::view_reset`], with its weight.
    pub fn view_push_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> EdgeId {
        let mut view = self.view.write().expect("view lock");
        debug_assert!(
            view.landmarks.potential_to(v).estimate(u) <= weight.get(),
            "{u}-{v} (weight {weight}) is no edge of the parent the table was built on"
        );
        view.spanner.push_edge(u, v, weight)
    }

    /// Decides one query against the shared spanner view on the calling
    /// thread (no pool round trip).
    pub fn find_blocking_faults_in_view(&mut self, query: OracleQuery) -> Option<FaultSet> {
        let guard = self.view.read().expect("view lock");
        guard.decide(&mut self.inline, query)
    }

    /// Decides every query of `queries` against the current shared view,
    /// one whole query per pool job, and writes the answers to
    /// `verdicts` in query order (`verdicts[i]` answers `queries[i]`).
    pub fn find_blocking_faults_batch_in_view(
        &mut self,
        queries: &[OracleQuery],
        verdicts: &mut Vec<Option<FaultSet>>,
    ) {
        self.ensure_pool();
        let pool = &self.pool.as_ref().expect("pool spawned").0;
        self.seq += 1;
        let config = self.inline.config();
        for (index, &query) in queries.iter().enumerate() {
            pool.jobs
                .send(Job {
                    seq: self.seq,
                    index,
                    query,
                    config,
                })
                .expect("worker pool alive");
        }
        verdicts.clear();
        verdicts.resize(queries.len(), None);
        let mut received = 0;
        while received < queries.len() {
            // recv_timeout + liveness check rather than a bare recv: if a
            // worker dies mid-job (panic), its result never arrives but
            // the channel stays open through the survivors' senders — a
            // bare recv would hang the whole construction.
            match pool.results.recv_timeout(Duration::from_millis(100)) {
                Ok((seq, index, found, stats)) => {
                    debug_assert_eq!(seq, self.seq, "stale job result");
                    verdicts[index] = found;
                    self.stats.absorb(stats);
                    received += 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    assert!(
                        !pool.handles.iter().any(|h| h.is_finished()),
                        "a pool worker died mid-batch"
                    );
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("worker pool shut down mid-batch");
                }
            }
        }
    }

    /// Records `count` batch verdicts the caller threw away because an
    /// earlier keep in the same batch changed the view
    /// ([`OracleStats::speculative_rechecks`]).
    pub fn note_speculative_rechecks(&mut self, count: usize) {
        self.stats.speculative_rechecks += count as u64;
    }

    /// Spawns the persistent workers on first use.
    fn ensure_pool(&mut self) {
        if self.pool.is_some() {
            return;
        }
        self.stats.pool_spawns += 1;
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (result_tx, result_rx) = mpsc::channel::<JobResult>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut handles = Vec::with_capacity(self.threads);
        for _ in 0..self.threads {
            let jobs = Arc::clone(&job_rx);
            let results = result_tx.clone();
            let view = Arc::clone(&self.view);
            handles.push(std::thread::spawn(move || {
                // One sequential oracle per worker, alive for the whole
                // pool lifetime: its scratch persists across every query
                // of every construction.
                let mut oracle = BranchingOracle::new();
                loop {
                    let job = {
                        let rx = jobs.lock().expect("job queue lock");
                        match rx.recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped
                        }
                    };
                    oracle.set_config(job.config);
                    let found = view
                        .read()
                        .expect("view lock")
                        .decide(&mut oracle, job.query);
                    let stats = oracle.stats();
                    oracle.reset_stats();
                    if results.send((job.seq, job.index, found, stats)).is_err() {
                        return; // pool dropped mid-flight
                    }
                }
            }));
        }
        self.pool = Some(PoolHandle(Pool {
            jobs: job_tx,
            results: result_rx,
            handles,
        }));
    }
}

impl Drop for ParallelBranchingOracle {
    fn drop(&mut self) {
        if let Some(PoolHandle(pool)) = self.pool.take() {
            drop(pool.jobs); // closes the queue; workers exit their loop
            drop(pool.results);
            for handle in pool.handles {
                let _ = handle.join();
            }
        }
    }
}

impl FaultOracle for ParallelBranchingOracle {
    /// One unguided query over an arbitrary graph, decided on the
    /// calling thread.
    fn find_blocking_faults(&mut self, graph: &Graph, query: OracleQuery) -> Option<FaultSet> {
        self.inline.find_blocking_faults_in(graph, None, query)
    }

    fn stats(&self) -> OracleStats {
        let mut stats = self.stats;
        stats.absorb(self.inline.stats());
        stats
    }

    fn reset_stats(&mut self) {
        self.stats = OracleStats::default();
        self.inline.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultModel;
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

    /// Loads `g` into the oracle's shared view, as its own parent.
    fn load_view(o: &mut ParallelBranchingOracle, g: &Graph) {
        o.view_reset(g);
        for (_, e) in g.edges() {
            o.view_push_edge(e.u(), e.v(), e.weight());
        }
    }

    #[test]
    fn agrees_with_sequential_on_diamond() {
        let g = diamond();
        let mut par = ParallelBranchingOracle::new(4);
        let mut seq = BranchingOracle::new();
        for budget in 0..3 {
            for model in [FaultModel::Vertex, FaultModel::Edge] {
                let query = q(0, 3, 2, budget, model);
                assert_eq!(
                    par.find_blocking_faults(&g, query).is_some(),
                    seq.find_blocking_faults(&g, query).is_some(),
                    "budget={budget} model={model}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_sequential_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use spanner_graph::generators::erdos_renyi;
        let mut rng = StdRng::seed_from_u64(55);
        let mut par = ParallelBranchingOracle::new(3);
        let mut verdicts = Vec::new();
        for trial in 0..20 {
            let g = erdos_renyi(12, 0.35, &mut rng);
            load_view(&mut par, &g);
            let queries: Vec<_> = (0..3)
                .flat_map(|budget| {
                    [FaultModel::Vertex, FaultModel::Edge]
                        .map(|model| q(0, 1 + trial % 11, 3, budget, model))
                })
                .collect();
            par.find_blocking_faults_batch_in_view(&queries, &mut verdicts);
            for (query, batched) in queries.iter().zip(&verdicts) {
                let mut seq = BranchingOracle::new();
                let expected = seq.find_blocking_faults(&g, *query);
                assert_eq!(batched, &expected, "trial {trial} {query:?}");
                assert_eq!(par.find_blocking_faults(&g, *query), expected);
                if let Some(w) = expected {
                    let mask = w.to_mask(g.node_count(), g.edge_count());
                    let d = spanner_graph::dijkstra::dist(&g, query.u, query.v, &mask);
                    assert!(d > query.bound);
                }
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = diamond();
        let queries: Vec<_> = (0..3)
            .flat_map(|budget| (1..4).map(move |v| q(0, v, 2, budget, FaultModel::Vertex)))
            .collect();
        let mut answers = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut o = ParallelBranchingOracle::new(threads);
            load_view(&mut o, &g);
            let mut verdicts = Vec::new();
            o.find_blocking_faults_batch_in_view(&queries, &mut verdicts);
            answers.push(verdicts);
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn stats_aggregate_from_workers() {
        let g = diamond();
        let mut o = ParallelBranchingOracle::new(2).with_config(BranchingConfig {
            use_cut_shortcut: false,
            ..BranchingConfig::default()
        });
        load_view(&mut o, &g);
        let mut verdicts = Vec::new();
        o.find_blocking_faults_batch_in_view(&[q(0, 3, 2, 2, FaultModel::Vertex)], &mut verdicts);
        assert_eq!(o.stats().pool_spawns, 1);
        assert!(o.stats().shortest_path_queries > 0);
        o.note_speculative_rechecks(3);
        assert_eq!(o.stats().speculative_rechecks, 3);
        o.reset_stats();
        assert_eq!(o.stats(), OracleStats::default());
    }

    #[test]
    fn pool_persists_across_queries() {
        // Many batches through one oracle: the same workers serve all of
        // them (the pool is spawned once), and the shared view keeps up
        // with incremental growth.
        let mut o = ParallelBranchingOracle::new(2);
        let g = diamond();
        o.view_reset(&g);
        let mut seq = BranchingOracle::new();
        let mut verdicts = Vec::new();
        let mut view_edges = 0usize;
        for (_, e) in g.edges() {
            o.view_push_edge(e.u(), e.v(), e.weight());
            view_edges += 1;
            // Compare against a sequential oracle over the same prefix.
            let mut prefix = Graph::new(4);
            for (_, pe) in g.edges().take(view_edges) {
                prefix.add_edge_unchecked(pe.u(), pe.v(), pe.weight());
            }
            let queries: Vec<_> = (0..3).map(|b| q(0, 3, 2, b, FaultModel::Vertex)).collect();
            o.find_blocking_faults_batch_in_view(&queries, &mut verdicts);
            for (query, batched) in queries.iter().zip(&verdicts) {
                let expected = seq.find_blocking_faults(&prefix, *query);
                assert_eq!(batched, &expected, "prefix of {view_edges} edges");
                assert_eq!(o.find_blocking_faults_in_view(*query), expected);
            }
        }
        assert_eq!(o.stats().pool_spawns, 1);
    }

    #[test]
    fn view_reset_starts_fresh_construction() {
        let triangle = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut o = ParallelBranchingOracle::new(2);
        o.view_reset(&triangle);
        o.view_push_edge(NodeId::new(0), NodeId::new(1), Weight::UNIT);
        o.view_push_edge(NodeId::new(1), NodeId::new(2), Weight::UNIT);
        // 0-2 runs through vertex 1 only: one fault blocks it.
        let found = o.find_blocking_faults_in_view(q(0, 2, 2, 1, FaultModel::Vertex));
        assert_eq!(found, Some(FaultSet::vertices([NodeId::new(1)])));
        // Reset and rebuild the triangle: now 0-2 is direct, unblockable.
        o.view_reset(&triangle);
        o.view_push_edge(NodeId::new(0), NodeId::new(1), Weight::UNIT);
        o.view_push_edge(NodeId::new(1), NodeId::new(2), Weight::UNIT);
        o.view_push_edge(NodeId::new(0), NodeId::new(2), Weight::UNIT);
        assert_eq!(
            o.find_blocking_faults_in_view(q(0, 2, 2, 1, FaultModel::Vertex)),
            None
        );
        assert_eq!(o.stats().pool_spawns, 1, "reset reuses the pool");
    }

    #[test]
    fn cut_shortcut_toggle_reaches_the_workers() {
        // Two parallel paths 0-1-3 and 0-2-3: with the shortcut on, the
        // vertex cut {1, 2} answers at the root.
        let g = diamond();
        let mut o = ParallelBranchingOracle::new(2);
        load_view(&mut o, &g);
        let query = q(0, 3, 2, 2, FaultModel::Vertex);
        let mut verdicts = Vec::new();
        o.find_blocking_faults_batch_in_view(&[query], &mut verdicts);
        assert!(o.stats().cut_shortcuts > 0);
        o.reset_stats();
        o.set_root_cut_shortcut(false);
        o.find_blocking_faults_batch_in_view(&[query], &mut verdicts);
        assert!(verdicts[0].is_some());
        assert_eq!(o.stats().cut_shortcuts, 0);
    }
}
