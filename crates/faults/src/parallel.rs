//! A pooled exact fault oracle: whole queries are the unit of
//! parallelism.
//!
//! FT-greedy (Algorithm 1 of Bodwin–Patel) decides its candidate edges
//! in weight order against a spanner `H` that only ever grows. Almost
//! every decision in a dense construction is a *drop* settled by the
//! root packing prune within a handful of Dijkstras, so splitting one
//! query's search tree across threads leaves the extra cores idle.
//! This oracle instead decides a batch of upcoming candidates
//! concurrently, **one whole sequential [`BranchingOracle`] query at a
//! time per participant**, against one snapshot of the spanner.
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
//! # How a batch runs
//!
//! An oracle of width `t` spawns `t − 1` helper threads (none at
//! `t = 1`), once, on first use. A batch is published once: its
//! queries, an atomic claim cursor and a completion count. The calling
//! thread then claims and decides queries exactly as the helpers do, so
//! `t` threads work on `t` CPUs and nobody waits on a message per
//! query. Helpers sleep on a condition variable between batches; each
//! one hands its answers and work counters back once per batch, and the
//! last one to finish wakes the caller if it is still waiting. A helper
//! that wakes late finds the cursor exhausted and goes back to sleep. A
//! helper that panics marks the pool dead, and the batch fails loudly
//! instead of waiting for an answer that never comes.
//!
//! # Determinism
//!
//! A [`BranchingOracle`] query is a pure function of the view, the
//! query and the configuration: every scratch buffer is cleared, never
//! carried over, between queries. So it does not matter which thread
//! ran which query, or in what order answers came back — batch verdicts
//! are placed by index before the caller sees them.
//!
//! # Sharing the view
//!
//! Helpers outlive any one query, so they cannot borrow the caller's
//! graph: they share an [`IncrementalCsr`] spanner view, together with
//! the [`Landmarks`] table of the construction's parent graph, behind an
//! `RwLock`, and decide under its read guard. A construction starts with
//! [`ParallelBranchingOracle::view_reset`], which takes the parent, builds
//! its table once and empties the view, or with
//! [`ParallelBranchingOracle::view_reset_with`], which takes a table the
//! caller already has (a partitioned build hands each shard the input
//! graph's table restricted to the shard); the caller grows the view with
//! [`ParallelBranchingOracle::view_push_edge`] between batches (never
//! while one is in flight: a batch returns only once every one of its
//! queries is answered). Every query on the view, pooled or inline,
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;

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

/// One published batch: its queries, the configuration they run under,
/// and the cursor every participant claims query indices from.
#[derive(Debug)]
struct Batch {
    queries: Vec<OracleQuery>,
    config: BranchingConfig,
    next: AtomicUsize,
}

impl Batch {
    /// The next unclaimed query index, or `None` once all are claimed.
    fn claim(&self) -> Option<usize> {
        // Relaxed: the cursor publishes no data (the queries reach every
        // participant through the round mutex); atomicity alone makes
        // each index go to exactly one claimant.
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        (index < self.queries.len()).then_some(index)
    }
}

/// The batch in flight and what the helpers have handed back for it.
#[derive(Debug, Default)]
struct Round {
    /// Bumped once per published batch; a helper remembers the last one
    /// it saw.
    epoch: u64,
    /// The batch in flight (`None` between batches).
    batch: Option<Arc<Batch>>,
    /// Queries of the batch in flight answered so far, by anyone.
    done: usize,
    /// Helper answers for the batch in flight.
    answers: Vec<(usize, Option<FaultSet>)>,
    /// Helper work counters for the batch in flight.
    stats: OracleStats,
    /// A helper panicked: no batch can complete any more.
    dead: bool,
    /// The oracle is being dropped: helpers exit.
    shutdown: bool,
}

/// State shared by the caller and its helpers.
#[derive(Debug)]
struct Shared {
    view: RwLock<SharedView>,
    round: Mutex<Round>,
    /// Signalled when a batch is published or the pool shuts down.
    published: Condvar,
    /// Signalled when the last answer of a batch is in, or a helper dies.
    finished: Condvar,
}

impl Shared {
    fn round(&self) -> MutexGuard<'_, Round> {
        self.round.lock().expect("pool round lock")
    }
}

/// Pooled exact oracle. Every answer is the answer [`BranchingOracle`]
/// gives for the same view, query and configuration (property-tested);
/// batches of queries are shared between the calling thread and a
/// persistent set of helper threads.
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
    /// The caller's own oracle: single queries, and its share of every
    /// batch.
    inline: BranchingOracle,
    /// Counters absorbed from the helpers, plus the pool's own.
    stats: OracleStats,
    shared: Arc<Shared>,
    /// `threads − 1` helpers once spawned; always empty at width 1.
    helpers: Vec<JoinHandle<()>>,
}

impl ParallelBranchingOracle {
    /// Creates an oracle that decides batches on `threads` threads (at
    /// least 1): the caller plus `threads − 1` persistent helpers.
    /// Helpers are spawned when the first construction resets the view
    /// ([`ParallelBranchingOracle::view_reset`]), so configuring the
    /// oracle first costs nothing.
    pub fn new(threads: usize) -> Self {
        ParallelBranchingOracle {
            threads: threads.max(1),
            inline: BranchingOracle::new(),
            stats: OracleStats::default(),
            shared: Arc::new(Shared {
                view: RwLock::new(SharedView {
                    spanner: IncrementalCsr::new(0),
                    landmarks: Landmarks::default(),
                }),
                round: Mutex::new(Round::default()),
                published: Condvar::new(),
                finished: Condvar::new(),
            }),
            helpers: Vec::new(),
        }
    }

    /// Sets the branching configuration of every subsequent query, on
    /// the calling thread and on the helpers alike.
    pub fn with_config(mut self, config: BranchingConfig) -> Self {
        self.inline.set_config(config);
        self
    }

    /// The number of threads a batch is decided on, the caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Starts a construction over `parent`: builds `parent`'s landmark
    /// table and hands it to
    /// [`ParallelBranchingOracle::view_reset_with`].
    pub fn view_reset<V: GraphView>(&mut self, parent: &V) {
        self.view_reset_with(parent.node_count(), Landmarks::build(parent));
    }

    /// Starts a construction over a parent with `node_count` vertices
    /// whose landmark table is `landmarks` (the A* potential of every
    /// query until the next reset): resets the shared spanner view to
    /// those vertices with no edges, and makes sure the helpers are up.
    /// FT-greedy calls this once per construction, then grows the view
    /// with [`ParallelBranchingOracle::view_push_edge`].
    ///
    /// The table must have a row per vertex and be consistent on every
    /// subgraph of the parent: built on the parent itself, or on a
    /// supergraph and [`Landmarks::restrict`]ed to the parent's vertices,
    /// as a partitioned build does for its shards.
    pub fn view_reset_with(&mut self, node_count: usize, landmarks: Landmarks) {
        self.ensure_pool();
        let mut view = self.shared.view.write().expect("view lock");
        view.spanner.reset(node_count);
        view.landmarks = landmarks;
    }

    /// Appends a kept edge to the shared spanner view, returning its
    /// dense id (which matches the spanner's own edge id). The edge must
    /// be an edge of the parent given to the last
    /// [`ParallelBranchingOracle::view_reset`], with its weight.
    pub fn view_push_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> EdgeId {
        let mut view = self.shared.view.write().expect("view lock");
        debug_assert_parent_edge(&view.landmarks, u, v, weight);
        view.spanner.push_edge(u, v, weight)
    }

    /// Appends many edges to the shared spanner view at once, with one
    /// fold of the view's append buffer instead of one per
    /// `PENDING_REBUILD_LIMIT` edges (see
    /// [`IncrementalCsr::extend_edges`]). The ids are the ones
    /// [`ParallelBranchingOracle::view_push_edge`] would give edge by
    /// edge, and every edge must be a parent edge in the same sense.
    pub fn view_extend_edges(&mut self, edges: impl IntoIterator<Item = (NodeId, NodeId, Weight)>) {
        let mut view = self.shared.view.write().expect("view lock");
        let SharedView { spanner, landmarks } = &mut *view;
        spanner.extend_edges(
            edges
                .into_iter()
                .inspect(|&(u, v, weight)| debug_assert_parent_edge(landmarks, u, v, weight)),
        );
    }

    /// Decides one query against the shared spanner view on the calling
    /// thread.
    pub fn find_blocking_faults_in_view(&mut self, query: OracleQuery) -> Option<FaultSet> {
        let guard = self.shared.view.read().expect("view lock");
        guard.decide(&mut self.inline, query)
    }

    /// Decides every query of `queries` against the current shared view,
    /// on the calling thread and the helpers together, and writes the
    /// answers to `verdicts` in query order (`verdicts[i]` answers
    /// `queries[i]`).
    ///
    /// # Panics
    ///
    /// Panics if a query panics, on whichever thread decided it.
    pub fn find_blocking_faults_batch_in_view(
        &mut self,
        queries: &[OracleQuery],
        verdicts: &mut Vec<Option<FaultSet>>,
    ) {
        self.ensure_pool();
        verdicts.clear();
        verdicts.resize(queries.len(), None);
        let batch = Arc::new(Batch {
            queries: queries.to_vec(),
            config: self.inline.config(),
            next: AtomicUsize::new(0),
        });
        {
            let mut round = self.shared.round();
            round.epoch += 1;
            round.batch = Some(Arc::clone(&batch));
            round.done = 0;
        }
        self.shared.published.notify_all();
        let mut mine = 0;
        {
            let view = self.shared.view.read().expect("view lock");
            while let Some(index) = batch.claim() {
                verdicts[index] = view.decide(&mut self.inline, queries[index]);
                mine += 1;
            }
        }
        let mut round = self.shared.round();
        round.done += mine;
        while round.done < queries.len() && !round.dead {
            round = self.shared.finished.wait(round).expect("pool round lock");
        }
        if round.dead {
            drop(round);
            panic!("a pool helper died mid-batch");
        }
        round.batch = None;
        for (index, found) in round.answers.drain(..) {
            verdicts[index] = found;
        }
        self.stats.absorb(std::mem::take(&mut round.stats));
    }

    /// Records `count` batch verdicts the caller threw away because an
    /// earlier keep in the same batch changed the view
    /// ([`OracleStats::speculative_rechecks`]).
    pub fn note_speculative_rechecks(&mut self, count: usize) {
        self.stats.speculative_rechecks += count as u64;
    }

    /// Spawns the `threads − 1` persistent helpers on first use (none at
    /// width 1).
    fn ensure_pool(&mut self) {
        if self.threads == 1 || !self.helpers.is_empty() {
            return;
        }
        self.stats.pool_spawns += 1;
        self.helpers = (1..self.threads)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || help(&shared))
            })
            .collect();
    }
}

/// A helper's life: wait for a batch, claim and decide its queries under
/// the view's read guard, hand the answers back once, repeat until
/// shutdown. Its one sequential oracle lives as long as the pool, so its
/// scratch persists across every query of every construction.
fn help(shared: &Shared) {
    /// Marks the pool dead if the helper unwinds, so the caller fails
    /// the batch instead of waiting for answers that never come.
    struct DeathNotice<'a>(&'a Shared);
    impl Drop for DeathNotice<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let mut round = self.0.round.lock().unwrap_or_else(PoisonError::into_inner);
                round.dead = true;
                self.0.finished.notify_all();
            }
        }
    }
    let _notice = DeathNotice(shared);
    let mut oracle = BranchingOracle::new();
    let mut answers = Vec::new();
    let mut seen = 0;
    loop {
        let batch = {
            let mut round = shared.round();
            while round.epoch == seen && !round.shutdown {
                round = shared.published.wait(round).expect("pool round lock");
            }
            if round.shutdown {
                return;
            }
            seen = round.epoch;
            match &round.batch {
                Some(batch) => Arc::clone(batch),
                // Woke after the batch was already answered.
                None => continue,
            }
        };
        oracle.set_config(batch.config);
        {
            let view = shared.view.read().expect("view lock");
            while let Some(index) = batch.claim() {
                answers.push((index, view.decide(&mut oracle, batch.queries[index])));
            }
        }
        if answers.is_empty() {
            continue;
        }
        let stats = oracle.stats();
        oracle.reset_stats();
        let mut round = shared.round();
        round.done += answers.len();
        round.answers.append(&mut answers);
        round.stats.absorb(stats);
        if round.done == batch.queries.len() {
            shared.finished.notify_one();
        }
    }
}

/// Catches a view edge that is no edge of the parent the landmark table
/// was built on (its A* would no longer be exact): the table's lower
/// bound on `d(u, v)` must not exceed the edge's weight.
fn debug_assert_parent_edge(landmarks: &Landmarks, u: NodeId, v: NodeId, weight: Weight) {
    debug_assert!(
        landmarks.potential_to(v).estimate(u) <= weight.get(),
        "{u}-{v} (weight {weight}) is no edge of the parent the table was built on"
    );
}

impl Drop for ParallelBranchingOracle {
    fn drop(&mut self) {
        self.shared
            .round
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.shared.published.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper that panicked already failed its batch.
            let _ = helper.join();
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
        o.view_extend_edges(g.edges().map(|(_, e)| (e.u(), e.v(), e.weight())));
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
        let mut o = ParallelBranchingOracle::new(2);
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
        // Many batches through one oracle: the same helpers serve all of
        // them (they are spawned once), and the shared view keeps up
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
    fn late_helpers_never_answer_a_grown_view() {
        // Over a thousand small batches, each followed by one view push: a
        // helper that wakes after the caller already answered a batch
        // must find its cursor exhausted rather than decide that batch
        // against the grown view. Every verdict equals a sequential
        // oracle's on the prefix the batch was published against.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use spanner_graph::generators::random_geometric;
        let g = random_geometric(200, 0.15, &mut StdRng::seed_from_u64(58));
        let order = g.edges_by_weight();
        let landmarks = Landmarks::build(&g);
        for threads in [2, 4] {
            let mut o = ParallelBranchingOracle::new(threads);
            o.view_reset(&g);
            let mut prefix = IncrementalCsr::new(g.node_count());
            let mut seq = BranchingOracle::new();
            let mut verdicts = Vec::new();
            let (mut keeps, mut drops) = (0, 0);
            for (step, &id) in order.iter().enumerate() {
                let queries: Vec<_> = order[step..]
                    .iter()
                    .take(1 + step % 8)
                    .flat_map(|&c| {
                        let e = g.edge(c);
                        [FaultModel::Vertex, FaultModel::Edge].map(|model| OracleQuery {
                            u: e.u(),
                            v: e.v(),
                            bound: e.weight().stretched(3),
                            budget: 2,
                            model,
                        })
                    })
                    .collect();
                o.find_blocking_faults_batch_in_view(&queries, &mut verdicts);
                for (query, batched) in queries.iter().zip(&verdicts) {
                    let expected = seq.find_blocking_faults_in(&prefix, Some(&landmarks), *query);
                    assert_eq!(
                        batched, &expected,
                        "threads={threads} step {step} {query:?}"
                    );
                    match expected {
                        Some(_) => keeps += 1,
                        None => drops += 1,
                    }
                }
                let e = g.edge(id);
                o.view_push_edge(e.u(), e.v(), e.weight());
                prefix.push_edge(e.u(), e.v(), e.weight());
            }
            assert!(keeps > 0 && drops > 0, "keeps {keeps}, drops {drops}");
            assert_eq!(o.stats().pool_spawns, 1);
            // Helpers answered some queries (their counters are the ones
            // absorbed per batch), so batches really were shared.
            assert!(o.stats.shortest_path_queries > 0, "helpers never took part");
        }
    }

    #[test]
    fn panicking_query_fails_its_batch_at_every_width() {
        // The batch opens with one slow query (no packing prune, no memo,
        // a search tree of thousands of nodes), which the caller claims
        // first; every later query names a vertex the view does not have,
        // so the helpers that claim them panic. At every width the batch
        // must then panic on the calling thread within a deadline — a
        // dead helper fails the batch instead of leaving the caller
        // waiting for its answer — and dropping the oracle must not hang.
        use std::sync::mpsc;
        use std::time::Duration;
        for threads in [1usize, 2, 4] {
            let (alive, exited) = mpsc::channel::<()>();
            let batch = std::thread::spawn(move || {
                let _alive = alive;
                let g = spanner_graph::generators::complete(30);
                let mut o = ParallelBranchingOracle::new(threads).with_config(BranchingConfig {
                    use_packing: false,
                    use_memo: false,
                });
                load_view(&mut o, &g);
                let mut queries = vec![q(0, 99, 3, 12, FaultModel::Edge); threads.max(2)];
                queries[0].v = NodeId::new(1);
                o.find_blocking_faults_batch_in_view(&queries, &mut Vec::new());
            });
            assert_eq!(
                exited.recv_timeout(Duration::from_secs(60)),
                Err(mpsc::RecvTimeoutError::Disconnected),
                "threads={threads}: the batch hung"
            );
            assert!(
                batch.join().is_err(),
                "threads={threads}: the batch did not panic"
            );
        }
    }

    #[test]
    fn bulk_loaded_view_answers_like_one_grown_edge_by_edge() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use spanner_graph::generators::erdos_renyi;
        let mut rng = StdRng::seed_from_u64(56);
        let g = erdos_renyi(40, 0.1, &mut rng);
        let mut bulk = ParallelBranchingOracle::new(2);
        load_view(&mut bulk, &g);
        let mut grown = ParallelBranchingOracle::new(2);
        grown.view_reset(&g);
        for (id, e) in g.edges() {
            assert_eq!(grown.view_push_edge(e.u(), e.v(), e.weight()), id);
        }
        let queries: Vec<_> = (1..40)
            .flat_map(|v| [FaultModel::Vertex, FaultModel::Edge].map(|model| q(0, v, 3, 1, model)))
            .collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bulk.find_blocking_faults_batch_in_view(&queries, &mut a);
        grown.find_blocking_faults_batch_in_view(&queries, &mut b);
        assert_eq!(a, b);
        // Both verdicts occur, and some keeps need a fault.
        assert!(a.iter().any(Option::is_none));
        assert!(a.iter().flatten().any(|w| !w.is_empty()));
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
}
