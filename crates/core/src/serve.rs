//! Concurrent multi-tenant epoch serving over one frozen artifact.
//!
//! Earlier mutate-then-query engines (`epoch()` / `route_batch()` both
//! taking `&mut self`) meant one engine served exactly one tenant's
//! fault view at a time. This module designs the read path around a
//! **session-object** shape:
//!
//! * [`EpochServer`] — the shared, `Send + Sync`, cheaply clonable entry
//!   point over one `Arc<FrozenSpanner>`. It owns the cross-tenant
//!   state: an intern table of fault views keyed by their Zobrist
//!   [`SetFingerprint`] (the construction-side memo machinery, now
//!   shared via [`spanner_faults::fingerprint`]), the worker pool for
//!   pooled batches, and the serving counters ([`ServerStats`]).
//! * [`EpochView`] — one immutable fault view: the materialized
//!   [`FaultMask`] plus its fingerprint, shared as `Arc<EpochView>`.
//!   Tenants asking for the same fault set get the *same* view (warm
//!   state shared, zero duplicate mask work) — interning is by the
//!   effectively-128-bit fingerprint, the same trust the oracle memo has
//!   always placed in these keys.
//! * [`EpochHandle`] — one tenant's session: an `Arc` of the view plus
//!   private Dijkstra scratch. Handles are independent (`Send`), so any
//!   number of them serve concurrently against one server; every route
//!   is a pure function of `(artifact, view, pair)`, so the answers are
//!   bit-identical to serving each pair alone through [`route_one`] no
//!   matter how many tenants interleave (property-tested in
//!   `tests/epoch_server_props.rs`).
//! * [`EpochDelta`] — the O(Δ) epoch transition: derive a child epoch
//!   from a parent by listing only the components that *changed*
//!   ([`EpochHandle::derive`] / [`EpochHandle::step`]). The fingerprint
//!   is updated per effective toggle, so reaching an already-interned
//!   view costs O(Δ) component operations and **zero** mask work; a
//!   genuinely new view additionally pays one word-level mask copy.
//!   [`ServerStats::delta_component_ops`] counts exactly the toggles
//!   examined — the instrumentation proving delta work is proportional
//!   to the delta, not to `|F|` or `n`.
//! * [`BatchCoalescer`] — the batch front-end: `submit` enqueues any
//!   tenant's batch without blocking (async-friendly: submission is
//!   cheap and never routes), `flush` serves all pending batches with
//!   **one** pass per distinct fault view — same-view tenants share the
//!   per-source search amortization of `serve_batch` — and hands
//!   each submitter exactly the answers a private `route_batch` would
//!   have produced.
//!
//! # The canonical route and single-pair search
//!
//! Every serving path answers a pair with **the canonical route**: the
//! shortest path in `H ∖ F` in which every vertex's predecessor edge is
//! its smallest-id *tight* predecessor edge (`spanner_graph::dijkstra`
//! module docs). The route is a function of `(artifact, view, pair)`
//! alone, not of the search that found it, which is what lets
//! different searches serve different shapes of traffic:
//!
//! * single pairs ([`route_one`], [`EpochHandle::route`],
//!   [`EpochHandle::route_cost`], and batch sources with few targets)
//!   run exact A* under the artifact's landmark potential
//!   ([`FrozenSpanner::landmarks`], [`crate::landmarks`]). The table is
//!   built once on the unfaulted spanner; faults only lengthen
//!   distances, so its bounds hold in every epoch and no delta ever
//!   invalidates it. At n = 10⁴ on a sparse geometric spanner A*
//!   settles about 240 vertices where the early-stopped Dijkstra it
//!   replaced settled about 5,000;
//! * a batch source with many targets pays one full search and
//!   extracts every target from it (`serve_batch`).
//!
//! Every entry point first runs one endpoint check — ids in range
//! ([`RouteError::InvalidEndpoint`]), then endpoints alive
//! ([`RouteError::EndpointFailed`]) — so no id from a caller reaches an
//! array index unchecked, and a bad pair in a pooled batch gets its
//! error in its own slot instead of killing a worker.
//!
//! # Worker pool and the `threads = 0` convention
//!
//! The pool lives on the server, not on any engine or handle, so every
//! session sharing the server shares one set of workers.
//! [`EpochServer::with_threads`] is **the** place the thread convention
//! is defined: `0` means *auto* (one worker per available CPU,
//! `std::thread::available_parallelism`), `1` means sequential (pooled
//! entry points degrade to the sequential batch), `n ≥ 2` means exactly
//! `n` workers. Workers spawn lazily on the first pooled batch and are
//! joined when the last server clone / handle drops.
//!
//! # Scratch-reuse contract
//!
//! The engine-layer contract carries over: views are built once and
//! shared; each handle owns one Dijkstra engine + path scratch for its
//! lifetime ([`EpochHandle::step`] moves them to the successor epoch);
//! pool workers own theirs for the pool's lifetime; nothing in scratch
//! can leak into answers because every path funnels through the same
//! `route_one` / `serve_batch` implementations the sequential reference
//! uses.

use crate::frozen::MappedSpanner;
use crate::routing::{Route, RouteError};
use crate::FrozenSpanner;
use spanner_faults::fingerprint::{component_hash, SetFingerprint};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::{DijkstraEngine, Dist, EdgeId, FaultMask, NodeId, PathScratch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Serves one pair against the frozen artifact under `mask`.
///
/// This is the **reference implementation**: every serving path —
/// [`EpochHandle::route`], sequential and pooled batches, the
/// coalescer — answers exactly like it, because they all serve the
/// canonical route (module docs). It is public so harnesses and tests
/// can serve a pair without opening a session: bring your own
/// [`DijkstraEngine`], [`PathScratch`], and a mask over the *spanner's*
/// ids (see [`FrozenSpanner::apply_faults`]).
///
/// # Errors
///
/// [`RouteError::InvalidEndpoint`] if an endpoint is not a vertex;
/// [`RouteError::EndpointFailed`] if an endpoint is masked out;
/// [`RouteError::Unreachable`] if the survivors are disconnected.
pub fn route_one(
    frozen: &FrozenSpanner,
    engine: &mut DijkstraEngine,
    scratch: &mut PathScratch,
    mask: &FaultMask,
    from: NodeId,
    to: NodeId,
) -> Result<Route, RouteError> {
    pair_search(frozen, engine, mask, from, to)?;
    let found = engine.extract_path_into(to, Dist::INFINITE, scratch);
    debug_assert!(found, "a finished pair search settles its target");
    Ok(route_from_scratch(scratch))
}

/// The endpoint check every serving entry point runs before searching,
/// in one fixed order: both ids in range (else
/// [`RouteError::InvalidEndpoint`]), then both endpoints alive in the
/// view (else [`RouteError::EndpointFailed`]). The searches below it
/// assume valid, live endpoints.
fn check_endpoints(
    frozen: &FrozenSpanner,
    mask: &FaultMask,
    from: NodeId,
    to: NodeId,
) -> Result<(), RouteError> {
    for v in [from, to] {
        if v.index() >= frozen.node_count() {
            return Err(RouteError::InvalidEndpoint(v));
        }
    }
    for v in [from, to] {
        if mask.is_vertex_faulted(v) {
            return Err(RouteError::EndpointFailed(v));
        }
    }
    Ok(())
}

/// The single-pair search: endpoint check, then the canonical A* under
/// the artifact's landmark potential. Leaves the route in `engine` for
/// extraction and returns its cost.
fn pair_search(
    frozen: &FrozenSpanner,
    engine: &mut DijkstraEngine,
    mask: &FaultMask,
    from: NodeId,
    to: NodeId,
) -> Result<Dist, RouteError> {
    check_endpoints(frozen, mask, from, to)?;
    let potential = frozen.landmarks().potential_to(to);
    engine
        .astar(frozen.csr(), from, to, mask, &potential)
        .ok_or(RouteError::Unreachable { from, to })
}

/// Converts the freshly extracted scratch into an owned [`Route`].
fn route_from_scratch(scratch: &PathScratch) -> Route {
    Route {
        nodes: scratch.nodes().to_vec(),
        edges: scratch.edges().to_vec(),
        dist: scratch.dist(),
    }
}

/// Targets a source needs in one batch before [`serve_batch`] answers
/// them from one full search instead of one A* each. Measured on f-VFT
/// spanners of geometric graphs, a full search costs as much as 15
/// (n = 800) to 25 (n = 10⁴) landmark A* queries; the threshold sits at
/// the low end. Answers are identical either way.
const FULL_SEARCH_MIN_TARGETS: usize = 16;

/// Serves a whole batch under `mask`, one answer per pair in input
/// order. Pairs are grouped by source: a source with at least
/// [`FULL_SEARCH_MIN_TARGETS`] targets pays one full
/// [`DijkstraEngine::search_from`] plus per-target extraction, every
/// other pair one A* query through [`route_one`]. Both return the
/// canonical route, so answers are bit-identical to serving every pair
/// through [`route_one`] (pinned by the property tests). Shared by the
/// sequential batch path, the coalescer, and every pool worker.
pub(crate) fn serve_batch(
    frozen: &FrozenSpanner,
    engine: &mut DijkstraEngine,
    scratch: &mut PathScratch,
    mask: &FaultMask,
    pairs: &[(NodeId, NodeId)],
) -> Vec<Result<Route, RouteError>> {
    let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
    order.sort_unstable_by_key(|&i| pairs[i as usize].0);
    let mut out: Vec<Option<Result<Route, RouteError>>> = vec![None; pairs.len()];
    let mut at = 0usize;
    while at < order.len() {
        let from = pairs[order[at] as usize].0;
        let end = at + order[at..].partition_point(|&i| pairs[i as usize].0 == from);
        let group = &order[at..end];
        at = end;
        if group.len() < FULL_SEARCH_MIN_TARGETS {
            for &i in group {
                let (from, to) = pairs[i as usize];
                out[i as usize] = Some(route_one(frozen, engine, scratch, mask, from, to));
            }
            continue;
        }
        let mut searched = false;
        for &i in group {
            let (from, to) = pairs[i as usize];
            let answer = check_endpoints(frozen, mask, from, to).and_then(|()| {
                if !searched {
                    engine.search_from(frozen.csr(), from, Dist::INFINITE, mask);
                    searched = true;
                }
                if engine.extract_path_into(to, Dist::INFINITE, scratch) {
                    Ok(route_from_scratch(scratch))
                } else {
                    Err(RouteError::Unreachable { from, to })
                }
            });
            out[i as usize] = Some(answer);
        }
    }
    out.into_iter()
        .map(|answer| answer.expect("every index served"))
        .collect()
}

/// One immutable fault view over the spanner: the materialized mask plus
/// its order-independent fingerprint. Views are shared (`Arc`) across
/// every tenant that asked for the same fault set.
#[derive(Debug)]
pub struct EpochView {
    mask: FaultMask,
    fingerprint: SetFingerprint,
}

impl EpochView {
    /// The fault mask this view serves under (spanner-graph ids).
    pub fn mask(&self) -> &FaultMask {
        &self.mask
    }

    /// The view's interning fingerprint (see
    /// [`spanner_faults::fingerprint`] for the collision analysis).
    pub fn fingerprint(&self) -> SetFingerprint {
        self.fingerprint
    }

    /// Total faulted components (vertices + spanner edges) in the view.
    pub fn fault_count(&self) -> usize {
        self.mask.fault_count()
    }
}

/// Computes the fingerprint of a materialized mask: vertices hashed with
/// the vertex tag, *spanner* edges with the edge tag — the same
/// convention [`EpochHandle::derive`] maintains incrementally.
fn fingerprint_of_mask(mask: &FaultMask) -> SetFingerprint {
    let mut fp = SetFingerprint::EMPTY;
    for v in mask.faulted_vertices() {
        fp.add(component_hash(FaultModel::Vertex, v.index()));
    }
    for e in mask.faulted_edges() {
        fp.add(component_hash(FaultModel::Edge, e.index()));
    }
    fp
}

/// A snapshot of the server's serving counters (monotone; taken with
/// [`EpochServer::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Epoch handles opened (any entry point, including deltas).
    pub epochs_opened: u64,
    /// Fault views materialized (mask built or copied). Stays below
    /// `epochs_opened` exactly when tenants shared views.
    pub views_built: u64,
    /// Epochs that reused an already-interned view (zero mask work).
    pub views_shared: u64,
    /// Delta component operations examined by [`EpochHandle::derive`] /
    /// [`EpochHandle::step`] — grows with Σ|Δ|, **not** with `|F|` or
    /// `n` (the O(Δ) instrumentation).
    pub delta_component_ops: u64,
}

/// One pooled-batch work item: a chunk of pairs, the view to serve them
/// under, and the submitting batch's private result channel (each batch
/// owns its channel, so concurrent handles can never interleave
/// answers).
struct PoolJob {
    chunk: usize,
    pairs: Vec<(NodeId, NodeId)>,
    view: Arc<EpochView>,
    results: mpsc::Sender<(usize, Vec<Result<Route, RouteError>>)>,
}

/// The server's shared worker pool: spawned lazily on the first pooled
/// batch, joined when the server's last owner drops.
struct WorkerPool {
    /// `Option` so `Drop` can close the queue before joining.
    jobs: Mutex<Option<mpsc::Sender<PoolJob>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    fn spawn(frozen: &Arc<FrozenSpanner>, threads: usize) -> WorkerPool {
        let (job_tx, job_rx) = mpsc::channel::<PoolJob>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let jobs = Arc::clone(&job_rx);
            let frozen = Arc::clone(frozen);
            workers.push(std::thread::spawn(move || {
                // One Dijkstra engine + path scratch per worker, alive
                // for the pool's lifetime: scratch persists across every
                // batch of every tenant.
                let mut engine = DijkstraEngine::new();
                let mut path = PathScratch::new();
                loop {
                    let job = {
                        let rx = jobs.lock().expect("job queue lock");
                        match rx.recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped
                        }
                    };
                    let answers =
                        serve_batch(&frozen, &mut engine, &mut path, &job.view.mask, &job.pairs);
                    // A submitter that gave up (dropped its receiver) is
                    // not an error for the pool.
                    let _ = job.results.send((job.chunk, answers));
                }
            }));
        }
        WorkerPool {
            jobs: Mutex::new(Some(job_tx)),
            workers: Mutex::new(workers),
        }
    }

    /// True iff some worker thread has exited (used as the liveness
    /// check while draining a batch).
    fn any_worker_dead(&self) -> bool {
        self.workers
            .lock()
            .expect("worker list lock")
            .iter()
            .any(|h| h.is_finished())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the queue; workers exit their loop, then join them.
        self.jobs.lock().expect("job queue lock").take();
        for handle in self.workers.lock().expect("worker list lock").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Chunks outstanding per worker in a pooled batch (finer than one chunk
/// per thread so an unlucky chunk of long queries cannot straggle the
/// whole batch).
const CHUNKS_PER_THREAD: usize = 4;

/// The shared cross-tenant serving state behind every [`EpochServer`]
/// clone and [`EpochHandle`].
struct ServerInner {
    frozen: Arc<FrozenSpanner>,
    /// Intern table: fingerprint key → live view. `Weak` so retired
    /// views are collectable; dead entries are pruned on misses.
    views: Mutex<HashMap<(u64, u64, u64), Weak<EpochView>>>,
    /// Requested worker count (`0` = auto; resolved at pool spawn).
    threads: AtomicUsize,
    pool: Mutex<Option<Arc<WorkerPool>>>,
    epochs_opened: AtomicU64,
    views_built: AtomicU64,
    views_shared: AtomicU64,
    delta_component_ops: AtomicU64,
}

impl ServerInner {
    /// The worker count pooled batches will use (resolving the auto
    /// convention; see [`EpochServer::with_threads`]).
    fn resolved_threads(&self) -> usize {
        match self.threads.load(Ordering::Relaxed) {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// The shared pool, spawned on first use at the resolved width.
    fn ensure_pool(self: &Arc<Self>) -> Arc<WorkerPool> {
        let mut guard = self.pool.lock().expect("pool lock");
        if let Some(pool) = guard.as_ref() {
            return Arc::clone(pool);
        }
        let pool = Arc::new(WorkerPool::spawn(&self.frozen, self.resolved_threads()));
        *guard = Some(Arc::clone(&pool));
        pool
    }

    /// Interns `view` under its fingerprint, returning the canonical
    /// `Arc` (an already-live equal view wins). Dead entries under other
    /// keys are pruned opportunistically when the table has accumulated
    /// more tombstones than live views.
    fn intern(&self, view: EpochView) -> Arc<EpochView> {
        let key = view.fingerprint.key();
        let mut table = self.views.lock().expect("view table lock");
        if let Some(live) = table.get(&key).and_then(Weak::upgrade) {
            debug_assert_eq!(live.fault_count(), view.fault_count());
            self.views_shared.fetch_add(1, Ordering::Relaxed);
            return live;
        }
        if table.len() > 32 {
            table.retain(|_, w| w.strong_count() > 0);
        }
        let view = Arc::new(view);
        table.insert(key, Arc::downgrade(&view));
        self.views_built.fetch_add(1, Ordering::Relaxed);
        view
    }

    /// Looks up a live view by fingerprint without materializing a mask
    /// (the O(Δ) derive fast path).
    fn lookup(&self, fingerprint: SetFingerprint) -> Option<Arc<EpochView>> {
        let table = self.views.lock().expect("view table lock");
        table.get(&fingerprint.key()).and_then(Weak::upgrade)
    }

    /// Builds (or re-shares) the view for an explicitly materialized
    /// mask and opens a handle over it.
    fn open_view(self: &Arc<Self>, mask: FaultMask) -> Arc<EpochView> {
        self.epochs_opened.fetch_add(1, Ordering::Relaxed);
        let fingerprint = fingerprint_of_mask(&mask);
        self.intern(EpochView { mask, fingerprint })
    }
}

impl std::fmt::Debug for ServerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochServer")
            .field("nodes", &self.frozen.node_count())
            .field("edges", &self.frozen.edge_count())
            .field("threads", &self.threads.load(Ordering::Relaxed))
            .finish()
    }
}

/// The shared, thread-safe epoch server over one frozen artifact (see
/// the module docs for the session model).
///
/// Cloning is cheap (an `Arc` bump) and every clone serves the same
/// intern table, worker pool and counters. The server itself never
/// routes: it hands out [`EpochHandle`] sessions, which do.
///
/// # Examples
///
/// Two tenants with different fault views served concurrently from one
/// artifact:
///
/// ```
/// use spanner_core::{serve::EpochServer, FtGreedy};
/// use spanner_faults::FaultSet;
/// use spanner_graph::{generators::complete, NodeId};
/// use std::sync::Arc;
///
/// let g = complete(8);
/// let ft = FtGreedy::new(&g, 3).faults(1).run();
/// let server = EpochServer::new(Arc::new(ft.freeze(&g)));
///
/// let mut tenant_a = server.epoch(&FaultSet::vertices([NodeId::new(3)]));
/// let mut tenant_b = server.epoch(&FaultSet::vertices([NodeId::new(5)]));
/// std::thread::scope(|scope| {
///     scope.spawn(|| {
///         let answers = tenant_a.route_batch(&[(NodeId::new(0), NodeId::new(7))]);
///         assert!(answers[0].is_ok());
///     });
///     scope.spawn(|| {
///         let answers = tenant_b.route_batch(&[(NodeId::new(1), NodeId::new(6))]);
///         assert!(answers[0].is_ok());
///     });
/// });
/// ```
#[derive(Clone, Debug)]
pub struct EpochServer {
    inner: Arc<ServerInner>,
}

impl EpochServer {
    /// Creates a server over the artifact, initially sequential
    /// (`threads = 1`); configure pooled batches with
    /// [`EpochServer::with_threads`]. Builds the artifact's landmark
    /// table ([`FrozenSpanner::landmarks`]) here, so its cost lands in
    /// server set-up rather than in the first query.
    pub fn new(frozen: Arc<FrozenSpanner>) -> Self {
        frozen.landmarks();
        EpochServer {
            inner: Arc::new(ServerInner {
                frozen,
                views: Mutex::new(HashMap::new()),
                threads: AtomicUsize::new(1),
                pool: Mutex::new(None),
                epochs_opened: AtomicU64::new(0),
                views_built: AtomicU64::new(0),
                views_shared: AtomicU64::new(0),
                delta_component_ops: AtomicU64::new(0),
            }),
        }
    }

    /// Creates a server over an artifact opened **in place** with
    /// [`FrozenSpanner::open`] — the zero-copy serving entrance: the
    /// adjacency keeps living in the mapped (or aligned, borrowed)
    /// buffer, witnesses and the parent stay undecoded until asked for,
    /// and every session answers bit-identically to a server over the
    /// same artifact's eager [`FrozenSpanner::decode`] (pinned by
    /// `tests/mapped_serving_props.rs`).
    pub fn from_mapped(mapped: MappedSpanner) -> Self {
        EpochServer::new(Arc::new(mapped.into_inner()))
    }

    /// Sets the shared worker-pool width for pooled batches. **This is
    /// the thread-count convention, defined once:** `0` = auto (one
    /// worker per available CPU), `1` = sequential (pooled entry points
    /// degrade to the sequential batch, no workers spawned), `n ≥ 2` =
    /// exactly `n` workers. Workers spawn lazily on the first pooled
    /// batch and serve every session of this server.
    ///
    /// # Panics
    ///
    /// Panics if the pool already started working (workers bake the
    /// artifact and width in at spawn time).
    pub fn with_threads(self, threads: usize) -> Self {
        assert!(
            self.inner.pool.lock().expect("pool lock").is_none(),
            "configure the server before its first pooled batch"
        );
        self.inner.threads.store(threads, Ordering::Relaxed);
        self
    }

    /// The shared artifact this server serves.
    pub fn artifact(&self) -> &Arc<FrozenSpanner> {
        &self.inner.frozen
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            epochs_opened: self.inner.epochs_opened.load(Ordering::Relaxed),
            views_built: self.inner.views_built.load(Ordering::Relaxed),
            views_shared: self.inner.views_shared.load(Ordering::Relaxed),
            delta_component_ops: self.inner.delta_component_ops.load(Ordering::Relaxed),
        }
    }

    /// Opens a session under `failures` (vertex faults and/or parent
    /// edge faults, translated through the artifact's O(1) map). The
    /// failure set is applied **once** — or not at all, when an equal
    /// view is already live — and the handle serves against the
    /// immutable result.
    pub fn epoch(&self, failures: &FaultSet) -> EpochHandle {
        let frozen = &self.inner.frozen;
        let mut mask = FaultMask::with_capacity(frozen.node_count(), frozen.edge_count());
        frozen.apply_faults(failures, &mut mask);
        self.open_mask(mask)
    }

    /// Opens a failure-free session (the natural root for
    /// [`EpochHandle::derive`] chains).
    pub fn epoch_clear(&self) -> EpochHandle {
        let frozen = &self.inner.frozen;
        self.open_mask(FaultMask::with_capacity(
            frozen.node_count(),
            frozen.edge_count(),
        ))
    }

    /// Opens a session from a prebuilt mask over the *spanner's* graph
    /// (the [`Spanner::fault_mask`](crate::Spanner::fault_mask) form) —
    /// the compatibility entrance for callers that already hold
    /// spanner-id masks rather than parent-id fault sets. Costs one mask
    /// copy when the view is new; nothing when it is already live.
    pub fn epoch_from_spanner_mask(&self, mask: &FaultMask) -> EpochHandle {
        let frozen = &self.inner.frozen;
        let mut own = FaultMask::with_capacity(frozen.node_count(), frozen.edge_count());
        for v in mask.faulted_vertices() {
            own.fault_vertex(v);
        }
        for e in mask.faulted_edges() {
            own.fault_edge(e);
        }
        self.open_mask(own)
    }

    fn open_mask(&self, mask: FaultMask) -> EpochHandle {
        EpochHandle {
            inner: Arc::clone(&self.inner),
            view: self.inner.open_view(mask),
            engine: DijkstraEngine::new(),
            path: PathScratch::new(),
        }
    }
}

/// One fault-or-restore operation of an [`EpochDelta`]. Edge operations
/// name *parent* edge ids (translated through the artifact's map when
/// the delta is applied; parent edges the spanner did not keep are
/// no-ops).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeltaOp {
    FaultVertex(NodeId),
    RestoreVertex(NodeId),
    FaultParentEdge(EdgeId),
    RestoreParentEdge(EdgeId),
}

/// An ordered list of fault/restore operations describing how one epoch
/// differs from its parent — the O(Δ) alternative to clearing and
/// re-applying a whole fault set per step. Build with the chainable
/// mutators, apply with [`EpochHandle::derive`] or
/// [`EpochHandle::step`]; [`EpochDelta::clear`] keeps the allocation for
/// reuse across steps.
///
/// Operations apply in order, so `fault_vertex(v)` followed by
/// `restore_vertex(v)` is a net no-op. Redundant operations (faulting an
/// already-down component, restoring a live one) are permitted and
/// ignored — a delta is a statement about desired state, not a toggle
/// log.
#[derive(Clone, Debug, Default)]
pub struct EpochDelta {
    ops: Vec<DeltaOp>,
}

impl EpochDelta {
    /// An empty delta.
    pub fn new() -> Self {
        EpochDelta::default()
    }

    /// Fails a vertex in the derived epoch.
    pub fn fault_vertex(&mut self, v: NodeId) -> &mut Self {
        self.ops.push(DeltaOp::FaultVertex(v));
        self
    }

    /// Restores a vertex in the derived epoch.
    pub fn restore_vertex(&mut self, v: NodeId) -> &mut Self {
        self.ops.push(DeltaOp::RestoreVertex(v));
        self
    }

    /// Fails a *parent* edge in the derived epoch (no-op when the
    /// spanner did not keep it).
    pub fn fault_parent_edge(&mut self, parent_edge: EdgeId) -> &mut Self {
        self.ops.push(DeltaOp::FaultParentEdge(parent_edge));
        self
    }

    /// Restores a *parent* edge in the derived epoch (no-op when the
    /// spanner did not keep it).
    pub fn restore_parent_edge(&mut self, parent_edge: EdgeId) -> &mut Self {
        self.ops.push(DeltaOp::RestoreParentEdge(parent_edge));
        self
    }

    /// Number of operations in the delta (the Δ the cost is proportional
    /// to).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Empties the delta, keeping its allocation (for the step-loop
    /// reuse pattern).
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// One tenant's serving session: an immutable fault view plus private
/// Dijkstra scratch. Handles are `Send` and independent — open as many
/// as there are tenants and serve them from any threads; answers are
/// bit-identical to the sequential reference regardless of interleaving
/// (see the module docs).
#[derive(Debug)]
pub struct EpochHandle {
    inner: Arc<ServerInner>,
    view: Arc<EpochView>,
    engine: DijkstraEngine,
    path: PathScratch,
}

impl EpochHandle {
    /// The immutable fault view this session serves under.
    pub fn view(&self) -> &Arc<EpochView> {
        &self.view
    }

    /// The shared artifact.
    pub fn artifact(&self) -> &Arc<FrozenSpanner> {
        &self.inner.frozen
    }

    /// A server handle back to the shared state (for opening sibling
    /// sessions or reading [`EpochServer::stats`]).
    pub fn server(&self) -> EpochServer {
        EpochServer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Routes `from → to` in this epoch: the canonical route, found by
    /// landmark A* (module docs).
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidEndpoint`] if an endpoint is not a vertex;
    /// [`RouteError::EndpointFailed`] if an endpoint is failed in this
    /// view; [`RouteError::Unreachable`] if the survivors are
    /// disconnected (which an `f`-FT spanner guarantees cannot happen
    /// while at most `f` components are down and the parent stays
    /// connected).
    pub fn route(&mut self, from: NodeId, to: NodeId) -> Result<Route, RouteError> {
        route_one(
            &self.inner.frozen,
            &mut self.engine,
            &mut self.path,
            &self.view.mask,
            from,
            to,
        )
    }

    /// Costs `from → to` in this epoch without extracting the path — no
    /// allocation at all, the query-heavy-loop form.
    ///
    /// # Errors
    ///
    /// Same contract as [`EpochHandle::route`].
    pub fn route_cost(&mut self, from: NodeId, to: NodeId) -> Result<Dist, RouteError> {
        pair_search(
            &self.inner.frozen,
            &mut self.engine,
            &self.view.mask,
            from,
            to,
        )
    }

    /// Serves a whole batch against this epoch, one answer per pair in
    /// input order: sources with many targets share one full search,
    /// the rest run A* per pair (see `serve_batch`'s bit-identity note).
    /// An invalid, failed or unreachable pair yields its error in its
    /// own slot without disturbing the rest of the batch.
    pub fn route_batch(&mut self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<Route, RouteError>> {
        serve_batch(
            &self.inner.frozen,
            &mut self.engine,
            &mut self.path,
            &self.view.mask,
            pairs,
        )
    }

    /// Like [`EpochHandle::route_batch`], fanned out over the server's
    /// shared worker pool — and bit-identical to it: same routes, edges,
    /// distances and errors, in the same order, regardless of thread
    /// count, scheduling, or how many other sessions are pooling batches
    /// at the same time (each batch drains its own private result
    /// channel).
    pub fn par_route_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<Result<Route, RouteError>> {
        let threads = self.inner.resolved_threads();
        if threads <= 1 || pairs.len() <= 1 {
            return self.route_batch(pairs);
        }
        pooled_batch(&self.inner, &self.view, threads, pairs)
    }

    /// Opens a *sibling* session whose fault view differs from this one
    /// by exactly `delta`, in O(Δ) component operations: the fingerprint
    /// is updated per effective toggle, an already-interned target view
    /// is re-shared with zero mask work, and only a genuinely new view
    /// pays one word-level mask copy. The parent handle stays valid —
    /// this is the fork form; serving loops that *advance* one session
    /// should prefer [`EpochHandle::step`], which recycles the scratch.
    pub fn derive(&self, delta: &EpochDelta) -> EpochHandle {
        EpochHandle {
            inner: Arc::clone(&self.inner),
            view: derive_view(&self.inner, &self.view, delta),
            engine: DijkstraEngine::new(),
            path: PathScratch::new(),
        }
    }

    /// Advances this session by `delta` in place: the same O(Δ) view
    /// derivation as [`EpochHandle::derive`], but the session keeps its
    /// Dijkstra engine and path scratch — the allocation-free stepping
    /// form the scenario engine runs on.
    pub fn advance(&mut self, delta: &EpochDelta) {
        self.view = derive_view(&self.inner, &self.view, delta);
    }

    /// [`EpochHandle::advance`] in chaining form: consumes the session
    /// and returns its successor epoch (scratch moves along).
    pub fn step(mut self, delta: &EpochDelta) -> EpochHandle {
        self.advance(delta);
        self
    }
}

/// The O(Δ) view derivation shared by [`EpochHandle::derive`] and
/// [`EpochHandle::step`].
fn derive_view(
    inner: &Arc<ServerInner>,
    parent: &Arc<EpochView>,
    delta: &EpochDelta,
) -> Arc<EpochView> {
    inner.epochs_opened.fetch_add(1, Ordering::Relaxed);
    // Fold the delta into the fingerprint, tracking the touched
    // components' evolving states in a small overlay so only *effective*
    // toggles move the fingerprint (fault-then-restore nets out, double
    // faults don't double-count). Everything here is O(Δ).
    let frozen = &inner.frozen;
    let mut fingerprint = parent.fingerprint;
    let mut overlay: HashMap<(FaultModel, usize), bool> = HashMap::with_capacity(delta.ops.len());
    let mut toggle = |model: FaultModel, index: usize, want_faulted: bool| {
        let current = *overlay
            .entry((model, index))
            .or_insert_with(|| match model {
                FaultModel::Vertex => parent.mask.is_vertex_faulted(NodeId::new(index)),
                FaultModel::Edge => parent.mask.is_edge_faulted(EdgeId::new(index)),
            });
        if current != want_faulted {
            let hash = component_hash(model, index);
            if want_faulted {
                fingerprint.add(hash);
            } else {
                fingerprint.remove(hash);
            }
            overlay.insert((model, index), want_faulted);
        }
    };
    for op in &delta.ops {
        match *op {
            DeltaOp::FaultVertex(v) => toggle(FaultModel::Vertex, v.index(), true),
            DeltaOp::RestoreVertex(v) => toggle(FaultModel::Vertex, v.index(), false),
            DeltaOp::FaultParentEdge(pe) => {
                if let Some(own) = frozen.spanner_edge_of_parent(pe) {
                    toggle(FaultModel::Edge, own.index(), true);
                }
            }
            DeltaOp::RestoreParentEdge(pe) => {
                if let Some(own) = frozen.spanner_edge_of_parent(pe) {
                    toggle(FaultModel::Edge, own.index(), false);
                }
            }
        }
    }
    inner
        .delta_component_ops
        .fetch_add(delta.ops.len() as u64, Ordering::Relaxed);
    if fingerprint == parent.fingerprint {
        // Net no-op delta: the parent view is the derived view.
        inner.views_shared.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(parent);
    }
    if let Some(live) = inner.lookup(fingerprint) {
        inner.views_shared.fetch_add(1, Ordering::Relaxed);
        return live;
    }
    // Genuinely new view: one word-level mask copy + O(Δ) toggles.
    let mut mask = parent.mask.clone();
    for ((model, index), faulted) in overlay {
        match (model, faulted) {
            (FaultModel::Vertex, true) => {
                mask.fault_vertex(NodeId::new(index));
            }
            (FaultModel::Vertex, false) => {
                mask.restore_vertex(NodeId::new(index));
            }
            (FaultModel::Edge, true) => {
                mask.fault_edge(EdgeId::new(index));
            }
            (FaultModel::Edge, false) => {
                mask.restore_edge(EdgeId::new(index));
            }
        }
    }
    debug_assert_eq!(fingerprint_of_mask(&mask), fingerprint);
    inner.intern(EpochView { mask, fingerprint })
}

/// Fans one batch over the shared pool and reassembles the answers in
/// input order. The batch owns its result channel, so any number of
/// concurrent batches (from any sessions) share the workers without
/// interleaving.
fn pooled_batch(
    inner: &Arc<ServerInner>,
    view: &Arc<EpochView>,
    threads: usize,
    pairs: &[(NodeId, NodeId)],
) -> Vec<Result<Route, RouteError>> {
    let pool = inner.ensure_pool();
    let (result_tx, result_rx) = mpsc::channel();
    let chunk_size = pairs.len().div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let mut chunks = 0usize;
    {
        let jobs = pool.jobs.lock().expect("job queue lock");
        let jobs = jobs.as_ref().expect("pool alive while server lives");
        for (chunk, slice) in pairs.chunks(chunk_size).enumerate() {
            jobs.send(PoolJob {
                chunk,
                pairs: slice.to_vec(),
                view: Arc::clone(view),
                results: result_tx.clone(),
            })
            .expect("batch pool alive");
            chunks += 1;
        }
    }
    drop(result_tx);
    let mut records: Vec<(usize, Vec<Result<Route, RouteError>>)> = Vec::with_capacity(chunks);
    while records.len() < chunks {
        // recv_timeout + liveness check rather than a bare recv: if a
        // worker dies mid-chunk (panic), its answer never arrives but
        // the channel stays open through the survivors — a bare recv
        // would hang the serving loop instead of failing loudly.
        match result_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(record) => records.push(record),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                assert!(!pool.any_worker_dead(), "a batch worker died mid-query");
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("batch pool shut down mid-query");
            }
        }
    }
    records.sort_by_key(|(chunk, _)| *chunk);
    records
        .into_iter()
        .flat_map(|(_, answers)| answers)
        .collect()
}

/// A claim check for one submitted batch: [`Ticket::index`] is the slot
/// in the `Vec` that [`BatchCoalescer::flush`] returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket(usize);

impl Ticket {
    /// The submission's slot in the flushed answer vector.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// One pending same-view bundle inside the coalescer.
struct CoalescedGroup {
    view: Arc<EpochView>,
    pairs: Vec<(NodeId, NodeId)>,
}

/// The batch front-end: collects per-tenant batches without blocking,
/// then serves all of them with one pass per **distinct fault view** —
/// same-view tenants share one epoch application and one per-source
/// search amortization, and every submission receives exactly the
/// answers its own [`EpochHandle::route_batch`] would have produced
/// (bit-identical; pinned by the property tests).
///
/// `submit` never routes, so a front-end thread can drain a request
/// queue cheaply and `flush` at its own cadence — the async-friendly
/// shape without an async runtime. When the server's pool is configured
/// (threads ≥ 2), each coalesced per-view bundle is fanned over the
/// shared workers.
///
/// # Examples
///
/// ```
/// use spanner_core::{serve::{BatchCoalescer, EpochServer}, FtGreedy};
/// use spanner_faults::FaultSet;
/// use spanner_graph::{generators::complete, NodeId};
/// use std::sync::Arc;
///
/// let g = complete(8);
/// let ft = FtGreedy::new(&g, 3).faults(1).run();
/// let server = EpochServer::new(Arc::new(ft.freeze(&g)));
/// let a = server.epoch(&FaultSet::vertices([NodeId::new(3)]));
/// let b = server.epoch(&FaultSet::vertices([NodeId::new(3)])); // same view
///
/// let mut front = BatchCoalescer::new(&server);
/// let ta = front.submit(&a, &[(NodeId::new(0), NodeId::new(7))]);
/// let tb = front.submit(&b, &[(NodeId::new(1), NodeId::new(6))]);
/// let answers = front.flush();
/// assert!(answers[ta.index()][0].is_ok());
/// assert!(answers[tb.index()][0].is_ok());
/// ```
pub struct BatchCoalescer {
    inner: Arc<ServerInner>,
    engine: DijkstraEngine,
    path: PathScratch,
    groups: Vec<CoalescedGroup>,
    /// Per submission: (group index, offset into the group's pairs,
    /// pair count).
    submissions: Vec<(usize, usize, usize)>,
}

impl BatchCoalescer {
    /// A coalescer over the server's shared state.
    pub fn new(server: &EpochServer) -> Self {
        BatchCoalescer {
            inner: Arc::clone(&server.inner),
            engine: DijkstraEngine::new(),
            path: PathScratch::new(),
            groups: Vec::new(),
            submissions: Vec::new(),
        }
    }

    /// Enqueues one session's batch (no routing happens here). The
    /// returned [`Ticket`] indexes the next [`BatchCoalescer::flush`]'s
    /// answer vector.
    pub fn submit(&mut self, session: &EpochHandle, pairs: &[(NodeId, NodeId)]) -> Ticket {
        debug_assert!(
            Arc::ptr_eq(&self.inner.frozen, &session.inner.frozen),
            "session belongs to a different server"
        );
        let view = &session.view;
        let group = match self.groups.iter().position(|g| Arc::ptr_eq(&g.view, view)) {
            Some(i) => i,
            None => {
                self.groups.push(CoalescedGroup {
                    view: Arc::clone(view),
                    pairs: Vec::new(),
                });
                self.groups.len() - 1
            }
        };
        let offset = self.groups[group].pairs.len();
        self.groups[group].pairs.extend_from_slice(pairs);
        self.submissions.push((group, offset, pairs.len()));
        Ticket(self.submissions.len() - 1)
    }

    /// Number of submissions waiting for the next flush.
    pub fn pending(&self) -> usize {
        self.submissions.len()
    }

    /// Number of distinct fault views the pending submissions coalesce
    /// into (the per-view passes the next flush will pay).
    pub fn pending_views(&self) -> usize {
        self.groups.len()
    }

    /// Serves every pending submission — one pass per distinct view,
    /// pooled when the server has workers configured — and returns the
    /// per-submission answers, indexed by [`Ticket::index`]. Resets the
    /// coalescer for the next round.
    pub fn flush(&mut self) -> Vec<Vec<Result<Route, RouteError>>> {
        let threads = self.inner.resolved_threads();
        let group_answers: Vec<Vec<Result<Route, RouteError>>> = self
            .groups
            .iter()
            .map(|group| {
                if threads > 1 && group.pairs.len() > 1 {
                    pooled_batch(&self.inner, &group.view, threads, &group.pairs)
                } else {
                    serve_batch(
                        &self.inner.frozen,
                        &mut self.engine,
                        &mut self.path,
                        &group.view.mask,
                        &group.pairs,
                    )
                }
            })
            .collect();
        let answers = self
            .submissions
            .iter()
            .map(|&(group, offset, len)| group_answers[group][offset..offset + len].to_vec())
            .collect();
        self.groups.clear();
        self.submissions.clear();
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FtGreedy;
    use spanner_graph::generators::{complete, cycle};

    fn artifact(n: usize, f: usize) -> Arc<FrozenSpanner> {
        let g = complete(n);
        let ft = FtGreedy::new(&g, 3).faults(f).run();
        Arc::new(ft.freeze(&g))
    }

    /// Serves one pair the most primitive way — a fresh mask plus the
    /// public reference implementation, no session machinery at all —
    /// so the session paths have something independent to agree with.
    fn reference_route(
        frozen: &FrozenSpanner,
        failures: &FaultSet,
        from: NodeId,
        to: NodeId,
    ) -> Result<Route, RouteError> {
        let mut mask = FaultMask::with_capacity(frozen.node_count(), frozen.edge_count());
        frozen.apply_faults(failures, &mut mask);
        route_one(
            frozen,
            &mut DijkstraEngine::new(),
            &mut PathScratch::new(),
            &mask,
            from,
            to,
        )
    }

    fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
        (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (NodeId::new(u), NodeId::new(v))))
            .collect()
    }

    #[test]
    fn server_is_send_sync_and_handles_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<EpochServer>();
        assert_send::<EpochHandle>();
        assert_send::<BatchCoalescer>();
    }

    #[test]
    fn same_fault_set_shares_one_view() {
        let server = EpochServer::new(artifact(8, 1));
        let faults = FaultSet::vertices([NodeId::new(2), NodeId::new(5)]);
        let a = server.epoch(&faults);
        let b = server.epoch(&faults);
        assert!(Arc::ptr_eq(a.view(), b.view()), "views must be interned");
        let stats = server.stats();
        assert_eq!(stats.epochs_opened, 2);
        assert_eq!(stats.views_built, 1);
        assert_eq!(stats.views_shared, 1);
    }

    #[test]
    fn handle_matches_reference_per_query() {
        let frozen = artifact(9, 1);
        let server = EpochServer::new(Arc::clone(&frozen));
        for failed in 0..9usize {
            let failures = FaultSet::vertices([NodeId::new(failed)]);
            let mut handle = server.epoch(&failures);
            for &(u, v) in &all_pairs(9) {
                assert_eq!(
                    handle.route(u, v),
                    reference_route(&frozen, &failures, u, v),
                    "{u}->{v} failing v{failed}"
                );
                assert_eq!(
                    handle.route_cost(u, v),
                    handle.route(u, v).map(|r| r.dist),
                    "cost/route disagree {u}->{v}"
                );
            }
        }
    }

    #[test]
    fn concurrent_tenants_match_sequential_reference() {
        let frozen = artifact(10, 1);
        let server = EpochServer::new(Arc::clone(&frozen));
        let pairs = all_pairs(10);
        let tenants: Vec<FaultSet> = (0..6)
            .map(|i| FaultSet::vertices([NodeId::new(i)]))
            .collect();
        let concurrent: Vec<Vec<Result<Route, RouteError>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = tenants
                .iter()
                .map(|faults| {
                    let mut session = server.epoch(faults);
                    let pairs = &pairs;
                    scope.spawn(move || session.route_batch(pairs))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (faults, answers) in tenants.iter().zip(&concurrent) {
            let reference: Vec<_> = pairs
                .iter()
                .map(|&(u, v)| reference_route(&frozen, faults, u, v))
                .collect();
            assert_eq!(answers, &reference, "tenant {faults:?} diverged");
        }
    }

    #[test]
    fn pooled_batches_from_multiple_handles_are_bit_identical() {
        let frozen = artifact(10, 1);
        let pairs = all_pairs(10);
        let server = EpochServer::new(Arc::clone(&frozen)).with_threads(3);
        for failed in [0usize, 4, 9] {
            let failures = FaultSet::vertices([NodeId::new(failed)]);
            let mut sequential = server.epoch(&failures);
            let expected = sequential.route_batch(&pairs);
            let mut pooled = server.epoch(&failures);
            assert_eq!(
                pooled.par_route_batch(&pairs),
                expected,
                "failing v{failed}"
            );
        }
    }

    #[test]
    fn derive_matches_from_scratch_and_counts_delta_ops() {
        let server = EpochServer::new(artifact(9, 2));
        let pairs = all_pairs(9);
        let mut base = server.epoch(&FaultSet::vertices([NodeId::new(1)]));
        let ops_before = server.stats().delta_component_ops;
        // Δ = {+v4, -v1}: derived view must equal the from-scratch {v4}.
        let mut delta = EpochDelta::new();
        delta
            .fault_vertex(NodeId::new(4))
            .restore_vertex(NodeId::new(1));
        let mut derived = base.derive(&delta);
        let mut scratch_built = server.epoch(&FaultSet::vertices([NodeId::new(4)]));
        assert!(
            Arc::ptr_eq(derived.view(), scratch_built.view()),
            "derived and from-scratch epochs must intern to one view"
        );
        assert_eq!(
            derived.route_batch(&pairs),
            scratch_built.route_batch(&pairs)
        );
        assert!(base.route(NodeId::new(0), NodeId::new(2)).is_ok());
        assert_eq!(
            server.stats().delta_component_ops - ops_before,
            2,
            "delta cost is the operation count"
        );
    }

    #[test]
    fn net_noop_delta_reuses_the_parent_view() {
        let server = EpochServer::new(artifact(8, 1));
        let base = server.epoch(&FaultSet::vertices([NodeId::new(3)]));
        let mut delta = EpochDelta::new();
        delta
            .fault_vertex(NodeId::new(5))
            .restore_vertex(NodeId::new(5))
            .fault_vertex(NodeId::new(3)); // already down: redundant
        let derived = base.derive(&delta);
        assert!(Arc::ptr_eq(base.view(), derived.view()));
    }

    #[test]
    fn delta_translates_parent_edges() {
        let g = cycle(6);
        let full = crate::Spanner::from_parent_edges(&g, g.edge_ids(), 3);
        let server = EpochServer::new(Arc::new(full.freeze()));
        let mut delta = EpochDelta::new();
        delta.fault_parent_edge(EdgeId::new(0));
        let mut handle = server.epoch_clear().step(&delta);
        let route = handle.route(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(route.dist, Dist::finite(5), "must detour the long way");
        // Restoring through a delta returns to the clear view.
        let mut back = EpochDelta::new();
        back.restore_parent_edge(EdgeId::new(0));
        let mut restored = handle.step(&back);
        assert_eq!(
            restored.route(NodeId::new(0), NodeId::new(1)).unwrap().dist,
            Dist::finite(1)
        );
    }

    #[test]
    fn coalescer_answers_match_private_batches() {
        let server = EpochServer::new(artifact(9, 1));
        let pairs = all_pairs(9);
        let sets = [
            FaultSet::vertices([NodeId::new(0)]),
            FaultSet::vertices([NodeId::new(4)]),
            FaultSet::vertices([NodeId::new(0)]), // shares tenant 0's view
        ];
        let sessions: Vec<EpochHandle> = sets.iter().map(|s| server.epoch(s)).collect();
        let mut front = BatchCoalescer::new(&server);
        let tickets: Vec<Ticket> = sessions
            .iter()
            .map(|session| front.submit(session, &pairs))
            .collect();
        assert_eq!(front.pending(), 3);
        assert_eq!(front.pending_views(), 2, "two tenants share one view");
        let coalesced = front.flush();
        assert_eq!(front.pending(), 0);
        for (session, ticket) in sessions.into_iter().zip(tickets) {
            let mut session = session;
            assert_eq!(
                coalesced[ticket.index()],
                session.route_batch(&pairs),
                "coalesced answers diverged from the private batch"
            );
        }
    }

    #[test]
    fn empty_and_tiny_batches() {
        let server = EpochServer::new(artifact(6, 1)).with_threads(4);
        let mut handle = server.epoch_clear();
        assert!(handle.par_route_batch(&[]).is_empty());
        let one = handle.par_route_batch(&[(NodeId::new(0), NodeId::new(5))]);
        assert_eq!(one.len(), 1);
        assert!(one[0].is_ok());
    }

    #[test]
    fn epoch_from_spanner_mask_matches_fault_set_entry() {
        let frozen = artifact(8, 1);
        let server = EpochServer::new(frozen);
        let faults = FaultSet::vertices([NodeId::new(2)]);
        let by_set = server.epoch(&faults);
        let mask = faults.to_mask(8, server.artifact().edge_count());
        let by_mask = server.epoch_from_spanner_mask(&mask);
        assert!(Arc::ptr_eq(by_set.view(), by_mask.view()));
    }

    #[test]
    fn out_of_range_endpoints_fail_closed_on_every_entry_point() {
        let server = EpochServer::new(artifact(6, 1)).with_threads(2);
        let mut handle = server.epoch(&FaultSet::vertices([NodeId::new(2)]));
        let (bad, ok, down) = (NodeId::new(999), NodeId::new(0), NodeId::new(2));
        let invalid = Err(RouteError::InvalidEndpoint(bad));
        assert_eq!(handle.route(ok, bad), invalid);
        assert_eq!(handle.route(bad, ok), invalid);
        assert_eq!(
            handle.route_cost(bad, ok),
            Err(RouteError::InvalidEndpoint(bad))
        );
        // Validity is checked before the view: a bad id wins over a
        // failed partner.
        assert_eq!(handle.route(down, bad), invalid);
        assert_eq!(
            handle.route(down, ok),
            Err(RouteError::EndpointFailed(down))
        );
        // A repeated bad source crosses the full-search threshold; good
        // pairs in the same batch are unaffected.
        let mut pairs = vec![(bad, ok); FULL_SEARCH_MIN_TARGETS + 1];
        pairs.push((ok, NodeId::new(5)));
        pairs.extend(std::iter::repeat((ok, bad)).take(FULL_SEARCH_MIN_TARGETS));
        let expected: Vec<_> = pairs.iter().map(|&(u, v)| handle.route(u, v)).collect();
        assert!(expected[FULL_SEARCH_MIN_TARGETS + 1].is_ok());
        assert_eq!(handle.route_batch(&pairs), expected);
        // The pooled path must answer the same, twice: a worker that
        // panicked on the first batch would fail the second.
        for _ in 0..2 {
            assert_eq!(handle.par_route_batch(&pairs), expected);
        }
        let mut front = BatchCoalescer::new(&server);
        let ticket = front.submit(&handle, &pairs);
        assert_eq!(front.flush()[ticket.index()], expected);
    }

    #[test]
    #[should_panic(expected = "configure the server before its first pooled batch")]
    fn thread_configuration_after_spawn_panics() {
        let server = EpochServer::new(artifact(6, 1)).with_threads(2);
        let mut handle = server.epoch_clear();
        let _ = handle.par_route_batch(&all_pairs(6));
        let _ = server.with_threads(4);
    }
}
