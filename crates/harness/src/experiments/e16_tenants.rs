//! E16 / Table 12 — concurrent multi-tenant epoch serving.
//!
//! E15 measures the single-tenant read paths; E16 measures the PR-6
//! serving layer doing what it was built for: **many tenants, one
//! frozen artifact, one shared [`EpochServer`]**. Tenants are assigned
//! fault views so that pairs of tenants share a view (tenant `t` uses
//! view `t mod v`, `v = max(1, tenants/2)`), which exercises the
//! server's view interning — the second tenant of a view must reuse the
//! first tenant's masked state, not rebuild it. Three serving
//! strategies answer identical per-tenant workloads:
//!
//! * `router` — the reference: one fresh engine per tenant serving one
//!   pair at a time through
//!   [`spanner_core::serve::route_one`], every query
//!   re-applying the tenant's failure set;
//! * `shared` — one `EpochServer`, one [`EpochHandle`] session per
//!   tenant, tenants partitioned across `threads` OS threads
//!   (`std::thread::scope`), each thread serving its tenants'
//!   `route_batch` calls against the shared interned views;
//! * `coalesced` — the [`BatchCoalescer`] front-end: every tenant
//!   submits its batch, one `flush` serves each distinct fault view in
//!   a single amortized pass (pooled on the server's pool when
//!   `threads > 1`, the flushing thread included).
//!
//! Grid: tenants × serving threads × batch size at a fixed budget
//! `f = 1`. Every cell asserts all three strategies returned
//! **bit-identical answers** per tenant (routes, edges, distances,
//! errors — the property `epoch_server_props` pins), then reports
//! queries/second. An untimed stats pass additionally certifies the
//! sharing claim itself: opening all tenant sessions builds exactly `v`
//! fault views (`views_built == views`, `epochs_opened == tenants`) —
//! the interning table, not the tenant count, pays the mask work.
//! `repro` exits non-zero when any cell diverges or fails that
//! certificate, so `repro --smoke e16` is the release-binary gate.

use super::{ExperimentContext, ExperimentOutput};
use crate::{cell_seed, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::route_one;
use spanner_core::{BatchCoalescer, EpochHandle, EpochServer, FtGreedy, Ticket};
use spanner_faults::FaultSet;
use spanner_graph::generators::random_geometric;
use spanner_graph::{DijkstraEngine, FaultMask, NodeId, PathScratch};
use std::sync::Arc;
use std::time::Instant;

/// The stretch target every E16 spanner is built for.
pub const STRETCH: u64 = 3;

/// The fault budget (and per-view failure count) of the sweep.
pub const BUDGET: usize = 1;

/// One cell of the sweep: one tenants × threads × batch configuration,
/// measured over all three serving strategies.
#[derive(Clone, Debug)]
pub struct TenantsCell {
    /// Concurrent tenant sessions.
    pub tenants: usize,
    /// Distinct fault views among the tenants (`max(1, tenants/2)`).
    pub views: usize,
    /// OS threads (shared path) / pool width (coalesced path).
    pub threads: usize,
    /// Queries per tenant.
    pub batch: usize,
    /// Total queries per strategy (`tenants × batch`).
    pub queries: usize,
    /// Per-tenant fresh-router reference throughput (queries/second).
    pub router_qps: f64,
    /// Shared-server scoped-thread throughput.
    pub shared_qps: f64,
    /// Coalesced-flush throughput.
    pub coalesced_qps: f64,
    /// Fault views actually built when all tenant sessions were open
    /// (must equal [`TenantsCell::views`] — the interning certificate).
    pub views_built: u64,
    /// Epoch sessions opened in the stats pass (must equal `tenants`).
    pub epochs_opened: u64,
    /// Sessions that reused an interned view (`tenants − views`).
    pub views_shared: u64,
    /// Whether all three strategies returned bit-identical answers.
    pub identical: bool,
}

impl TenantsCell {
    /// Shared-path speedup over the per-tenant router reference.
    pub fn speedup_shared(&self) -> f64 {
        self.shared_qps / self.router_qps
    }

    /// Coalesced-path speedup over the per-tenant router reference.
    pub fn speedup_coalesced(&self) -> f64 {
        self.coalesced_qps / self.router_qps
    }

    /// The interning certificate: with every tenant session open, the
    /// server built one view per distinct fault set, opened one epoch
    /// per tenant, and every session after the first of its view reused
    /// the interned one.
    pub fn interned(&self) -> bool {
        self.views_built == self.views as u64
            && self.epochs_opened == self.tenants as u64
            && self.views_shared == (self.tenants - self.views) as u64
    }
}

/// One tenant's workload: its fault view and its batch of live pairs.
struct TenantPlan {
    failures: FaultSet,
    pairs: Vec<(NodeId, NodeId)>,
}

/// Builds the per-tenant workloads for one cell, deterministically from
/// the cell seed. The `views` fault sets are pairwise disjoint (so the
/// cell has exactly `views` distinct fault sets); tenant `t` is
/// assigned view `t mod views`, so assignments wrap and every view
/// (when `tenants >= 2 × views`) serves at least two tenants. Pairs
/// have live, distinct endpoints.
fn plan_tenants(
    n: usize,
    tenants: usize,
    views: usize,
    batch: usize,
    seed: u64,
) -> Vec<TenantPlan> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Views draw disjoint vertex sets: the cell's distinct-fault-set
    // count must be exactly `views`, or the interning certificate
    // (`views_built == views`) would be ruined by a random collision.
    assert!(views * BUDGET < n, "not enough vertices for disjoint views");
    let mut used: Vec<NodeId> = Vec::new();
    let view_sets: Vec<FaultSet> = (0..views)
        .map(|_| {
            let mut down = Vec::with_capacity(BUDGET);
            while down.len() < BUDGET {
                let v = NodeId::new(rng.gen_range(0..n));
                if !down.contains(&v) && !used.contains(&v) {
                    down.push(v);
                }
            }
            used.extend(down.iter().copied());
            FaultSet::vertices(down)
        })
        .collect();
    (0..tenants)
        .map(|t| {
            let failures = view_sets[t % views].clone();
            let live: Vec<NodeId> = (0..n)
                .map(NodeId::new)
                .filter(|v| !failures.vertex_faults().contains(v))
                .collect();
            let pairs = (0..batch)
                .map(|_| {
                    let i = rng.gen_range(0..live.len());
                    let mut j = rng.gen_range(0..live.len() - 1);
                    if j >= i {
                        j += 1;
                    }
                    (live[i], live[j])
                })
                .collect();
            TenantPlan { failures, pairs }
        })
        .collect()
}

type Answers = Vec<Vec<Result<Route, RouteError>>>;

/// Times `serve_all` (one call answers every tenant) `repeats` times,
/// keeping the minimum wall time and the last run's answers.
fn measure(repeats: usize, mut serve_all: impl FnMut() -> Answers) -> (f64, Answers) {
    let mut best = f64::INFINITY;
    let mut answers = Vec::new();
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let run = serve_all();
        best = best.min(start.elapsed().as_secs_f64());
        answers = run;
    }
    (best, answers)
}

/// Serves every tenant through one shared server, tenants partitioned
/// across `threads` scoped OS threads.
fn serve_shared(server: &EpochServer, plan: &[TenantPlan], threads: usize) -> Answers {
    let mut results: Answers = vec![Vec::new(); plan.len()];
    let per_thread = plan.len().div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        for (slots, tenants) in results.chunks_mut(per_thread).zip(plan.chunks(per_thread)) {
            scope.spawn(move || {
                for (out, tenant) in slots.iter_mut().zip(tenants) {
                    *out = server.epoch(&tenant.failures).route_batch(&tenant.pairs);
                }
            });
        }
    });
    results
}

/// Serves every tenant through one coalesced flush: all batches
/// submitted up front, one amortized pass per distinct fault view.
fn serve_coalesced(server: &EpochServer, plan: &[TenantPlan]) -> Answers {
    let sessions: Vec<EpochHandle> = plan.iter().map(|t| server.epoch(&t.failures)).collect();
    let mut coalescer = BatchCoalescer::new(server);
    let tickets: Vec<Ticket> = sessions
        .iter()
        .zip(plan)
        .map(|(session, tenant)| coalescer.submit(session, &tenant.pairs))
        .collect();
    let mut answers = coalescer.flush();
    tickets
        .into_iter()
        .map(|t| std::mem::take(&mut answers[t.index()]))
        .collect()
}

/// Runs the tenants × threads × batch sweep and returns every cell.
/// `repeats` is the min-of-N methodology.
pub fn sweep(ctx: &ExperimentContext, repeats: usize) -> Vec<TenantsCell> {
    let n = ctx.pick(24, 64, 96);
    let radius = ctx.pick(0.5, 0.3, 0.27);
    let tenant_counts: Vec<usize> = ctx.pick(vec![4], vec![4, 16], vec![4, 16, 64]);
    let thread_counts: Vec<usize> = ctx.pick(vec![2], vec![1, 2], vec![1, 2, 4]);
    let batches: Vec<usize> = ctx.pick(vec![8], vec![16, 128], vec![16, 256]);

    let mut graph_rng = StdRng::seed_from_u64(cell_seed(16, 0, 0));
    let g = random_geometric(n, radius, &mut graph_rng);
    let ft = FtGreedy::new(&g, STRETCH).faults(BUDGET).run();
    let frozen = Arc::new(ft.freeze(&g));

    let mut cells = Vec::new();
    for &tenants in &tenant_counts {
        let views = (tenants / 2).max(1);
        for &threads in &thread_counts {
            for &batch in &batches {
                let seed = cell_seed(16, (tenants * 8 + threads) as u64, batch as u64);
                let plan = plan_tenants(n, tenants, views, batch, seed);

                // Strategy 1: the reference — a fresh engine per
                // tenant, every query re-applying the failure set and
                // serving one pair through `route_one`.
                let (router_secs, router_answers) = measure(repeats, || {
                    plan.iter()
                        .map(|tenant| {
                            let mut engine = DijkstraEngine::new();
                            let mut scratch = PathScratch::new();
                            let mut mask =
                                FaultMask::with_capacity(frozen.node_count(), frozen.edge_count());
                            tenant
                                .pairs
                                .iter()
                                .map(|&(u, v)| {
                                    mask.reset_for(frozen.node_count(), frozen.edge_count());
                                    frozen.apply_faults(&tenant.failures, &mut mask);
                                    route_one(&frozen, &mut engine, &mut scratch, &mask, u, v)
                                })
                                .collect()
                        })
                        .collect()
                });

                // Strategy 2: one shared server, tenant sessions
                // served across scoped OS threads.
                let shared = EpochServer::new(Arc::clone(&frozen));
                let (shared_secs, shared_answers) =
                    measure(repeats, || serve_shared(&shared, &plan, threads));

                // Strategy 3: the coalescer — every tenant submits,
                // one flush serves each distinct view in one pass,
                // pooled when the server has helpers. Warm the pool
                // outside the timed region (spawn is a one-off cost).
                let pooled = EpochServer::new(Arc::clone(&frozen)).with_threads(threads);
                let _ = serve_coalesced(&pooled, &plan[..1]);
                let (coalesced_secs, coalesced_answers) =
                    measure(repeats, || serve_coalesced(&pooled, &plan));

                // Untimed stats pass on a fresh server: with every
                // tenant session held open, the interning table must
                // have built exactly one view per distinct fault set.
                let audit = EpochServer::new(Arc::clone(&frozen));
                let held: Vec<EpochHandle> =
                    plan.iter().map(|t| audit.epoch(&t.failures)).collect();
                let stats = audit.stats();
                drop(held);

                let identical =
                    router_answers == shared_answers && shared_answers == coalesced_answers;
                let queries = tenants * batch;
                cells.push(TenantsCell {
                    tenants,
                    views,
                    threads,
                    batch,
                    queries,
                    router_qps: queries as f64 / router_secs.max(1e-9),
                    shared_qps: queries as f64 / shared_secs.max(1e-9),
                    coalesced_qps: queries as f64 / coalesced_secs.max(1e-9),
                    views_built: stats.views_built,
                    epochs_opened: stats.epochs_opened,
                    views_shared: stats.views_shared,
                    identical,
                });
            }
        }
    }
    cells
}

/// Runs E16. See the module docs.
pub fn run(ctx: &ExperimentContext) -> ExperimentOutput {
    let cells = sweep(ctx, ctx.pick(1, 2, 3));
    let mut table = Table::new(
        "E16: multi-tenant serving  (shared EpochServer / coalesced flush vs per-tenant routers)",
        [
            "tenants",
            "views",
            "threads",
            "batch",
            "queries",
            "router q/s",
            "shared q/s",
            "shared x",
            "coalesced q/s",
            "coalesced x",
            "identical",
        ],
    );
    let mut all_identical = true;
    let mut all_interned = true;
    let mut best = 0.0f64;
    for cell in &cells {
        all_identical &= cell.identical;
        all_interned &= cell.interned();
        best = best
            .max(cell.speedup_shared())
            .max(cell.speedup_coalesced());
        table.row([
            cell.tenants.to_string(),
            cell.views.to_string(),
            cell.threads.to_string(),
            cell.batch.to_string(),
            cell.queries.to_string(),
            format!("{:.0}", cell.router_qps),
            format!("{:.0}", cell.shared_qps),
            format!("{:.2}x", cell.speedup_shared()),
            format!("{:.0}", cell.coalesced_qps),
            format!("{:.2}x", cell.speedup_coalesced()),
            if cell.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let notes = vec![
        format!(
            "all serving strategies bit-identical per tenant (routes, edges, dists, errors): {}",
            if all_identical { "yes" } else { "NO" }
        ),
        format!(
            "view interning certified (views_built == distinct fault sets, every cell): {}",
            if all_interned { "yes" } else { "NO" }
        ),
        format!("best multi-tenant speedup vs per-tenant routers: {best:.2}x"),
    ];
    ExperimentOutput {
        id: "e16",
        title: "Table 12: concurrent multi-tenant epoch serving",
        tables: vec![table],
        figures: Vec::new(),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_sweep_is_identical_and_certifies_sharing() {
        let ctx = ExperimentContext::new(Scale::Smoke);
        let cells = sweep(&ctx, 1);
        assert_eq!(cells.len(), 1, "1 tenant count x 1 thread count x 1 batch");
        for cell in &cells {
            assert!(
                cell.identical,
                "tenants={} threads={} batch={}: strategies diverged",
                cell.tenants, cell.threads, cell.batch
            );
            assert!(cell.router_qps > 0.0 && cell.shared_qps > 0.0 && cell.coalesced_qps > 0.0);
            assert_eq!(cell.views_built, cell.views as u64);
            assert_eq!(cell.epochs_opened, cell.tenants as u64);
            assert_eq!(cell.views_shared, (cell.tenants - cell.views) as u64);
        }
    }

    #[test]
    fn smoke_run_reports_identity_and_interning() {
        let out = run(&ExperimentContext::new(Scale::Smoke));
        assert_eq!(out.id, "e16");
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("bit-identical") && n.contains("yes")));
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("interning") && n.contains("yes")));
    }

    #[test]
    fn tenant_plans_are_deterministic_live_and_view_shared() {
        let a = plan_tenants(20, 6, 3, 8, 77);
        let b = plan_tenants(20, 6, 3, 8, 77);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.failures, y.failures, "fault sets drifted");
            assert_eq!(x.pairs, y.pairs, "pairs drifted");
            for &(u, v) in &x.pairs {
                assert_ne!(u, v);
                assert!(!x.failures.vertex_faults().contains(&u));
                assert!(!x.failures.vertex_faults().contains(&v));
            }
        }
        // Tenant t and tenant t + views share a fault view.
        for t in 0..3 {
            assert_eq!(a[t].failures, a[t + 3].failures);
        }
    }
}
