//! E15 / Table 11 — serving throughput: the freeze-and-serve read path.
//!
//! The ROADMAP's north star is a spanner you *serve queries against*
//! under failures (Bodwin–Dinitz–Parter–Vassilevska Williams frame
//! exactly this spanner-as-distance-oracle use case). E13/E14 measure
//! *correctness* of that serving under scenarios; E15 measures its
//! *speed*. Three read paths answer identical workloads over the same
//! FT spanner of a geometric network:
//!
//! * `router` — the one-query-per-epoch baseline: every call re-applies
//!   the failure set and serves one pair through the primitive
//!   [`spanner_core::serve::route_one`] reference (how consumers
//!   served before epochs existed);
//! * `batch` — an [`EpochServer`] session over the shared frozen
//!   artifact: the failure set is applied **once** per epoch, the batch
//!   served against the interned fault view;
//! * `par` — the same server's pooled batch entry point
//!   ([`EpochHandle::par_route_batch`](spanner_core::EpochHandle::par_route_batch)):
//!   the caller and the server's pool helpers claim chunks, in order.
//!
//! Grid: failure scenario (`clear` / `random-f` / `witness-replay`) ×
//! fault budget × batch size, at a fixed pool width. Every cell
//! first asserts all three paths returned **bit-identical answers**
//! (routes, edges, distances, errors — the property the proptest suite
//! pins), then reports queries/second and speedups vs the router
//! baseline. `repro` exits non-zero when any cell's paths diverge, so
//! `repro --smoke e15` is the release-binary identity gate.

use super::{ExperimentContext, ExperimentOutput};
use crate::{cell_seed, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::route_one;
use spanner_core::{EpochServer, FtGreedy};
use spanner_faults::FaultSet;
use spanner_graph::generators::random_geometric;
use spanner_graph::{DijkstraEngine, FaultMask, NodeId, PathScratch};
use std::sync::Arc;
use std::time::Instant;

/// The stretch target every E15 spanner is built for.
pub const STRETCH: u64 = 3;

/// The epoch scenarios E15 sweeps, in table order: no failures, `f`
/// random vertex failures per epoch (exactly the budget), and replay of
/// the construction's own recorded witness fault sets.
pub const SCENARIOS: [&str; 3] = ["clear", "random-f", "witness-replay"];

/// One cell of the sweep: one scenario × budget × batch size, measured
/// over all three read paths.
#[derive(Clone, Debug)]
pub struct ThroughputCell {
    /// The scenario name (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// The fault budget the spanner was built for (= faults per epoch in
    /// `random-f`).
    pub f: usize,
    /// Queries per epoch.
    pub batch: usize,
    /// Total queries per path (`epochs × batch`).
    pub queries: usize,
    /// Single-query router throughput (queries/second).
    pub router_qps: f64,
    /// Sequential epoch-batch throughput.
    pub batch_qps: f64,
    /// Pooled epoch-batch throughput.
    pub par_qps: f64,
    /// Whether all three paths returned bit-identical answers.
    pub identical: bool,
}

impl ThroughputCell {
    /// Sequential-batch speedup over the router baseline.
    pub fn speedup_batch(&self) -> f64 {
        self.batch_qps / self.router_qps
    }

    /// Pooled-batch speedup over the router baseline.
    pub fn speedup_par(&self) -> f64 {
        self.par_qps / self.router_qps
    }
}

/// One epoch's workload: the failure set and the batch of live pairs.
struct EpochPlan {
    failures: FaultSet,
    pairs: Vec<(NodeId, NodeId)>,
}

/// Builds the per-epoch failure sets + query batches for one cell,
/// deterministically from the cell seed. Pairs have live, distinct
/// endpoints (as the scenario engine samples them), so the only errors
/// serving can return are genuine disconnections.
fn plan_epochs(
    n: usize,
    f: usize,
    scenario: &str,
    witnesses: &[FaultSet],
    epochs: usize,
    batch: usize,
    seed: u64,
) -> Vec<EpochPlan> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nonempty: Vec<&FaultSet> = witnesses.iter().filter(|w| !w.is_empty()).collect();
    (0..epochs)
        .map(|epoch| {
            let failures = match scenario {
                "clear" => FaultSet::vertices([]),
                "random-f" => {
                    let mut down = Vec::with_capacity(f);
                    while down.len() < f {
                        let v = NodeId::new(rng.gen_range(0..n));
                        if !down.contains(&v) {
                            down.push(v);
                        }
                    }
                    FaultSet::vertices(down)
                }
                "witness-replay" => {
                    if nonempty.is_empty() {
                        FaultSet::vertices([])
                    } else {
                        (*nonempty[epoch % nonempty.len()]).clone()
                    }
                }
                other => unreachable!("unknown scenario {other}"),
            };
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
            EpochPlan { failures, pairs }
        })
        .collect()
}

type Answers = Vec<Vec<Result<Route, RouteError>>>;

/// Times `serve` over the whole epoch plan `repeats` times, keeping the
/// minimum wall time (least-noisy sample) and the last run's answers.
fn measure(
    repeats: usize,
    plan: &[EpochPlan],
    mut serve: impl FnMut(&EpochPlan) -> Vec<Result<Route, RouteError>>,
) -> (f64, Answers) {
    let mut best = f64::INFINITY;
    let mut answers = Vec::new();
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let run: Answers = plan.iter().map(&mut serve).collect();
        best = best.min(start.elapsed().as_secs_f64());
        answers = run;
    }
    (best, answers)
}

/// Runs the scenario × budget × batch sweep and returns every cell.
/// `threads` is the pooled path's width; `repeats` the min-of-N
/// methodology.
pub fn sweep(ctx: &ExperimentContext, threads: usize, repeats: usize) -> Vec<ThroughputCell> {
    let n = ctx.pick(24, 64, 96);
    let radius = ctx.pick(0.5, 0.3, 0.27);
    let epochs = ctx.pick(4, 6, 8);
    let fs: Vec<usize> = ctx.pick(vec![1], vec![1, 2], vec![1, 2]);
    let batches: Vec<usize> = ctx.pick(vec![8], vec![16, 256], vec![16, 1024]);
    let threads = threads.max(2);

    let mut graph_rng = StdRng::seed_from_u64(cell_seed(15, 0, 0));
    let g = random_geometric(n, radius, &mut graph_rng);

    let mut cells = Vec::new();
    for &f in &fs {
        // One construction per budget; every path serves the same
        // artifact data.
        let ft = FtGreedy::new(&g, STRETCH).faults(f).run();
        let frozen = Arc::new(ft.freeze(&g));
        let witnesses = ft.witnesses().to_vec();
        for (s_idx, scenario) in SCENARIOS.iter().enumerate() {
            for &batch in &batches {
                let seed = cell_seed(15, (f * 16 + s_idx * 4) as u64, batch as u64);
                let plan = plan_epochs(n, f, scenario, &witnesses, epochs, batch, seed);

                // Path 1: the one-query-per-epoch baseline (failure set
                // re-applied on every single call, one `route_one` per
                // pair — what the deleted router shim used to do).
                let mut engine = DijkstraEngine::new();
                let mut scratch = PathScratch::new();
                let mut mask = FaultMask::with_capacity(frozen.node_count(), frozen.edge_count());
                let (router_secs, router_answers) = measure(repeats, &plan, |epoch| {
                    epoch
                        .pairs
                        .iter()
                        .map(|&(u, v)| {
                            mask.reset_for(frozen.node_count(), frozen.edge_count());
                            frozen.apply_faults(&epoch.failures, &mut mask);
                            route_one(&frozen, &mut engine, &mut scratch, &mask, u, v)
                        })
                        .collect()
                });

                // Path 2: sequential epoch batches over the frozen
                // artifact (failure set applied once per epoch; one
                // server session per epoch).
                let server = EpochServer::new(Arc::clone(&frozen));
                let (batch_secs, batch_answers) = measure(repeats, &plan, |epoch| {
                    server.epoch(&epoch.failures).route_batch(&epoch.pairs)
                });

                // Path 3: pooled epoch batches over a shared server.
                // Warm the pool outside the timed region (helper spawn
                // is a one-off cost).
                let pooled = EpochServer::new(Arc::clone(&frozen)).with_threads(threads);
                let _ = pooled
                    .epoch(&plan[0].failures)
                    .par_route_batch(&plan[0].pairs);
                let (par_secs, par_answers) = measure(repeats, &plan, |epoch| {
                    pooled.epoch(&epoch.failures).par_route_batch(&epoch.pairs)
                });

                let identical = router_answers == batch_answers && batch_answers == par_answers;
                let queries = epochs * batch;
                cells.push(ThroughputCell {
                    scenario,
                    f,
                    batch,
                    queries,
                    router_qps: queries as f64 / router_secs.max(1e-9),
                    batch_qps: queries as f64 / batch_secs.max(1e-9),
                    par_qps: queries as f64 / par_secs.max(1e-9),
                    identical,
                });
            }
        }
    }
    cells
}

/// Runs E15. See the module docs.
pub fn run(ctx: &ExperimentContext) -> ExperimentOutput {
    let threads = ctx.threads.clamp(2, 4);
    let cells = sweep(ctx, threads, ctx.pick(1, 2, 3));
    let mut table = Table::new(
        "E15: serving throughput  (freeze-and-serve epochs vs one-query-per-epoch router)",
        [
            "scenario",
            "f",
            "batch",
            "queries",
            "router q/s",
            "batch q/s",
            "batch x",
            "par q/s",
            "par x",
            "identical",
        ],
    );
    let mut all_identical = true;
    let mut best = 0.0f64;
    for cell in &cells {
        all_identical &= cell.identical;
        best = best.max(cell.speedup_batch()).max(cell.speedup_par());
        table.row([
            cell.scenario.to_string(),
            cell.f.to_string(),
            cell.batch.to_string(),
            cell.queries.to_string(),
            format!("{:.0}", cell.router_qps),
            format!("{:.0}", cell.batch_qps),
            format!("{:.2}x", cell.speedup_batch()),
            format!("{:.0}", cell.par_qps),
            format!("{:.2}x", cell.speedup_par()),
            if cell.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let notes = vec![
        format!(
            "all read paths bit-identical (routes, edges, dists, errors): {}",
            if all_identical { "yes" } else { "NO" }
        ),
        format!("best epoch-serving speedup vs single-query router: {best:.2}x"),
    ];
    ExperimentOutput {
        id: "e15",
        title: "Table 11: serving throughput over the frozen artifact",
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
    fn smoke_sweep_is_identical_and_covers_the_grid() {
        let ctx = ExperimentContext::new(Scale::Smoke);
        let cells = sweep(&ctx, 2, 1);
        assert_eq!(
            cells.len(),
            SCENARIOS.len(),
            "3 scenarios x 1 budget x 1 batch"
        );
        for cell in &cells {
            assert!(
                cell.identical,
                "{} f={} batch={}: read paths diverged",
                cell.scenario, cell.f, cell.batch
            );
            assert!(cell.router_qps > 0.0 && cell.batch_qps > 0.0 && cell.par_qps > 0.0);
        }
    }

    #[test]
    fn smoke_run_reports_identity() {
        let out = run(&ExperimentContext::new(Scale::Smoke));
        assert_eq!(out.id, "e15");
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("bit-identical") && n.contains("yes")));
        assert_eq!(out.tables[0].row_count(), SCENARIOS.len());
    }

    #[test]
    fn epoch_plans_are_deterministic_and_live() {
        let witnesses = vec![FaultSet::vertices([NodeId::new(3)])];
        for scenario in SCENARIOS {
            let a = plan_epochs(20, 2, scenario, &witnesses, 4, 8, 77);
            let b = plan_epochs(20, 2, scenario, &witnesses, 4, 8, 77);
            assert_eq!(a.len(), 4);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.failures, y.failures, "{scenario}: fault sets drifted");
                assert_eq!(x.pairs, y.pairs, "{scenario}: pairs drifted");
                for &(u, v) in &x.pairs {
                    assert_ne!(u, v);
                    assert!(!x.failures.vertex_faults().contains(&u));
                    assert!(!x.failures.vertex_faults().contains(&v));
                }
            }
        }
    }
}
