//! `pipebench` — one end-to-end run of the vft-spanner pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipebench/Cargo.toml -- \
//!     --workload sparse-serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! From a seed it generates a geometric input graph and a query stream,
//! then drives the public API in one process:
//! `PartitionedFtGreedy::run` → `FtSpanner::freeze` → `encode` (v2
//! in-place layout, sharded witness map) → `FrozenSpanner::open` →
//! `EpochServer::from_mapped` → `epoch` / `advance` / `route` /
//! `route_batch` / `par_route_batch` / `witnesses_for`. Every layer is
//! timed from outside, around its public call (see `trace.rs`). Load is
//! closed-loop with one client; construction and `par_route_batch` use one
//! worker per logical CPU, everything else runs on one thread.
//!
//! Every answer's shape is checked, and a seeded sample against a parent
//! Dijkstra under the same faults (untimed). The last stdout line is one
//! JSON object: `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics derived from recorded spans. README.md lists the
//! workloads, the metrics and which layer should move which number.

mod trace;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::{EpochDelta, EpochHandle, EpochServer};
use spanner_core::verify::verify_ft_sampled;
use spanner_core::{FrozenSpanner, FtSpanner, PartitionReport, PartitionedFtGreedy};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::generators::graph_of_points;
use spanner_graph::{DijkstraEngine, Dist, FaultMask, Graph, GraphView, NodeId, SharedBytes};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Multiplicative stretch of every workload (k = 2, so 2k − 1 = 3).
const STRETCH: u64 = 3;
/// The seed kept out of every tuning run, for validating later claims.
const HELD_OUT_SEED: u64 = 20_190_729;
/// Single-pair queries served per fresh epoch.
const EPOCH_QUERIES: usize = 64;
/// Pairs per batch (both batch shapes).
const BATCH_PAIRS: usize = 1024;
/// Distinct sources of a hot-source batch (each with
/// `BATCH_PAIRS / HOT_SOURCES` targets).
const HOT_SOURCES: usize = 16;
/// Detour pairs routed per churn step.
const DETOUR_PAIRS: usize = 4;
/// Every n-th single-pair answer is priced against a parent Dijkstra.
const PARENT_CHECK_EVERY: usize = 8;
/// Batch answers priced against a parent Dijkstra, per batch.
const BATCH_PARENT_CHECKS: usize = 8;
/// Hot-source answers re-served through `route` for the identity check.
const HOT_IDENTITY_CHECKS: usize = 32;
/// Churn steps per throughput block (the rate is the median block rate).
const CHURN_BLOCK: usize = 64;
/// The traced run records the spans of one churn block in this many
/// (churn steps are a few µs each; recording all would hold millions).
const CHURN_TRACE_EVERY: usize = 64;
/// Pairs the traced run serves twice to measure its own overhead.
const OVERHEAD_PAIRS: usize = 512;
/// Accounting tolerance: set-up time not covered by the four layer
/// clocks may be at most this share of `setup_s` plus `ACCOUNT_ABS_S`.
const ACCOUNT_FRAC: f64 = 0.01;
const ACCOUNT_ABS_S: f64 = 0.001;

/// Shares of the serving window, in the order the phases run.
#[derive(Clone, Copy)]
struct Mix {
    routes: f64,
    batches: f64,
    hot_batches: f64,
    churn: f64,
}

struct Workload {
    name: &'static str,
    n: usize,
    radius: f64,
    faults: usize,
    /// Set-up repetitions; `setup_s` is their median.
    setup_reps: usize,
    /// Serving window as a share of `--seconds`.
    serve_share: f64,
    mix: Mix,
    /// Fault sets `verify_ft_sampled` audits the built spanner under.
    audit_trials: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dense-build",
        n: 800,
        radius: 0.3,
        faults: 2,
        setup_reps: 3,
        serve_share: 0.3,
        mix: Mix {
            routes: 0.4,
            batches: 0.3,
            hot_batches: 0.1,
            churn: 0.2,
        },
        audit_trials: 2,
    },
    Workload {
        name: "sparse-serve",
        n: 10_000,
        // n·π·r² = 8: about 8 points per disc, so mean degree ≈ 7
        // (stratified points never share a cell with a neighbour).
        radius: 0.015_958,
        faults: 1,
        setup_reps: 5,
        serve_share: 1.0,
        mix: Mix {
            routes: 0.4,
            batches: 0.35,
            hot_batches: 0.1,
            churn: 0.15,
        },
        audit_trials: 4,
    },
    Workload {
        name: "local-churn",
        n: 10_000,
        radius: 0.015_958,
        faults: 1,
        setup_reps: 5,
        serve_share: 1.0,
        mix: Mix {
            routes: 0.2,
            batches: 0.25,
            hot_batches: 0.05,
            churn: 0.5,
        },
        audit_trials: 4,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: pipebench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Answers checked and contract violations found; a run with any
/// violation is reported incorrect.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn pass(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// Wall times of one set-up repetition, in seconds.
struct SetupTimes {
    total: f64,
    construct: f64,
    freeze: f64,
    encode: f64,
    open: f64,
    /// The library's own `PartitionReport` phase clocks.
    partition: f64,
    shard_build: f64,
    stitch: f64,
}

/// What one set-up repetition leaves behind.
struct Built {
    ft: FtSpanner,
    report: PartitionReport,
    server: EpochServer,
    bytes: Vec<u8>,
}

fn setup(
    g: &Graph,
    w: &Workload,
    threads: usize,
    rep: u64,
    tr: &mut Tracer,
) -> (Built, SetupTimes) {
    let outer = tr.enter("setup", rep);
    let t = tr.enter("construct", rep);
    let built = PartitionedFtGreedy::new(g, STRETCH)
        .faults(w.faults)
        .threads(threads)
        .run();
    let construct = tr.exit(t);
    let t = tr.enter("freeze", rep);
    let frozen = built.ft().freeze(g);
    let freeze = tr.exit(t);
    let t = tr.enter("encode", rep);
    let bytes = frozen.to_v2_sharded().encode();
    let encode = tr.exit(t);
    let t = tr.enter("open", rep);
    let mapped = match FrozenSpanner::open(SharedBytes::copy_aligned(&bytes)) {
        Ok(mapped) => mapped,
        Err(e) => die(&format!("open rejected a freshly encoded artifact: {e}")),
    };
    let server = EpochServer::from_mapped(mapped).with_threads(threads);
    let open = tr.exit(t);
    let total = tr.exit(outer);
    let report = built.report().clone();
    let times = SetupTimes {
        total: total.as_secs_f64(),
        construct: construct.as_secs_f64(),
        freeze: freeze.as_secs_f64(),
        encode: encode.as_secs_f64(),
        open: open.as_secs_f64(),
        partition: report.partition_secs,
        shard_build: report.build_secs,
        stitch: report.stitch_secs,
    };
    let built = Built {
        ft: built.into_ft(),
        report,
        server,
        bytes,
    };
    (built, times)
}

/// The serving phases. They run interleaved in `ROUNDS` rounds, so a
/// burst of host noise lands on every phase a little instead of on one
/// phase entirely.
#[derive(Clone, Copy)]
enum Phase {
    Routes,
    Batches,
    HotBatches,
    Churn,
}

const PHASES: [Phase; 4] = [
    Phase::Routes,
    Phase::Batches,
    Phase::HotBatches,
    Phase::Churn,
];

/// Units every phase runs at least (epochs, batches or churn blocks), so
/// each metric has samples even when its share of the window is small.
const MIN_UNITS: usize = 4;

/// Rounds the serving window is split into; `route_p99_us` is the median
/// of the rounds' 99th percentiles.
const ROUNDS: usize = 8;

/// Samples gathered by the serving phases, in seconds.
#[derive(Default)]
struct Samples {
    /// Single-pair `route` latency, one vector per round.
    route: Vec<Vec<f64>>,
    route_hops: Vec<f64>,
    batch: Vec<f64>,
    hot: Vec<f64>,
    /// Time of each block of `CHURN_BLOCK` churn steps.
    churn_block: Vec<f64>,
    witness_lookups: u64,
}

/// One served pair and its answer.
type Answer = (NodeId, NodeId, Result<Route, RouteError>);

/// The churn stream's session, carried across its phase units.
struct Churn {
    handle: EpochHandle,
    delta: EpochDelta,
    last: Option<NodeId>,
}

struct Ctx<'a> {
    g: &'a Graph,
    w: &'a Workload,
    ft: &'a FtSpanner,
    server: &'a EpochServer,
    rng: StdRng,
    tr: Tracer,
    ck: Checks,
    parent_engine: DijkstraEngine,
    parent_mask: FaultMask,
    parent_failed: Vec<NodeId>,
    s: Samples,
    /// Single-pair answers not yet checked, with their epoch's faults.
    pending_routes: Vec<(Vec<NodeId>, Vec<Answer>)>,
    churn: Churn,
    traced: bool,
    next_id: u64,
}

impl Ctx<'_> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn random_node(&mut self) -> NodeId {
        NodeId::new(self.rng.gen_range(0..self.g.node_count()))
    }

    fn random_pair(&mut self) -> (NodeId, NodeId) {
        loop {
            let (u, v) = (self.random_node(), self.random_node());
            if u != v {
                return (u, v);
            }
        }
    }

    /// `f` distinct uniformly random vertices.
    fn random_faults(&mut self) -> Vec<NodeId> {
        let mut failed: Vec<NodeId> = Vec::with_capacity(self.w.faults);
        while failed.len() < self.w.faults {
            let v = self.random_node();
            if !failed.contains(&v) {
                failed.push(v);
            }
        }
        failed
    }

    /// Parent distance `d_{G∖F}(from, to)` (infinite when disconnected).
    fn parent_dist(&mut self, failed: &[NodeId], from: NodeId, to: NodeId) -> Dist {
        if self.parent_failed != failed {
            for v in self.parent_failed.drain(..) {
                self.parent_mask.restore_vertex(v);
            }
            for &v in failed {
                self.parent_mask.fault_vertex(v);
            }
            self.parent_failed.extend_from_slice(failed);
        }
        self.parent_engine
            .dist_bounded(self.g, from, to, Dist::INFINITE, &self.parent_mask)
            .unwrap_or(Dist::INFINITE)
    }

    /// Checks one answer for `from → to` under vertex faults `failed`.
    /// Every answer must be a well-formed path of the spanner avoiding
    /// the faults, or an error the situation allows; with `price` the
    /// route is also priced against a parent Dijkstra under the same
    /// faults (`d ≤ cost ≤ stretch · d`). `Unreachable` is always priced.
    fn check_answer(
        &mut self,
        failed: &[NodeId],
        from: NodeId,
        to: NodeId,
        answer: &Result<Route, RouteError>,
        price: bool,
    ) {
        let verdict: Result<(), String> = match answer {
            Ok(route) => match self.route_shape(failed, from, to, route) {
                Err(e) => Err(e),
                Ok(()) if price => {
                    let d = self.parent_dist(failed, from, to);
                    let cost = route.dist.value().unwrap_or(u64::MAX);
                    match d.value() {
                        Some(d) if d <= cost && cost <= STRETCH.saturating_mul(d) => Ok(()),
                        Some(d) => Err(format!("cost {cost} outside [{d}, {STRETCH}·{d}]")),
                        None => Err("route found where the parent is disconnected".into()),
                    }
                }
                Ok(()) => Ok(()),
            },
            Err(RouteError::EndpointFailed(x)) => {
                if failed.contains(x) && (*x == from || *x == to) {
                    Ok(())
                } else {
                    Err(format!("endpoint-failed names live vertex {x}"))
                }
            }
            Err(RouteError::Unreachable { .. }) => {
                if failed.contains(&from) || failed.contains(&to) {
                    Err("unreachable reported for a failed endpoint".into())
                } else if self.parent_dist(failed, from, to).is_finite() {
                    Err("unreachable although the parent connects the pair".into())
                } else {
                    Ok(())
                }
            }
            Err(other) => Err(format!("unexpected error {}", other.code())),
        };
        self.ck.pass(verdict.is_ok(), || {
            format!("{from}→{to} under {failed:?}: {}", verdict.unwrap_err())
        });
    }

    /// The route is a path `from → to` over spanner edges, avoids every
    /// failed vertex, and its cost is the sum of its edge weights.
    fn route_shape(
        &self,
        failed: &[NodeId],
        from: NodeId,
        to: NodeId,
        route: &Route,
    ) -> Result<(), String> {
        let csr = self.server.artifact().csr();
        if route.nodes.first() != Some(&from) || route.nodes.last() != Some(&to) {
            return Err("route does not join its endpoints".into());
        }
        if route.edges.len() + 1 != route.nodes.len() {
            return Err("route edge and node counts disagree".into());
        }
        if let Some(v) = route.nodes.iter().find(|v| failed.contains(v)) {
            return Err(format!("route crosses failed vertex {v}"));
        }
        let mut cost = 0u64;
        for (i, &e) in route.edges.iter().enumerate() {
            if e.index() >= csr.edge_count() {
                return Err(format!("route uses unknown edge {e}"));
            }
            let (a, b) = csr.edge_endpoints(e);
            let (x, y) = (route.nodes[i], route.nodes[i + 1]);
            if !((a == x && b == y) || (a == y && b == x)) {
                return Err(format!("edge {e} does not join {x} and {y}"));
            }
            cost += csr.edge_weight(e).get();
        }
        if route.dist.value() != Some(cost) {
            return Err(format!(
                "reported cost {:?} but edges sum to {cost}",
                route.dist.value()
            ));
        }
        Ok(())
    }

    fn open_epoch(&mut self, failed: &[NodeId]) -> EpochHandle {
        let id = self.id();
        let t = self.tr.enter("epoch", id);
        let handle = self
            .server
            .epoch(&FaultSet::vertices(failed.iter().copied()));
        self.tr.exit(t);
        handle
    }

    fn unit(&mut self, phase: Phase, round: usize) {
        match phase {
            Phase::Routes => self.routes_unit(round),
            Phase::Batches => self.batch_unit(),
            Phase::HotBatches => self.hot_batch_unit(),
            Phase::Churn => self.churn_unit(),
        }
    }

    /// One fresh |F| = f epoch serving `EPOCH_QUERIES` single-pair
    /// `route` calls between uniform random endpoints. The answers wait
    /// in `pending_routes` until the phase yields (`check_routes`), so
    /// the parent Dijkstras of the checks do not evict the spanner from
    /// cache between epochs and inflate the latency tail.
    fn routes_unit(&mut self, round: usize) {
        let failed = self.random_faults();
        let mut handle = self.open_epoch(&failed);
        let mut answers = Vec::with_capacity(EPOCH_QUERIES);
        for _ in 0..EPOCH_QUERIES {
            let (u, v) = self.random_pair();
            let id = self.id();
            let t = self.tr.enter("route", id);
            let answer = handle.route(u, v);
            self.s.route[round].push(self.tr.exit(t).as_secs_f64());
            answers.push((u, v, answer));
        }
        self.pending_routes.push((failed, answers));
    }

    fn check_routes(&mut self) {
        for (failed, answers) in std::mem::take(&mut self.pending_routes) {
            for (q, (u, v, answer)) in answers.iter().enumerate() {
                if let Ok(route) = answer {
                    self.s.route_hops.push(route.edges.len() as f64);
                }
                self.check_answer(&failed, *u, *v, answer, q % PARENT_CHECK_EVERY == 0);
            }
        }
    }

    /// One uniform-source batch under a fresh epoch, served by
    /// `route_batch` and by `par_route_batch` (alternating which goes
    /// first); the two answer vectors must be identical.
    fn batch_unit(&mut self) {
        let failed = self.random_faults();
        let mut handle = self.open_epoch(&failed);
        let pairs: Vec<(NodeId, NodeId)> = (0..BATCH_PAIRS).map(|_| self.random_pair()).collect();
        let id = self.id();
        let mut serve = |ctx: &mut Self, pooled: bool| {
            let name = if pooled {
                "par_route_batch"
            } else {
                "route_batch"
            };
            let t = ctx.tr.enter(name, id);
            let answers = if pooled {
                handle.par_route_batch(&pairs)
            } else {
                handle.route_batch(&pairs)
            };
            let secs = ctx.tr.exit(t).as_secs_f64();
            if !pooled {
                ctx.s.batch.push(secs);
            }
            answers
        };
        let (seq, pooled) = if self.s.batch.len().is_multiple_of(2) {
            let seq = serve(self, false);
            (seq, serve(self, true))
        } else {
            let pooled = serve(self, true);
            (serve(self, false), pooled)
        };
        let stride = BATCH_PAIRS / BATCH_PARENT_CHECKS;
        for (i, (&(u, v), answer)) in pairs.iter().zip(&seq).enumerate() {
            self.check_answer(&failed, u, v, answer, i % stride == 0);
            self.ck.pass(pooled[i] == *answer, || {
                format!("pooled answer {i} differs from route_batch")
            });
        }
    }

    /// One hot-source batch (`HOT_SOURCES` sources × 64 targets) through
    /// `route_batch`; a sample is re-served through `route` and must be
    /// identical.
    fn hot_batch_unit(&mut self) {
        let failed = self.random_faults();
        let mut handle = self.open_epoch(&failed);
        let sources: Vec<NodeId> = (0..HOT_SOURCES).map(|_| self.random_node()).collect();
        let pairs: Vec<(NodeId, NodeId)> = (0..BATCH_PAIRS)
            .map(|i| {
                let from = sources[i % HOT_SOURCES];
                loop {
                    let to = self.random_node();
                    if to != from {
                        break (from, to);
                    }
                }
            })
            .collect();
        let id = self.id();
        let t = self.tr.enter("hot_route_batch", id);
        let answers = handle.route_batch(&pairs);
        self.s.hot.push(self.tr.exit(t).as_secs_f64());
        let stride = BATCH_PAIRS / HOT_IDENTITY_CHECKS;
        for (i, (&(u, v), answer)) in pairs.iter().zip(&answers).enumerate() {
            let sampled = i % stride == 0;
            self.check_answer(&failed, u, v, answer, sampled && i % (4 * stride) == 0);
            if sampled {
                let single = handle.route(u, v);
                self.ck.pass(single == *answer, || {
                    format!("hot-source answer {i} differs from route")
                });
            }
        }
    }

    /// A vertex to fail next and `DETOUR_PAIRS` pairs of its parent
    /// neighbours that are adjacent to each other, so every detour is
    /// local: its cost is at most `STRETCH` times that edge's weight.
    fn detour_target(&mut self) -> (NodeId, Vec<(NodeId, NodeId)>) {
        loop {
            let x = self.random_node();
            let nbrs: Vec<NodeId> = self.g.neighbors(x).map(|(nb, _)| nb).collect();
            if nbrs.len() < 2 {
                continue;
            }
            let mut pairs = Vec::with_capacity(DETOUR_PAIRS);
            for _ in 0..8 * DETOUR_PAIRS {
                let a = nbrs[self.rng.gen_range(0..nbrs.len())];
                let b = nbrs[self.rng.gen_range(0..nbrs.len())];
                if a != b && self.g.contains_edge(a, b).is_some() {
                    pairs.push((a, b));
                    if pairs.len() == DETOUR_PAIRS {
                        return (x, pairs);
                    }
                }
            }
        }
    }

    /// `CHURN_BLOCK` steps of the write-heavy stream. Each step restores
    /// the last failed vertex and fails a new one through one
    /// `EpochDelta` (`advance`), routes `DETOUR_PAIRS` local detours
    /// around it, and explains one kept edge of a detour with
    /// `witnesses_for`. The block is checked after it ran.
    fn churn_unit(&mut self) {
        let targets: Vec<(NodeId, Vec<(NodeId, NodeId)>)> =
            (0..CHURN_BLOCK).map(|_| self.detour_target()).collect();
        let mut steps = Vec::with_capacity(CHURN_BLOCK);
        let mut block = Duration::ZERO;
        let sampled = self.s.churn_block.len().is_multiple_of(CHURN_TRACE_EVERY);
        self.tr.set_recording(self.traced && sampled);
        for (x, pairs) in &targets {
            let id = self.id();
            let step = self.tr.enter("churn_step", id);
            let churn = &mut self.churn;
            churn.delta.clear();
            if let Some(prev) = churn.last {
                churn.delta.restore_vertex(prev);
            }
            churn.delta.fault_vertex(*x);
            let t = self.tr.enter("advance", id);
            self.churn.handle.advance(&self.churn.delta);
            self.tr.exit(t);
            let mut answers = Vec::with_capacity(DETOUR_PAIRS);
            for &(a, b) in pairs {
                let t = self.tr.enter("detour_route", id);
                answers.push(self.churn.handle.route(a, b));
                self.tr.exit(t);
            }
            let explained = answers.iter().find_map(|answer| match answer {
                Ok(route) if !route.edges.is_empty() => Some(route.edges[route.edges.len() / 2]),
                _ => None,
            });
            let witness = explained.map(|e| {
                let t = self.tr.enter("witnesses_for", id);
                let found = self.churn.handle.artifact().witnesses_for(e);
                self.tr.exit(t);
                (e, found)
            });
            block += self.tr.exit(step);
            self.churn.last = Some(*x);
            steps.push((answers, witness));
        }
        self.s.churn_block.push(block.as_secs_f64());
        self.tr.set_recording(self.traced);

        for ((x, pairs), (answers, witness)) in targets.iter().zip(steps) {
            for (&(a, b), answer) in pairs.iter().zip(&answers) {
                self.check_answer(&[*x], a, b, answer, true);
            }
            if let Some((e, found)) = witness {
                self.s.witness_lookups += 1;
                let expected = &self.ft.witnesses()[e.index()];
                let (u, v) = self.server.artifact().csr().edge_endpoints(e);
                let ok = match &found {
                    Ok(set) => {
                        set == expected
                            && set.len() <= self.w.faults
                            && !set.vertex_faults().contains(&u)
                            && !set.vertex_faults().contains(&v)
                    }
                    Err(_) => false,
                };
                self.ck.pass(ok, || {
                    format!("witnesses_for({e}) = {found:?}, built {expected:?}")
                });
            }
        }
    }

    /// Runs the serving window: `ROUNDS` rounds, each giving every phase
    /// its share of the window (time spent in a phase, checks included,
    /// is carried over so overruns are paid back), then tops each phase
    /// up to `MIN_UNITS`.
    fn serve_window(&mut self, window: f64) {
        self.s.route = vec![Vec::new(); ROUNDS];
        let mix = self.w.mix;
        let shares = [mix.routes, mix.batches, mix.hot_batches, mix.churn];
        let mut spent = [0.0f64; 4];
        let mut units = [0usize; 4];
        for round in 0..ROUNDS {
            for (p, phase) in PHASES.iter().enumerate() {
                let allowed = window * shares[p] * (round + 1) as f64 / ROUNDS as f64;
                let t = Instant::now();
                while spent[p] + t.elapsed().as_secs_f64() < allowed {
                    self.unit(*phase, round);
                    units[p] += 1;
                }
                self.check_routes();
                spent[p] += t.elapsed().as_secs_f64();
            }
        }
        for (p, phase) in PHASES.iter().enumerate() {
            while units[p] < MIN_UNITS {
                self.unit(*phase, ROUNDS - 1);
                units[p] += 1;
            }
        }
        self.check_routes();
    }

    /// Tracing overhead on the serving path: the same pairs served with
    /// and without span recording, alternating which goes first; returns
    /// the median difference and the median untraced latency, in µs.
    fn route_overhead(&mut self, pairs: usize) -> (f64, f64) {
        let failed = self.random_faults();
        let mut handle = self
            .server
            .epoch(&FaultSet::vertices(failed.iter().copied()));
        let mut diffs = Vec::with_capacity(pairs);
        let mut plain = Vec::with_capacity(pairs);
        for i in 0..pairs {
            let (u, v) = self.random_pair();
            let mut secs = [0.0f64; 2];
            for recording in [i % 2 == 0, i % 2 != 0] {
                self.tr.set_recording(recording);
                let t = self.tr.enter("route_overhead", i as u64);
                let answer = handle.route(u, v);
                secs[usize::from(recording)] = self.tr.exit(t).as_secs_f64();
                let _ = std::hint::black_box(answer);
            }
            diffs.push((secs[1] - secs[0]) * 1e6);
            plain.push(secs[0] * 1e6);
        }
        self.tr.set_recording(self.traced);
        (median(&diffs), median(&plain))
    }
}

/// `n` points in the unit square, one uniform point in each of `n`
/// distinct cells of a ⌈√n⌉ × ⌈√n⌉ grid. Stratifying keeps the density
/// even, so graphs from different seeds differ in detail but not in
/// edge count or connectivity, and per-seed spread stays small.
fn jittered_points(n: usize, rng: &mut StdRng) -> Vec<(f64, f64)> {
    let side = (n as f64).sqrt().ceil() as usize;
    let mut cells: Vec<usize> = (0..side * side).collect();
    cells.shuffle(rng);
    cells.truncate(n);
    cells.sort_unstable();
    let cell = 1.0 / side as f64;
    cells
        .into_iter()
        .map(|c| {
            let (x, y) = ((c % side) as f64, (c / side) as f64);
            (
                (x + rng.gen_range(0.0..1.0)) * cell,
                (y + rng.gen_range(0.0..1.0)) * cell,
            )
        })
        .collect()
}

fn die(msg: &str) -> ! {
    eprintln!("pipebench: {msg}");
    std::process::exit(1);
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (0 for an empty sample).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median rate of `units` per second over per-operation times.
fn median_rate(units: f64, secs: &[f64]) -> f64 {
    let rates: Vec<f64> = secs.iter().map(|s| units / s.max(1e-12)).collect();
    median(&rates)
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over the library sources the benchmark builds against (paths
/// and contents, sorted): the checkout's code identity when no version
/// control metadata is present.
fn source_fingerprint(root: &Path) -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        eat(rel.to_string_lossy().as_bytes());
        eat(&std::fs::read(file).unwrap_or_default());
    }
    format!("src-fnv1a64:{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf();

    // Inputs: everything the program sees is generated from the seed.
    let g = graph_of_points(
        &jittered_points(w.n, &mut StdRng::seed_from_u64(args.seed)),
        w.radius,
    );
    let query_rng = StdRng::seed_from_u64(args.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut audit_rng = StdRng::seed_from_u64(args.seed.rotate_left(17) ^ 0xa076_1d64_78bd_642f);

    let provenance: Vec<(&str, String)> = vec![
        ("workload", w.name.to_string()),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("logical_cpus", threads.to_string()),
        ("rustc", env!("PIPEBENCH_RUSTC").to_string()),
        ("commit", source_fingerprint(&root)),
        ("n", g.node_count().to_string()),
        ("m", g.edge_count().to_string()),
        ("f", w.faults.to_string()),
        ("stretch", STRETCH.to_string()),
    ];

    let mut tr = Tracer::new(args.trace);
    let mut ck = Checks::default();
    let started = Instant::now();

    // Set-up, repeated; the last repetition's server is the one served.
    let mut times: Vec<SetupTimes> = Vec::with_capacity(w.setup_reps);
    let mut built: Option<Built> = None;
    let mut first_bytes: Option<Vec<u8>> = None;
    for rep in 0..w.setup_reps {
        drop(built.take());
        let (b, t) = setup(&g, w, threads, rep as u64, &mut tr);
        match &first_bytes {
            None => first_bytes = Some(b.bytes.clone()),
            Some(first) => ck.pass(*first == b.bytes, || {
                format!("set-up repetition {rep} encoded different bytes")
            }),
        }
        let covered = t.construct + t.freeze + t.encode + t.open;
        let gap = t.total - covered;
        ck.pass(
            (-1e-9..=ACCOUNT_FRAC * t.total + ACCOUNT_ABS_S).contains(&gap),
            || {
                format!(
                    "set-up {rep}: layers cover {covered:.6} s of {:.6} s",
                    t.total
                )
            },
        );
        let phases = t.partition + t.shard_build + t.stitch;
        ck.pass(phases <= t.construct + 1e-9, || {
            format!(
                "set-up {rep}: PartitionReport phases {phases:.6} s exceed construct {:.6} s",
                t.construct
            )
        });
        times.push(t);
        built = Some(b);
    }
    let built = built.expect("at least one set-up repetition");
    drop(first_bytes);
    let setup_done = Instant::now();

    // Untimed audit of the built spanner under random fault sets.
    let audit = verify_ft_sampled(
        &g,
        built.ft.spanner(),
        w.faults,
        FaultModel::Vertex,
        w.audit_trials,
        &mut audit_rng,
    );
    ck.attempted += audit.trials as u64;
    if !audit.satisfied() {
        ck.failed += audit.violations as u64;
        ck.notes.push(format!("audit: {:?}", audit.first_violation));
    }
    let audit_done = Instant::now();

    // Spawn the pool before timing (lazy set-up the user pays once).
    {
        let mut warm = built.server.epoch_clear();
        let pair = (NodeId::new(0), NodeId::new(1));
        std::hint::black_box(warm.par_route_batch(&[pair, pair]));
    }

    let mut ctx = Ctx {
        g: &g,
        w,
        ft: &built.ft,
        server: &built.server,
        rng: query_rng,
        tr,
        ck,
        parent_engine: DijkstraEngine::new(),
        parent_mask: FaultMask::with_capacity(g.node_count(), g.edge_count()),
        parent_failed: Vec::new(),
        s: Samples::default(),
        pending_routes: Vec::new(),
        churn: Churn {
            handle: built.server.epoch_clear(),
            delta: EpochDelta::new(),
            last: None,
        },
        traced: args.trace,
        next_id: 0,
    };
    ctx.serve_window(args.seconds * w.serve_share);
    let overhead = args.trace.then(|| ctx.route_overhead(OVERHEAD_PAIRS));
    let serve_done = Instant::now();

    let Ctx { tr, ck, s, .. } = ctx;
    let Some(rss) = peak_rss_mb() else {
        die("peak RSS unavailable (needs /proc/self/status)")
    };

    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let pairs = BATCH_PAIRS as f64;
    let all_routes: Vec<f64> = s.route.concat();
    let round_p99: Vec<f64> = s
        .route
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| quantile(r, 0.99))
        .collect();
    let ok_frac = if ck.attempted == 0 {
        0.0
    } else {
        1.0 - ck.failed as f64 / ck.attempted as f64
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.extend([
            ("setup_s", med(|t| t.total), "s"),
            (
                "spanner_edges",
                built.ft.spanner().edge_count() as f64,
                "count",
            ),
            ("artifact_bytes", built.bytes.len() as f64, "bytes"),
            ("route_p50_us", quantile(&all_routes, 0.5) * 1e6, "us"),
            ("route_p99_us", median(&round_p99) * 1e6, "us"),
            ("batch_pairs_per_s", median_rate(pairs, &s.batch), "1/s"),
            (
                "shared_batch_pairs_per_s",
                median_rate(pairs, &s.hot),
                "1/s",
            ),
            (
                "churn_steps_per_s",
                median_rate(CHURN_BLOCK as f64, &s.churn_block),
                "1/s",
            ),
            ("contract_ok_frac", ok_frac, "ratio"),
            ("peak_rss_mb", rss, "MB"),
        ]);
    } else {
        let spans = tr.by_name();
        let own = |name: &str| spans.get(name).map_or(&[][..], |t| t.own.as_slice());
        let total = |name: &str| spans.get(name).map_or(&[][..], |t| t.total.as_slice());
        let r = &built.report;
        let stats = built.ft.stats();
        let served = built.server.stats();
        // Candidates the oracle judged: every intra-shard edge, then the
        // stitch candidates.
        let candidates = (g.edge_count() - r.cross_edges + r.stitch_candidates).max(1) as f64;
        let batch_s = median(total("route_batch"));
        let pooled_s = median(total("par_route_batch"));
        let (overhead_us, untraced_us) = overhead.expect("traced run measures its overhead");
        metrics.extend([
            ("partition.shards", r.shards as f64, "count"),
            (
                "partition.boundary_vertices",
                r.boundary_vertices as f64,
                "count",
            ),
            ("partition.cross_edges", r.cross_edges as f64, "count"),
            ("construct.wall_s", median(total("construct")), "s"),
            ("construct.partition_s", med(|t| t.partition), "s"),
            ("construct.shard_build_s", med(|t| t.shard_build), "s"),
            ("construct.stitch_s", med(|t| t.stitch), "s"),
            (
                "construct.stitch_candidates",
                r.stitch_candidates as f64,
                "count",
            ),
            ("construct.stitch_kept", r.stitch_kept as f64, "count"),
            (
                "construct.stitch_keep_ratio",
                r.stitch_kept as f64 / r.stitch_candidates.max(1) as f64,
                "ratio",
            ),
            (
                "oracle.shortest_path_queries",
                stats.shortest_path_queries as f64,
                "count",
            ),
            (
                "oracle.nodes_explored",
                stats.nodes_explored as f64,
                "count",
            ),
            (
                "oracle.packing_prunes",
                stats.packing_prunes as f64,
                "count",
            ),
            ("oracle.memo_hits", stats.memo_hits as f64, "count"),
            ("oracle.cut_shortcuts", stats.cut_shortcuts as f64, "count"),
            ("oracle.pool_spawns", stats.pool_spawns as f64, "count"),
            (
                "oracle.spq_per_candidate",
                stats.shortest_path_queries as f64 / candidates,
                "ratio",
            ),
            ("frozen.freeze_s", median(total("freeze")), "s"),
            ("frozen.encode_s", median(total("encode")), "s"),
            ("frozen.open_s", median(total("open")), "s"),
            (
                "frozen.witness_lookup_us",
                median(total("witnesses_for")) * 1e6,
                "us",
            ),
            (
                "frozen.witness_bytes_touched",
                built.server.artifact().witness_bytes_touched() as f64
                    / s.witness_lookups.max(1) as f64,
                "B/lookup",
            ),
            ("serve.epoch_open_us", median(total("epoch")) * 1e6, "us"),
            ("serve.advance_us", median(total("advance")) * 1e6, "us"),
            ("serve.route_us", median(own("route")) * 1e6, "us"),
            (
                "serve.detour_route_us",
                median(own("detour_route")) * 1e6,
                "us",
            ),
            ("serve.batch_s", batch_s, "s"),
            (
                "serve.shared_batch_s",
                median(total("hot_route_batch")),
                "s",
            ),
            ("serve.pooled_batch_s", pooled_s, "s"),
            ("serve.pool_speedup", batch_s / pooled_s.max(1e-12), "ratio"),
            ("serve.pool_threads", threads as f64, "count"),
            ("serve.route_hops_mean", mean(&s.route_hops), "count"),
            ("serve.epochs_opened", served.epochs_opened as f64, "count"),
            ("serve.views_built", served.views_built as f64, "count"),
            ("serve.views_shared", served.views_shared as f64, "count"),
            (
                "serve.delta_component_ops",
                served.delta_component_ops as f64,
                "count",
            ),
            ("churn.step_self_us", median(own("churn_step")) * 1e6, "us"),
            ("accounting.setup_self_s", median(own("setup")), "s"),
            (
                "accounting.setup_gap_frac",
                median(own("setup")) / median(total("setup")).max(1e-12),
                "ratio",
            ),
            ("trace.spans", tr.span_count() as f64, "count"),
            ("trace.route_overhead_us", overhead_us, "us"),
            (
                "trace.route_overhead_frac",
                overhead_us / untraced_us.max(1e-12),
                "ratio",
            ),
        ]);
    }

    // Human-readable report on stderr; provenance and result on stdout.
    eprintln!(
        "pipebench {} seed {} (n={}, m={}, f={}, {} threads): {} checks, {} violations; \
         set-up {:.2} s, audit {:.2} s, serving {:.2} s",
        w.name,
        args.seed,
        g.node_count(),
        g.edge_count(),
        w.faults,
        threads,
        ck.attempted,
        ck.failed,
        (setup_done - started).as_secs_f64(),
        (audit_done - setup_done).as_secs_f64(),
        (serve_done - audit_done).as_secs_f64(),
    );
    for note in &ck.notes {
        eprintln!("  violation: {note}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    if args.trace {
        let path = root
            .join("pipebench")
            .join("out")
            .join(format!("trace-{}-{}.tsv", w.name, args.seed));
        match tr.write_tsv(&path, &provenance) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => die(&format!("writing {}: {e}", path.display())),
        }
    }

    let correct = ck.failed == 0 && ck.attempted > 0;
    let prov: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"provenance\":{{{}}}}}", prov.join(","));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ck.attempted,
        ck.failed,
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
