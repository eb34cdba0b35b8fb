//! FT-greedy end-to-end wall-clock: optimized hot path vs the frozen
//! pre-optimization reference.
//!
//! The E1-style workload (random geometric / complete graphs, stretch 3,
//! f ∈ {1, 2}) is the one the paper's size experiments run; this bench
//! tracks the construction cost of exactly that workload across the three
//! oracle paths:
//!
//! * `reference` — [`ReferenceBranchingOracle`] through
//!   [`FtGreedy::run_with_oracle`]: fresh mask/memo/candidate allocations
//!   per query, Dijkstra over the adjacency-list graph (the pre-PR-2
//!   behavior);
//! * `optimized` — the default [`OracleKind::Branching`] path: incremental
//!   CSR view + per-construction scratch + Zobrist memo;
//! * `pooled` — [`OracleKind::Parallel`]: same, with windows of
//!   candidate edges decided on the persistent worker pool.
//!
//! `BENCH_2.json` (committed) records the same comparison with exact
//! numbers via `cargo run -p spanner-harness --bin perfbench`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::{FtGreedy, OracleKind};
use spanner_faults::reference::ReferenceBranchingOracle;
use spanner_graph::generators::{complete, random_geometric, with_uniform_weights};
use spanner_graph::Graph;

fn workload() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(2);
    vec![
        (
            "complete_n24",
            with_uniform_weights(&complete(24), 1, 32, &mut rng),
        ),
        ("geometric_n64", random_geometric(64, 0.28, &mut rng)),
    ]
}

fn bench_ftgreedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_ftgreedy");
    group.sample_size(10);
    for (family, g) in workload() {
        for f in [1usize, 2] {
            group.bench_function(format!("{family}/f{f}/reference"), |b| {
                b.iter(|| {
                    let mut oracle = ReferenceBranchingOracle::new();
                    FtGreedy::new(&g, 3).faults(f).run_with_oracle(&mut oracle)
                });
            });
            group.bench_function(format!("{family}/f{f}/optimized"), |b| {
                b.iter(|| FtGreedy::new(&g, 3).faults(f).run());
            });
            group.bench_function(format!("{family}/f{f}/pooled"), |b| {
                b.iter(|| {
                    FtGreedy::new(&g, 3)
                        .faults(f)
                        .oracle(OracleKind::Parallel(4))
                        .run()
                });
            });
        }
    }
    group.finish();
}

/// A deliberately tiny instance for the CI bench-smoke job: run with
/// `cargo bench -p spanner-bench --bench perf_ftgreedy -- smoke` to prove
/// the bench target executes end-to-end without paying for the full
/// workload.
fn bench_smoke(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_ftgreedy_smoke");
    group.sample_size(2);
    let mut rng = StdRng::seed_from_u64(2);
    let g = with_uniform_weights(&complete(8), 1, 8, &mut rng);
    group.bench_function("complete_n8/f1/optimized", |b| {
        b.iter(|| FtGreedy::new(&g, 3).faults(1).run());
    });
    group.bench_function("complete_n8/f1/reference", |b| {
        b.iter(|| {
            let mut oracle = ReferenceBranchingOracle::new();
            FtGreedy::new(&g, 3).faults(1).run_with_oracle(&mut oracle)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ftgreedy, bench_smoke);
criterion_main!(benches);
