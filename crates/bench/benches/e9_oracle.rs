//! Bench companion to experiment E9 (Figure 4): single-query oracle cost
//! as the fault budget grows, across oracle implementations — the
//! exponential-in-f open problem measured in wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_faults::{
    BranchingConfig, BranchingOracle, ExhaustiveOracle, FaultModel, FaultOracle,
    GreedyHeuristicOracle, HittingSetOracle, OracleQuery,
};
use spanner_graph::generators::erdos_renyi;
use spanner_graph::{Dist, NodeId};

fn query(f: usize) -> OracleQuery {
    OracleQuery {
        u: NodeId::new(0),
        v: NodeId::new(1),
        bound: Dist::finite(3),
        budget: f,
        model: FaultModel::Vertex,
    }
}

fn bench_oracle_scaling_in_f(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(909);
    let g = erdos_renyi(40, 0.3, &mut rng);
    let mut group = c.benchmark_group("e9_oracle_vs_f");
    group.sample_size(10);
    for f in [1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::new("branching_pruned", f), &f, |b, &f| {
            b.iter(|| BranchingOracle::new().find_blocking_faults(&g, query(f)));
        });
        group.bench_with_input(BenchmarkId::new("branching_naive", f), &f, |b, &f| {
            b.iter(|| {
                BranchingOracle::with_config(BranchingConfig {
                    use_packing: false,
                    use_memo: false,
                })
                .find_blocking_faults(&g, query(f))
            });
        });
    }
    for f in [1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::new("heuristic_inexact", f), &f, |b, &f| {
            b.iter(|| GreedyHeuristicOracle::new().find_blocking_faults(&g, query(f)));
        });
    }
    for f in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("exhaustive", f), &f, |b, &f| {
            b.iter(|| ExhaustiveOracle::new().find_blocking_faults(&g, query(f)));
        });
        group.bench_with_input(BenchmarkId::new("hitting_set", f), &f, |b, &f| {
            b.iter(|| HittingSetOracle::new().find_blocking_faults(&g, query(f)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_oracle_scaling_in_f);
criterion_main!(benches);
