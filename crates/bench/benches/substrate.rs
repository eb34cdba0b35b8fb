//! Substrate micro-benchmarks: the primitives every experiment leans on
//! (fault-masked Dijkstra, landmark tables, girth, generators,
//! blocking-set verification, Lemma 4 peeling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::{peel, verify_blocking_set, BlockingSet, FtGreedy};
use spanner_extremal::high_girth::high_girth_graph;
use spanner_extremal::projective;
use spanner_graph::generators::{
    cartesian_product, complete_bipartite, erdos_renyi, random_geometric,
};
use spanner_graph::{dijkstra, girth, Dist, FaultMask, Landmarks, NodeId};

fn bench_dijkstra(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let g = erdos_renyi(300, 0.05, &mut rng);
    let mask = FaultMask::for_graph(&g);
    let mut faulted = FaultMask::for_graph(&g);
    for v in 0..10 {
        // Offset by one so the query source (node 0) is never faulted.
        faulted.fault_vertex(NodeId::new(v * 7 + 1));
    }
    let mut group = c.benchmark_group("substrate_dijkstra");
    group.sample_size(20);
    group.bench_function("sssp_unmasked", |b| {
        let mut engine = dijkstra::DijkstraEngine::new();
        b.iter(|| engine.sssp(&g, NodeId::new(0), &mask));
    });
    group.bench_function("sssp_masked", |b| {
        let mut engine = dijkstra::DijkstraEngine::new();
        b.iter(|| engine.sssp(&g, NodeId::new(0), &faulted));
    });
    group.bench_function("bounded_pair_query", |b| {
        let mut engine = dijkstra::DijkstraEngine::new();
        b.iter(|| {
            engine.dist_bounded(&g, NodeId::new(0), NodeId::new(200), Dist::finite(3), &mask)
        });
    });
    group.finish();
}

/// One landmark table per iteration, on the sizes the construction and
/// serving paths build them at: a sparse geometric graph at n = 10⁴ and
/// a dense one at n = 800 (mean degree ≈ 170). The sparse radius gives
/// mean degree ≈ 12, enough for one component, so every landmark search
/// covers the whole graph (at degree ≈ 8 the farthest-point rule spends
/// several landmarks on stray small components, whose searches are
/// nearly free).
fn bench_landmarks(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let sparse = random_geometric(10_000, 0.02, &mut rng);
    let dense = random_geometric(800, 0.26, &mut rng);
    let mut group = c.benchmark_group("substrate_landmarks");
    group.sample_size(10);
    group.bench_function("build_sparse_10k", |b| b.iter(|| Landmarks::build(&sparse)));
    group.bench_function("build_dense_800", |b| b.iter(|| Landmarks::build(&dense)));
    group.finish();
}

fn bench_girth(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_girth");
    group.sample_size(10);
    let heawood_blowup = cartesian_product(&projective::heawood(), &complete_bipartite(2, 2));
    group.bench_function("girth_product_graph", |b| {
        let mask = FaultMask::for_graph(&heawood_blowup);
        b.iter(|| girth::girth(&heawood_blowup, &mask));
    });
    let mut rng = StdRng::seed_from_u64(12);
    let sparse = erdos_renyi(400, 0.01, &mut rng);
    group.bench_function("girth_sparse_random", |b| {
        let mask = FaultMask::for_graph(&sparse);
        b.iter(|| girth::girth_up_to(&sparse, &mask, 8));
    });
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_generators");
    group.sample_size(10);
    group.bench_function("erdos_renyi_2k", |b| {
        let mut rng = StdRng::seed_from_u64(13);
        b.iter(|| erdos_renyi(2000, 0.005, &mut rng));
    });
    group.bench_function("projective_plane_q7", |b| {
        b.iter(|| projective::incidence_graph(7).unwrap());
    });
    group.bench_with_input(BenchmarkId::new("high_girth", 6), &6usize, |b, &g| {
        let mut rng = StdRng::seed_from_u64(14);
        b.iter(|| high_girth_graph(120, g, &mut rng));
    });
    group.finish();
}

fn bench_lemmas(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(15);
    let g = erdos_renyi(60, 0.2, &mut rng);
    let ft = FtGreedy::new(&g, 3).faults(2).run();
    let blocking = BlockingSet::from_witnesses(&ft);
    let mut group = c.benchmark_group("substrate_lemmas");
    group.sample_size(10);
    group.bench_function("e6_verify_blocking_set", |b| {
        b.iter(|| verify_blocking_set(ft.spanner().graph(), &blocking, 4, 1_000_000));
    });
    group.bench_function("e7_peel_round", |b| {
        let mut rng = StdRng::seed_from_u64(16);
        b.iter(|| peel(ft.spanner().graph(), &blocking, 2, 4, &mut rng));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dijkstra,
    bench_landmarks,
    bench_girth,
    bench_generators,
    bench_lemmas
);
criterion_main!(benches);
