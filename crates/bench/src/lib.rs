//! Criterion micro-benchmarks for the `vft-spanner` workspace.
//!
//! This crate carries no library code — it exists for its `benches/`
//! targets, which track the performance-sensitive layers end to end:
//!
//! * `substrate` — graph-layer primitives: adjacency-list vs CSR vs
//!   packed frozen-CSR traversal and Dijkstra on identical workloads;
//! * `e1_size_vs_f`, `e4_baselines`, `e9_oracle` — experiment-shaped
//!   benchmarks mirroring the harness's E1/E4/E9 sweeps.
//!
//! Run with `cargo bench` (or `cargo bench --no-run` for the CI compile
//! smoke). End-to-end construction and serving cost is measured by
//! `pipebench` (see `BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
