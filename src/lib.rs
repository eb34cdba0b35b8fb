//! # vft-spanner
//!
//! Vertex/edge **fault tolerant graph spanners** via the optimal greedy
//! algorithm — a complete Rust implementation of
//! *"A Trivial Yet Optimal Solution to Vertex Fault Tolerant Spanners"*
//! (Greg Bodwin & Shyamal Patel, PODC 2019, arXiv:1812.05778).
//!
//! An `f`-fault-tolerant `k`-spanner of a graph `G` is a subgraph `H` such
//! that after **any** `f` vertex (or edge) failures, distances in the
//! survivor `H ∖ F` are within a factor `k` of distances in `G ∖ F`. The
//! paper shows the obvious greedy algorithm builds one of optimal size
//! `O(f² · b(n/f, k+1))` (= `O(n^{1+1/κ} f^{1−1/κ})` at stretch `2κ−1`
//! under the Moore bounds).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] ([`spanner_graph`]) — the graph substrate: weighted graphs,
//!   fault masks, bounded fault-masked Dijkstra, girth, generators;
//! * [`faults`] ([`spanner_faults`]) — the fault model and the fault-set
//!   search oracles (exact branching and exhaustive, inexact heuristic);
//! * [`core`] ([`spanner_core`]) — the paper: FT-greedy (Algorithm 1),
//!   blocking sets (Lemma 3), peeling (Lemma 4), verification, baselines;
//! * [`extremal`] ([`spanner_extremal`]) — Moore-bound curves, projective
//!   planes, high-girth generators, the lower-bound blow-up family.
//!
//! # Quickstart
//!
//! ```
//! use vft_spanner::prelude::*;
//!
//! // A random network.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = generators::erdos_renyi(40, 0.3, &mut rng);
//!
//! // A 1-vertex-fault tolerant 3-spanner.
//! let ft = FtGreedy::new(&g, 3).faults(1).run();
//! assert!(ft.spanner().edge_count() < g.edge_count());
//!
//! // Knock out any single vertex: the survivor still 3-spans.
//! let audit = verify_ft_exhaustive(&g, ft.spanner(), 1, FaultModel::Vertex);
//! assert!(audit.satisfied());
//! // The same contract, decided exactly by one fault-oracle query per
//! // parent edge the spanner dropped (either fault model).
//! assert!(certify_ft_exact(&g, ft.spanner(), 1, FaultModel::Vertex).is_none());
//!
//! // Serve it: freeze the construction into an immutable artifact and
//! // open an epoch session under one failure view.
//! let server = EpochServer::new(std::sync::Arc::new(ft.freeze(&g)));
//! let mut session = server.epoch(&FaultSet::vertices([NodeId::new(3)]));
//! let answers = session.route_batch(&[
//!     (NodeId::new(0), NodeId::new(7)),
//!     (NodeId::new(1), NodeId::new(9)),
//! ]);
//! assert!(answers.iter().all(|a| a.is_ok()));
//! ```
//!
//! # Concurrent multi-tenant serving
//!
//! One [`EpochServer`](core::EpochServer) serves any number of tenants
//! from one frozen artifact: each [`epoch`](core::EpochServer::epoch)
//! call opens an independent, `Send` [`EpochHandle`](core::EpochHandle)
//! session; tenants asking for the same fault set share one interned
//! fault view. Answers are bit-identical to the sequential reference no
//! matter how sessions interleave:
//!
//! ```
//! use vft_spanner::prelude::*;
//! use std::sync::Arc;
//!
//! let g = generators::complete(10);
//! let ft = FtGreedy::new(&g, 3).faults(1).run();
//! let server = EpochServer::new(Arc::new(ft.freeze(&g)));
//!
//! // Two tenants, two different fault views, served concurrently.
//! let mut tenant_a = server.epoch(&FaultSet::vertices([NodeId::new(3)]));
//! let mut tenant_b = server.epoch(&FaultSet::vertices([NodeId::new(7)]));
//! let (a, b) = std::thread::scope(|scope| {
//!     let a = scope.spawn(|| tenant_a.route_batch(&[(NodeId::new(0), NodeId::new(7))]));
//!     let b = scope.spawn(|| tenant_b.route_batch(&[(NodeId::new(0), NodeId::new(3))]));
//!     (a.join().unwrap(), b.join().unwrap())
//! });
//! assert!(a[0].is_ok() && b[0].is_ok());
//!
//! // O(Δ) epoch transitions: derive tenant A's next view by listing
//! // only what changed, instead of re-applying the whole fault set.
//! let mut delta = EpochDelta::new();
//! delta.restore_vertex(NodeId::new(3)).fault_vertex(NodeId::new(4));
//! let mut next = server.epoch(&FaultSet::vertices([NodeId::new(3)])).step(&delta);
//! assert!(next.route(NodeId::new(0), NodeId::new(3)).is_ok());
//! assert_eq!(server.stats().delta_component_ops, 2);
//! ```
//!
//! # Build once, serve many
//!
//! Construction is the expensive half (every kept edge pays an exact
//! fault-oracle decision); serving is cheap. The frozen artifact
//! therefore persists: [`FrozenSpanner::encode`](core::FrozenSpanner::encode)
//! writes a versioned binary document (spec: `docs/ARTIFACT_FORMAT.md`)
//! and [`FrozenSpanner::decode`](core::FrozenSpanner::decode) loads it
//! back in any process — a serving replica never re-runs FT-greedy, and
//! the loaded artifact answers bit-identically to the one it was encoded
//! from:
//!
//! ```
//! use vft_spanner::prelude::*;
//! use std::sync::Arc;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = generators::erdos_renyi(24, 0.35, &mut rng);
//! let original = Arc::new(FtGreedy::new(&g, 3).faults(1).run().freeze(&g));
//!
//! // Encode → (ship the bytes to a replica) → decode.
//! let bytes = original.encode();
//! let loaded = Arc::new(FrozenSpanner::decode(&bytes)?);
//! assert_eq!(loaded.encode(), bytes); // canonical roundtrip
//!
//! // The replica serves the same epochs with bit-identical answers.
//! let outage = FaultSet::vertices([NodeId::new(5)]);
//! let pairs = [(NodeId::new(0), NodeId::new(9)), (NodeId::new(2), NodeId::new(17))];
//! let mut here = EpochServer::new(original).epoch(&outage);
//! let mut there = EpochServer::new(loaded).epoch(&outage);
//! assert_eq!(here.route_batch(&pairs), there.route_batch(&pairs));
//!
//! // Zero-copy replicas open the same bytes **in place** — the
//! // adjacency serves straight out of the (mapped or aligned) buffer,
//! // nothing is decoded up front.
//! let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&bytes))?;
//! let mut zero_copy = EpochServer::from_mapped(mapped).epoch(&outage);
//! assert_eq!(zero_copy.route_batch(&pairs), here.route_batch(&pairs));
//!
//! // Hostile bytes are rejected with a typed error, never a panic.
//! assert!(FrozenSpanner::decode(&bytes[..bytes.len() / 2]).is_err());
//! # Ok::<(), vft_spanner::core::ArtifactError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spanner_core as core;
pub use spanner_extremal as extremal;
pub use spanner_faults as faults;
pub use spanner_graph as graph;

/// The most common imports, bundled.
pub mod prelude {
    pub use rand::{rngs::StdRng, Rng, SeedableRng};
    pub use spanner_core::baselines::{dk_spanner, union_eft_spanner, DkParams};
    pub use spanner_core::metrics::{spanner_metrics, SpannerMetrics};
    pub use spanner_core::report::ConstructionReport;
    pub use spanner_core::report::ScenarioReport;
    pub use spanner_core::routing::{stretch_against, Route, RouteError};
    pub use spanner_core::serve::route_one;
    pub use spanner_core::simulation::{
        run_scenario, run_scripted_scenario, simulate, AdversarialWitnessReplay, BurstCascade,
        ContractEvent, CorrelatedRegional, FailureProcess, IndependentBernoulli, ScenarioConfig,
        ScenarioOutcome, SimulationConfig, SimulationOutcome, Trace,
    };
    pub use spanner_core::verify::{
        certify_ft_exact, verify_ft_adversarial, verify_ft_exhaustive, verify_ft_sampled,
        verify_spanner, verify_under_faults,
    };
    pub use spanner_core::{
        greedy_spanner, peel, verify_blocking_set, BatchCoalescer, BlockingSet, EpochDelta,
        EpochHandle, EpochServer, EpochView, FrozenSpanner, FtGreedy, FtSpanner, MappedSpanner,
        OracleKind, ServerStats, Spanner, Ticket,
    };
    pub use spanner_faults::{
        BranchingOracle, ExhaustiveOracle, FaultModel, FaultOracle, FaultSet,
        GreedyHeuristicOracle, OracleQuery,
    };
    pub use spanner_graph::{
        bfs, dijkstra, generators, girth, mst, subgraph, Dist, EdgeId, FaultMask, Graph, NodeId,
        SharedBytes, Weight,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_paths_resolve() {
        let g = crate::graph::generators::complete(5);
        let s = crate::core::greedy_spanner(&g, 3);
        assert!(s.edge_count() <= g.edge_count());
        let _curve = crate::extremal::moore::moore_bound(10.0, 3);
    }
}
