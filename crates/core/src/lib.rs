//! Fault tolerant spanners — a faithful implementation of
//! *“A Trivial Yet Optimal Solution to Vertex Fault Tolerant Spanners”*
//! (Bodwin & Patel, PODC 2019).
//!
//! The paper's result: the obvious fault tolerant generalization of the
//! greedy spanner algorithm — keep an edge iff some ≤ f faults would
//! otherwise stretch it — is *optimal* for vertex faults: its output size
//! is `O(f² · b(n/f, k+1))`, matching the lower bound family. This crate
//! implements every object in that story:
//!
//! * [`greedy_spanner`] — the classic greedy baseline (Althöfer et al.);
//! * [`FtGreedy`] — **Algorithm 1**: the VFT/EFT greedy construction with
//!   pluggable exact fault oracles and recorded witness fault sets;
//! * [`BlockingSet`] — **Lemma 3**: the `(k+1)`-blocking set extracted
//!   from the witnesses, plus direct verification against enumerated
//!   cycles;
//! * [`peel`] — **Lemma 4**: random vertex sampling + blocked-edge
//!   deletion yielding a high-girth witness subgraph;
//! * [`verify`] — stretch verification (plain, per fault set, exhaustive
//!   over all fault sets, sampled, and adversarial);
//! * [`baselines`] — the DK11-style random-subset construction and the
//!   union-of-spanners EFT construction for comparisons;
//! * [`simulation`] — the resilience engine: pluggable failure scenarios
//!   (Bernoulli, regional, witness replay, bursts, scripted traces) with
//!   exact per-query contract accounting over [`routing`];
//! * [`frozen`] / [`serve`] — the serving side: freeze the construction
//!   into an immutable [`FrozenSpanner`] artifact, share it via `Arc`,
//!   and serve any number of concurrent tenants through an
//!   [`EpochServer`] — interned fault views, independent
//!   [`EpochHandle`] sessions, O(Δ) epoch deltas, and a coalescing
//!   batch front-end; persist the artifact with
//!   [`FrozenSpanner::encode`] and load it in a serving replica with
//!   [`FrozenSpanner::decode`] — or map the same bytes **in place** with
//!   [`FrozenSpanner::open`] ([`MappedSpanner`]) and serve it without
//!   decoding — build once, serve many, never reconstruct.
//!
//! # Quickstart
//!
//! ```
//! use spanner_core::{verify::verify_ft_exhaustive, FtGreedy};
//! use spanner_faults::FaultModel;
//! use spanner_graph::generators::complete;
//!
//! let g = complete(10);
//! let ft = FtGreedy::new(&g, 3).faults(1).run();
//! // The whole point: H ∖ F spans G ∖ F for EVERY fault set |F| ≤ 1.
//! let audit = verify_ft_exhaustive(&g, ft.spanner(), 1, FaultModel::Vertex);
//! assert!(audit.satisfied());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking;
mod ft_greedy;
mod greedy;
mod peeling;
mod spanner;

pub mod baselines;
pub mod frozen;
pub mod metrics;
pub mod partition;
pub mod report;
pub mod routing;
pub mod serve;
pub mod simulation;
pub mod verify;

pub use blocking::{verify_blocking_set, BlockingReport, BlockingSet};
pub use frozen::{ArtifactError, FrozenSpanner, MappedSpanner};
pub use ft_greedy::{FtGreedy, FtSpanner, OracleKind};
pub use greedy::{greedy_spanner, greedy_spanner_masked};
pub use partition::{PartitionReport, PartitionedFtGreedy, PartitionedSpanner};
pub use peeling::{expected_yield, peel, PeelOutcome};
pub use serve::{
    BatchCoalescer, EpochDelta, EpochHandle, EpochServer, EpochView, ServerStats, Ticket,
};
pub use spanner::Spanner;
