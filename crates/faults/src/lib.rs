//! Fault model and fault-set search oracles for the `vft-spanner`
//! workspace.
//!
//! The FT greedy algorithm of Bodwin–Patel keeps an edge `(u, v)` exactly
//! when some fault set `F` with `|F| ≤ f` satisfies
//! `dist_{H∖F}(u, v) > k·w(u, v)`. Deciding that is the *length-bounded
//! cut* problem; a naive implementation is exponential in `f`, which the
//! paper leaves open to improve. This crate provides:
//!
//! * [`FaultModel`] / [`FaultSet`] — vertex vs edge faults and concrete,
//!   normalized failure sets;
//! * [`FaultOracle`] — the common exact-decision interface, with
//!   [`OracleStats`] work counters for the runtime experiments;
//! * [`ExhaustiveOracle`] — `O(n^f)` brute force (ground truth for tests);
//! * [`BranchingOracle`] — `O(k^f)` bounded search tree with sound
//!   disjoint-path-packing pruning and fault-set memoization (the oracle
//!   FT-greedy actually uses);
//! * [`ParallelBranchingOracle`] — the same branching queries a batch at
//!   a time against one shared spanner view, decided by the calling
//!   thread and persistent helper threads together (FT-greedy's
//!   branching paths decide their candidates with it);
//! * [`HittingSetOracle`] — an independent exact formulation via explicit
//!   short-path enumeration ([`paths`]) and hitting-set branch & bound,
//!   used to cross-validate the branching oracle;
//! * [`reference::ReferenceBranchingOracle`] — the frozen pre-optimization
//!   branching implementation, kept as the equivalence and benchmark
//!   baseline for the zero-allocation hot path;
//! * [`GreedyHeuristicOracle`] — a *polynomial-time, inexact* oracle
//!   probing the paper's open problem: its witnesses are always genuine,
//!   but it may miss blocking sets (ablation experiment E11);
//! * [`fingerprint`] — the order-independent Zobrist set fingerprints
//!   shared by the branching oracle's memoization and the serving side's
//!   epoch-view interning (`spanner_core::serve`).
//!
//! # Example
//!
//! ```
//! use spanner_faults::{BranchingOracle, FaultModel, FaultOracle, OracleQuery};
//! use spanner_graph::{Dist, Graph, NodeId};
//!
//! let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])?;
//! let mut oracle = BranchingOracle::new();
//! let found = oracle.find_blocking_faults(&g, OracleQuery {
//!     u: NodeId::new(0),
//!     v: NodeId::new(3),
//!     bound: Dist::finite(2),
//!     budget: 2,
//!     model: FaultModel::Vertex,
//! });
//! assert!(found.is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branching;
mod exhaustive;
mod heuristic;
mod hitting;
mod model;
mod oracle;
mod parallel;

pub mod fingerprint;
pub mod packing;
pub mod paths;
pub mod reference;

pub use branching::{BranchingConfig, BranchingOracle};
pub use exhaustive::ExhaustiveOracle;
pub use heuristic::{GreedyHeuristicOracle, PickRule};
pub use hitting::HittingSetOracle;
pub use model::{FaultModel, FaultSet};
pub use oracle::{FaultOracle, OracleQuery, OracleStats};
pub use parallel::ParallelBranchingOracle;
