//! Graph substrate for the `vft-spanner` workspace.
//!
//! This crate provides everything the fault tolerant spanner algorithms of
//! Bodwin–Patel (PODC 2019) need from a graph library, built from scratch:
//!
//! * [`Graph`] — undirected, weighted, simple, growable graphs with dense
//!   [`NodeId`]/[`EdgeId`] indices.
//! * [`FaultMask`] — logical vertex/edge deletion for evaluating
//!   `dist_{H ∖ F}` without copying graphs.
//! * [`DijkstraEngine`] — reusable, bound-aware, fault-masked shortest
//!   paths (the inner loop of the fault-set search oracles).
//! * [`girth`]/[`cycles`] — girth computation and bounded cycle
//!   enumeration, the language of the paper's blocking-set arguments.
//! * [`generators`] — deterministic and random graph families used by the
//!   experiment harness, including Cartesian products for the lower-bound
//!   construction.
//! * Supporting structures: [`BitSet`], [`IndexedHeap`], [`UnionFind`],
//!   [`subgraph`] extraction, [`bfs`] utilities, and [`dot`] export.
//!
//! # Example
//!
//! ```
//! use spanner_graph::{dijkstra, Dist, FaultMask, Graph, NodeId};
//!
//! // A 4-cycle with one heavy chord.
//! let g = Graph::from_weighted_edges(
//!     4,
//!     [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 3)],
//! )?;
//! let mut mask = FaultMask::for_graph(&g);
//! assert_eq!(
//!     dijkstra::dist(&g, NodeId::new(0), NodeId::new(2), &mask),
//!     Dist::finite(2)
//! );
//! // Fault vertex 1: the path through the chord or the long way survives.
//! mask.fault_vertex(NodeId::new(1));
//! assert_eq!(
//!     dijkstra::dist(&g, NodeId::new(0), NodeId::new(2), &mask),
//!     Dist::finite(2)
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod bitset;
mod error;
mod graph;
mod heap;
mod ids;
mod union_find;
mod view;
mod weight;

pub mod apsp;
pub mod bfs;
pub mod bytes;
pub mod connectivity;
pub mod csr;
pub mod cycles;
pub mod degeneracy;
pub mod dijkstra;
pub mod dot;
pub mod flow;
pub mod generators;
pub mod girth;
pub mod io;
pub mod mst;
pub mod partition;
pub mod subgraph;
pub mod transform;

pub use adjacency::GraphView;
pub use bitset::BitSet;
pub use bytes::SharedBytes;
pub use csr::{CsrStorage, FrozenCsr, IncrementalCsr};
pub use dijkstra::{DijkstraEngine, NoPotential, PathScratch, Potential, ShortestPath};
pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use heap::IndexedHeap;
pub use ids::{EdgeId, NodeId};
pub use union_find::UnionFind;
pub use view::FaultMask;
pub use weight::{Dist, Weight};
