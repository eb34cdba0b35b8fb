//! Experiment harness for the `vft-spanner` reproduction.
//!
//! The paper is a theory paper; EXPERIMENTS.md defines the tables and
//! figures this harness regenerates (E1–E16, see [`experiments`]). The
//! crate also provides the measurement plumbing:
//!
//! * [`Table`] — aligned ASCII tables with CSV export;
//! * [`json`] — serde-free JSON emission/validation for the scenario
//!   and fuzz artifacts;
//! * [`fit_power_law`] — log–log exponent fits (the "shape" checks);
//! * [`parallel_map`] — ordered parallel parameter sweeps;
//! * [`cell_seed`] — deterministic per-cell seeding.
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! cargo run --release -p spanner-harness --bin repro -- all
//! cargo run --release -p spanner-harness --bin repro -- --quick e1 e6
//! ```
//!
//! Run the failure-scenario resilience sweep (E14's engine) and emit /
//! schema-check its JSON artifact with the `scenarios` binary:
//!
//! ```text
//! cargo run --release -p spanner-harness --bin scenarios -- --out SCENARIOS.json
//! cargo run --release -p spanner-harness --bin scenarios -- --check SCENARIOS.json
//! ```
//!
//! Persist, inspect, and serve frozen spanner artifacts (the binary
//! documents specified in `docs/ARTIFACT_FORMAT.md`) with the
//! `spanner-artifact` binary — build once, ship the file, serve without
//! reconstruction:
//!
//! ```text
//! cargo run --release -p spanner-harness --bin spanner-artifact -- \
//!     build --family geometric --n 64 --f 1 --out spanner.vfts
//! cargo run --release -p spanner-harness --bin spanner-artifact -- inspect spanner.vfts
//! cargo run --release -p spanner-harness --bin spanner-artifact -- serve spanner.vfts
//! ```
//!
//! All binaries share the [`cli`] conventions: `--help` on stdout with
//! exit 0, bad arguments and failures on stderr with a non-zero exit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fit;
mod sweep;
mod table;

pub mod cli;
pub mod corpus;
pub mod experiments;
pub mod json;
pub mod plot;

pub use fit::{fit_power_law, mean, std_dev, PowerFit};
pub use sweep::{cell_seed, parallel_map};
pub use table::{fnum, Table};
