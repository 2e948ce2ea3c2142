//! Benchmark and experiment harness for the atomic-snapshot reproduction.
//!
//! The paper (PODC 1990) is a theory paper: its "evaluation" is a set of
//! quantitative claims — wait-freedom pigeonhole bounds, `O(n²)` step
//! complexity, and the Section 6 comparison against Anderson's
//! constructions. This crate regenerates each claim as a measured
//! experiment (see `EXPERIMENTS.md` at the workspace root for the index):
//!
//! * [`harness`] — scripted workload drivers that run any of the snapshot
//!   constructions under the deterministic simulator or on real threads,
//!   recording full histories for the linearizability checkers;
//! * [`anderson_model`] — operation-count cost models of Anderson's
//!   composite-register constructions (the paper's Section 6 comparison
//!   baseline);
//! * [`report`] — plain-text table rendering for the `experiments` binary;
//! * [`scripted`] — wrapper cores that intercept full scans (held
//!   collects, injected outages) for the service tests;
//! * `src/bin/experiments.rs` — the table generator
//!   (`cargo run -p snapshot-bench --release --bin experiments -- all`);
//! * `src/bin/explore.rs` — exhaustive schedule exploration of small
//!   configurations.
//!
//! Everything here counts *steps* (register operations, double collects),
//! which do not depend on the host. Wall-clock numbers come from the one
//! reference benchmark, `bash benchmark/run.sh`.

#![warn(missing_docs)]

pub mod anderson_model;
pub mod harness;
pub mod report;
pub mod scripted;
