//! `snapshot-benchmark`: the reference benchmark for the atomic-snapshot
//! stack. Seven workloads from raw handle to durable wire, every output
//! checked, plus single-thread probes that price each layer.
//!
//! The harness calls the stack **only through its public API** (the
//! pinned surface is listed in `benchmark/README.md`) and always builds
//! against the stand-ins under `benchmark/vendor`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod drive;
pub mod gen;
pub mod probe;
pub mod procfs;
pub mod report;
pub mod run;
pub mod stack;
pub mod stats;
pub mod tracing;
pub mod workload;

/// Segments / lanes / words in every workload, so every rung of the
/// ledger does the same Θ(n) collect.
pub const SEGMENTS: usize = 8;
/// Closed-loop client threads (the host has two CPUs; a lane runs one op
/// at a time, so callers that wait for their reply are the honest model).
pub const CLIENTS: usize = 2;
/// Replicas behind every quorum-backed workload (tolerates one down).
pub const REPLICAS: usize = 3;
