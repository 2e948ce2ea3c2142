//! # snapshot-service — a sharded front-end for atomic snapshot objects
//!
//! The constructions in [`snapshot_core`] give each process a private
//! handle to one shared snapshot object. This crate puts a *service* in
//! front of any of them
//! ([`TrySnapshotCore`](snapshot_core::TrySnapshotCore) is the one
//! interface — the in-process constructions implement it with operations
//! that never err, and fallible message-passing cores such as
//! `snapshot-abd`'s `AbdSnapshotCore` implement it with typed errors) and
//! adds the things a shared front-end can provide that the raw objects
//! cannot, without making one request wait for another:
//!
//! ## Wait-free above the core
//!
//! Every scan runs its own collect and returns the core's own view, so
//! the service adds no linearizability argument of its own and no
//! request waits for another request's collect, retry or sleep. Each
//! client owns its core lane (for an in-process core, the per-process
//! handle with its warm collect cache), so a request claims nothing and
//! re-reads nothing it already knows. What the
//! service adds is bounded per request: admission is a wait-free budget
//! check, a healthy shard's breaker records a success with one atomic
//! load (its window lock is taken only when the window changes, and then
//! guards O(1) work), and retry backoff sleeps never outlive the
//! request's deadline. Views are not shared between requests: a request may only
//! take a view whose collect began after it arrived, so taking one would
//! mean waiting for another request's collect to finish.
//!
//! ## Partial scans
//!
//! [`ServiceClient::scan_subset`] returns an atomic picture of just the
//! requested segments. The service asks the backing for a *native* subset
//! scan
//! ([`try_scan_subset`](snapshot_core::TrySnapshotCore::try_scan_subset)
//! — a double collect over just the touched registers: two adjacent
//! passes with unchanged per-slot keys certify that no write to those
//! segments completed in between, which is Observation 1 restricted to
//! the projection; every in-tree construction has one). Where the backing
//! has none, or its bounded interference budget ran out, the service
//! falls back to projecting a full scan — still wait-free, because the
//! constructions' own scans are. `snapshot-lin` ships a projected
//! sequential spec (`check_partial_history`) so these histories can be
//! checked by the Wing & Gong backtracking checker.
//!
//! ## Sharding and admission control
//!
//! Segments are partitioned into contiguous shards, each with its own
//! cache-padded circuit breaker, so a sick range sheds only the requests
//! that touch it. A bounded in-flight budget turns overload into a typed
//! [`ServiceError::Overloaded`] rejection (wait-free admission — there is
//! no queue; [`SnapshotService::inflight`] reads it), and everything is
//! observable through `snapshot-obs` metrics (`service.scan.solo`,
//! `service.scan.partial`, `service.fault.*`, log₂-µs latency
//! histograms) and trace events for each admission and failure decision.
//!
//! ## Fault tolerance and adaptive load management
//!
//! When the backing core is fallible (its collects run over emulated
//! message-passing registers that can lose their quorum), failure is a
//! typed value all the way up, never a hang:
//!
//! * each operation runs under a **retry budget** ([`RetryConfig`]):
//!   retryable `CoreError`s are retried with capped backoff until an
//!   attempt count runs out, then surface as [`ServiceError::Backend`];
//! * each operation also carries a **wall-clock deadline budget**
//!   (`Deadline`, threaded through admission, retry backoffs, and a
//!   fallible backend's quorum waits): it either completes within its
//!   budget or returns a typed [`ServiceError::DeadlineExceeded`] — it
//!   never waits past it;
//! * per-shard **error-rate windowed circuit breakers**
//!   ([`HealthConfig`], [`Breaker`]) trip when the sliding window of
//!   backend outcomes crosses an error-rate threshold past a minimum
//!   volume (so a shard failing every *other* request still trips, and
//!   one unlucky burst on a quiet shard does not), shed requests early
//!   with [`ServiceError::Degraded`] carrying a **jittered**
//!   `retry_after` hint, and recover through a **priority-aware
//!   half-open ramp** ([`Priority`]: health probes first, then partial
//!   scans, full scans, and bulk updates, token-bucketed per ramp
//!   interval).
//!
//! Breakers take time as an explicit `now_us` reading — microseconds
//! since the service started, taken from the instants a request already
//! reads for its deadline and latency — so their tests (`health.rs`,
//! `proptest_health.rs`) drive a full closed → open → half-open → closed
//! sequence by passing readings, with zero sleeps.
//!
//! ## Causal span tracing
//!
//! With a trace attached ([`SnapshotService::with_trace`]) every client
//! operation opens a request-scoped **span tree** on the shared trace
//! plane (DESIGN.md §12): a root span per op (`scan` / `partial_scan` /
//! `update` / `probe`, closed with the op's typed outcome), an
//! `attempt` span per retry rung, `collect` for the request's own
//! collect, `backoff` for retry sleeps — and, on an ABD backing,
//! `quorum_query`/`quorum_store` phases nested under the collect via
//! `snapshot_core::RequestCtx`.
//! `snapshot_obs::SpanForest::attribute_stall` names the phase a slow
//! request spent its time in. Make a `snapshot_obs::FlightRecorder`
//! the trace's sink and every `DeadlineExceeded`, breaker trip, or
//! `Overloaded` shed freezes a black-box dump of the events (spans
//! included) leading up to it, while the recorder's `RingSink` keeps the
//! whole rolling window. Per-op-class latency quantiles come from
//! [`SnapshotService::latency_summaries`].
//!
//! ## Quickstart
//!
//! ```
//! use snapshot_core::UnboundedSnapshot;
//! use snapshot_service::{ServiceConfig, SnapshotService};
//!
//! let service = SnapshotService::with_config(
//!     UnboundedSnapshot::new(4, 0u64),
//!     ServiceConfig { shards: 2, max_inflight: 64, ..ServiceConfig::default() },
//! );
//!
//! std::thread::scope(|s| {
//!     for lane in 0..4 {
//!         let service = &service;
//!         s.spawn(move || {
//!             let mut client = service.client(lane);
//!             client.update(lane, 7 * lane as u64 + 1).unwrap();
//!             let view = client.scan().unwrap();          // full scan
//!             assert_eq!(view.len(), 4);
//!             let pair = client.scan_subset(&[0, 1]).unwrap(); // partial scan
//!             assert_eq!(pair.segments(), &[0, 1]);
//!         });
//!     }
//! });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod health;
mod priority;
mod retry;
mod service;
mod shard;

pub use error::ServiceError;
pub use health::{Breaker, BreakerState, Gate, HealthConfig};
pub use priority::Priority;
pub use retry::RetryConfig;
pub use service::{
    PartialView, ServiceClient, ServiceConfig, ServiceLatency, ServiceStats, SnapshotService,
};
