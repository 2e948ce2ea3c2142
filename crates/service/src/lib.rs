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
//! cannot:
//!
//! ## Scan coalescing
//!
//! Under a scan-heavy load every caller runs its own double collect —
//! `Θ(n)` register reads each, all observing nearly the same memory. The
//! service instead lets concurrent scans rendezvous: one caller (the
//! *leader*) runs the collect, everyone in the cohort returns the same
//! view. This is sound for exactly the reason the paper's Observation 2 /
//! Lemma 4.1 lets a scanner borrow an embedded view from a writer it saw
//! move twice: a view may be borrowed only if the collect that produced
//! it is nested inside the borrower's own operation interval. The
//! coalescer enforces that with a generation counter — a request only
//! accepts a view whose collect was *elected after the request arrived* —
//! so a coalesced scan linearizes at the shared collect's linearization
//! point, inside every cohort member's interval.
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
//! cache-padded rendezvous, so subset scans confined to one shard
//! coalesce among themselves without contending with full scans. A
//! bounded in-flight budget turns overload into a typed
//! [`ServiceError::Overloaded`] rejection (wait-free admission — there is
//! no queue), and everything is observable through `snapshot-obs`
//! metrics (`service.scan.coalesced`, `service.scan.solo`,
//! `service.fault.*`, `service.inflight`, log₂-µs latency histograms)
//! and trace events for each coalescing and failure decision.
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
//!   (`Deadline`, threaded through admission, the coalescing rendezvous,
//!   retry backoffs, and a fallible backend's quorum waits): it either
//!   completes within its budget or returns a typed
//!   [`ServiceError::DeadlineExceeded`] — it never parks past it, and a
//!   coalesced waiter honors its *own* budget, never its leader's;
//! * a coalescing leader whose collect fails **fans the error out** to
//!   every waiter its collect was serving and frees the seat, so no
//!   request parks forever behind a dead collect and post-heal views
//!   still satisfy the Observation-2 nesting rule (see the `coalesce`
//!   module docs);
//! * per-shard **error-rate windowed circuit breakers**
//!   ([`HealthConfig`], [`Breaker`]) trip when the sliding window of
//!   backend outcomes crosses an error-rate threshold past a minimum
//!   volume (so a shard failing every *other* request still trips, and
//!   one unlucky burst on a quiet shard does not), shed requests early
//!   with [`ServiceError::Degraded`] carrying a **jittered**
//!   `retry_after` hint, and recover through a **priority-aware
//!   half-open ramp** ([`Priority`]: health probes first, then partial
//!   scans, full scans, and bulk updates, token-bucketed per ramp
//!   interval);
//! * a **metrics-driven load report**
//!   ([`SnapshotService::load_report`]) aggregates per-shard
//!   hit/error/latency counts into a hot-shard skew diagnosis
//!   (`service.load.*` gauges) that also stretches the hot shard's
//!   `retry_after` hints so shed cohorts spread out.
//!
//! Breaker lifecycles read an injectable [`Clock`]; tests drive a full
//! closed → open → half-open → closed sequence with a [`ManualClock`]
//! and zero sleeps.
//!
//! ## Causal span tracing
//!
//! With a trace attached ([`SnapshotService::with_trace`]) every client
//! operation opens a request-scoped **span tree** on the shared trace
//! plane (DESIGN.md §12): a root span per op (`scan` / `partial_scan` /
//! `update` / `probe`, closed with the op's typed outcome), an
//! `attempt` span per retry rung, `coalesce_park` for the rendezvous
//! wait, `collect` for the lead's double collect, `backoff` for retry
//! sleeps — and, on an ABD backing, `quorum_query`/`quorum_store`
//! phases nested under the collect via `snapshot_core::RequestCtx`. A
//! coalesced joiner records a *follows* edge to the lead's collect span
//! (a flow arrow in the chrome://tracing export), so "who actually ran
//! my collect" is reconstructable after the fact;
//! `snapshot_obs::SpanForest::attribute_stall` names the phase a slow
//! request spent its time in. Wire a `snapshot_obs::FlightRecorder`
//! into the same trace and every `DeadlineExceeded`, breaker trip, or
//! `Overloaded` shed freezes a black-box dump of the events (spans
//! included) leading up to it. Per-op-class latency quantiles come from
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
//!             let view = client.scan().unwrap();          // possibly coalesced
//!             assert_eq!(view.len(), 4);
//!             let pair = client.scan_subset(&[0, 1]).unwrap(); // partial scan
//!             assert_eq!(pair.segments(), &[0, 1]);
//!         });
//!     }
//! });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod coalesce;
mod error;
mod health;
mod load;
mod retry;
mod service;
mod shard;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use error::ServiceError;
pub use health::{Breaker, BreakerState, Gate, HealthConfig};
pub use load::{LoadReport, Priority, ShardLoadStat};
pub use retry::RetryConfig;
pub use service::{
    PartialView, ServiceClient, ServiceConfig, ServiceLatency, ServiceStats, SnapshotService,
};
