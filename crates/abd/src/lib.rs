//! ABD register emulation over a simulated asynchronous message-passing
//! network, with seeded fault injection and a gracefully degrading client.
//!
//! Section 6 of the paper observes: *"By applying the emulators of \[ABD\]
//! to the constructions presented in this paper, implementations of atomic
//! snapshot memory are obtained in message-passing systems. Snapshots
//! obtained this way are true instantaneous images of the global state. In
//! addition, these implementations are resilient to process and link
//! failures, as long as a majority of the system remains connected."*
//!
//! This crate builds that stack — and then attacks it:
//!
//! * [`Network`] — a simulated asynchronous message-passing system:
//!   replica server threads behind per-link fault injectors, with crash
//!   injection, runtime partitions and fault/retry counters;
//! * [`FaultPlan`] / [`LinkFault`] — a seeded, reproducible fault plan:
//!   per-link drop/duplicate/reorder/delay probabilities and reply loss,
//!   all drawn from one `SeededRng` seed;
//! * [`Nemesis`] — a driver that walks a schedule of fault phases
//!   (heal → partition a minority → flap a replica → heal) over
//!   wall-clock or message-count triggers while a workload runs;
//! * [`AbdRegister`] — the Attiya–Bar-Noy–Dolev emulation of a
//!   multi-writer atomic register over the replicas: two-phase writes
//!   (query the majority for the max tag, then store a higher tag) and
//!   two-phase reads (query, then write back the maximum before
//!   returning, preventing new/old inversion — skipped when the query
//!   quorum was unanimous, since the maximum is then already on a
//!   majority), over a batch of registers at a time
//!   ([`AbdRegister::read_many`]). Each phase retransmits to
//!   silent replicas under capped exponential backoff ([`RetryPolicy`]),
//!   replicas dedupe retries by request id, and liveness failures surface
//!   as typed [`AbdError`]s via [`AbdRegister::try_read`] /
//!   [`AbdRegister::try_write`] instead of panics;
//! * [`AbdBackend`] — plugs the emulated registers into the snapshot
//!   constructions' [`Backend`] interface, so **the very same snapshot
//!   code** that runs on shared memory runs message-passing, and keeps
//!   working while any minority of replicas is crashed, partitioned, or
//!   behind a lossy link;
//! * [`AbdSnapshotCore`] — the unbounded single-writer construction
//!   (Figure 2) run *fallibly* over `AbdRegister` lanes through
//!   `snapshot-core`'s `TrySnapshotCore` interface: where the infallible
//!   backend panics past the liveness boundary, this surfaces typed
//!   `CoreError`s the `snapshot-service` front-end retries, sheds, or
//!   fans out to a coalescing cohort;
//! * [`Transport`] — the seam between the quorum engine and its medium.
//!   The simulated [`Network`] is one implementation; [`RemoteTransport`]
//!   carries the exact same protocol over TCP or Unix-domain sockets to
//!   `snapshotd` replica processes (the `snapshot-wire` crate), so the
//!   very same client stack — retries, breakers, deadlines, spans — runs
//!   distributed for real ([`AbdSnapshotCore::remote`]).
//!
//! [`Backend`]: snapshot_registers::Backend
//!
//! # Fault model & degradation
//!
//! Safety (linearizability) holds under **any** mix of message loss,
//! duplication, bounded reordering, delay, replica crash/restart and
//! partition — the protocol never relies on the network being nice, only
//! on majorities intersecting. Liveness requires a live, reachable
//! majority: an operation issued while more than `⌈r/2⌉ - 1` replicas are
//! crashed or partitioned away retries until the configured
//! [`op_timeout`](NetworkConfig::with_op_timeout), then returns
//! [`AbdError::QuorumUnavailable`] — not a panic, not a hang — and can be
//! retried after the network heals (tests use [`Network::restart`] /
//! [`Network::heal`]). That is exactly the resilience boundary the paper
//! states.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use snapshot_abd::{AbdBackend, FaultPlan, LinkFault, Network, NetworkConfig};
//! use snapshot_registers::{Backend, ProcessId, Register};
//!
//! // 3 replicas behind seeded lossy links: tolerates 1 crash, and the
//! // client's retransmissions mask the drops.
//! let network = Arc::new(Network::with_config(
//!     NetworkConfig::new(3)
//!         .with_faults(FaultPlan::seeded(7).with_default(LinkFault::healthy().with_drop(0.2))),
//! ));
//! let backend = AbdBackend::new(&network);
//! let reg = backend.cell(0u32);
//!
//! network.crash(2); // a minority crash, on top of the lossy links
//! for k in 1..=10u32 {
//!     reg.write(ProcessId::new(0), k);
//!     assert_eq!(reg.read(ProcessId::new(1)), k);
//! }
//! assert!(network.stats().messages_dropped > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod error;
mod fault;
mod message;
mod network;
mod register;
mod remote;
mod snapshot_core;
mod stats;
mod transport;

pub use backend::AbdBackend;
pub use snapshot_core::AbdSnapshotCore;
pub use error::{AbdError, AbdPhase};
pub use fault::{Dwell, FaultPlan, LinkFault, Nemesis, NemesisEvent, NemesisPhase};
pub use message::{ErasedValue, RegisterId, RequestId, Tag};
pub use network::{Network, NetworkConfig, RetryPolicy};
pub use register::AbdRegister;
pub use remote::{RemoteConfig, RemoteTransport};
pub use stats::{LatencySnapshot, NetworkStats};
pub use transport::{Payload, Phase, PhaseRequest, Reply, ReplyBody, Transport};
