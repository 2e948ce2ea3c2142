//! The transport seam: how an ABD client reaches its replica fleet.
//!
//! The quorum engine in [`AbdRegister`](crate::AbdRegister) — broadcast,
//! count distinct repliers, retransmit to the silent under capped
//! backoff, give up at the deadline — is pure protocol; nothing in it
//! cares whether a "replica" is a thread behind a channel or a process
//! behind a socket. [`Transport`] is that boundary made explicit:
//!
//! * the simulated [`Network`](crate::Network) implements it in-process,
//!   with the full fault-injection plane (drops, duplication, reorder,
//!   crash, partition) underneath;
//! * [`RemoteTransport`](crate::RemoteTransport) implements it over TCP
//!   or Unix-domain sockets against `snapshotd` replica processes, where
//!   the faults are real.
//!
//! Both report under the same `abd.*` metric keys (the transport is a
//! `abd.transport.<kind>` gauge, since the registry is name-keyed), and
//! both feed the same trace events, so every dashboard, soak assertion
//! and flight recording reads identically across deployments.
//!
//! One quorum phase is one [`Transport::begin_phase`] call: the returned
//! [`Phase`] owns the request id's reply route for its lifetime —
//! [`Phase::send_where`] (re)transmits to a chosen subset of replicas
//! and [`Phase::recv_deadline`] awaits the next reply. Values cross the
//! seam as [`Payload`]s: in-process transports pass type-erased `Arc`s
//! untouched, wire transports require encoded bytes
//! ([`Transport::requires_bytes`]) which the register layer produces via
//! its wire codec.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snapshot_obs::{Registry, Trace};

use crate::message::{ErasedValue, RegisterId, RequestId, Tag};
use crate::network::RetryPolicy;

/// A register value crossing the transport seam.
#[derive(Clone)]
pub enum Payload {
    /// A type-erased in-process value (shared, never serialized). Only
    /// transports with `requires_bytes() == false` accept it.
    Erased(ErasedValue),
    /// A wire-encoded value, as produced by a register's wire codec and
    /// carried opaquely by replicas.
    Bytes(Arc<[u8]>),
}

impl Payload {
    /// The encoded bytes, when this payload carries them.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Payload::Erased(_) => None,
            Payload::Bytes(b) => Some(b),
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Erased(_) => f.write_str("Payload::Erased(..)"),
            Payload::Bytes(b) => write!(f, "Payload::Bytes({} bytes)", b.len()),
        }
    }
}

/// The client side of one quorum-phase request.
#[derive(Clone, Debug)]
pub enum PhaseRequest {
    /// Phase 1: "send me your `(tag, value)` for this register."
    Query {
        /// The register being read.
        register: RegisterId,
    },
    /// Phase 2: "store this `(tag, value)` if it exceeds yours, then ack."
    Store {
        /// The register being written.
        register: RegisterId,
        /// The tag under which the value is stored.
        tag: Tag,
        /// The value.
        payload: Payload,
    },
}

/// One replica's answer to a phase request.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Index of the replying replica.
    pub from: usize,
    /// The payload.
    pub body: ReplyBody,
}

/// Payload of a [`Reply`].
#[derive(Clone, Debug)]
pub enum ReplyBody {
    /// A query answer: the replica's current `(tag, value)` (`None`
    /// value = it has never stored this register).
    Value {
        /// The stored tag.
        tag: Tag,
        /// The stored value, if any.
        payload: Option<Payload>,
    },
    /// A store acknowledged.
    Ack,
    /// The replica refused the request (a typed wire error frame, or a
    /// transport-level failure attributed to one replica). Never counts
    /// toward a quorum.
    Error {
        /// Human-readable refusal, for diagnostics.
        detail: String,
    },
}

/// One in-flight quorum phase on some transport.
///
/// Created by [`Transport::begin_phase`]; while it lives, replies to its
/// request id route to it. Dropping the phase releases the route (late
/// replies are discarded — the engine has either reached its quorum or
/// given up).
pub trait Phase {
    /// (Re)transmits the phase's request to every replica for which
    /// `include` holds; returns how many were sent. The engine calls
    /// this once for the initial broadcast (`include` = all) and again
    /// on each retransmission (`include` = the still-silent).
    fn send_where(&mut self, include: &mut dyn FnMut(usize) -> bool) -> usize;

    /// Awaits the next reply to this phase, until `deadline`. `None`
    /// means the deadline passed (the engine decides whether to
    /// retransmit or give up); duplicated replies may be delivered and
    /// are the engine's to discard.
    fn recv_deadline(&mut self, deadline: Instant) -> Option<Reply>;
}

/// A way to reach a replica fleet: the seam between the ABD quorum
/// engine and the medium carrying its messages.
///
/// Implementations must be usable from many threads at once (each lane
/// of a snapshot core runs phases concurrently), hence `Send + Sync`.
/// The two implementations are the simulated [`Network`](crate::Network)
/// and [`RemoteTransport`](crate::RemoteTransport).
pub trait Transport: Send + Sync + 'static {
    /// Number of replicas in the fleet.
    fn replicas(&self) -> usize;

    /// Size of a majority quorum.
    fn quorum(&self) -> usize {
        self.replicas() / 2 + 1
    }

    /// The transport kind label (`"sim"`, `"tcp"`, `"uds"`), reported as
    /// the `abd.transport.<kind>` gauge and in diagnostics.
    fn kind(&self) -> &'static str;

    /// Whether this transport can only carry [`Payload::Bytes`] (a wire
    /// transport). Registers check this at construction: a register
    /// without a wire codec refuses a byte-only transport up front
    /// rather than failing on first use.
    fn requires_bytes(&self) -> bool {
        false
    }

    /// Per-phase operation timeout: how long a phase may wait for its
    /// quorum before failing with `QuorumUnavailable`.
    fn op_timeout(&self) -> Duration;

    /// The retransmission backoff policy.
    fn retry_policy(&self) -> &RetryPolicy;

    /// The metrics registry carrying the transport's `abd.*` metrics.
    fn registry(&self) -> &Arc<Registry>;

    /// The trace receiving quorum-phase events.
    fn trace(&self) -> &Trace;

    /// Whether the fleet is terminally failed (a panicked replica
    /// thread, an explicitly poisoned network). Phases fail fast with
    /// `NetworkPoisoned` instead of retrying into the void.
    fn poisoned(&self) -> bool {
        false
    }

    /// Allocates a fresh register id (in-process transports hand out
    /// sequential ids; wire registers are addressed explicitly via
    /// [`RegisterId::from_lane_segment`]).
    fn allocate_register(&self) -> RegisterId;

    /// Allocates a fresh request id for one quorum phase.
    fn fresh_request_id(&self) -> RequestId;

    /// Opens one quorum phase: `request` will be (re)transmitted under
    /// `id`, and replies to `id` route to the returned [`Phase`] while
    /// it lives.
    ///
    /// # Panics
    ///
    /// A byte-only transport panics on [`Payload::Erased`]; the register
    /// layer guards this at construction via
    /// [`requires_bytes`](Self::requires_bytes).
    fn begin_phase(&self, id: RequestId, request: PhaseRequest) -> Box<dyn Phase + '_>;

    /// Counts `n` retransmitted messages (the `abd.retries` counter).
    fn note_retries(&self, n: u64);

    /// Records one completed quorum phase's latency (the
    /// `abd.quorum_latency_us` histogram).
    fn record_quorum_latency(&self, elapsed: Duration);
}
