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
//! and [`Phase::recv_deadline`] awaits the next reply. A request names a
//! *batch* of registers (a single-register operation is a batch of one),
//! so a whole collect is one phase. Values cross the seam as
//! [`Payload`]s: in-process transports pass type-erased `Arc`s
//! untouched, wire transports require encoded bytes
//! ([`Transport::requires_bytes`]) which the register layer produces via
//! its wire codec.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

/// The client side of one quorum-phase request, over a batch of
/// registers.
#[derive(Clone, Debug)]
pub enum PhaseRequest {
    /// Phase 1: "send me your `(tag, value)` for each of these
    /// registers", answered positionally by [`ReplyBody::Values`].
    Query {
        /// The registers being read.
        registers: Vec<RegisterId>,
    },
    /// Phase 2: "store each `(tag, value)` that exceeds yours, then ack"
    /// — applied at most once per request id, as one batch.
    Store {
        /// The registers being written, each with the tag its value is
        /// stored under.
        entries: Vec<(RegisterId, Tag, Payload)>,
    },
}

impl PhaseRequest {
    /// How many registers the request names.
    pub(crate) fn len(&self) -> usize {
        match self {
            PhaseRequest::Query { registers } => registers.len(),
            PhaseRequest::Store { entries } => entries.len(),
        }
    }
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
    /// A query answer: the replica's current `(tag, value)` for each
    /// register of the request, in request order (`None` value = it has
    /// never stored that register).
    Values(Vec<(Tag, Option<Payload>)>),
    /// A store acknowledged.
    Ack,
    /// The replica refused the request (a typed wire error frame, or a
    /// transport-level failure attributed to one replica). Never counts
    /// toward a quorum.
    Error {
        /// The request, or the reply it asked for, exceeds the frame
        /// cap: a smaller batch may still fit.
        too_large: bool,
        /// Human-readable refusal, for diagnostics.
        detail: String,
    },
}

/// The reply inbox of one phase, latched on the quorum: replica threads
/// (or wire connection threads) [`push`](Self::push), the phase's client
/// [`recv_deadline`](Self::recv_deadline)s.
///
/// A reply short of the quorum cannot end the phase, so it is queued
/// without waking the client; the push that brings the count to the
/// quorum wakes it, and so does every push after that (a duplicate or an
/// [`ReplyBody::Error`] among the first `quorum` replies leaves the
/// phase waiting for one more). Waking once per phase instead of once
/// per reply keeps the client from competing for a CPU with the replica
/// whose reply it is still waiting for.
#[derive(Debug)]
pub(crate) struct ReplyInbox {
    state: Mutex<InboxState>,
    ready: Condvar,
    quorum: usize,
}

#[derive(Debug, Default)]
struct InboxState {
    replies: VecDeque<Reply>,
    /// Replies ever pushed (drained ones included).
    pushed: usize,
}

impl ReplyInbox {
    /// An empty inbox whose client sleeps until `quorum` replies arrived.
    pub fn new(quorum: usize) -> Self {
        ReplyInbox {
            state: Mutex::default(),
            ready: Condvar::new(),
            quorum,
        }
    }

    /// Queues one reply, waking the client if the quorum is now reached.
    pub fn push(&self, reply: Reply) {
        let reached = {
            // A panicking pusher cannot leave the queue half-updated.
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.replies.push_back(reply);
            state.pushed += 1;
            state.pushed >= self.quorum
        };
        if reached {
            self.ready.notify_one();
        }
    }

    /// The next queued reply; with none queued, sleeps until woken or
    /// `deadline`, then returns what is queued by then (`None` = nothing).
    pub fn recv_deadline(&self, deadline: Instant) -> Option<Reply> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(reply) = state.replies.pop_front() {
                return Some(reply);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, timeout) = self
                .ready
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timeout.timed_out() {
                // Replies short of the quorum were queued silently: hand
                // them over, so the engine retransmits only to the silent.
                return state.replies.pop_front();
            }
        }
    }
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

    /// Awaits the next reply to this phase, until `deadline`: a queued
    /// reply is returned at once, otherwise the caller sleeps until the
    /// phase's reply inbox wakes it or the deadline passes. `None`
    /// means the deadline passed with nothing queued (the engine decides
    /// whether to retransmit or give up); duplicated replies may be
    /// delivered and are the engine's to discard.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(from: usize) -> Reply {
        Reply {
            from,
            body: ReplyBody::Ack,
        }
    }

    #[test]
    fn queued_replies_are_handed_over_without_waiting_even_short_of_the_quorum() {
        let inbox = ReplyInbox::new(2);
        let far = Instant::now() + Duration::from_secs(30);
        inbox.push(ack(1));
        assert_eq!(inbox.recv_deadline(far).map(|r| r.from), Some(1));
        // Nothing queued and the deadline already passed: no sleep.
        assert!(inbox.recv_deadline(Instant::now()).is_none());
    }

    #[test]
    fn the_quorum_completing_push_is_never_a_lost_wake_up() {
        // Pusher and client race from a standing start, over and over: in
        // whichever order the pushes and the client's sleeps interleave,
        // the client must hold all `quorum` replies long before its
        // deadline — a lost wake-up would leave it asleep until then.
        for round in 0..500usize {
            let quorum = 2 + round % 2;
            let inbox = Arc::new(ReplyInbox::new(quorum));
            let far = Instant::now() + Duration::from_secs(20);
            let pusher = {
                let inbox = Arc::clone(&inbox);
                std::thread::spawn(move || {
                    for from in 0..quorum {
                        if round % 3 == 0 {
                            std::thread::yield_now();
                        }
                        inbox.push(ack(from));
                    }
                })
            };
            let started = Instant::now();
            let mut got = 0;
            while got < quorum {
                assert!(
                    inbox.recv_deadline(far).is_some(),
                    "round {round}: deadline hit"
                );
                got += 1;
            }
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "round {round}: the client slept through the quorum-th push"
            );
            pusher.join().unwrap();
        }
    }

    #[test]
    fn every_push_past_the_quorum_wakes_the_client_again() {
        // The first `quorum` replies may hold a duplicate or a refusal,
        // so the client goes back to sleep one accepted reply short: the
        // next push must wake it, not be queued silently.
        let inbox = Arc::new(ReplyInbox::new(2));
        let far = Instant::now() + Duration::from_secs(20);
        inbox.push(ack(0));
        inbox.push(ack(0));
        assert!(inbox.recv_deadline(far).is_some() && inbox.recv_deadline(far).is_some());
        let (asleep_tx, asleep_rx) = std::sync::mpsc::channel();
        let client = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || {
                asleep_tx.send(()).unwrap();
                let started = Instant::now();
                (inbox.recv_deadline(far).map(|r| r.from), started.elapsed())
            })
        };
        asleep_rx.recv().unwrap();
        inbox.push(ack(1));
        let (from, waited) = client.join().unwrap();
        assert_eq!(from, Some(1));
        assert!(
            waited < Duration::from_secs(10),
            "the third push was queued silently"
        );
    }
}
