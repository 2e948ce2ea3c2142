//! The transport seam: how an ABD client reaches its replica fleet.
//!
//! The quorum engine in [`AbdRegister`](crate::AbdRegister) — broadcast,
//! count distinct repliers, retransmit to the silent under capped
//! backoff, give up at the deadline — is pure protocol; nothing in it
//! cares whether a "replica" is a thread behind a channel or a process
//! behind a socket. [`Transport`] is that boundary made explicit, and it
//! carries messages only:
//!
//! * the simulated [`Network`](crate::Network) implements it in-process,
//!   with the full fault-injection plane (drops, duplication, reorder,
//!   crash, partition) underneath;
//! * [`RemoteTransport`](crate::RemoteTransport) implements it over TCP
//!   or Unix-domain sockets against `snapshotd` replica processes, where
//!   the faults are real.
//!
//! Everything the engine keeps for itself — the operation timeout, the
//! [`RetryPolicy`], the `abd.*` metrics, the trace and the id counters —
//! is one [`EngineState`], built once per transport by
//! [`EngineState::new`] and reached through [`Transport::engine`]. So
//! both media report under the same `abd.*` keys (the medium is a
//! `abd.transport.<kind>` gauge, since the registry is name-keyed) and
//! feed the same trace events, and every dashboard, soak assertion and
//! flight recording reads identically across deployments.
//!
//! One quorum phase is one [`Transport::begin_phase`] call: the engine
//! hands over the request, its id and the phase's [`ReplyInbox`], and the
//! returned [`Phase`] routes replies to that inbox for its lifetime;
//! [`Phase::send_where`] (re)transmits to a chosen subset of replicas. A
//! request names a *batch* of registers (a single-register operation is a
//! batch of one), so a whole collect is one phase. Values cross the seam
//! as [`Payload`]s: in-process transports pass type-erased `Arc`s
//! untouched, wire transports require encoded bytes
//! ([`Transport::requires_bytes`]) which the register layer produces via
//! its wire codec.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use snapshot_obs::{Registry, Trace};

use crate::message::{ErasedValue, RegisterId, RequestId, Tag};
use crate::stats::Counters;

/// Client retry policy: capped exponential backoff with deterministic
/// jitter.
///
/// A quorum phase broadcasts once, then retransmits to every replica that
/// has not yet answered each time the backoff expires, until either a
/// majority answers or the operation timeout elapses. Jitter is derived
/// from the request id (not a clock or global RNG), so a fixed
/// fault-plan seed yields a reproducible retry cadence.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Backoff before the first retransmission.
    pub initial_backoff: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Backoff growth factor per retry (values `< 1` behave as `1`).
    pub multiplier: u32,
    /// Jitter fraction in `[0, 1]`: each backoff is stretched by up to
    /// this fraction of itself.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            multiplier: 2,
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The backoff following `current`, jittered deterministically by
    /// `(id, attempt)`.
    pub(crate) fn next_backoff(&self, current: Duration, id: RequestId, attempt: u32) -> Duration {
        let mut next = current.saturating_mul(self.multiplier.max(1));
        if next > self.max_backoff {
            next = self.max_backoff;
        }
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter > 0.0 {
            // splitmix-style hash of (id, attempt): reproducible, no clock.
            let mut h = id.0 ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = h.wrapping_mul(0xD1B5_4A32_D192_ED03);
            h ^= h >> 29;
            let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
            next += next.mul_f64(jitter * frac);
        }
        next
    }
}

/// The quorum engine's own state, the same whatever medium carries its
/// messages: the per-phase operation timeout, the retransmission policy,
/// the `abd.*` metrics, the trace, and the request-id and register-id
/// counters.
///
/// Each transport builds one with [`new`](Self::new) from its
/// configuration and returns it from [`Transport::engine`]; the transport
/// itself only counts what its medium does (messages sent and dropped,
/// duplicates, reorders).
pub struct EngineState {
    pub(crate) op_timeout: Duration,
    pub(crate) retry: RetryPolicy,
    pub(crate) registry: Arc<Registry>,
    /// Shared with the medium's replica or connection threads.
    pub(crate) counters: Arc<Counters>,
    pub(crate) trace: Trace,
    next_request: AtomicU64,
    next_register: AtomicU64,
}

impl EngineState {
    /// The engine state of a `kind` transport: `op_timeout` bounds each
    /// quorum phase, `retry` paces its retransmissions, the `abd.*`
    /// metrics live on `registry` (a private one when `None`) next to the
    /// `abd.transport.<kind>` marker gauge, and phase events go to
    /// `trace`.
    pub fn new(
        kind: &str,
        op_timeout: Duration,
        retry: RetryPolicy,
        registry: Option<Arc<Registry>>,
        trace: Trace,
    ) -> Self {
        let registry = registry.unwrap_or_default();
        registry.gauge(&format!("abd.transport.{kind}")).set(1);
        EngineState {
            op_timeout,
            retry,
            counters: Arc::new(Counters::new(&registry)),
            registry,
            trace,
            // Id 0 is reserved: a wire error frame carries it when the
            // request's own id was unreadable.
            next_request: AtomicU64::new(1),
            next_register: AtomicU64::new(0),
        }
    }

    /// A fresh request id for one quorum phase.
    pub(crate) fn fresh_request_id(&self) -> RequestId {
        RequestId(self.next_request.fetch_add(1, Ordering::Relaxed))
    }

    /// A fresh register id (wire registers are addressed explicitly via
    /// [`RegisterId::from_lane_segment`] instead).
    pub(crate) fn allocate_register(&self) -> RegisterId {
        RegisterId(self.next_register.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Debug for EngineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineState")
            .field("op_timeout", &self.op_timeout)
            .field("retry", &self.retry)
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

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

/// The reply inbox of one phase, latched on the quorum: the engine
/// creates it and hands it to [`Transport::begin_phase`], replica threads
/// (or wire connection threads) [`push`](Self::push) onto it, and the
/// engine waits on it.
///
/// A reply short of the quorum cannot end the phase, so it is queued
/// without waking the client; the push that brings the count to the
/// quorum wakes it, and so does every push after that (a duplicate or an
/// [`ReplyBody::Error`] among the first `quorum` replies leaves the
/// phase waiting for one more). Waking once per phase instead of once
/// per reply keeps the client from competing for a CPU with the replica
/// whose reply it is still waiting for.
#[derive(Debug)]
pub struct ReplyInbox {
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
    pub(crate) fn new(quorum: usize) -> Self {
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
    pub(crate) fn recv_deadline(&self, deadline: Instant) -> Option<Reply> {
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
/// request id route to the phase's [`ReplyInbox`]. Dropping the phase
/// releases the route (late replies are discarded — the engine has either
/// reached its quorum or given up).
pub trait Phase {
    /// (Re)transmits the phase's request to every replica for which
    /// `include` holds; returns how many were sent. The engine calls
    /// this once for the initial broadcast (`include` = all) and again
    /// on each retransmission (`include` = the still-silent).
    fn send_where(&mut self, include: &mut dyn FnMut(usize) -> bool) -> usize;
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

    /// Whether the fleet is terminally failed (a panicked replica
    /// thread, an explicitly poisoned network). Phases fail fast with
    /// `NetworkPoisoned` instead of retrying into the void.
    fn poisoned(&self) -> bool {
        false
    }

    /// The quorum engine's state for this fleet.
    fn engine(&self) -> &EngineState;

    /// Opens one quorum phase: `request` will be (re)transmitted under
    /// `id`, and replies to `id` are pushed onto `inbox` while the
    /// returned [`Phase`] lives.
    ///
    /// # Panics
    ///
    /// A byte-only transport panics on [`Payload::Erased`]; the register
    /// layer guards this at construction via
    /// [`requires_bytes`](Self::requires_bytes).
    fn begin_phase(
        &self,
        id: RequestId,
        request: PhaseRequest,
        inbox: Arc<ReplyInbox>,
    ) -> Box<dyn Phase + '_>;
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
    fn backoff_grows_is_capped_and_jittered_deterministically() {
        let policy = RetryPolicy {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            multiplier: 2,
            jitter: 0.0,
        };
        let id = RequestId(42);
        let b1 = policy.next_backoff(Duration::from_millis(1), id, 1);
        assert_eq!(b1, Duration::from_millis(2));
        let capped = policy.next_backoff(Duration::from_millis(8), id, 5);
        assert_eq!(capped, Duration::from_millis(8));

        let jittery = RetryPolicy {
            jitter: 0.5,
            ..policy
        };
        let a = jittery.next_backoff(Duration::from_millis(4), id, 2);
        let b = jittery.next_backoff(Duration::from_millis(4), id, 2);
        assert_eq!(a, b, "same (id, attempt) must jitter identically");
        assert!(a >= Duration::from_millis(8) && a <= Duration::from_millis(12));
    }

    #[test]
    fn engine_ids_are_unique_and_request_id_zero_is_reserved() {
        let retry = RetryPolicy::default();
        let engine = EngineState::new("sim", Duration::ZERO, retry, None, Trace::disabled());
        assert_ne!(engine.fresh_request_id(), RequestId(0));
        assert_ne!(engine.fresh_request_id(), engine.fresh_request_id());
        assert_ne!(engine.allocate_register(), engine.allocate_register());
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
