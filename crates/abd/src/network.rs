use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use snapshot_obs::{Registry, Trace};
use snapshot_registers::SeededRng;

use crate::fault::{FaultPlan, LinkFault};
use crate::message::{Request, RequestId};
use crate::stats::{Counters, LatencySnapshot, NetworkStats};
use crate::transport::{Payload, Phase, PhaseRequest, Reply, ReplyBody, ReplyInbox, Transport};
use crate::{RegisterId, Tag};

/// How many recently seen request ids each replica remembers for
/// retransmission/duplication dedup. Retries of an id older than this
/// window are re-applied — harmless, because `Store` is a max-by-tag
/// merge and `Query` is read-only (idempotent either way; the window only
/// keeps the `duplicates_suppressed` metric honest for live traffic).
const DEDUP_WINDOW: usize = 4096;

/// How long a replica with held-back (reordered) messages waits for new
/// traffic before releasing them anyway, so reordering can never stall a
/// quiescent system.
const HOLDBACK_IDLE_FLUSH: Duration = Duration::from_millis(1);

/// Client retry policy: capped exponential backoff with deterministic
/// jitter.
///
/// A quorum phase broadcasts once, then retransmits to every replica that
/// has not yet answered each time the backoff expires, until either a
/// majority answers or [`NetworkConfig::op_timeout`] elapses. Jitter is
/// derived from the request id (not a clock or global RNG), so a fixed
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

/// Configuration of the simulated message-passing system.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Number of replica servers. Tolerates `⌈r/2⌉ - 1` crashes.
    pub replicas: usize,
    /// Seed for per-replica processing jitter (random yields between
    /// messages), widening the asynchrony the clients observe. `None`
    /// disables jitter.
    pub jitter_seed: Option<u64>,
    /// Seeded link-fault plan (drops, duplication, reordering, delay).
    /// `None` leaves every link healthy.
    pub faults: Option<FaultPlan>,
    /// How long a quorum phase may wait (across all its retries) before
    /// concluding the majority is gone and returning
    /// [`AbdError::QuorumUnavailable`](crate::AbdError::QuorumUnavailable).
    pub op_timeout: Duration,
    /// Retransmission backoff policy for quorum phases.
    pub retry: RetryPolicy,
    /// Metrics registry the network's `abd.*` counters and the
    /// quorum-latency histogram are registered on. `None` gives the
    /// network a private registry (still readable via
    /// [`Network::registry`]).
    pub registry: Option<Arc<Registry>>,
    /// Trace receiving quorum-phase lifecycle events
    /// (`abd_phase_start`, `abd_retransmit`, `abd_quorum_reached`,
    /// `abd_quorum_failed`). Disabled by default.
    pub trace: Trace,
}

impl NetworkConfig {
    /// A jitter-free, fault-free network of `replicas` servers with the
    /// default 30-second operation timeout.
    pub fn new(replicas: usize) -> Self {
        NetworkConfig {
            replicas,
            jitter_seed: None,
            faults: None,
            op_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            registry: None,
            trace: Trace::disabled(),
        }
    }

    /// Enables per-replica processing jitter with the given seed.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// Installs a seeded link-fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the per-operation quorum timeout.
    pub fn with_op_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Sets the retransmission backoff policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Registers the network's counters on a shared metrics registry, so
    /// `abd.*` metrics appear next to every other subsystem's.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches a trace for quorum-phase lifecycle events.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }
}

/// Runtime fault state of one client↔replica link: the (mutable) fault
/// policy plus partition cuts in each direction.
struct LinkState {
    fault: RwLock<LinkFault>,
    /// Requests to the replica are discarded.
    cut_inbound: AtomicBool,
    /// Replies from the replica are discarded.
    cut_outbound: AtomicBool,
}

impl LinkState {
    fn new(fault: LinkFault) -> Self {
        LinkState {
            fault: RwLock::new(fault),
            cut_inbound: AtomicBool::new(false),
            cut_outbound: AtomicBool::new(false),
        }
    }

    // A poisoned lock yields its guard in both directions: the policy is
    // replaced whole, never edited in place.
    fn fault(&self) -> RwLockReadGuard<'_, LinkFault> {
        self.fault.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_fault(&self, fault: LinkFault) {
        *self.fault.write().unwrap_or_else(PoisonError::into_inner) = fault;
    }
}

struct Replica {
    inbox: Sender<Request>,
    crashed: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Sets the shared flag if its thread unwinds, making replica panics
/// visible to `Network::poisoned` and `Network::drop` instead of being
/// silently swallowed by `JoinHandle::join`.
struct PanicFlag(Arc<AtomicBool>);

impl Drop for PanicFlag {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Per-replica server state and fault machinery, run on the replica's own
/// thread.
struct ReplicaCore {
    index: usize,
    store: HashMap<RegisterId, (Tag, Payload)>,
    seen: HashSet<RequestId>,
    seen_order: VecDeque<RequestId>,
    crashed: Arc<AtomicBool>,
    link: Arc<LinkState>,
    counters: Arc<Counters>,
    /// Fault-decision RNG (seeded from the fault plan).
    rng: SeededRng,
    /// Processing-jitter RNG (seeded from `jitter_seed`).
    jitter: Option<SeededRng>,
}

impl ReplicaCore {
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.chance(p)
    }

    /// Applies link faults to a freshly arrived request; surviving copies
    /// are delivered now or pushed onto the holdback buffer.
    fn admit(&mut self, held: &mut Vec<(Request, u32)>, request: Request) {
        let fault = self.link.fault().clone();
        if self.link.cut_inbound.load(Ordering::Acquire) || self.chance(fault.drop) {
            self.counters.messages_dropped.inc();
            return;
        }
        if self.chance(fault.duplicate) {
            self.counters.messages_duplicated.inc();
            // The extra copy is delivered immediately; the original may
            // still be held back below, so the two can arrive far apart.
            self.deliver_delayed(&fault, request.clone());
        }
        if fault.reorder_window > 0 && self.chance(fault.reorder) {
            self.counters.messages_reordered.inc();
            let holdback = self.rng.range(1..=fault.reorder_window as u64) as u32;
            held.push((request, holdback));
        } else {
            self.deliver_delayed(&fault, request);
        }
    }

    fn deliver_delayed(&mut self, fault: &LinkFault, request: Request) {
        if let Some((min, max)) = fault.delay {
            let (lo, hi) = (min.as_micros() as u64, max.as_micros() as u64);
            let micros = if hi > lo { self.rng.range(lo..=hi) } else { lo };
            if micros > 0 {
                std::thread::sleep(Duration::from_micros(micros));
            }
        }
        self.deliver(request);
    }

    /// Processes one delivered request: dedup by request id, apply, reply.
    fn deliver(&mut self, request: Request) {
        if let Some(rng) = &mut self.jitter {
            for _ in 0..rng.below(3) {
                std::thread::yield_now();
            }
        }
        if self.crashed.load(Ordering::Acquire) {
            // A crashed replica consumes without acking — from the client's
            // point of view the message is lost, so it counts as a drop. A
            // restart lets the replica speak again (state intact).
            self.counters.messages_dropped.inc();
            return;
        }
        let Request::Phase { id, request, reply } = request else {
            return;
        };
        let body = match &*request {
            PhaseRequest::Query { registers } => {
                // Queries are read-only: dedup only records the id; every
                // delivery is (re-)answered with the current state, which
                // is what lets a client whose reply was lost make progress.
                self.note_seen(id);
                ReplyBody::Values(
                    registers
                        .iter()
                        .map(|register| match self.store.get(register) {
                            Some((tag, value)) => (*tag, Some(value.clone())),
                            None => (Tag::default(), None),
                        })
                        .collect(),
                )
            }
            PhaseRequest::Store { entries } => {
                if self.note_seen(id) {
                    for (register, tag, value) in entries {
                        match self.store.entry(*register) {
                            Entry::Occupied(mut occupied) => {
                                if *tag > occupied.get().0 {
                                    occupied.insert((*tag, value.clone()));
                                }
                            }
                            Entry::Vacant(vacant) => {
                                vacant.insert((*tag, value.clone()));
                            }
                        }
                    }
                } else {
                    // Duplicate delivery (link duplication or client
                    // retransmission): skip the whole batch, but re-ack —
                    // the first ack may have been lost.
                    self.counters.duplicates_suppressed.inc();
                }
                ReplyBody::Ack
            }
        };
        self.reply(
            &reply,
            Reply {
                from: self.index,
                body,
            },
        );
    }

    /// Records `id` as seen; returns `true` the first time.
    fn note_seen(&mut self, id: RequestId) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        self.seen_order.push_back(id);
        if self.seen_order.len() > DEDUP_WINDOW {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }

    fn reply(&mut self, to: &ReplyInbox, reply: Reply) {
        let reply_drop = self.link.fault().reply_drop;
        if self.link.cut_outbound.load(Ordering::Acquire) || self.chance(reply_drop) {
            self.counters.messages_dropped.inc();
            return;
        }
        to.push(reply);
    }

    /// Ages the holdback buffer by one arrival and delivers everything
    /// whose countdown expired.
    fn age_holdback(&mut self, held: &mut Vec<(Request, u32)>) {
        let mut i = 0;
        let mut due = Vec::new();
        while i < held.len() {
            if held[i].1 <= 1 {
                due.push(held.swap_remove(i).0);
            } else {
                held[i].1 -= 1;
                i += 1;
            }
        }
        for request in due {
            self.deliver(request);
        }
    }

    fn flush_holdback(&mut self, held: &mut Vec<(Request, u32)>) {
        for (request, _) in held.drain(..) {
            self.deliver(request);
        }
    }
}

/// A simulated asynchronous message-passing system: replica servers that
/// store tagged register values, connected to clients by channels wrapped
/// in a seeded fault-injection layer ([`FaultPlan`]).
///
/// # Fault model
///
/// * **Crashes** ([`Network::crash`]) silence a replica: it drains and
///   ignores its inbox, never replying — indistinguishable, to clients,
///   from arbitrary message delay, which is exactly the fault model of
///   \[ABD\]. [`Network::restart`] brings it back (state intact — a crash
///   here models a partition/silence, not disk loss; ABD tolerates either
///   as long as a majority responds).
/// * **Lossy links** ([`LinkFault`]): every client↔replica link can drop,
///   duplicate, reorder (within a bounded window) and delay requests, and
///   drop replies, each with a seeded per-link probability.
/// * **Partitions** ([`Network::partition`]): cut a set of replicas off
///   symmetrically (both directions) or asymmetrically (requests only),
///   at runtime; [`Network::heal`] reconnects everything.
///
/// Safety (linearizability) holds under *any* mix of the above; liveness
/// needs a majority of replicas reachable in both directions — the
/// paper's exact resilience boundary. Clients mask transient faults with
/// retransmissions ([`RetryPolicy`]), and every fault decision is counted
/// ([`Network::stats`]) so tests can assert the faults actually fired.
pub struct Network {
    replicas: Vec<Replica>,
    links: Vec<Arc<LinkState>>,
    next_register: AtomicU64,
    next_request: AtomicU64,
    counters: Arc<Counters>,
    registry: Arc<Registry>,
    trace: Trace,
    op_timeout: Duration,
    retry: RetryPolicy,
    panicked: Arc<AtomicBool>,
    /// Explicitly marked failed via [`Network::poison`]; unlike `panicked`
    /// this is not escalated to a panic on drop.
    marked_failed: AtomicBool,
}

impl Network {
    /// Spawns a jitter-free, fault-free network of `replicas` servers.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize) -> Self {
        Self::with_config(NetworkConfig::new(replicas))
    }

    /// Spawns a network per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is zero.
    pub fn with_config(config: NetworkConfig) -> Self {
        assert!(config.replicas > 0, "a network needs at least one replica");
        let registry = config.registry.unwrap_or_default();
        // The transport-kind marker: sim and real transports report under
        // the same `abd.*` keys, distinguished only by this gauge (the
        // registry is name-keyed; labels are spelled into the name).
        registry.gauge("abd.transport.sim").set(1);
        let counters = Arc::new(Counters::new(&registry));
        let panicked = Arc::new(AtomicBool::new(false));
        let fault_seed = config.faults.as_ref().map(|p| p.seed).unwrap_or(0);
        let links: Vec<Arc<LinkState>> = (0..config.replicas)
            .map(|i| {
                let fault = config
                    .faults
                    .as_ref()
                    .map(|p| p.fault_for(i))
                    .unwrap_or_else(LinkFault::healthy);
                Arc::new(LinkState::new(fault))
            })
            .collect();
        let replicas = (0..config.replicas)
            .map(|i| {
                let (tx, rx) = channel::<Request>();
                let crashed = Arc::new(AtomicBool::new(false));
                let mut core = ReplicaCore {
                    index: i,
                    store: HashMap::new(),
                    seen: HashSet::new(),
                    seen_order: VecDeque::new(),
                    crashed: Arc::clone(&crashed),
                    link: Arc::clone(&links[i]),
                    counters: Arc::clone(&counters),
                    rng: SeededRng::new(fault_seed.wrapping_add(i as u64)),
                    jitter: config
                        .jitter_seed
                        .map(|seed| SeededRng::new(seed.wrapping_add(i as u64))),
                };
                let panic_flag = Arc::clone(&panicked);
                let thread = std::thread::Builder::new()
                    .name(format!("abd-replica-{i}"))
                    .spawn(move || {
                        let _guard = PanicFlag(panic_flag);
                        let mut held: Vec<(Request, u32)> = Vec::new();
                        loop {
                            // While messages are held back, poll with a
                            // short timeout so reordering can never stall
                            // a quiescent system.
                            let next = if held.is_empty() {
                                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
                            } else {
                                rx.recv_timeout(HOLDBACK_IDLE_FLUSH)
                            };
                            match next {
                                Ok(Request::Shutdown) => {
                                    core.flush_holdback(&mut held);
                                    break;
                                }
                                Ok(request) => {
                                    core.age_holdback(&mut held);
                                    core.admit(&mut held, request);
                                }
                                Err(RecvTimeoutError::Timeout) => {
                                    core.age_holdback(&mut held);
                                }
                                Err(RecvTimeoutError::Disconnected) => {
                                    core.flush_holdback(&mut held);
                                    break;
                                }
                            }
                        }
                    })
                    .expect("spawning replica thread");
                Replica {
                    inbox: tx,
                    crashed,
                    thread: Some(thread),
                }
            })
            .collect();
        Network {
            replicas,
            links,
            next_register: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
            counters,
            registry,
            trace: config.trace,
            op_timeout: config.op_timeout,
            retry: config.retry,
            panicked,
            marked_failed: AtomicBool::new(false),
        }
    }

    /// Total client-to-replica messages sent so far (initial broadcasts
    /// and retransmissions).
    pub fn messages_sent(&self) -> u64 {
        self.counters.snapshot().messages_sent
    }

    /// A snapshot of all fault and traffic counters.
    pub fn stats(&self) -> NetworkStats {
        self.counters.snapshot()
    }

    /// A snapshot of the per-operation quorum-phase latency histogram.
    pub fn quorum_latency(&self) -> LatencySnapshot {
        self.counters.latency_snapshot()
    }

    /// The metrics registry carrying this network's `abd.*` metrics
    /// (shared if one was installed via [`NetworkConfig::with_registry`],
    /// private otherwise).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The trace receiving this network's quorum-phase events (disabled
    /// unless one was installed via [`NetworkConfig::with_trace`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Size of a majority quorum.
    pub fn quorum(&self) -> usize {
        self.replicas.len() / 2 + 1
    }

    /// Maximum number of simultaneous crashes the network tolerates while
    /// staying live.
    pub fn fault_tolerance(&self) -> usize {
        self.replicas.len() - self.quorum()
    }

    /// The configured per-operation quorum timeout.
    pub fn op_timeout(&self) -> Duration {
        self.op_timeout
    }

    /// The configured retransmission policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Crashes replica `index`: it stops responding until
    /// [`Network::restart`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn crash(&self, index: usize) {
        self.replicas[index].crashed.store(true, Ordering::Release);
    }

    /// Restarts a crashed replica (state intact).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn restart(&self, index: usize) {
        self.replicas[index].crashed.store(false, Ordering::Release);
    }

    /// Symmetrically partitions the listed replicas away: requests to them
    /// and replies from them are discarded until [`Network::heal`].
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn partition(&self, replicas: &[usize]) {
        for &i in replicas {
            self.links[i].cut_inbound.store(true, Ordering::Release);
            self.links[i].cut_outbound.store(true, Ordering::Release);
        }
    }

    /// Asymmetrically partitions the listed replicas: requests to them are
    /// discarded, but replies they still owe can get out.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn partition_inbound(&self, replicas: &[usize]) {
        for &i in replicas {
            self.links[i].cut_inbound.store(true, Ordering::Release);
        }
    }

    /// Clears every partition cut (crashes and link faults are untouched).
    pub fn heal(&self) {
        for link in &self.links {
            link.cut_inbound.store(false, Ordering::Release);
            link.cut_outbound.store(false, Ordering::Release);
        }
    }

    /// Replaces replica `index`'s link-fault policy.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_fault(&self, index: usize, fault: LinkFault) {
        self.links[index].set_fault(fault);
    }

    /// Replaces every link's fault policy.
    pub fn set_fault_all(&self, fault: LinkFault) {
        for link in &self.links {
            link.set_fault(fault.clone());
        }
    }

    /// True if the fleet is failed: a replica thread panicked, or
    /// [`poison`](Self::poison) was called. Every register operation on a
    /// poisoned network fails fast with
    /// [`AbdError::NetworkPoisoned`](crate::AbdError::NetworkPoisoned)
    /// instead of burning its retry/timeout budget. Thread panics are
    /// additionally escalated to a panic when the network is dropped, so a
    /// poisoned replica fleet cannot silently pass a test.
    pub fn poisoned(&self) -> bool {
        self.panicked.load(Ordering::Acquire) || self.marked_failed.load(Ordering::Acquire)
    }

    /// Marks the fleet as permanently failed: every subsequent register
    /// operation fails fast with
    /// [`AbdError::NetworkPoisoned`](crate::AbdError::NetworkPoisoned).
    ///
    /// There is no un-poison — this models an unrecoverable deployment
    /// fault (as opposed to [`partition`](Self::partition)/
    /// [`crash`](Self::crash), which [`heal`](Self::heal)/
    /// [`restart`](Self::restart) undo). Tests use it to pin down the
    /// fail-fast contract without having to panic a replica thread.
    pub fn poison(&self) {
        self.marked_failed.store(true, Ordering::Release);
    }

    /// Allocates a fresh register id.
    pub(crate) fn allocate_register(&self) -> RegisterId {
        RegisterId(self.next_register.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a fresh request id for one quorum phase.
    pub(crate) fn fresh_request_id(&self) -> RequestId {
        RequestId(self.next_request.fetch_add(1, Ordering::Relaxed))
    }

    /// Sends `make()` to every replica for which `include` holds; returns
    /// how many were sent.
    pub(crate) fn send_where(
        &self,
        mut include: impl FnMut(usize) -> bool,
        make: impl Fn() -> Request,
    ) -> usize {
        let mut sent = 0usize;
        for (i, replica) in self.replicas.iter().enumerate() {
            if include(i) {
                let _ = replica.inbox.send(make());
                sent += 1;
            }
        }
        self.counters.messages_sent.add(sent as u64);
        sent
    }

    /// Counts client retransmissions (per replica re-contacted).
    pub(crate) fn note_retries(&self, n: u64) {
        self.counters.retries.add(n);
    }

    /// Records one completed quorum phase's latency.
    pub(crate) fn record_quorum_latency(&self, elapsed: Duration) {
        self.counters.record_quorum_latency(elapsed);
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        for replica in &self.replicas {
            let _ = replica.inbox.send(Request::Shutdown);
        }
        for replica in &mut self.replicas {
            if let Some(thread) = replica.thread.take() {
                if thread.join().is_err() {
                    self.panicked.store(true, Ordering::Release);
                }
            }
        }
        if self.panicked.load(Ordering::Acquire) {
            if std::thread::panicking() {
                eprintln!("abd: a replica thread panicked (while already unwinding)");
            } else {
                panic!("abd: a replica thread panicked; see stderr for its message");
            }
        }
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("replicas", &self.replicas.len())
            .field("quorum", &self.quorum())
            .field("stats", &self.stats())
            .finish()
    }
}

/// One in-flight quorum phase on the simulated network: a private reply
/// inbox, with the request id stamped on every (re)transmission so
/// replicas dedupe.
struct SimPhase<'a> {
    net: &'a Network,
    id: RequestId,
    request: Arc<PhaseRequest>,
    inbox: Arc<ReplyInbox>,
}

impl Phase for SimPhase<'_> {
    fn send_where(&mut self, include: &mut dyn FnMut(usize) -> bool) -> usize {
        self.net.send_where(include, || Request::Phase {
            id: self.id,
            request: Arc::clone(&self.request),
            reply: Arc::clone(&self.inbox),
        })
    }

    fn recv_deadline(&mut self, deadline: std::time::Instant) -> Option<Reply> {
        self.inbox.recv_deadline(deadline)
    }
}

/// The simulated network **is** a transport: the same quorum engine that
/// runs over real sockets runs here, with the fault-injection plane
/// (drops, duplication, reorder, delay, crash, partition) underneath.
impl Transport for Network {
    fn replicas(&self) -> usize {
        Network::replicas(self)
    }

    fn kind(&self) -> &'static str {
        "sim"
    }

    fn op_timeout(&self) -> Duration {
        Network::op_timeout(self)
    }

    fn retry_policy(&self) -> &RetryPolicy {
        Network::retry_policy(self)
    }

    fn registry(&self) -> &Arc<Registry> {
        Network::registry(self)
    }

    fn trace(&self) -> &Trace {
        Network::trace(self)
    }

    fn poisoned(&self) -> bool {
        Network::poisoned(self)
    }

    fn allocate_register(&self) -> RegisterId {
        Network::allocate_register(self)
    }

    fn fresh_request_id(&self) -> RequestId {
        Network::fresh_request_id(self)
    }

    fn begin_phase(&self, id: RequestId, request: PhaseRequest) -> Box<dyn Phase + '_> {
        Box::new(SimPhase {
            net: self,
            id,
            request: Arc::new(request),
            inbox: Arc::new(ReplyInbox::new(self.quorum())),
        })
    }

    fn note_retries(&self, n: u64) {
        Network::note_retries(self, n)
    }

    fn record_quorum_latency(&self, elapsed: Duration) {
        Network::record_quorum_latency(self, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_arithmetic() {
        for (r, q, f) in [
            (1, 1, 0),
            (2, 2, 0),
            (3, 2, 1),
            (4, 3, 1),
            (5, 3, 2),
            (7, 4, 3),
        ] {
            let net = Network::new(r);
            assert_eq!(net.quorum(), q, "replicas {r}");
            assert_eq!(net.fault_tolerance(), f, "replicas {r}");
        }
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let net = Network::new(5);
        assert!(!net.poisoned());
        drop(net);
    }

    #[test]
    fn register_ids_are_unique() {
        let net = Network::new(1);
        let a = net.allocate_register();
        let b = net.allocate_register();
        assert_ne!(a, b);
        assert_ne!(net.fresh_request_id(), net.fresh_request_id());
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
    fn partitions_cut_and_heal() {
        let net = Network::new(3);
        net.partition(&[0, 2]);
        assert!(net.links[0].cut_inbound.load(Ordering::Acquire));
        assert!(net.links[0].cut_outbound.load(Ordering::Acquire));
        assert!(!net.links[1].cut_inbound.load(Ordering::Acquire));
        net.heal();
        assert!(!net.links[0].cut_inbound.load(Ordering::Acquire));
        net.partition_inbound(&[1]);
        assert!(net.links[1].cut_inbound.load(Ordering::Acquire));
        assert!(!net.links[1].cut_outbound.load(Ordering::Acquire));
        net.heal();
    }

    #[test]
    fn dedup_window_forgets_oldest() {
        let mut core = ReplicaCore {
            index: 0,
            store: HashMap::new(),
            seen: HashSet::new(),
            seen_order: VecDeque::new(),
            crashed: Arc::new(AtomicBool::new(false)),
            link: Arc::new(LinkState::new(LinkFault::healthy())),
            counters: Arc::new(Counters::default()),
            rng: SeededRng::new(0),
            jitter: None,
        };
        assert!(core.note_seen(RequestId(0)));
        assert!(!core.note_seen(RequestId(0)), "immediate retry is a dup");
        for i in 1..=DEDUP_WINDOW as u64 {
            assert!(core.note_seen(RequestId(i)));
        }
        assert!(
            core.note_seen(RequestId(0)),
            "ids beyond the window are forgotten (and re-applying is safe)"
        );
    }
}
