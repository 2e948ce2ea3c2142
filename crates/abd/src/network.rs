use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use snapshot_obs::{Registry, Trace};
use snapshot_registers::SeededRng;
use snapshot_wire::DedupWindow;

use crate::fault::{FaultPlan, LinkFault};
use crate::message::{Request, RequestId};
use crate::stats::{Counters, LatencySnapshot, NetworkStats};
use crate::transport::{
    EngineState, Payload, Phase, PhaseRequest, Reply, ReplyBody, ReplyInbox, RetryPolicy, Transport,
};
use crate::{RegisterId, Tag};

/// How long a replica with held-back (reordered) messages waits for new
/// traffic before releasing them anyway, so reordering can never stall a
/// quiescent system.
const HOLDBACK_IDLE_FLUSH: Duration = Duration::from_millis(1);

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
    seen: DedupWindow,
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
                self.seen.insert(id.0);
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
                if self.seen.insert(id.0) {
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
    engine: EngineState,
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
        let engine = EngineState::new(
            "sim",
            config.op_timeout,
            config.retry,
            config.registry,
            config.trace,
        );
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
                    seen: DedupWindow::default(),
                    crashed: Arc::clone(&crashed),
                    link: Arc::clone(&links[i]),
                    counters: Arc::clone(&engine.counters),
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
            engine,
            panicked,
            marked_failed: AtomicBool::new(false),
        }
    }

    /// Total client-to-replica messages sent so far (initial broadcasts
    /// and retransmissions).
    pub fn messages_sent(&self) -> u64 {
        self.engine.counters.messages_sent.get()
    }

    /// A snapshot of all fault and traffic counters.
    pub fn stats(&self) -> NetworkStats {
        self.engine.counters.snapshot()
    }

    /// A snapshot of the per-operation quorum-phase latency histogram.
    pub fn quorum_latency(&self) -> LatencySnapshot {
        self.engine.counters.latency_snapshot()
    }

    /// The metrics registry carrying this network's `abd.*` metrics
    /// (shared if one was installed via [`NetworkConfig::with_registry`],
    /// private otherwise).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.engine.registry
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

/// One in-flight quorum phase on the simulated network: the request id
/// stamped on every (re)transmission so replicas dedupe, and the inbox
/// every copy's reply goes to.
struct SimPhase<'a> {
    net: &'a Network,
    id: RequestId,
    request: Arc<PhaseRequest>,
    inbox: Arc<ReplyInbox>,
}

impl Phase for SimPhase<'_> {
    fn send_where(&mut self, include: &mut dyn FnMut(usize) -> bool) -> usize {
        let mut sent = 0usize;
        for (i, replica) in self.net.replicas.iter().enumerate() {
            if include(i) {
                let _ = replica.inbox.send(Request::Phase {
                    id: self.id,
                    request: Arc::clone(&self.request),
                    reply: Arc::clone(&self.inbox),
                });
                sent += 1;
            }
        }
        self.net.engine.counters.messages_sent.add(sent as u64);
        sent
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

    fn poisoned(&self) -> bool {
        Network::poisoned(self)
    }

    fn engine(&self) -> &EngineState {
        &self.engine
    }

    fn begin_phase(
        &self,
        id: RequestId,
        request: PhaseRequest,
        inbox: Arc<ReplyInbox>,
    ) -> Box<dyn Phase + '_> {
        Box::new(SimPhase {
            net: self,
            id,
            request: Arc::new(request),
            inbox,
        })
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
}
