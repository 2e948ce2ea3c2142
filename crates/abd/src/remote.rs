//! The real transport: the ABD quorum engine over TCP or Unix-domain
//! sockets, against `snapshotd` replica processes.
//!
//! [`RemoteTransport`] is the wire twin of the simulated
//! [`Network`](crate::Network): it implements the same [`Transport`]
//! seam, reports under the same `abd.*` metric keys (plus `abd.wire.*`
//! connection counters and the `abd.transport.<kind>` gauge) and feeds
//! the same trace events, so the full client stack — registers, snapshot
//! cores, the service front-end with its breakers and deadlines — runs
//! unchanged over real sockets.
//!
//! # Connection management
//!
//! The thread running a quorum phase frames its request once and writes
//! it to each addressed replica's socket itself, under that connection's
//! write lock: one `write` per frame, no queue, no hand-off. One
//! *connection thread* per replica does the rest, for the transport's
//! lifetime:
//!
//! * **dial → handshake** — open the socket, send [`Frame::Hello`],
//!   await [`Frame::HelloAck`] under a short read timeout, check the
//!   protocol version, then publish the write half;
//! * **connected** — read reply frames through a buffer and route each to
//!   the waiting phase by request id;
//! * **disconnected** — once the read ends (EOF, an error, damaged
//!   framing, or a writer that shut a broken stream down), take the write
//!   half back, count `abd.wire.disconnects`, and redial under capped
//!   exponential backoff. A frame addressed to a replica with no write
//!   half is *dropped* (counted as `abd.messages_dropped` — exactly the
//!   lossy-link accounting of the simulated network; the engine's
//!   retransmissions mask the loss).
//!
//! A write blocks only on a replica that stopped reading long enough to
//! fill its socket buffer, and then for one write timeout at most. A
//! failed, timed-out or short write leaves the stream misaligned, so the
//! writer shuts the connection down, which ends the connection thread's
//! read. A phase holds at most one connection's write lock at a time, and
//! never together with the reply-route lock.
//!
//! Because `snapshotd` dedupes stores per connection by request id and
//! re-answers every query delivery, the engine's retransmissions are as
//! idempotent here as on the simulated network. Liveness needs a majority
//! of replicas reachable; a phase issued while more are down fails with
//! [`AbdError::QuorumUnavailable`](crate::AbdError::QuorumUnavailable)
//! after the operation timeout, and succeeds again once the fleet heals —
//! the paper's Section 6 resilience boundary, now with real faults.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snapshot_obs::{Counter, Event, Registry, Trace};
use snapshot_wire::{
    encode_frame, read_frame, write_frame, Endpoint, ErrorCode, Frame, FrameIoError, FrameRead,
    StoreEntry, WireStream, WireTag, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};

use crate::message::{RequestId, Tag};
use crate::stats::{Counters, LatencySnapshot, NetworkStats};
use crate::transport::{
    EngineState, Payload, Phase, PhaseRequest, Reply, ReplyBody, ReplyInbox, RetryPolicy,
    Transport,
};

/// Reply routes of the phases in flight, by request id.
type Pending = Arc<Mutex<HashMap<u64, Arc<ReplyInbox>>>>;

/// How long the handshake may wait for the replica's `HelloAck`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a write may block on a replica that stopped reading before
/// the connection counts as dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Configuration of a [`RemoteTransport`].
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// The replica endpoints, in cluster order (quorum math is
    /// positional: endpoint `i` is replica `i`).
    pub endpoints: Vec<Endpoint>,
    /// How long a quorum phase may wait (across all its retries) before
    /// concluding the majority is unreachable.
    pub op_timeout: Duration,
    /// Retransmission backoff policy for quorum phases.
    pub retry: RetryPolicy,
    /// First redial backoff after a connection drops.
    pub redial_initial: Duration,
    /// Redial backoff cap.
    pub redial_max: Duration,
    /// Largest frame accepted from a replica (and sent to one).
    pub max_frame: u32,
    /// Metrics registry for the `abd.*` and `abd.wire.*` metrics. `None`
    /// gives the transport a private registry.
    pub registry: Option<Arc<Registry>>,
    /// Trace receiving quorum-phase and connection lifecycle events.
    pub trace: Trace,
    /// Client identity sent in the handshake (diagnostics only).
    pub client: u32,
}

impl RemoteConfig {
    /// A configuration for `endpoints` with a 10-second operation
    /// timeout, default retransmission policy, and 50ms→2s redial
    /// backoff.
    pub fn new(endpoints: Vec<Endpoint>) -> Self {
        RemoteConfig {
            endpoints,
            op_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            redial_initial: Duration::from_millis(50),
            redial_max: Duration::from_secs(2),
            max_frame: DEFAULT_MAX_FRAME,
            registry: None,
            trace: Trace::disabled(),
            client: std::process::id(),
        }
    }

    /// Parses `tcp:HOST:PORT` / `uds:PATH` address strings into a
    /// configuration (the format of [`Endpoint::parse`]).
    pub fn parse<S: AsRef<str>>(addrs: &[S]) -> Result<Self, String> {
        let endpoints = addrs
            .iter()
            .map(|a| Endpoint::parse(a.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(endpoints))
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

    /// Sets the redial backoff range.
    pub fn with_redial(mut self, initial: Duration, max: Duration) -> Self {
        self.redial_initial = initial;
        self.redial_max = max;
        self
    }

    /// Sets the maximum accepted frame size.
    pub fn with_max_frame(mut self, max: u32) -> Self {
        self.max_frame = max;
        self
    }

    /// Registers the transport's counters on a shared metrics registry.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches a trace for quorum-phase and connection events.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the client identity sent in the handshake.
    pub fn with_client(mut self, client: u32) -> Self {
        self.client = client;
        self
    }
}

/// Wire-specific connection counters, registered under `abd.wire.*`.
#[derive(Clone)]
struct WireCounters {
    dials: Counter,
    connects: Counter,
    disconnects: Counter,
    frames_in: Counter,
    protocol_errors: Counter,
    oversize_dropped: Counter,
    handshake_failures: Counter,
}

impl WireCounters {
    fn new(registry: &Registry) -> Self {
        WireCounters {
            dials: registry.counter("abd.wire.dials"),
            connects: registry.counter("abd.wire.connects"),
            disconnects: registry.counter("abd.wire.disconnects"),
            frames_in: registry.counter("abd.wire.frames_in"),
            protocol_errors: registry.counter("abd.wire.protocol_errors"),
            oversize_dropped: registry.counter("abd.wire.oversize_dropped"),
            handshake_failures: registry.counter("abd.wire.handshake_failures"),
        }
    }
}

/// State shared between the transport, the phases writing to one
/// replica, and that replica's connection thread.
struct ConnShared {
    replica: usize,
    endpoint: Endpoint,
    /// The write half of the live connection; `None` while the replica
    /// is down. Held for one frame's write at a time.
    writer: Mutex<Option<WireStream>>,
    /// Set once, when the transport is dropped.
    closing: AtomicBool,
    pending: Pending,
    counters: Arc<Counters>,
    wire: WireCounters,
    trace: Trace,
    max_frame: u32,
    client: u32,
    redial_initial: Duration,
    redial_max: Duration,
}

impl ConnShared {
    fn writer(&self) -> MutexGuard<'_, Option<WireStream>> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes one framed request to the replica in one `write`, or drops
    /// (and counts) it while the replica is down. An error, the write
    /// timeout or a short write leaves the stream misaligned, so it also
    /// takes the connection down — and bounds the wait by one timeout.
    fn send(&self, framed: &[u8]) {
        let mut writer = self.writer();
        let written = writer
            .as_mut()
            .is_some_and(|stream| matches!(stream.write(framed), Ok(n) if n == framed.len()));
        if !written {
            self.counters.messages_dropped.inc();
            if let Some(stream) = writer.take() {
                stream.shutdown();
            }
        }
    }

    /// Takes the write half back and shuts the connection down, which
    /// ends the connection thread's read (a no-op once a failed write or
    /// the transport's drop has already done it).
    fn hang_up(&self) {
        if let Some(stream) = self.writer().take() {
            stream.shutdown();
        }
    }

    /// Routes reply frames to the waiting phases until the connection
    /// dies.
    fn route_replies(&self, stream: WireStream) {
        let mut stream = BufReader::new(stream);
        loop {
            match read_frame(&mut stream, self.max_frame) {
                Ok(FrameRead::Frame(body)) => {
                    if let Ok(frame) = Frame::decode(&body) {
                        self.route(frame);
                        continue;
                    }
                }
                Ok(FrameRead::Eof) | Err(FrameIoError::Io(_)) => return,
                Err(FrameIoError::Corrupt { .. } | FrameIoError::TooLarge { .. }) => {}
            }
            // Damaged framing or an undecodable body: the stream is
            // desynced, and nothing after it can be trusted.
            self.wire.protocol_errors.inc();
            return;
        }
    }

    /// Routes a decoded reply frame to the phase waiting on its request
    /// id (a phase that already finished simply no longer has a route —
    /// late and duplicate replies are discarded here).
    fn route(&self, frame: Frame) {
        self.wire.frames_in.inc();
        let (id, body) = match frame {
            Frame::QueryReply { id, values } => {
                let values = values.into_iter().map(|(tag, value)| {
                    let tag = Tag {
                        seq: tag.seq,
                        writer: tag.writer as usize,
                    };
                    (tag, value.map(|v| Payload::Bytes(v.into())))
                });
                (id, ReplyBody::Values(values.collect()))
            }
            Frame::StoreAck { id } => (id, ReplyBody::Ack),
            Frame::Error { id, code, detail } if id != 0 => (
                id,
                ReplyBody::Error {
                    too_large: code == ErrorCode::TooLarge,
                    detail: format!("{code}: {detail}"),
                },
            ),
            // An Error with id 0 (the request's id was unreadable), or a
            // request-direction frame arriving at a client: a protocol
            // anomaly, counted but not fatal to other in-flight phases.
            _ => {
                self.wire.protocol_errors.inc();
                return;
            }
        };
        let route = self.pending.lock().expect("pending route map").get(&id).cloned();
        if let Some(inbox) = route {
            inbox.push(Reply {
                from: self.replica,
                body,
            });
        }
    }
}

/// Dials and handshakes one connection; returns its write half and its
/// read half. A socket that opened but failed the handshake is counted
/// under `abd.wire.handshake_failures`: a refused dial is a replica that
/// is down (expected under crash faults), a failed handshake points at
/// protocol trouble or a hostile middlebox.
fn connect(shared: &ConnShared) -> Option<(WireStream, WireStream)> {
    let mut stream = shared.endpoint.dial().ok()?;
    let reader = stream.try_clone().ok()?;
    if handshake(&mut stream, shared).is_none() {
        shared.wire.handshake_failures.inc();
        return None;
    }
    Some((stream, reader))
}

/// Sends `Hello` and awaits `HelloAck` under a short read timeout. A
/// version mismatch, a typed refusal (`Frame::Error`), damaged bytes and
/// a replica that closes mid-handshake all fail it alike.
fn handshake(stream: &mut WireStream, shared: &ConnShared) -> Option<()> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok()?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok()?;
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client: shared.client,
    };
    write_frame(stream, &hello.encode(), shared.max_frame).ok()?;
    let Ok(FrameRead::Frame(body)) = read_frame(stream, shared.max_frame) else {
        return None;
    };
    match Frame::decode(&body) {
        Ok(Frame::HelloAck { version, .. }) if version == PROTOCOL_VERSION => {
            stream.set_read_timeout(None).ok()
        }
        _ => None,
    }
}

/// The connection thread for one replica: dial → handshake → publish the
/// write half → route replies until the connection dies, then take the
/// write half back, count the drop and redial under capped backoff.
fn connection_loop(shared: &ConnShared) {
    let mut attempt: u32 = 0;
    let mut backoff = shared.redial_initial;
    while !shared.closing.load(Ordering::Acquire) {
        attempt += 1;
        shared.wire.dials.inc();
        shared.trace.emit(
            shared.replica,
            Event::TransportDial {
                replica: shared.replica,
                attempt,
            },
        );
        let Some((stream, reader)) = connect(shared) else {
            // Sit out the backoff; the transport's drop cuts it short by
            // unparking this thread.
            let until = Instant::now() + backoff;
            while !shared.closing.load(Ordering::Acquire) && Instant::now() < until {
                std::thread::park_timeout(until.saturating_duration_since(Instant::now()));
            }
            backoff = (backoff * 2).min(shared.redial_max);
            continue;
        };
        {
            // Checked under the write lock the transport's drop takes, so
            // a drop cannot miss a connection published after its check.
            let mut writer = shared.writer();
            if shared.closing.load(Ordering::Acquire) {
                stream.shutdown();
                return;
            }
            *writer = Some(stream);
        }
        shared.wire.connects.inc();
        shared.trace.emit(
            shared.replica,
            Event::TransportConnected {
                replica: shared.replica,
                attempt,
            },
        );
        attempt = 0;
        backoff = shared.redial_initial;
        shared.route_replies(reader);
        shared.hang_up();
        if shared.closing.load(Ordering::Acquire) {
            return;
        }
        shared.wire.disconnects.inc();
        shared.trace.emit(
            shared.replica,
            Event::TransportDropped {
                replica: shared.replica,
            },
        );
    }
}

/// The ABD transport over real sockets: one persistent, self-healing
/// connection per `snapshotd` replica (`remote.rs`'s module docs describe
/// the connection life cycle).
pub struct RemoteTransport {
    conns: Vec<Arc<ConnShared>>,
    /// Each replica's connection thread, in cluster order.
    threads: Vec<JoinHandle<()>>,
    kind: &'static str,
    max_frame: u32,
    engine: EngineState,
    pending: Pending,
}

impl RemoteTransport {
    /// Spawns the connection threads and returns immediately; dialing
    /// proceeds in the background (use [`wait_connected`] to await a
    /// quorum before issuing traffic, or just issue it — the engine's
    /// retries absorb the connection ramp).
    ///
    /// [`wait_connected`]: RemoteTransport::wait_connected
    ///
    /// # Panics
    ///
    /// Panics if `config.endpoints` is empty.
    pub fn connect(config: RemoteConfig) -> Self {
        assert!(
            !config.endpoints.is_empty(),
            "a remote transport needs at least one replica endpoint"
        );
        let first = config.endpoints[0].kind();
        let same = config.endpoints.iter().all(|e| e.kind() == first);
        let kind = if same { first } else { "mixed" };
        let engine =
            EngineState::new(kind, config.op_timeout, config.retry, config.registry, config.trace);
        let wire = WireCounters::new(&engine.registry);
        let pending = Pending::default();
        let (conns, threads) = config
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, endpoint)| {
                let shared = Arc::new(ConnShared {
                    replica: i,
                    endpoint: endpoint.clone(),
                    writer: Mutex::new(None),
                    closing: AtomicBool::new(false),
                    pending: Arc::clone(&pending),
                    counters: Arc::clone(&engine.counters),
                    wire: wire.clone(),
                    trace: engine.trace.clone(),
                    max_frame: config.max_frame,
                    client: config.client,
                    redial_initial: config.redial_initial,
                    redial_max: config.redial_max,
                });
                let thread = {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("abd-wire-{i}"))
                        .spawn(move || connection_loop(&shared))
                        .expect("spawning wire connection thread")
                };
                (shared, thread)
            })
            .unzip();
        RemoteTransport {
            conns,
            threads,
            kind,
            max_frame: config.max_frame,
            engine,
            pending,
        }
    }

    /// How many replicas currently hold a handshaken connection.
    pub fn connected_replicas(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.writer().is_some())
            .count()
    }

    /// Waits until at least `need` replicas are connected, up to
    /// `timeout`; returns whether the bar was reached.
    pub fn wait_connected(&self, need: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.connected_replicas() >= need {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The metrics registry carrying this transport's `abd.*` and
    /// `abd.wire.*` metrics.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.engine.registry
    }

    /// A snapshot of the `abd.*` traffic counters (sent, dropped,
    /// retries, …) — same view the simulated network offers.
    pub fn stats(&self) -> NetworkStats {
        self.engine.counters.snapshot()
    }

    /// A snapshot of the per-operation quorum-phase latency histogram.
    pub fn quorum_latency(&self) -> LatencySnapshot {
        self.engine.counters.latency_snapshot()
    }
}

impl Drop for RemoteTransport {
    fn drop(&mut self) {
        // Flag, hang up (ending a read) and unpark (ending a backoff)
        // every connection first, so the joins run concurrently.
        for (conn, thread) in self.conns.iter().zip(&self.threads) {
            conn.closing.store(true, Ordering::Release);
            conn.hang_up();
            thread.thread().unpark();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl fmt::Debug for RemoteTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteTransport")
            .field("kind", &self.kind)
            .field("replicas", &self.conns.len())
            .field("connected", &self.connected_replicas())
            .field("stats", &self.stats())
            .finish()
    }
}

/// One in-flight quorum phase on the wire: the request framed once for
/// every replica, and the phase's reply inbox, routed by request id
/// (which also takes the synthetic refusals of a frame that exceeds the
/// wire cap).
struct RemotePhase<'a> {
    transport: &'a RemoteTransport,
    id: RequestId,
    /// The framed request, or why it cannot be framed (over the cap).
    framed: Result<Arc<[u8]>, FrameIoError>,
    inbox: Arc<ReplyInbox>,
}

impl Drop for RemotePhase<'_> {
    fn drop(&mut self) {
        self.transport
            .pending
            .lock()
            .expect("pending route map")
            .remove(&self.id.0);
    }
}

impl Phase for RemotePhase<'_> {
    fn send_where(&mut self, include: &mut dyn FnMut(usize) -> bool) -> usize {
        let mut sent = 0usize;
        for (i, conn) in self.transport.conns.iter().enumerate() {
            if !include(i) {
                continue;
            }
            sent += 1;
            match &self.framed {
                Ok(framed) => conn.send(framed),
                // A frame over the wire cap can never be sent. Don't churn
                // the healthy connection — answer with a typed refusal
                // (which never counts toward a quorum, and tells the
                // engine to try a smaller batch) and count the drop.
                Err(refusal) => {
                    self.transport.engine.counters.messages_dropped.inc();
                    conn.wire.oversize_dropped.inc();
                    self.inbox.push(Reply {
                        from: i,
                        body: ReplyBody::Error {
                            too_large: true,
                            detail: format!("request refused locally: {refusal}"),
                        },
                    });
                }
            }
        }
        if self.framed.is_ok() {
            self.transport.engine.counters.messages_sent.add(sent as u64);
        }
        sent
    }
}

impl Transport for RemoteTransport {
    fn replicas(&self) -> usize {
        self.conns.len()
    }

    fn kind(&self) -> &'static str {
        self.kind
    }

    fn requires_bytes(&self) -> bool {
        true
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
        let frame = match &request {
            PhaseRequest::Query { registers } => Frame::Query {
                id: id.0,
                registers: registers.iter().map(|r| r.lane_segment()).collect(),
            },
            PhaseRequest::Store { entries } => Frame::Store {
                id: id.0,
                entries: entries
                    .iter()
                    .map(|(register, tag, payload)| {
                        let (lane, segment) = register.lane_segment();
                        // Writer ids above u32 would alias on the wire and
                        // corrupt tag tie-break ordering; refuse loudly
                        // rather than truncate silently.
                        let writer = u32::try_from(tag.writer)
                            .expect("writer id exceeds the wire format's u32 range");
                        let value = payload
                            .as_bytes()
                            .expect("wire transports carry only Payload::Bytes (requires_bytes)");
                        let tag = WireTag { seq: tag.seq, writer };
                        StoreEntry { lane, segment, tag, value: value.to_vec() }
                    })
                    .collect(),
            },
        };
        let framed = encode_frame(&frame.encode(), self.max_frame).map(Arc::from);
        self.pending
            .lock()
            .expect("pending route map")
            .insert(id.0, Arc::clone(&inbox));
        Box::new(RemotePhase {
            transport: self,
            id,
            framed,
            inbox,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegisterId;
    use snapshot_registers::ProcessId;
    use snapshot_wire::{ReplicaServer, ServerConfig};

    const P0: ProcessId = ProcessId::new(0);
    const P1: ProcessId = ProcessId::new(1);

    fn uds_endpoint(name: &str) -> Endpoint {
        let mut path = std::env::temp_dir();
        path.push(format!("abd-remote-test-{}-{name}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Endpoint::Uds(path)
    }

    fn spawn_cluster(tag: &str, n: usize) -> (Vec<ReplicaServer>, Vec<Endpoint>) {
        let mut servers = Vec::new();
        let mut endpoints = Vec::new();
        for i in 0..n {
            let server =
                ReplicaServer::spawn(ServerConfig::new(uds_endpoint(&format!("{tag}{i}")), i as u32))
                    .expect("spawning replica server");
            endpoints.push(server.endpoint().clone());
            servers.push(server);
        }
        (servers, endpoints)
    }

    #[test]
    fn connects_and_serves_register_traffic_over_uds() {
        let (servers, endpoints) = spawn_cluster("basic", 3);
        let transport = Arc::new(RemoteTransport::connect(
            RemoteConfig::new(endpoints).with_op_timeout(Duration::from_secs(5)),
        ));
        assert!(transport.wait_connected(3, Duration::from_secs(5)));
        assert_eq!(transport.kind(), "uds");

        let reg = crate::AbdRegister::with_wire_codec(
            Arc::clone(&transport) as Arc<dyn Transport>,
            RegisterId::from_lane_segment(0, 0),
            0u64,
        );
        for k in 1..=5u64 {
            reg.try_write(P0, k).expect("write over uds");
            assert_eq!(reg.try_read(P1).expect("read over uds"), k);
        }
        assert!(transport.stats().messages_sent > 0);
        drop(reg);
        drop(transport);
        drop(servers);
    }

    #[test]
    fn oversized_store_is_refused_without_churning_connections() {
        let (servers, endpoints) = spawn_cluster("oversize", 3);
        let transport = Arc::new(RemoteTransport::connect(
            RemoteConfig::new(endpoints)
                .with_op_timeout(Duration::from_millis(200))
                .with_max_frame(256),
        ));
        assert!(transport.wait_connected(3, Duration::from_secs(5)));

        let reg = crate::AbdRegister::with_wire_codec(
            Arc::clone(&transport) as Arc<dyn Transport>,
            RegisterId::from_lane_segment(2, 0),
            String::new(),
        );
        // A value far over the 256-byte wire cap: the phase must fail
        // typed (not hang), and the healthy connections must survive.
        let err = reg
            .try_write(P0, "x".repeat(4096))
            .expect_err("oversized value cannot fit a frame");
        assert!(
            matches!(err, crate::AbdError::QuorumUnavailable { .. }),
            "{err:?}"
        );
        assert_eq!(transport.connected_replicas(), 3, "connections must stay up");
        assert_eq!(
            transport.registry().counter("abd.wire.disconnects").get(),
            0,
            "an oversized frame must not tear a connection down"
        );
        assert!(
            transport
                .registry()
                .counter("abd.wire.oversize_dropped")
                .get()
                > 0
        );

        // Small values still flow over the same connections.
        reg.try_write(P0, String::from("ok"))
            .expect("small write after the refusal");
        assert_eq!(reg.try_read(P1).expect("read after the refusal"), "ok");
        drop(reg);
        drop(transport);
        drop(servers);
    }

    #[test]
    fn a_replica_that_stops_reading_costs_its_connection_not_the_quorum() {
        let (_servers, mut endpoints) = spawn_cluster("stuck", 2);
        // Replica 2 handshakes, then never reads again.
        let listener = uds_endpoint("stuck-mute").bind().expect("binding the mute replica");
        endpoints.push(listener.local_endpoint().expect("mute replica endpoint"));
        let transport = Arc::new(RemoteTransport::connect(RemoteConfig::new(endpoints)));
        let mut mute = listener.accept().expect("accepting the client");
        let _hello = read_frame(&mut mute, DEFAULT_MAX_FRAME);
        let ack = Frame::HelloAck { version: PROTOCOL_VERSION, replica: 2 };
        write_frame(&mut mute, &ack.encode(), DEFAULT_MAX_FRAME).expect("acking the hello");
        assert!(transport.wait_connected(3, Duration::from_secs(5)));
        let reg = crate::AbdRegister::with_wire_codec(
            Arc::clone(&transport) as Arc<dyn Transport>,
            RegisterId::from_lane_segment(3, 0),
            String::new(),
        );

        // 64 KiB values: a few stores fill the mute replica's socket
        // buffer, and the write that finds it full gives up after the
        // write timeout instead of holding the phase.
        let mut k = 0;
        while transport.connected_replicas() == 3 {
            k += 1;
            assert!(k <= 64, "64 stores of 64 KiB never filled the mute socket");
            let value = format!("{k:>65535}");
            let started = Instant::now();
            reg.try_write(P0, value.clone()).expect("two live replicas are a quorum");
            let took = started.elapsed();
            assert!(took < WRITE_TIMEOUT * 2, "a write held its phase for {took:?}");
            assert_eq!(reg.try_read(P1).expect("read with the mute replica"), value);
        }
        let deadline = Instant::now() + Duration::from_secs(1);
        while transport.registry().counter("abd.wire.disconnects").get() == 0 {
            assert!(Instant::now() < deadline, "the torn-down connection was not counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(transport.stats().messages_dropped > 0);
        // Refuse the redials, so the transport's drop waits out no handshake.
        listener.cleanup();
        drop(listener);
    }

    #[test]
    fn dropping_the_transport_cuts_a_redial_backoff_short_and_joins_its_thread() {
        // Nothing listens here: the dial fails and the connection thread
        // sits out a 30 s backoff.
        let transport = RemoteTransport::connect(
            RemoteConfig::new(vec![uds_endpoint("nobody")])
                .with_redial(Duration::from_secs(30), Duration::from_secs(30)),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while transport.registry().counter("abd.wire.dials").get() == 0 {
            assert!(Instant::now() < deadline, "the connection thread never dialed");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A refused dial takes microseconds: by now the thread is parked.
        std::thread::sleep(Duration::from_millis(50));
        // The connection thread holds the shared state until it exits.
        let shared = Arc::downgrade(&transport.conns[0]);
        let started = Instant::now();
        drop(transport);
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "drop waited out the backoff: {took:?}");
        assert!(shared.upgrade().is_none(), "the connection thread outlived the transport");
    }

    #[test]
    fn survives_a_replica_restart_and_fails_typed_without_a_majority() {
        let (mut servers, endpoints) = spawn_cluster("nemesis", 3);
        let transport = Arc::new(RemoteTransport::connect(
            RemoteConfig::new(endpoints)
                .with_op_timeout(Duration::from_millis(400))
                .with_redial(Duration::from_millis(10), Duration::from_millis(50)),
        ));
        assert!(transport.wait_connected(3, Duration::from_secs(5)));
        let reg = crate::AbdRegister::with_wire_codec(
            Arc::clone(&transport) as Arc<dyn Transport>,
            RegisterId::from_lane_segment(1, 1),
            0u64,
        );
        reg.try_write(P0, 7).expect("write with full fleet");

        // One replica down: still a majority, traffic keeps flowing.
        let killed = servers.remove(2);
        let store = killed.store();
        let killed_endpoint = killed.endpoint().clone();
        drop(killed);
        reg.try_write(P0, 8).expect("write with one replica down");
        assert_eq!(reg.try_read(P1).expect("read with one replica down"), 8);

        // Two replicas down: no majority — a typed failure, not a hang.
        let also_killed = servers.remove(1);
        let also_store = also_killed.store();
        let also_endpoint = also_killed.endpoint().clone();
        drop(also_killed);
        let err = reg.try_write(P0, 9).expect_err("no majority reachable");
        assert!(
            matches!(err, crate::AbdError::QuorumUnavailable { .. }),
            "{err:?}"
        );

        // Restart both (state intact, same sockets): the connection
        // threads redial
        // and the same register serves again.
        servers.push(
            snapshot_wire::ReplicaServer::spawn_with_store(
                ServerConfig::new(also_endpoint, 1),
                also_store,
            )
            .expect("restarting replica 1"),
        );
        servers.push(
            snapshot_wire::ReplicaServer::spawn_with_store(
                ServerConfig::new(killed_endpoint, 2),
                store,
            )
            .expect("restarting replica 2"),
        );
        assert!(transport.wait_connected(3, Duration::from_secs(5)));
        reg.try_write(P0, 10).expect("write after fleet healed");
        assert_eq!(reg.try_read(P1).expect("read after fleet healed"), 10);
        assert!(transport.stats().messages_dropped > 0 || transport.stats().retries > 0);
    }
}
