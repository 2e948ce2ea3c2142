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
//! One manager thread per replica owns that replica's connection for the
//! transport's lifetime:
//!
//! * **dial → handshake** — open the socket, send
//!   [`Frame::Hello`], await [`Frame::HelloAck`] under a short read
//!   timeout, check the protocol version;
//! * **connected** — a reader thread demultiplexes reply frames to the
//!   waiting phases by request id while the manager drains the outbound
//!   queue onto the socket;
//! * **disconnected** — the connection is torn down, frames queued while
//!   down are *dropped* (counted as `abd.messages_dropped` — exactly the
//!   lossy-link accounting of the simulated network; the engine's
//!   retransmissions mask the loss), and the manager redials under capped
//!   exponential backoff.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snapshot_obs::{Counter, Event, Registry, Trace};
use snapshot_wire::{
    read_frame, write_frame, Endpoint, ErrorCode, Frame, FrameIoError, FrameRead, StoreEntry,
    WireStream, WireTag, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};

use crate::message::{RegisterId, RequestId, Tag};
use crate::network::RetryPolicy;
use crate::stats::{Counters, LatencySnapshot, NetworkStats};
use crate::transport::{Payload, Phase, PhaseRequest, Reply, ReplyBody, ReplyInbox, Transport};

/// Reply routes of the phases in flight, by request id.
type Pending = Arc<Mutex<HashMap<u64, Arc<ReplyInbox>>>>;

/// How long the handshake may wait for the replica's `HelloAck`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// How often the outbound writer wakes to notice a dead reader.
const WRITER_POLL: Duration = Duration::from_millis(20);

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

/// State shared between the transport, one replica's manager thread, and
/// that connection's reader thread.
struct ConnShared {
    replica: usize,
    endpoint: Endpoint,
    connected: AtomicBool,
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
    /// Routes a decoded reply frame to the phase waiting on its request
    /// id (a phase that already finished simply no longer has a route —
    /// late and duplicate replies are discarded here).
    fn route(&self, frame: Frame) {
        self.wire.frames_in.inc();
        let (id, body) = match frame {
            Frame::QueryReply { id, values } => (
                id,
                ReplyBody::Values(
                    values
                        .into_iter()
                        .map(|(tag, value)| {
                            let tag = Tag {
                                seq: tag.seq,
                                writer: tag.writer as usize,
                            };
                            (
                                tag,
                                value.map(|v| Payload::Bytes(Arc::from(v.into_boxed_slice()))),
                            )
                        })
                        .collect(),
                ),
            ),
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

/// A message to one replica's connection manager.
enum OutMsg {
    /// An encoded frame to put on the wire (shared by every replica the
    /// phase broadcasts to — encoded once, cloned by reference).
    Frame(Arc<[u8]>),
    /// Tear the connection down and exit the manager thread.
    Shutdown,
}

/// One replica's connection handle, owned by the transport.
struct ReplicaConn {
    out: Sender<OutMsg>,
    shared: Arc<ConnShared>,
    manager: Option<JoinHandle<()>>,
}

/// Why one dial-and-handshake attempt failed. The distinction matters
/// for redial accounting: a refused/absent socket is plain
/// unavailability (the replica is down — expected under crash faults),
/// while a connection that opened but failed the handshake points at
/// protocol trouble or a hostile middlebox and is counted separately
/// under `abd.wire.handshake_failures`.
#[derive(Debug)]
enum ConnectError {
    /// The socket never opened.
    Dial,
    /// The socket opened but the `Hello`/`HelloAck` exchange failed
    /// (timeout, damaged bytes, version mismatch, typed refusal).
    Handshake,
}

/// Dials and handshakes one connection; returns the stream ready for
/// full-duplex traffic.
fn connect(shared: &ConnShared) -> Result<WireStream, ConnectError> {
    let mut stream = shared.endpoint.dial().map_err(|_| ConnectError::Dial)?;
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|_| ConnectError::Handshake)?;
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client: shared.client,
    }
    .encode();
    write_frame(&mut stream, &hello, shared.max_frame).map_err(|_| ConnectError::Handshake)?;
    let ack = match read_frame(&mut stream, shared.max_frame) {
        Ok(FrameRead::Frame(body)) => Frame::decode(&body).ok(),
        // The replica closed, or the bytes were damaged, mid-handshake.
        Ok(FrameRead::Eof) | Err(_) => None,
    };
    // A version mismatch, a typed refusal (`Frame::Error`) and any other
    // reply all fail the handshake alike.
    if !matches!(ack, Some(Frame::HelloAck { version, .. }) if version == PROTOCOL_VERSION) {
        return Err(ConnectError::Handshake);
    }
    stream.set_read_timeout(None).map_err(|_| ConnectError::Handshake)?;
    Ok(stream)
}

/// The reader half of one connection: demultiplexes reply frames to the
/// waiting phases until the stream dies, then flags the connection down
/// so the writer tears it down and redials.
fn reader_loop(mut stream: WireStream, shared: &ConnShared) {
    loop {
        match read_frame(&mut stream, shared.max_frame) {
            Ok(FrameRead::Frame(body)) => match Frame::decode(&body) {
                Ok(frame) => shared.route(frame),
                Err(_) => {
                    // An undecodable frame means the stream is desynced;
                    // nothing after it can be trusted. Reconnect.
                    shared.wire.protocol_errors.inc();
                    break;
                }
            },
            Ok(FrameRead::Eof) | Err(FrameIoError::Io(_)) => break,
            Err(FrameIoError::Corrupt { .. } | FrameIoError::TooLarge { .. }) => {
                // The framing itself lied — damaged or hostile bytes.
                // Same desync rule as an undecodable body: reconnect.
                shared.wire.protocol_errors.inc();
                break;
            }
        }
    }
    shared.connected.store(false, Ordering::Release);
    stream.shutdown();
}

/// The manager thread for one replica: dial → handshake → pump the
/// outbound queue, and on any failure redial under capped backoff,
/// dropping (and counting) frames queued while down.
fn manager_loop(out: Receiver<OutMsg>, shared: Arc<ConnShared>) {
    let mut attempt: u32 = 0;
    let mut backoff = shared.redial_initial;
    loop {
        attempt += 1;
        shared.wire.dials.inc();
        shared.trace.emit(
            shared.replica,
            Event::TransportDial {
                replica: shared.replica,
                attempt,
            },
        );
        let stream = match connect(&shared) {
            Ok(stream) => stream,
            Err(error) => {
                if matches!(error, ConnectError::Handshake) {
                    shared.wire.handshake_failures.inc();
                }
                // Failed dial: drop (and count) anything queued while we
                // sit out the backoff — the engine retransmits.
                let until = Instant::now() + backoff;
                loop {
                    let now = Instant::now();
                    if now >= until {
                        break;
                    }
                    match out.recv_timeout(until - now) {
                        Ok(OutMsg::Frame(_)) => shared.counters.messages_dropped.inc(),
                        Ok(OutMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                        Err(RecvTimeoutError::Timeout) => break,
                    }
                }
                backoff = (backoff * 2).min(shared.redial_max);
                continue;
            }
        };
        let reader_stream = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => {
                stream.shutdown();
                backoff = (backoff * 2).min(shared.redial_max);
                continue;
            }
        };
        shared.connected.store(true, Ordering::Release);
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
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("abd-wire-reader-{}", shared.replica))
                .spawn(move || reader_loop(reader_stream, &shared))
                .expect("spawning wire reader thread")
        };
        // The writer: drain the outbound queue onto the socket, waking
        // periodically to notice a reader that died with nothing to send.
        let mut stream = stream;
        let shutting_down = loop {
            match out.recv_timeout(WRITER_POLL) {
                Ok(OutMsg::Frame(bytes)) => match write_frame(&mut stream, &bytes, shared.max_frame)
                {
                    Ok(()) => {}
                    Err(FrameIoError::TooLarge { .. }) => {
                        // Refused locally, before touching the stream:
                        // the connection is healthy. Drop (and count)
                        // the frame instead of tearing everything down.
                        shared.counters.messages_dropped.inc();
                        shared.wire.oversize_dropped.inc();
                    }
                    // Corrupt is read-side only, but if it ever surfaced
                    // here the stream would be equally unusable.
                    Err(FrameIoError::Io(_) | FrameIoError::Corrupt { .. }) => {
                        shared.counters.messages_dropped.inc();
                        break false;
                    }
                },
                Ok(OutMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => break true,
                Err(RecvTimeoutError::Timeout) => {
                    if !shared.connected.load(Ordering::Acquire) {
                        break false;
                    }
                }
            }
        };
        shared.connected.store(false, Ordering::Release);
        stream.shutdown();
        let _ = reader.join();
        if shutting_down {
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
    conns: Vec<ReplicaConn>,
    kind: &'static str,
    max_frame: u32,
    op_timeout: Duration,
    retry: RetryPolicy,
    registry: Arc<Registry>,
    trace: Trace,
    counters: Arc<Counters>,
    pending: Pending,
    next_register: AtomicU64,
    next_request: AtomicU64,
}

impl RemoteTransport {
    /// Spawns the connection managers and returns immediately; dialing
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
        let kind = {
            let mut kinds = config.endpoints.iter().map(|e| e.kind());
            let first = kinds.next().expect("non-empty endpoints");
            if kinds.all(|k| k == first) {
                first
            } else {
                "mixed"
            }
        };
        let registry = config.registry.unwrap_or_default();
        // Same name-keyed marker convention as the simulated network:
        // one `abd.transport.<kind>` gauge per transport kind in play.
        registry.gauge(&format!("abd.transport.{kind}")).set(1);
        let counters = Arc::new(Counters::new(&registry));
        let wire = WireCounters::new(&registry);
        let pending = Pending::default();
        let conns = config
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, endpoint)| {
                let shared = Arc::new(ConnShared {
                    replica: i,
                    endpoint: endpoint.clone(),
                    connected: AtomicBool::new(false),
                    pending: Arc::clone(&pending),
                    counters: Arc::clone(&counters),
                    wire: wire.clone(),
                    trace: config.trace.clone(),
                    max_frame: config.max_frame,
                    client: config.client,
                    redial_initial: config.redial_initial,
                    redial_max: config.redial_max,
                });
                let (tx, rx) = channel();
                let manager = {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("abd-wire-manager-{i}"))
                        .spawn(move || manager_loop(rx, shared))
                        .expect("spawning wire manager thread")
                };
                ReplicaConn {
                    out: tx,
                    shared,
                    manager: Some(manager),
                }
            })
            .collect();
        RemoteTransport {
            conns,
            kind,
            max_frame: config.max_frame,
            op_timeout: config.op_timeout,
            retry: config.retry,
            registry,
            trace: config.trace,
            counters,
            pending,
            next_register: AtomicU64::new(0),
            next_request: AtomicU64::new(1),
        }
    }

    /// How many replicas currently hold a handshaken connection.
    pub fn connected_replicas(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.shared.connected.load(Ordering::Acquire))
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
        &self.registry
    }

    /// The replica endpoints, in cluster order.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        self.conns
            .iter()
            .map(|c| c.shared.endpoint.clone())
            .collect()
    }

    /// A snapshot of the `abd.*` traffic counters (sent, dropped,
    /// retries, …) — same view the simulated network offers.
    pub fn stats(&self) -> NetworkStats {
        self.counters.snapshot()
    }

    /// A snapshot of the per-operation quorum-phase latency histogram.
    pub fn quorum_latency(&self) -> LatencySnapshot {
        self.counters.latency_snapshot()
    }
}

impl Drop for RemoteTransport {
    fn drop(&mut self) {
        for conn in &self.conns {
            let _ = conn.out.send(OutMsg::Shutdown);
        }
        for conn in &mut self.conns {
            if let Some(manager) = conn.manager.take() {
                let _ = manager.join();
            }
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

/// One in-flight quorum phase on the wire: the request frame encoded
/// once, a private reply inbox routed by request id (which also takes
/// the synthetic refusals of a frame that exceeds the wire cap).
struct RemotePhase<'a> {
    transport: &'a RemoteTransport,
    id: RequestId,
    frame: Arc<[u8]>,
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
        // A frame over the wire cap can never be sent: `write_frame`
        // refuses it locally with `TooLarge` before touching the stream.
        // Don't churn the healthy connections — answer each addressed
        // replica with a typed refusal (which never counts toward a
        // quorum, and tells the engine to try a smaller batch) and count
        // the drops.
        if self.frame.len() > self.transport.max_frame as usize {
            let mut refused = 0usize;
            for (i, conn) in self.transport.conns.iter().enumerate() {
                if include(i) {
                    self.transport.counters.messages_dropped.inc();
                    conn.shared.wire.oversize_dropped.inc();
                    self.inbox.push(Reply {
                        from: i,
                        body: ReplyBody::Error {
                            too_large: true,
                            detail: format!(
                                "request frame of {} bytes exceeds the {}-byte wire cap",
                                self.frame.len(),
                                self.transport.max_frame
                            ),
                        },
                    });
                    refused += 1;
                }
            }
            return refused;
        }
        let mut sent = 0usize;
        for (i, conn) in self.transport.conns.iter().enumerate() {
            if include(i) {
                let _ = conn.out.send(OutMsg::Frame(Arc::clone(&self.frame)));
                sent += 1;
            }
        }
        self.transport.counters.messages_sent.add(sent as u64);
        sent
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Option<Reply> {
        self.inbox.recv_deadline(deadline)
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

    fn op_timeout(&self) -> Duration {
        self.op_timeout
    }

    fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn allocate_register(&self) -> RegisterId {
        // Client-local fallback only: sequential ids in the top lane.
        // Distinct client processes would collide here — remote register
        // sets are meant to be addressed explicitly via
        // `RegisterId::from_lane_segment` (as `AbdSnapshotCore::remote`
        // does), so every client names the same replica-side registers.
        let n = self.next_register.fetch_add(1, Ordering::Relaxed);
        RegisterId::from_lane_segment(u32::MAX, n as u32)
    }

    fn fresh_request_id(&self) -> RequestId {
        // Request ids only need client-local uniqueness: `snapshotd`
        // dedupes per connection, and each client holds its own.
        RequestId(self.next_request.fetch_add(1, Ordering::Relaxed))
    }

    fn begin_phase(&self, id: RequestId, request: PhaseRequest) -> Box<dyn Phase + '_> {
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
                        StoreEntry {
                            lane,
                            segment,
                            tag: WireTag {
                                seq: tag.seq,
                                // Writer ids above u32 would alias on the
                                // wire and corrupt tag tie-break ordering;
                                // refuse loudly rather than truncate
                                // silently.
                                writer: u32::try_from(tag.writer)
                                    .expect("writer id exceeds the wire format's u32 range"),
                            },
                            value: payload
                                .as_bytes()
                                .expect(
                                    "wire transports carry only Payload::Bytes (requires_bytes)",
                                )
                                .to_vec(),
                        }
                    })
                    .collect(),
            },
        };
        let frame: Arc<[u8]> = Arc::from(frame.encode().into_boxed_slice());
        let inbox = Arc::new(ReplyInbox::new(self.quorum()));
        self.pending
            .lock()
            .expect("pending route map")
            .insert(id.0, Arc::clone(&inbox));
        Box::new(RemotePhase {
            transport: self,
            id,
            frame,
            inbox,
        })
    }

    fn note_retries(&self, n: u64) {
        self.counters.retries.add(n);
    }

    fn record_quorum_latency(&self, elapsed: Duration) {
        self.counters.record_quorum_latency(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

        // Restart both (state intact, same sockets): the managers redial
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
