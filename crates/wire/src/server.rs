//! The replica server: the ABD replica role of `crates/abd`'s simulated
//! network, hosted behind a real socket.
//!
//! One [`ReplicaServer`] owns a listener (TCP or UDS), a tagged register
//! store keyed by `(lane, segment)`, and one thread per client
//! connection. The protocol obligations mirror the simulated
//! `ReplicaCore` exactly:
//!
//! * **`Query`** is answered on every delivery with the current
//!   `(tag, value)` of each register it names, read under one store lock
//!   — re-answering is what lets a client whose reply was lost make
//!   progress;
//! * **`Store`** is a max-by-tag merge of its whole batch, deduplicated
//!   by request id within a bounded window and re-acked on duplicate
//!   delivery. A duplicate that arrives over a *new* connection (after a
//!   client redial) may be re-applied — harmless, because the merge is
//!   idempotent;
//! * malformed, oversize, or unsupported frames are refused with typed
//!   [`Frame::Error`] replies, never a panic — including a reply that
//!   would itself exceed the frame cap, which is answered
//!   [`ErrorCode::TooLarge`] under the request's id so the client can ask
//!   again in smaller batches.
//!
//! With `--state PATH` (or [`ServerConfig::with_state_log`]) every
//! applied store is appended to the CRC-framed, checkpointed state log
//! of [`ReplicaStore`] (see `crate::store` for the crash-consistency
//! model), so a killed-and-restarted replica process returns with its
//! state intact — the same crash model (`silence, state preserved`) the
//! simulated network's `crash`/`restart` implements in-process. The
//! `--fsync`, `--recover` and `--checkpoint-bytes` flags thread the
//! store's durability policies through the CLI, and SIGTERM triggers a
//! graceful drain + final checkpoint instead of a crash-equivalent
//! exit.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{self, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snapshot_obs::{Counter, Gauge, Registry};

use crate::frame::{read_frame, write_frame, FrameIoError, FrameRead, DEFAULT_MAX_FRAME};
use crate::net::{Endpoint, WireListener, WireStream};
use crate::proto::{ErrorCode, Frame, WireTag, PROTOCOL_VERSION};
use crate::store::{FsyncPolicy, RecoveryPolicy, ReplicaStore, StoreConfig, StoreError};

/// The request ids a replica saw last, for retransmission dedup: a
/// retried or duplicated `Store` is applied at most once and re-acked.
///
/// Only the last [`CAPACITY`](Self::CAPACITY) ids are remembered. A retry
/// of an older id is applied again — harmless, because a store is a
/// max-by-tag merge and a query is read-only; the window only keeps the
/// `duplicates_suppressed` metric honest for live traffic. Every
/// `snapshotd` connection keeps one, and so does every replica thread of
/// `snapshot-abd`'s simulated network.
#[derive(Debug, Default)]
pub struct DedupWindow {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    /// How many recent ids the window remembers.
    pub const CAPACITY: usize = 4096;

    /// Records `id` as seen; returns `true` unless it is already in the
    /// window.
    pub fn insert(&mut self, id: u64) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        self.order.push_back(id);
        if self.order.len() > Self::CAPACITY {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }
}

/// Configuration of one replica server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Where to listen.
    pub listen: Endpoint,
    /// This replica's index in the cluster (returned in `HelloAck`).
    pub replica: u32,
    /// Maximum accepted frame body size.
    pub max_frame: u32,
    /// Metrics registry for the `snapshotd.*` metrics (private registry
    /// when `None`).
    pub registry: Option<Arc<Registry>>,
    /// Path of the state log replayed on startup and appended on every
    /// applied store. `None` keeps state in memory only.
    pub state_log: Option<PathBuf>,
    /// When appended stores reach the disk (ignored without a state
    /// log).
    pub fsync: FsyncPolicy,
    /// What startup replay does about mid-log corruption.
    pub recovery: RecoveryPolicy,
    /// Auto-checkpoint threshold in log bytes.
    pub checkpoint_bytes: u64,
}

impl ServerConfig {
    /// A server on `listen` with index `replica`, default frame cap, a
    /// private registry and no state log.
    pub fn new(listen: Endpoint, replica: u32) -> Self {
        ServerConfig {
            listen,
            replica,
            max_frame: DEFAULT_MAX_FRAME,
            registry: None,
            state_log: None,
            fsync: FsyncPolicy::default(),
            recovery: RecoveryPolicy::default(),
            checkpoint_bytes: StoreConfig::default().checkpoint_bytes,
        }
    }

    /// Sets the maximum accepted frame body size.
    pub fn with_max_frame(mut self, max: u32) -> Self {
        self.max_frame = max;
        self
    }

    /// Registers the server's metrics on a shared registry.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Persists applied stores to `path` (replayed on startup).
    pub fn with_state_log(mut self, path: PathBuf) -> Self {
        self.state_log = Some(path);
        self
    }

    /// Sets when appended stores reach the disk.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the mid-log-corruption recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the auto-checkpoint threshold in log bytes.
    pub fn with_checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }
}

struct ServerMetrics {
    connections: Counter,
    open_connections: Gauge,
    requests_in_flight: Gauge,
    frames_in: Counter,
    frames_out: Counter,
    stores_applied: Counter,
    duplicates_suppressed: Counter,
    decode_errors: Counter,
    oversize_frames: Counter,
    corrupt_frames: Counter,
    errors_sent: Counter,
}

impl ServerMetrics {
    fn new(registry: &Registry) -> Self {
        ServerMetrics {
            connections: registry.counter("snapshotd.connections"),
            open_connections: registry.gauge("snapshotd.open_connections"),
            requests_in_flight: registry.gauge("snapshotd.requests_in_flight"),
            frames_in: registry.counter("snapshotd.frames_in"),
            frames_out: registry.counter("snapshotd.frames_out"),
            stores_applied: registry.counter("snapshotd.stores_applied"),
            duplicates_suppressed: registry.counter("snapshotd.duplicates_suppressed"),
            decode_errors: registry.counter("snapshotd.decode_errors"),
            oversize_frames: registry.counter("snapshotd.oversize_frames"),
            corrupt_frames: registry.counter("snapshotd.corrupt_frames"),
            errors_sent: registry.counter("snapshotd.errors_sent"),
        }
    }
}

struct Shared {
    replica: u32,
    max_frame: u32,
    store: Arc<ReplicaStore>,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    /// Live connection handles (clones), keyed by connection id, so
    /// shutdown can unblock every parked read.
    conns: Mutex<HashMap<u64, WireStream>>,
    next_conn: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// One running replica server (the library form of the `snapshotd`
/// binary): accepts connections on its endpoint and serves the ABD
/// replica protocol until [`ReplicaServer::shutdown`] or drop.
pub struct ReplicaServer {
    endpoint: Endpoint,
    registry: Arc<Registry>,
    shared: Arc<Shared>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl ReplicaServer {
    /// Binds and spawns a server per `config` (opening or creating the
    /// state log when one is configured). With [`RecoveryPolicy::Fail`]
    /// a corrupt state log refuses to open — the [`StoreError::Corrupt`]
    /// surfaces here as `InvalidData`, naming the offset.
    pub fn spawn(config: ServerConfig) -> io::Result<ReplicaServer> {
        let registry = config.registry.clone().unwrap_or_default();
        let store = Arc::new(
            ReplicaStore::open_with(
                StoreConfig {
                    path: config.state_log.clone(),
                    fsync: config.fsync,
                    recovery: config.recovery,
                    checkpoint_bytes: config.checkpoint_bytes,
                    registry: Some(Arc::clone(&registry)),
                    trace: None,
                    replica: config.replica,
                    ..StoreConfig::default()
                }
                // The record cap must track the frame cap, or a store
                // accepted over the wire could be logged but refused on
                // replay.
                .with_max_frame(config.max_frame),
            )
            .map_err(io::Error::from)?,
        );
        Self::spawn_with_store(ServerConfig { registry: Some(registry), ..config }, store)
    }

    /// Like [`spawn`](Self::spawn), over an existing store — the
    /// in-process way to restart a killed replica with its state intact
    /// (the multi-process way is the state log).
    pub fn spawn_with_store(
        config: ServerConfig,
        store: Arc<ReplicaStore>,
    ) -> io::Result<ReplicaServer> {
        let registry = config.registry.unwrap_or_default();
        let listener = config.listen.bind()?;
        let endpoint = listener.local_endpoint()?;
        let shared = Arc::new(Shared {
            replica: config.replica,
            max_frame: config.max_frame,
            store,
            metrics: ServerMetrics::new(&registry),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("snapshotd-accept-{}", config.replica))
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawning accept thread");
        Ok(ReplicaServer {
            endpoint,
            registry,
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The endpoint the server is actually bound to (a TCP port of `0`
    /// resolves to the kernel-assigned port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The registry carrying this server's `snapshotd.*` metrics.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The replica's register store (restart a killed replica with its
    /// state via [`ReplicaServer::spawn_with_store`]).
    pub fn store(&self) -> Arc<ReplicaStore> {
        Arc::clone(&self.shared.store)
    }

    /// This replica's index in the cluster (as configured and as
    /// announced in its `HelloAck`).
    pub fn replica_index(&self) -> u32 {
        self.shared.replica
    }

    /// Stops accepting, severs every live connection, and joins all
    /// server threads. Idempotent. From a client's point of view this is
    /// a replica crash: requests in flight go unanswered.
    pub fn shutdown(&self) {
        self.stop(None);
    }

    /// Graceful shutdown (the SIGTERM path): stops accepting, gives
    /// in-flight *requests* up to `grace` to finish — an idle
    /// connection counts as drained and is severed immediately, so a
    /// quiet server returns without waiting out the grace — joins every
    /// thread, then flushes, fsyncs, and writes a final durable
    /// checkpoint so the next start replays O(live registers).
    pub fn shutdown_graceful(&self, grace: Duration) -> Result<(), StoreError> {
        self.stop(Some(grace));
        self.shared.store.flush(true)?;
        self.shared.store.checkpoint()
    }

    fn stop(&self, drain: Option<Duration>) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection; it checks
        // the flag before serving.
        let _ = self.endpoint.dial();
        if let Some(grace) = drain {
            // Wait for requests actually being served, not for clients
            // to hang up: an idle persistent connection is already
            // drained (its worker is parked in a read), and is severed
            // right below — so a SIGTERM with only idle clients returns
            // immediately instead of burning the whole grace.
            let deadline = Instant::now() + grace;
            while Instant::now() < deadline {
                if self.shared.metrics.requests_in_flight.get() == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for (_, conn) in self.shared.conns.lock().unwrap().iter() {
            conn.shutdown();
        }
        if let Some(t) = self.accept_thread.lock().unwrap().take() {
            let _ = t.join();
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for t in workers {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for ReplicaServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaServer")
            .field("replica", &self.shared.replica)
            .field("endpoint", &self.endpoint)
            .finish()
    }
}

/// Joins the worker handles whose connections already ended, keeping
/// only the live ones — without this a long-lived server accepting many
/// short connections accumulates handles without bound.
fn reap_finished_workers(workers: &Mutex<Vec<JoinHandle<()>>>) {
    let mut guard = workers.lock().unwrap();
    let handles = std::mem::take(&mut *guard);
    for handle in handles {
        if handle.is_finished() {
            let _ = handle.join();
        } else {
            guard.push(handle);
        }
    }
}

fn accept_loop(listener: WireListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                // A transient accept failure (e.g. EMFILE) would
                // otherwise busy-spin this thread; back off briefly.
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        reap_finished_workers(&shared.workers);
        shared.metrics.connections.inc();
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("snapshotd-conn-{}-{}", shared.replica, conn_id))
            .spawn(move || {
                conn_shared.metrics.open_connections.add(1);
                serve_connection(stream, &conn_shared);
                conn_shared.metrics.open_connections.add(-1);
                conn_shared.conns.lock().unwrap().remove(&conn_id);
            });
        match worker {
            Ok(handle) => shared.workers.lock().unwrap().push(handle),
            Err(_) => {
                shared.conns.lock().unwrap().remove(&conn_id);
            }
        }
    }
    listener.cleanup();
}

/// Writes one frame; `false` means the connection is no longer usable.
/// The one reply whose size a client controls, `QueryReply`, is sized by
/// the request loop before it is built, so nothing over the cap arrives
/// here in normal operation.
fn send(stream: &mut WireStream, shared: &Shared, frame: &Frame) -> bool {
    match write_frame(stream, &frame.encode(), shared.max_frame) {
        Ok(()) => {
            shared.metrics.frames_out.inc();
            true
        }
        Err(_) => false,
    }
}

fn send_error(
    stream: &mut WireStream,
    shared: &Shared,
    id: u64,
    code: ErrorCode,
    detail: String,
) -> bool {
    shared.metrics.errors_sent.inc();
    send(stream, shared, &Frame::Error { id, code, detail })
}

/// Serves one client connection: handshake, then the request loop.
fn serve_connection(stream: WireStream, shared: &Shared) {
    // Requests are read through a buffer, so one `read` takes in every
    // frame already queued; each reply leaves in its own single write.
    let mut conn = BufReader::new(stream);
    // Handshake: the first frame must be a well-formed `Hello` for a
    // version we speak.
    match read_decoded(&mut conn, shared) {
        Some(Frame::Hello { version, .. }) if version == PROTOCOL_VERSION => {
            if !send(
                conn.get_mut(),
                shared,
                &Frame::HelloAck {
                    version: PROTOCOL_VERSION,
                    replica: shared.replica,
                },
            ) {
                return;
            }
        }
        Some(Frame::Hello { version, .. }) => {
            send_error(
                conn.get_mut(),
                shared,
                0,
                ErrorCode::Unsupported,
                format!("protocol version {version} not supported (want {PROTOCOL_VERSION})"),
            );
            return;
        }
        Some(other) => {
            send_error(
                conn.get_mut(),
                shared,
                other.request_id().unwrap_or(0),
                ErrorCode::Unsupported,
                format!("expected hello, got {}", other.kind_name()),
            );
            return;
        }
        None => return,
    }

    let mut seen = DedupWindow::default();

    while !shared.shutdown.load(Ordering::Acquire) {
        let frame = match read_decoded(&mut conn, shared) {
            Some(f) => f,
            None => break,
        };
        // In flight from fully-read request to sent reply: the graceful
        // drain waits on this gauge (not on connection count), so an
        // idle connection never holds up a SIGTERM.
        shared.metrics.requests_in_flight.add(1);
        let keep_going = match frame {
            Frame::Query { id, registers } => {
                // Read-only: dedup records the id but every delivery is
                // (re-)answered with the current state.
                seen.insert(id);
                // `held` shares the stored values; nothing is copied until
                // the reply is known to fit, so a query naming many (or one
                // big register many times) costs this replica no more
                // memory than one frame.
                let held = shared.store.get_many(&registers);
                let len = Frame::query_reply_len(
                    held.iter().map(|h| h.as_ref().map(|(_, v)| v.len())),
                );
                if len > u64::from(shared.max_frame) {
                    send_error(
                        conn.get_mut(),
                        shared,
                        id,
                        ErrorCode::TooLarge,
                        format!(
                            "{len}-byte query_reply exceeds the {}-byte cap",
                            shared.max_frame
                        ),
                    )
                } else {
                    let values = held
                        .into_iter()
                        .map(|held| match held {
                            Some((tag, value)) => (tag, Some(value.to_vec())),
                            None => (WireTag::default(), None),
                        })
                        .collect();
                    send(conn.get_mut(), shared, &Frame::QueryReply { id, values })
                }
            }
            Frame::Store { id, entries } => {
                if seen.insert(id) {
                    let batch: Vec<_> = entries
                        .into_iter()
                        .map(|e| (e.lane, e.segment, e.tag, e.value.into()))
                        .collect();
                    let applied = shared.store.apply_batch(&batch);
                    shared.metrics.stores_applied.add(applied as u64);
                } else {
                    // Duplicate delivery (client retransmission): skip
                    // the whole batch, but re-ack — the first ack may
                    // have been lost.
                    shared.metrics.duplicates_suppressed.inc();
                }
                send(conn.get_mut(), shared, &Frame::StoreAck { id })
            }
            other => send_error(
                conn.get_mut(),
                shared,
                other.request_id().unwrap_or(0),
                ErrorCode::Unsupported,
                format!("unexpected {} frame", other.kind_name()),
            ),
        };
        shared.metrics.requests_in_flight.add(-1);
        if !keep_going {
            break;
        }
    }
}

/// Reads and decodes one frame; refuses malformation and oversize with a
/// typed error reply and `None` (caller drops the connection — the
/// stream may no longer be frame-aligned).
fn read_decoded(conn: &mut BufReader<WireStream>, shared: &Shared) -> Option<Frame> {
    match read_frame(conn, shared.max_frame) {
        Ok(FrameRead::Frame(body)) => {
            shared.metrics.frames_in.inc();
            match Frame::decode(&body) {
                Ok(frame) => Some(frame),
                Err(e) => {
                    shared.metrics.decode_errors.inc();
                    send_error(conn.get_mut(), shared, 0, ErrorCode::Malformed, e.to_string());
                    None
                }
            }
        }
        Ok(FrameRead::Eof) => None,
        Err(FrameIoError::TooLarge { len, max }) => {
            shared.metrics.oversize_frames.inc();
            send_error(
                conn.get_mut(),
                shared,
                0,
                ErrorCode::TooLarge,
                format!("{len}-byte frame exceeds the {max}-byte cap"),
            );
            None
        }
        Err(FrameIoError::Corrupt { expected, got }) => {
            // Damaged in flight: the length prefix itself may be the lie,
            // so the stream is not trustworthy past this point. Reply
            // best-effort and let the caller drop the connection.
            shared.metrics.corrupt_frames.inc();
            send_error(
                conn.get_mut(),
                shared,
                0,
                ErrorCode::Malformed,
                format!("frame crc mismatch (expected {expected:#010x}, got {got:#010x})"),
            );
            None
        }
        Err(FrameIoError::Io(_)) => None,
    }
}

/// Set by the SIGTERM handler; polled by [`run_cli`]'s serve loop.
static SIGTERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    // A relaxed atomic store is async-signal-safe.
    SIGTERM_FLAG.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM → flag handler. No `libc` crate: `signal` is
/// declared directly (it is always in the platform libc this binary
/// links).
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// How long a SIGTERM-initiated shutdown waits for in-flight requests.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// Runs the `snapshotd` command line: parses `--listen`, `--replica`,
/// `--max-frame`, `--state`, `--fsync`, `--recover`,
/// `--checkpoint-bytes` and `--metrics-every`, spawns the server,
/// prints a ready line to stdout, and serves until killed — or until
/// SIGTERM, which drains in-flight connections, writes a final fsynced
/// checkpoint, and returns `Ok` (exit 0). Returns an error string
/// suitable for `eprintln!` + nonzero exit.
pub fn run_cli(args: &[String]) -> Result<(), String> {
    let mut listen: Option<Endpoint> = None;
    let mut replica: u32 = 0;
    let mut max_frame = DEFAULT_MAX_FRAME;
    let mut state_log: Option<PathBuf> = None;
    let mut metrics_every: Option<u64> = None;
    let mut fsync = FsyncPolicy::default();
    let mut recovery = RecoveryPolicy::default();
    let mut checkpoint_bytes = StoreConfig::default().checkpoint_bytes;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--listen" => listen = Some(Endpoint::parse(&value("--listen")?)?),
            "--replica" => {
                replica = value("--replica")?
                    .parse()
                    .map_err(|e| format!("--replica: {e}"))?
            }
            "--max-frame" => {
                max_frame = value("--max-frame")?
                    .parse()
                    .map_err(|e| format!("--max-frame: {e}"))?
            }
            "--state" => state_log = Some(PathBuf::from(value("--state")?)),
            "--fsync" => fsync = FsyncPolicy::parse(&value("--fsync")?)?,
            "--recover" => recovery = RecoveryPolicy::parse(&value("--recover")?)?,
            "--checkpoint-bytes" => {
                checkpoint_bytes = value("--checkpoint-bytes")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-bytes: {e}"))?
            }
            "--metrics-every" => {
                metrics_every = Some(
                    value("--metrics-every")?
                        .parse()
                        .map_err(|e| format!("--metrics-every: {e}"))?,
                )
            }
            "--help" | "-h" => {
                // Asked-for usage goes to stdout with a zero exit; the
                // Err path stays for genuine argument errors.
                println!(
                    "usage: snapshotd --listen <tcp:HOST:PORT|uds:PATH> [--replica N] \
                     [--max-frame BYTES] [--state PATH] [--fsync always|interval:MS|never] \
                     [--recover fail|truncate] [--checkpoint-bytes N] [--metrics-every SECS]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let listen = listen.ok_or("missing --listen (try --help)")?;

    install_sigterm_handler();

    let has_state = state_log.is_some();
    let mut config = ServerConfig::new(listen, replica)
        .with_max_frame(max_frame)
        .with_fsync(fsync)
        .with_recovery(recovery)
        .with_checkpoint_bytes(checkpoint_bytes);
    if let Some(path) = state_log {
        config = config.with_state_log(path);
    }
    // With --recover fail a corrupt state log lands here: nonzero exit,
    // offset in the message, nothing replayed.
    let server = ReplicaServer::spawn(config).map_err(|e| format!("startup failed: {e}"))?;
    if has_state {
        let store = server.store();
        let r = store.recovery();
        println!(
            "snapshotd[{replica}] recovered: registers={} ckpt_registers={} replayed={} \
             stale={} truncated_bytes={} corrupt={} generation={} replay_us={}",
            store.len(),
            r.checkpoint_registers,
            r.replayed_records,
            r.stale_records,
            r.truncated_bytes,
            r.corrupt_offset
                .map_or_else(|| String::from("none"), |o| o.to_string()),
            r.generation,
            r.elapsed_us,
        );
    }
    println!("snapshotd[{replica}] listening on {}", server.endpoint());
    io::stdout().flush().ok();

    let mut last_metrics = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if SIGTERM_FLAG.load(Ordering::Relaxed) {
            println!("snapshotd[{replica}] SIGTERM: draining connections and checkpointing");
            io::stdout().flush().ok();
            server
                .shutdown_graceful(SHUTDOWN_GRACE)
                .map_err(|e| format!("graceful shutdown: {e}"))?;
            println!(
                "snapshotd[{replica}] shutdown complete: final checkpoint written \
                 (registers={})",
                server.store().len()
            );
            io::stdout().flush().ok();
            return Ok(());
        }
        if let Some(every) = metrics_every {
            if last_metrics.elapsed() >= Duration::from_secs(every) {
                println!("snapshotd[{replica}] metrics:");
                print!("{}", server.registry().render());
                io::stdout().flush().ok();
                last_metrics = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::StoreEntry;
    use crate::store::crc32;
    use std::io::Read;

    fn dial_and_hello(server: &ReplicaServer) -> WireStream {
        let mut stream = server.endpoint().dial().unwrap();
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            client: 9,
        };
        write_frame(&mut stream, &hello.encode(), DEFAULT_MAX_FRAME).unwrap();
        match read_one(&mut stream) {
            Frame::HelloAck { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("{other:?}"),
        }
        stream
    }

    fn read_one(stream: &mut impl Read) -> Frame {
        match read_frame(stream, DEFAULT_MAX_FRAME).unwrap() {
            FrameRead::Frame(body) => Frame::decode(&body).unwrap(),
            FrameRead::Eof => panic!("unexpected eof"),
        }
    }

    fn entry(lane: u32, segment: u32, tag: WireTag, value: Vec<u8>) -> StoreEntry {
        StoreEntry {
            lane,
            segment,
            tag,
            value,
        }
    }

    fn tcp_server() -> ReplicaServer {
        ReplicaServer::spawn(ServerConfig::new(
            Endpoint::Tcp(String::from("127.0.0.1:0")),
            0,
        ))
        .unwrap()
    }

    #[test]
    fn dedup_window_forgets_oldest() {
        let mut seen = DedupWindow::default();
        assert!(seen.insert(0));
        assert!(!seen.insert(0), "immediate retry is a dup");
        for id in 1..=DedupWindow::CAPACITY as u64 {
            assert!(seen.insert(id));
        }
        assert!(
            seen.insert(0),
            "ids beyond the window are forgotten (and re-applying is safe)"
        );
    }

    #[test]
    fn serves_query_and_store_with_max_merge() {
        let server = tcp_server();
        let mut c = dial_and_hello(&server);

        // Empty register: default tag, no value.
        write_frame(
            &mut c,
            &Frame::Query {
                id: 1,
                registers: vec![(0, 0)],
            }
            .encode(),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        match read_one(&mut c) {
            Frame::QueryReply { id: 1, values } => {
                assert_eq!(values, vec![(WireTag::default(), None)])
            }
            other => panic!("{other:?}"),
        }

        // Store, then a lower-tagged store: the merge keeps the max.
        let hi = WireTag { seq: 5, writer: 1 };
        let lo = WireTag { seq: 3, writer: 2 };
        for (id, tag, value) in [(2u64, hi, vec![9u8]), (3, lo, vec![1])] {
            write_frame(
                &mut c,
                &Frame::Store {
                    id,
                    entries: vec![entry(0, 0, tag, value)],
                }
                .encode(),
                DEFAULT_MAX_FRAME,
            )
            .unwrap();
            match read_one(&mut c) {
                Frame::StoreAck { id: got } => assert_eq!(got, id),
                other => panic!("{other:?}"),
            }
        }
        write_frame(
            &mut c,
            &Frame::Query {
                id: 4,
                registers: vec![(0, 0)],
            }
            .encode(),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        match read_one(&mut c) {
            Frame::QueryReply { values, .. } => assert_eq!(values, vec![(hi, Some(vec![9]))]),
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn a_batch_is_answered_positionally_and_applied_once_per_request_id() {
        let server = tcp_server();
        let mut c = dial_and_hello(&server);
        let t = |seq| WireTag { seq, writer: 1 };
        // Three registers in one store; (0, 1) twice, the higher tag wins.
        let store = Frame::Store {
            id: 1,
            entries: vec![
                entry(0, 0, t(4), vec![40]),
                entry(0, 1, t(2), vec![21]),
                entry(0, 1, t(3), vec![31]),
                entry(5, 5, t(1), vec![]),
            ],
        };
        for _ in 0..2 {
            write_frame(&mut c, &store.encode(), DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(read_one(&mut c), Frame::StoreAck { id: 1 });
        }
        assert_eq!(
            server.registry().counter("snapshotd.stores_applied").get(),
            4
        );
        assert_eq!(
            server
                .registry()
                .counter("snapshotd.duplicates_suppressed")
                .get(),
            1,
            "the retransmitted batch is re-acked, not re-applied"
        );

        // One query over those and a register nobody stored: answers come
        // back in request order.
        write_frame(
            &mut c,
            &Frame::Query {
                id: 2,
                registers: vec![(5, 5), (9, 9), (0, 1), (0, 0)],
            }
            .encode(),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        assert_eq!(
            read_one(&mut c),
            Frame::QueryReply {
                id: 2,
                values: vec![
                    (t(1), Some(vec![])),
                    (WireTag::default(), None),
                    (t(3), Some(vec![31])),
                    (t(4), Some(vec![40])),
                ],
            }
        );
        server.shutdown();
    }

    #[test]
    fn an_oversize_reply_is_a_typed_error_and_the_connection_keeps_serving() {
        let server = ReplicaServer::spawn(
            ServerConfig::new(Endpoint::Tcp(String::from("127.0.0.1:0")), 0).with_max_frame(256),
        )
        .unwrap();
        let mut c = dial_and_hello(&server);
        // Four 100-byte values, stored one per frame: each fits the cap.
        for i in 0..4u32 {
            let store = Frame::Store {
                id: u64::from(i) + 1,
                entries: vec![entry(
                    i,
                    0,
                    WireTag { seq: 1, writer: 0 },
                    vec![i as u8; 100],
                )],
            };
            write_frame(&mut c, &store.encode(), 256).unwrap();
            assert_eq!(
                read_one(&mut c),
                Frame::StoreAck {
                    id: u64::from(i) + 1
                }
            );
        }
        // Asked for together, the reply would be over 400 bytes: a typed
        // refusal under the request's id, not a dropped connection.
        let query = |id, lanes: std::ops::Range<u32>| Frame::Query {
            id,
            registers: lanes.map(|lane| (lane, 0)).collect(),
        };
        write_frame(&mut c, &query(10, 0..4).encode(), 256).unwrap();
        match read_one(&mut c) {
            Frame::Error {
                id: 10,
                code: ErrorCode::TooLarge,
                detail,
            } => assert!(detail.contains("query_reply"), "{detail}"),
            other => panic!("{other:?}"),
        }
        // The same connection answers the two halves.
        for (id, lanes) in [(11, 0..2), (12, 2..4)] {
            write_frame(&mut c, &query(id, lanes).encode(), 256).unwrap();
            match read_one(&mut c) {
                Frame::QueryReply { id: got, values } => {
                    assert_eq!(got, id);
                    assert_eq!(values.len(), 2);
                    assert!(values
                        .iter()
                        .all(|(_, v)| v.as_ref().is_some_and(|v| v.len() == 100)));
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(server.registry().counter("snapshotd.errors_sent").get(), 1);
        assert_eq!(
            server.registry().gauge("snapshotd.open_connections").get(),
            1
        );
        server.shutdown();
    }

    #[test]
    fn a_query_repeating_one_register_is_sized_before_any_value_is_copied() {
        let server = ReplicaServer::spawn(
            ServerConfig::new(Endpoint::Tcp(String::from("127.0.0.1:0")), 0).with_max_frame(256),
        )
        .unwrap();
        let mut c = dial_and_hello(&server);
        let store = Frame::Store {
            id: 1,
            entries: vec![entry(0, 0, WireTag { seq: 1, writer: 0 }, vec![7; 100])],
        };
        write_frame(&mut c, &store.encode(), 256).unwrap();
        assert_eq!(read_one(&mut c), Frame::StoreAck { id: 1 });
        // The request is small (13 + 8 per name) however large the reply
        // it asks for: 13 + 117 per copy of the value.
        let query = |id, times| Frame::Query {
            id,
            registers: vec![(0, 0); times],
        };
        for (id, times) in [(2, 30), (3, 3)] {
            write_frame(&mut c, &query(id, times).encode(), 256).unwrap();
            match read_one(&mut c) {
                Frame::Error {
                    id: got,
                    code: ErrorCode::TooLarge,
                    detail,
                } => {
                    assert_eq!(got, id);
                    let len = 13 + 117 * times;
                    assert!(detail.starts_with(&format!("{len}-byte")), "{detail}");
                }
                other => panic!("{other:?}"),
            }
        }
        // Two copies are 247 bytes: under the cap, answered in full.
        write_frame(&mut c, &query(4, 2).encode(), 256).unwrap();
        match read_one(&mut c) {
            Frame::QueryReply { id: 4, values } => {
                assert_eq!(values.len(), 2);
                assert!(values.iter().all(|(_, v)| *v == Some(vec![7; 100])));
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn duplicate_stores_are_suppressed_but_reacked() {
        let server = tcp_server();
        let mut c = dial_and_hello(&server);
        let store = Frame::Store {
            id: 7,
            entries: vec![entry(1, 2, WireTag { seq: 1, writer: 0 }, vec![4])],
        };
        for _ in 0..3 {
            write_frame(&mut c, &store.encode(), DEFAULT_MAX_FRAME).unwrap();
            match read_one(&mut c) {
                Frame::StoreAck { id: 7 } => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(server.registry().counter("snapshotd.stores_applied").get(), 1);
        assert_eq!(
            server
                .registry()
                .counter("snapshotd.duplicates_suppressed")
                .get(),
            2
        );
        server.shutdown();
    }

    #[test]
    fn malformed_and_oversize_frames_get_typed_error_replies() {
        let server = ReplicaServer::spawn(
            ServerConfig::new(Endpoint::Tcp(String::from("127.0.0.1:0")), 0)
                .with_max_frame(256),
        )
        .unwrap();

        // Garbage after the handshake → Malformed, connection dropped.
        let mut c = dial_and_hello(&server);
        write_frame(&mut c, &[250, 1, 2, 3], 256).unwrap();
        match read_one(&mut c) {
            Frame::Error {
                code: ErrorCode::Malformed,
                ..
            } => {}
            other => panic!("{other:?}"),
        }

        // Oversize length prefix (plus its crc slot) → TooLarge.
        let mut c = dial_and_hello(&server);
        c.write_all(&10_000u32.to_le_bytes()).unwrap();
        c.write_all(&0u32.to_le_bytes()).unwrap();
        c.flush().unwrap();
        match read_one(&mut c) {
            Frame::Error {
                code: ErrorCode::TooLarge,
                ..
            } => {}
            other => panic!("{other:?}"),
        }

        // A well-framed body whose bytes were damaged in flight → the
        // crc refuses it before the decoder ever sees it.
        let mut c = dial_and_hello(&server);
        let body = Frame::Query {
            id: 7,
            registers: vec![(0, 0)],
        }
        .encode();
        c.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        c.write_all(&crc32(&body).wrapping_add(1).to_le_bytes()).unwrap();
        c.write_all(&body).unwrap();
        c.flush().unwrap();
        match read_one(&mut c) {
            Frame::Error {
                code: ErrorCode::Malformed,
                detail,
                ..
            } => assert!(detail.contains("crc"), "{detail}"),
            other => panic!("{other:?}"),
        }

        assert_eq!(server.registry().counter("snapshotd.oversize_frames").get(), 1);
        assert_eq!(server.registry().counter("snapshotd.decode_errors").get(), 1);
        assert_eq!(server.registry().counter("snapshotd.corrupt_frames").get(), 1);
        server.shutdown();
    }

    #[test]
    fn handshake_is_mandatory_and_version_checked() {
        let server = tcp_server();

        // First frame not a Hello → Unsupported.
        let mut c = server.endpoint().dial().unwrap();
        write_frame(
            &mut c,
            &Frame::StoreAck { id: 1 }.encode(),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        match read_one(&mut c) {
            Frame::Error {
                code: ErrorCode::Unsupported,
                ..
            } => {}
            other => panic!("{other:?}"),
        }

        // Future protocol version → Unsupported.
        let mut c = server.endpoint().dial().unwrap();
        write_frame(
            &mut c,
            &Frame::Hello {
                version: 999,
                client: 0,
            }
            .encode(),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        match read_one(&mut c) {
            Frame::Error {
                code: ErrorCode::Unsupported,
                detail,
                ..
            } => assert!(detail.contains("999"), "{detail}"),
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn uds_round_trip_and_shutdown_cleans_the_socket_file() {
        let path = std::env::temp_dir().join(format!(
            "snapshot-wire-test-{}.sock",
            std::process::id()
        ));
        let server =
            ReplicaServer::spawn(ServerConfig::new(Endpoint::Uds(path.clone()), 2)).unwrap();
        let mut c = dial_and_hello(&server);
        write_frame(
            &mut c,
            &Frame::Query {
                id: 1,
                registers: vec![(0, 0)],
            }
            .encode(),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        match read_one(&mut c) {
            Frame::QueryReply { id: 1, .. } => {}
            other => panic!("{other:?}"),
        }
        server.shutdown();
        assert!(!path.exists(), "socket file must be removed on shutdown");
    }

    #[test]
    fn state_log_survives_a_server_restart() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("snapshot-wire-state-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(&path));

        let config = || {
            ServerConfig::new(Endpoint::Tcp(String::from("127.0.0.1:0")), 0)
                .with_state_log(path.clone())
        };
        let server = ReplicaServer::spawn(config()).unwrap();
        let mut c = dial_and_hello(&server);
        write_frame(
            &mut c,
            &Frame::Store {
                id: 1,
                entries: vec![entry(0, 1, WireTag { seq: 9, writer: 1 }, vec![8])],
            }
            .encode(),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        match read_one(&mut c) {
            Frame::StoreAck { id: 1 } => {}
            other => panic!("{other:?}"),
        }
        server.shutdown();
        drop(server);

        let server = ReplicaServer::spawn(config()).unwrap();
        let (tag, value) = server.store().get(0, 1).expect("state must be replayed");
        assert_eq!(tag, WireTag { seq: 9, writer: 1 });
        assert_eq!(&value[..], &[8]);
        server.shutdown();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(&path));
    }

    #[test]
    fn graceful_shutdown_checkpoints_so_restart_replays_o_state() {
        let path = std::env::temp_dir().join(format!(
            "snapshot-wire-graceful-{}.log",
            std::process::id()
        ));
        let ckpt = ReplicaStore::checkpoint_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);

        let server = ReplicaServer::spawn(
            ServerConfig::new(Endpoint::Tcp(String::from("127.0.0.1:0")), 0)
                .with_state_log(path.clone()),
        )
        .unwrap();
        let store = server.store();
        for seq in 1..=50u64 {
            store.apply(
                0,
                0,
                WireTag { seq, writer: 0 },
                Arc::from(vec![seq as u8].into_boxed_slice()),
            );
        }
        server.shutdown_graceful(Duration::from_millis(200)).unwrap();
        assert!(ckpt.exists(), "graceful shutdown must leave a checkpoint");

        // The restart replays the checkpoint, not the 50-append history.
        let reloaded = ReplicaStore::open(&path).unwrap();
        assert_eq!(reloaded.recovery().checkpoint_registers, 1);
        assert_eq!(reloaded.recovery().replayed_records, 0);
        let (tag, _) = reloaded.get(0, 0).unwrap();
        assert_eq!(tag, WireTag { seq: 50, writer: 0 });
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn graceful_shutdown_does_not_wait_for_idle_connections() {
        let server = tcp_server();
        let _idle = dial_and_hello(&server);
        let started = Instant::now();
        server.shutdown_graceful(Duration::from_secs(10)).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "an idle connection must count as drained, not burn the grace"
        );
    }

    #[test]
    fn shutdown_is_idempotent_and_severs_live_connections() {
        let server = tcp_server();
        let mut c = dial_and_hello(&server);
        server.shutdown();
        server.shutdown();
        // The connection is dead: reads see EOF/error, not a hang.
        match read_frame(&mut c, DEFAULT_MAX_FRAME) {
            Ok(FrameRead::Eof) | Err(_) => {}
            Ok(FrameRead::Frame(_)) => panic!("no frame expected after shutdown"),
        }
    }
}
