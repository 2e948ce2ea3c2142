//! Nemesis coverage for the real transport: the unmodified
//! `snapshot-service` stack over `AbdSnapshotCore::remote`, against
//! in-process `snapshotd` replica servers on real Unix-domain and TCP
//! sockets — with a replica killed and restarted mid-soak.
//!
//! This is the paper's Section 6 claim with the simulator taken away:
//! the faults here are a listener actually closing, connections actually
//! resetting, and the client's reconnect-with-backoff plus ABD
//! retransmission riding it out. The contract mirrors `nemesis_abd` /
//! `nemesis_service`:
//!
//! * with a majority of replica processes up (f = 1 of 3), every
//!   operation completes and the recorded history passes the Wing & Gong
//!   checker;
//! * with a majority down, operations surface typed errors
//!   (`ServiceError::Backend`/`Degraded`, rooted in
//!   `AbdError::QuorumUnavailable`) within their budgets — never a panic,
//!   never a hang;
//! * after restart (state intact, same sockets) the same client stack
//!   recovers without reconstruction.
//!
//! On top of the crash/restart rounds, two byte-level nemeses (seeded via
//! `SNAPSHOT_NEMESIS_SEED`, default 7):
//!
//! * a [`HostileProxy`] fronting one replica, corrupting / stalling /
//!   partial-writing / resetting / slow-lorising its stream phase by
//!   phase while the recorded history must still linearize;
//! * a torn-write storm over real `snapshotd` *processes*: each replica
//!   SIGKILLed in turn with its fsync'd state log mangled between
//!   restarts — corruption always CRC-detected in the recovery banner,
//!   never silently replayed.

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use snapshot_abd::{AbdSnapshotCore, RemoteConfig, RemoteTransport, RetryPolicy};
use snapshot_lin::{check_history, Recorder};
use snapshot_obs::{Event, Registry, RingSink, Sink, Trace, TraceEvent};
use snapshot_registers::{ProcessId, SeededRng};
use snapshot_service::{RetryConfig, ServiceConfig, ServiceError, SnapshotService};
use snapshot_wire::{
    drive_phases, Endpoint, HostileKnobs, HostilePhase, HostileProfile, HostileProxy,
    ReplicaServer, ReplicaStore, ServerConfig,
};

const LANES: usize = 3;
const REPLICAS: usize = 3;

/// Seed for the fault plans; override with `SNAPSHOT_NEMESIS_SEED` (the
/// CI matrix runs 7, 21 and 1990).
fn nemesis_seed() -> u64 {
    std::env::var("SNAPSHOT_NEMESIS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn uds_endpoint(tag: &str, i: usize) -> Endpoint {
    let mut path = std::env::temp_dir();
    path.push(format!("nemesis-wire-{}-{tag}-{i}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Endpoint::Uds(path)
}

fn spawn_cluster(
    registry: &Arc<Registry>,
    make_endpoint: impl Fn(usize) -> Endpoint,
) -> (Vec<ReplicaServer>, Vec<Endpoint>) {
    let mut servers = Vec::new();
    let mut endpoints = Vec::new();
    for i in 0..REPLICAS {
        let server = ReplicaServer::spawn(
            ServerConfig::new(make_endpoint(i), i as u32).with_registry(Arc::clone(registry)),
        )
        .expect("spawning in-process snapshotd replica");
        endpoints.push(server.endpoint().clone());
        servers.push(server);
    }
    (servers, endpoints)
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        initial_backoff: Duration::from_micros(500),
        max_backoff: Duration::from_millis(8),
        multiplier: 2,
        jitter: 0.5,
    }
}

fn remote_config(endpoints: Vec<Endpoint>) -> RemoteConfig {
    RemoteConfig::new(endpoints)
        .with_op_timeout(Duration::from_millis(500))
        .with_retry(fast_retry())
        .with_redial(Duration::from_millis(5), Duration::from_millis(50))
}

fn service_over(
    transport: Arc<RemoteTransport>,
) -> SnapshotService<u64, AbdSnapshotCore<u64>> {
    SnapshotService::with_config(
        AbdSnapshotCore::remote(transport, LANES, 0u64),
        ServiceConfig {
            retry: RetryConfig {
                max_attempts: 4,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                multiplier: 2,
                deadline: Duration::from_secs(30),
            },
            ..ServiceConfig::default()
        },
    )
}

/// One round of concurrent service traffic: every lane updates then
/// scans `iters` times; successes are recorded for the checker, failures
/// collected. Returns the errors seen.
fn soak_round(
    service: &SnapshotService<u64, AbdSnapshotCore<u64>>,
    recorder: &Recorder<u64>,
    iters: u64,
    epoch: u64,
) -> Vec<ServiceError> {
    let errors: Mutex<Vec<ServiceError>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for lane in 0..LANES {
            let errors = &errors;
            s.spawn(move || {
                let pid = ProcessId::new(lane);
                let mut client = service.client(lane);
                for k in 1..=iters {
                    let value = (epoch << 48) | ((lane as u64) << 32) | k;
                    let inv = recorder.begin();
                    match client.update(lane, value) {
                        Ok(()) => recorder.end_update(pid, lane, value, inv),
                        Err(e @ ServiceError::Backend { .. }) => {
                            // Indeterminate: the store may have reached a
                            // quorum whose acks we never saw.
                            recorder.pending_update(pid, lane, value, inv);
                            errors.lock().unwrap().push(e);
                        }
                        Err(e @ ServiceError::Degraded { .. }) => errors.lock().unwrap().push(e),
                        Err(other) => panic!("lane {lane}: unexpected error {other:?}"),
                    }
                    let inv = recorder.begin();
                    match client.scan() {
                        Ok(view) => recorder.end_scan(pid, view.to_vec(), inv),
                        Err(e @ (ServiceError::Backend { .. } | ServiceError::Degraded { .. })) => {
                            errors.lock().unwrap().push(e)
                        }
                        Err(other) => panic!("lane {lane}: unexpected error {other:?}"),
                    }
                }
            });
        }
    });
    errors.into_inner().unwrap()
}

/// The tentpole acceptance scenario: a 3-replica UDS cluster serving the
/// unmodified service stack, with replica 2 killed mid-soak and
/// restarted (state intact, same socket) — every success linearizable,
/// f = 1 survived without a single error required.
#[test]
fn uds_cluster_survives_replica_kill_and_restart_linearizably() {
    let server_registry = Arc::new(Registry::new());
    let (mut servers, endpoints) =
        spawn_cluster(&server_registry, |i| uds_endpoint("soak", i));
    let transport = Arc::new(RemoteTransport::connect(remote_config(endpoints)));
    assert!(
        transport.wait_connected(REPLICAS, Duration::from_secs(10)),
        "all replicas must handshake"
    );
    let service = service_over(Arc::clone(&transport));
    // 3 lanes × 2 ops × 7 iters × 3 phases = 126 ops ≤ the checker's 128.
    let recorder = Recorder::new(LANES, LANES, 0u64);

    // Phase 1: full fleet.
    let errors = soak_round(&service, &recorder, 7, 1);
    assert!(
        errors.is_empty(),
        "full fleet over uds must not error: {errors:?}"
    );

    // Phase 2: kill replica 2 (listener closed, connections reset) and
    // soak through it — 2 of 3 is still a majority, so every operation
    // must still complete.
    let killed = servers.remove(2);
    let store = killed.store();
    let endpoint = killed.endpoint().clone();
    drop(killed);
    let errors = soak_round(&service, &recorder, 7, 2);
    assert!(
        errors.is_empty(),
        "f=1 must be survived without surfacing errors: {errors:?}"
    );

    // Phase 3: restart it on the same socket with its state intact; the
    // transport's connection threads redial and the fleet heals to 3/3.
    servers.push(
        ReplicaServer::spawn_with_store(
            ServerConfig::new(endpoint, 2).with_registry(Arc::clone(&server_registry)),
            store,
        )
        .expect("restarting replica 2"),
    );
    assert!(
        transport.wait_connected(REPLICAS, Duration::from_secs(10)),
        "restarted replica must be redialed"
    );
    let errors = soak_round(&service, &recorder, 7, 3);
    assert!(errors.is_empty(), "healed fleet must not error: {errors:?}");

    // Every recorded operation — spanning the kill and the restart —
    // forms one linearizable snapshot history.
    let history = recorder.finish();
    let result = check_history(&history);
    assert!(
        result.is_linearizable(),
        "wire soak history rejected ({result:?}): {history:?}"
    );

    // The faults were real: the killed replica's connection dropped and
    // was redialed (visible in the client's abd.wire.* counters).
    let registry = Arc::clone(transport.registry());
    assert!(
        registry.counter("abd.wire.disconnects").get() >= 1,
        "the kill must register as a disconnect"
    );
    assert!(
        registry.counter("abd.wire.connects").get() >= (REPLICAS + 1) as u64,
        "the restart must register as a reconnect"
    );
    assert_eq!(registry.gauge("abd.transport.uds").get(), 1);
    assert!(transport.stats().messages_sent > 0);
}

/// Killing a majority crosses the liveness boundary: requests fail with
/// typed service errors within their budgets, and the *same* service
/// object recovers once the replicas are back.
#[test]
fn uds_majority_kill_yields_typed_errors_then_recovers() {
    let server_registry = Arc::new(Registry::new());
    let (mut servers, endpoints) =
        spawn_cluster(&server_registry, |i| uds_endpoint("blackout", i));
    let transport = Arc::new(RemoteTransport::connect(remote_config(endpoints)));
    assert!(transport.wait_connected(REPLICAS, Duration::from_secs(10)));
    let service = service_over(Arc::clone(&transport));

    let mut client = service.client(0);
    client.update(0, 41).expect("update with full fleet");

    // Kill replicas 1 and 2: only a minority remains.
    let dead: Vec<_> = (0..2)
        .map(|_| {
            let s = servers.pop().expect("two replicas to kill");
            let (store, endpoint, index) =
                (s.store(), s.endpoint().clone(), s.replica_index());
            drop(s);
            (store, endpoint, index)
        })
        .collect();

    let mut typed_failures = 0;
    for _ in 0..2 {
        match client.scan() {
            Ok(view) => panic!("a minority fleet served a scan: {view:?}"),
            Err(ServiceError::Backend { .. } | ServiceError::Degraded { .. }) => {
                typed_failures += 1
            }
            Err(other) => panic!("unexpected error shape: {other:?}"),
        }
    }
    assert_eq!(typed_failures, 2, "every blackout request fails typed");

    // Restart both (same sockets, state intact): the service heals.
    for (store, endpoint, index) in dead {
        servers.push(
            ReplicaServer::spawn_with_store(
                ServerConfig::new(endpoint, index).with_registry(Arc::clone(&server_registry)),
                store,
            )
            .expect("restarting a killed replica"),
        );
    }
    assert!(transport.wait_connected(REPLICAS, Duration::from_secs(10)));
    let mut view = None;
    for _ in 0..50 {
        match client.scan() {
            Ok(v) => {
                view = Some(v);
                break;
            }
            Err(ServiceError::Degraded { retry_after, .. }) => std::thread::sleep(retry_after),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let view = view.expect("service must recover after the fleet returns");
    assert_eq!(view[0], 41, "the pre-blackout update survived the kill");
}

/// The same stack over TCP loopback: ephemeral ports, the `tcp`
/// transport label, and scan/update round-trips through the service.
#[test]
fn tcp_loopback_cluster_serves_the_service_stack() {
    let server_registry = Arc::new(Registry::new());
    let (servers, endpoints) = spawn_cluster(&server_registry, |_| {
        Endpoint::parse("tcp:127.0.0.1:0").expect("loopback endpoint")
    });
    let transport = Arc::new(RemoteTransport::connect(remote_config(endpoints)));
    assert!(transport.wait_connected(REPLICAS, Duration::from_secs(10)));
    assert_eq!(snapshot_abd::Transport::kind(&*transport), "tcp");
    let service = service_over(Arc::clone(&transport));
    let recorder = Recorder::new(LANES, LANES, 0u64);

    let errors = soak_round(&service, &recorder, 8, 1);
    assert!(errors.is_empty(), "loopback tcp must not error: {errors:?}");

    let history = recorder.finish();
    let result = check_history(&history);
    assert!(
        result.is_linearizable(),
        "tcp history rejected ({result:?}): {history:?}"
    );

    // Transport label + unified metric names: the same `abd.*` keys the
    // simulated network reports, under the `tcp` marker gauge.
    let registry = Arc::clone(transport.registry());
    assert_eq!(registry.gauge("abd.transport.tcp").get(), 1);
    let rendered = registry.render();
    assert!(rendered.contains("abd.messages_sent"), "{rendered}");
    assert!(rendered.contains("abd.quorum_latency_us"), "{rendered}");
    // And the replica side accounted for the traffic it served.
    assert!(server_registry.counter("snapshotd.frames_in").get() > 0);
    assert!(server_registry.counter("snapshotd.stores_applied").get() > 0);
    drop(service);
    drop(transport);
    drop(servers);
}

// ---------------------------------------------------------------------
// Byte-level hostility: the HostileProxy nemesis.
// ---------------------------------------------------------------------

/// A sink that forwards only connection-lifecycle events to the inner
/// ring, so high-rate per-op traffic cannot evict the dial/drop record
/// the hostile test asserts on.
struct TransportLifecycleOnly(Arc<RingSink>);

impl Sink for TransportLifecycleOnly {
    fn emit(&self, event: TraceEvent) {
        if matches!(
            event.event,
            Event::TransportDial { .. }
                | Event::TransportConnected { .. }
                | Event::TransportDropped { .. }
        ) {
            self.0.emit(event);
        }
    }
}

/// Replica 0's traffic routed through a [`HostileProxy`] driven through
/// the canned fault phases — corruption, stalls + partial writes,
/// mid-frame resets, slow-loris — while replicas 1 and 2 stay clean. A
/// majority is always healthy, so every recorded success must still
/// linearize; the damaged connection costs only itself, absorbed by the
/// client's typed-error reconnect paths (visible as `TransportDropped` /
/// `TransportConnected` trace events and `abd.wire.*` counters).
#[test]
fn hostile_proxy_byte_faults_keep_successes_linearizable() {
    let seed = nemesis_seed();
    let server_registry = Arc::new(Registry::new());
    let (servers, endpoints) = spawn_cluster(&server_registry, |i| uds_endpoint("hostile", i));
    let knobs = HostileKnobs::new();
    let proxy = HostileProxy::spawn(
        uds_endpoint("hostile-proxy", 0),
        endpoints[0].clone(),
        Arc::clone(&knobs),
        seed,
    )
    .expect("spawning hostile proxy");
    let mut client_endpoints = endpoints.clone();
    client_endpoints[0] = proxy.endpoint().clone();

    // The scan loop below emits tens of thousands of per-op events; a
    // plain ring would evict the handful of connection-lifecycle events
    // this test is actually about, so the sink keeps only those.
    let ring = Arc::new(RingSink::new(REPLICAS, 16_384));
    let lifecycle = Arc::new(TransportLifecycleOnly(Arc::clone(&ring)));
    let transport = Arc::new(RemoteTransport::connect(
        remote_config(client_endpoints).with_trace(Trace::new(lifecycle)),
    ));
    assert!(
        transport.wait_connected(REPLICAS, Duration::from_secs(10)),
        "all replicas must handshake through the (still clean) proxy"
    );
    let service = service_over(Arc::clone(&transport));
    let recorder = Recorder::new(LANES, LANES, 0u64);

    // Clean warm-up: 3 lanes × 2 ops × 3 iters = 18 ops.
    let errors = soak_round(&service, &recorder, 3, 1);
    assert!(errors.is_empty(), "clean warm-up must not error: {errors:?}");

    // Fault phases over the proxy while two kinds of traffic flow: a
    // recorded soak (successes checked below) and an unrecorded scan
    // loop that keeps bytes on the wire for every phase's full dwell.
    // Reset runs first, against a fresh connection under full traffic:
    // once a fault kills the proxied connection, a damaged re-handshake
    // can park the redial loop for its full 2 s timeout, so later phases
    // only see trickles — which is itself part of the hostility.
    let phases = [
        HostilePhase::new(HostileProfile::Reset, Duration::from_millis(150)),
        HostilePhase::new(HostileProfile::Corrupt, Duration::from_millis(150)),
        HostilePhase::new(HostileProfile::Stall, Duration::from_millis(150)),
        HostilePhase::new(HostileProfile::SlowLoris, Duration::from_millis(150)),
    ];
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let knobs = &knobs;
        let done = &done;
        let phases = &phases;
        s.spawn(move || {
            drive_phases(knobs, phases);
            done.store(true, Ordering::Release);
        });
        // Lane claims are exclusive per service, so the filler gets its
        // own service instance over the same transport.
        let filler = service_over(Arc::clone(&transport));
        s.spawn(move || {
            let mut client = filler.client(0);
            while !done.load(Ordering::Acquire) {
                let _ = client.scan();
            }
        });
        // Recorded traffic through the storm: quorum 2/3 stays clean, so
        // ops complete; typed failures are tolerated (updates recorded
        // as pending), anything untyped panics inside soak_round.
        let _storm_errors = soak_round(&service, &recorder, 7, 2);
    });

    // The faults were real and the reconnect machinery absorbed them.
    assert!(
        knobs.total_faults() > 0,
        "the proxy must have injected at least one fault"
    );
    assert!(
        knobs.resets() > 0,
        "the reset phase must have cut at least one connection"
    );
    let registry = Arc::clone(transport.registry());
    assert!(
        registry.counter("abd.wire.disconnects").get() >= 1,
        "a proxy reset must surface as a transport disconnect"
    );

    // drive_phases ends on Clean: the fleet heals to 3/3 and a final
    // recorded round is error-free. 18 + 42 + 18 = 78 ops ≤ 128.
    assert!(
        transport.wait_connected(REPLICAS, Duration::from_secs(10)),
        "the proxied replica must be redialed once the knobs go clean"
    );
    let errors = soak_round(&service, &recorder, 3, 3);
    assert!(errors.is_empty(), "healed fleet must not error: {errors:?}");

    let history = recorder.finish();
    let result = check_history(&history);
    assert!(
        result.is_linearizable(),
        "hostile-wire history rejected ({result:?}): {history:?}"
    );

    // The drop and the redial were observable on the trace plane too.
    let events = ring.drain();
    let transport_events: Vec<_> = events
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                Event::TransportDial { .. }
                    | Event::TransportConnected { .. }
                    | Event::TransportDropped { .. }
            )
        })
        .collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::TransportDropped { replica: 0, .. })),
        "expected a TransportDropped event for the proxied replica; saw {transport_events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::TransportConnected { replica: 0, .. })),
        "expected a TransportConnected event for the proxied replica; saw {transport_events:?}"
    );

    drop(service);
    drop(transport);
    proxy.shutdown();
    drop(servers);
}

// ---------------------------------------------------------------------
// The torn-write storm: real processes, mangled fsync'd logs.
// ---------------------------------------------------------------------

fn snapshotd_bin() -> Option<String> {
    option_env!("CARGO_BIN_EXE_snapshotd")
        .map(str::to_owned)
        .or_else(|| std::env::var("SNAPSHOTD_BIN").ok())
}

/// Spawns one durable `snapshotd` process (`--fsync always --recover
/// truncate`) and blocks until its "listening on" banner; returns the
/// child plus the `recovered:` banner line the storm asserts against.
fn spawn_durable_replica(
    bin: &str,
    endpoint: &Endpoint,
    index: usize,
    state: &Path,
) -> (Child, String) {
    let mut child = Command::new(bin)
        .args([
            "--listen",
            &endpoint.to_string(),
            "--replica",
            &index.to_string(),
            "--state",
            &state.display().to_string(),
            "--fsync",
            "always",
            "--recover",
            "truncate",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawning durable snapshotd process");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut recovered = String::new();
    loop {
        let line = lines
            .next()
            .expect("snapshotd exited before its banner")
            .expect("reading snapshotd banner");
        if line.contains("recovered:") {
            recovered = line;
        } else if line.contains("listening on") {
            break;
        }
    }
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, recovered)
}

/// Extracts `key=value` from a recovery banner line.
fn banner_field(banner: &str, key: &str) -> String {
    banner
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).map(str::to_owned))
        .unwrap_or_default()
}

/// What the storm did to a victim's state log between restarts.
#[derive(Debug)]
enum Mangle {
    /// Flipped a byte inside the last (complete, fsync'd) record — a
    /// CRC-detectable mid-record corruption.
    Flip,
    /// Sheared a few bytes off the end — a torn final write.
    Shear,
}

/// Mangles only the log's *tail* (the victim's own latest record): with
/// fsync=always and a full fleet during every soak, that record is also
/// durable on both other replicas, so recovery-by-truncation never
/// destroys a value's last surviving copy and the checked history stays
/// honest.
fn mangle_log_tail(path: &Path, flip: bool) -> Option<Mangle> {
    let len = std::fs::metadata(path).ok()?.len();
    if len <= 16 {
        return None; // header only: nothing worth mangling
    }
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .ok()?;
    if flip {
        // len-5 always lands inside the final record's body (records are
        // ≥ 37 bytes), so the replayed CRC cannot match.
        file.seek(SeekFrom::Start(len - 5)).ok()?;
        let mut byte = [0u8; 1];
        file.read_exact(&mut byte).ok()?;
        file.seek(SeekFrom::Start(len - 5)).ok()?;
        file.write_all(&[byte[0] ^ 0x40]).ok()?;
        file.sync_all().ok()?;
        Some(Mangle::Flip)
    } else {
        // A 3-byte shear can never land on a record boundary, so the
        // final record is torn and recovery must count the drop.
        file.set_len(len - 3).ok()?;
        file.sync_all().ok()?;
        Some(Mangle::Shear)
    }
}

/// The crash-recovery acceptance scenario: three `snapshotd` *processes*
/// with fsync=always state logs over UDS, each SIGKILLed in turn with
/// its log tail mangled — a flipped byte (CRC corruption) or a sheared
/// tail (torn write) — before restarting under `--recover=truncate`.
/// Every mangle is detected and reported in the recovery banner (never
/// silently replayed), the fleet heals after every restart, and all
/// recorded successes across the storm form one linearizable history.
#[test]
fn snapshotd_torn_write_storm_recovers_with_crc_detection() {
    let Some(bin) = snapshotd_bin() else {
        eprintln!("skipping: no snapshotd binary (set SNAPSHOTD_BIN or run under cargo)");
        return;
    };
    let mut rng = SeededRng::new(nemesis_seed());

    let endpoints: Vec<Endpoint> = (0..REPLICAS).map(|i| uds_endpoint("storm", i)).collect();
    let logs: Vec<PathBuf> = (0..REPLICAS)
        .map(|i| {
            std::env::temp_dir().join(format!("nemesis-storm-{}-{i}.log", std::process::id()))
        })
        .collect();
    for log in &logs {
        let _ = std::fs::remove_file(log);
        let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(log));
    }
    let mut children: Vec<Child> = (0..REPLICAS)
        .map(|i| spawn_durable_replica(&bin, &endpoints[i], i, &logs[i]).0)
        .collect();

    let transport = Arc::new(RemoteTransport::connect(remote_config(endpoints.clone())));
    assert!(
        transport.wait_connected(REPLICAS, Duration::from_secs(10)),
        "handshake with all durable replica processes"
    );
    let service = service_over(Arc::clone(&transport));
    // 4 soaks × (3 lanes × 2 ops × 3 iters) = 72 ops ≤ the checker's 128.
    let recorder = Recorder::new(LANES, LANES, 0u64);

    let errors = soak_round(&service, &recorder, 3, 1);
    assert!(errors.is_empty(), "durable full fleet must not error: {errors:?}");

    let mut mangled_rounds = 0u32;
    for victim in 0..REPLICAS {
        children[victim].kill().expect("SIGKILL the victim replica");
        children[victim].wait().expect("reaping the victim replica");

        let mangle = mangle_log_tail(&logs[victim], rng.chance(0.5));
        let (child, recovered) =
            spawn_durable_replica(&bin, &endpoints[victim], victim, &logs[victim]);
        children[victim] = child;
        match mangle {
            Some(Mangle::Flip) => {
                mangled_rounds += 1;
                let corrupt = banner_field(&recovered, "corrupt=");
                assert!(
                    corrupt.parse::<u64>().is_ok(),
                    "flipped byte must be CRC-detected (corrupt=<offset>), got: {recovered}"
                );
            }
            Some(Mangle::Shear) => {
                mangled_rounds += 1;
                let torn: u64 = banner_field(&recovered, "truncated_bytes=")
                    .parse()
                    .unwrap_or_else(|_| panic!("unparseable recovery banner: {recovered}"));
                assert!(torn > 0, "sheared tail must be counted, got: {recovered}");
            }
            None => {}
        }

        assert!(
            transport.wait_connected(REPLICAS, Duration::from_secs(10)),
            "restarted replica {victim} must be redialed"
        );
        let errors = soak_round(&service, &recorder, 3, victim as u64 + 2);
        assert!(errors.is_empty(), "healed fleet must not error: {errors:?}");
    }
    assert!(
        mangled_rounds >= 2,
        "the storm must actually have mangled state logs"
    );
    assert!(
        transport.registry().counter("abd.wire.disconnects").get() >= REPLICAS as u64,
        "every SIGKILL must surface as a connection drop"
    );

    let history = recorder.finish();
    let result = check_history(&history);
    assert!(
        result.is_linearizable(),
        "torn-write storm history rejected ({result:?})"
    );

    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    for log in &logs {
        let _ = std::fs::remove_file(log);
        let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(log));
    }
}
