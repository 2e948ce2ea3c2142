//! Multi-process smoke: real `snapshotd` replica *processes* (the
//! workspace binary, not in-process servers) serving the unmodified
//! snapshot-service stack over Unix-domain sockets, surviving one
//! replica killed with SIGKILL mid-run.
//!
//! Under cargo the binary path arrives via `CARGO_BIN_EXE_snapshotd`;
//! outside cargo (offline harnesses) set `SNAPSHOTD_BIN`. With neither,
//! the test skips rather than fails — the same scenario is covered
//! in-process by `nemesis_wire.rs`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use snapshot_abd::{AbdSnapshotCore, RemoteConfig, RemoteTransport, RetryPolicy};
use snapshot_lin::{check_history, Recorder};
use snapshot_registers::ProcessId;
use snapshot_service::{RetryConfig, ServiceConfig, ServiceError, SnapshotService};
use snapshot_wire::{Endpoint, ReplicaStore};

const REPLICAS: usize = 3;
const LANES: usize = 2;

fn snapshotd_bin() -> Option<String> {
    option_env!("CARGO_BIN_EXE_snapshotd")
        .map(str::to_owned)
        .or_else(|| std::env::var("SNAPSHOTD_BIN").ok())
}

/// A `snapshotd` child, killed and reaped on drop. `Child` does neither,
/// and the children inherit stderr: an orphan left by a failed assertion
/// holds open any pipe reading the test's output.
struct Replica(Child);

impl Drop for Replica {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns one `snapshotd` process and blocks until it prints its
/// "listening on" banner (the socket is accepting by then).
fn spawn_replica(bin: &str, endpoint: &Endpoint, index: usize) -> Replica {
    let mut child = Replica(
        Command::new(bin)
            .args(["--listen", &endpoint.to_string(), "--replica", &index.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawning snapshotd process"),
    );
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("snapshotd exited before its banner")
        .expect("reading snapshotd banner");
    assert!(
        banner.contains("listening on"),
        "unexpected snapshotd banner: {banner}"
    );
    // Keep draining stdout in the background so the child never blocks
    // on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    child
}

#[test]
fn snapshotd_processes_serve_the_service_and_survive_a_sigkill() {
    let Some(bin) = snapshotd_bin() else {
        eprintln!("skipping: no snapshotd binary (set SNAPSHOTD_BIN or run under cargo)");
        return;
    };

    let endpoints: Vec<Endpoint> = (0..REPLICAS)
        .map(|i| {
            let mut path = std::env::temp_dir();
            path.push(format!("snapshotd-proc-{}-{i}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            Endpoint::Uds(path)
        })
        .collect();
    let mut children: Vec<Replica> = endpoints
        .iter()
        .enumerate()
        .map(|(i, e)| spawn_replica(&bin, e, i))
        .collect();

    let transport = Arc::new(RemoteTransport::connect(
        RemoteConfig::new(endpoints)
            .with_op_timeout(Duration::from_secs(2))
            .with_retry(RetryPolicy {
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                multiplier: 2,
                jitter: 0.5,
            })
            .with_redial(Duration::from_millis(5), Duration::from_millis(100)),
    ));
    assert!(
        transport.wait_connected(REPLICAS, Duration::from_secs(10)),
        "handshake with all replica processes"
    );

    let core_transport: Arc<dyn snapshot_abd::Transport> = transport.clone();
    let service = SnapshotService::with_config(
        AbdSnapshotCore::remote(core_transport, LANES, 0u64),
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
    );
    let recorder = Recorder::new(LANES, LANES, 0u64);

    let soak = |iters: u64, epoch: u64| {
        std::thread::scope(|s| {
            for lane in 0..LANES {
                let service = &service;
                let recorder = &recorder;
                s.spawn(move || {
                    let pid = ProcessId::new(lane);
                    let mut client = service.client(lane);
                    for k in 1..=iters {
                        let value = (epoch << 48) | ((lane as u64) << 32) | k;
                        let inv = recorder.begin();
                        match client.update(lane, value) {
                            Ok(()) => recorder.end_update(pid, lane, value, inv),
                            Err(ServiceError::Backend { .. }) => {
                                recorder.pending_update(pid, lane, value, inv)
                            }
                            Err(e) => panic!("lane {lane} epoch {epoch}: {e:?}"),
                        }
                        let inv = recorder.begin();
                        match client.scan() {
                            Ok(view) => recorder.end_scan(pid, view.to_vec(), inv),
                            Err(ServiceError::Backend { .. } | ServiceError::Degraded { .. }) => {}
                            Err(e) => panic!("lane {lane} epoch {epoch}: {e:?}"),
                        }
                    }
                });
            }
        });
    };

    // Full fleet, then SIGKILL one replica process and keep going: 2 of
    // 3 live processes is a majority, so the service stays up.
    soak(10, 1);
    children[2].0.kill().expect("SIGKILL replica 2");
    children[2].0.wait().expect("reaping replica 2");
    soak(10, 2);

    // 2 lanes × 2 ops × 10 iters × 2 epochs = 80 ops ≤ 128.
    let history = recorder.finish();
    let result = check_history(&history);
    assert!(
        result.is_linearizable(),
        "multi-process history rejected ({result:?})"
    );
    assert!(
        transport.registry().counter("abd.wire.disconnects").get() >= 1,
        "the SIGKILL must surface as a connection drop"
    );
}

// ---------------------------------------------------------------------
// Graceful shutdown: SIGTERM drains, checkpoints, exits 0.
// ---------------------------------------------------------------------

/// Spawns a durable `snapshotd` (`--state` + `--fsync always`), blocks
/// until it is accepting, and returns the child, its `recovered:`
/// banner, and a handle collecting the rest of its stdout.
fn spawn_durable(
    bin: &str,
    endpoint: &Endpoint,
    state: &Path,
) -> (Replica, String, std::thread::JoinHandle<Vec<String>>) {
    let mut child = Replica(
        Command::new(bin)
            .args([
                "--listen",
                &endpoint.to_string(),
                "--replica",
                "0",
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
            .expect("spawning durable snapshotd process"),
    );
    let stdout = child.0.stdout.take().expect("piped stdout");
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
    assert!(!recovered.is_empty(), "durable snapshotd must print a recovery banner");
    let drain = std::thread::spawn(move || lines.map_while(Result::ok).collect());
    (child, recovered, drain)
}

/// `key=value` extraction from a recovery banner.
fn banner_field(banner: &str, key: &str) -> String {
    banner
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key))
        .unwrap_or_else(|| panic!("banner lacks {key}: {banner}"))
        .to_owned()
}

/// SIGTERM on a durable replica: the process drains, writes a final
/// fsynced checkpoint, and exits 0; a restart replays *zero* log
/// records (everything is in the checkpoint — O(state) recovery) and
/// serves the exact pre-shutdown values.
#[test]
fn sigterm_shuts_down_gracefully_and_restart_replays_the_checkpoint() {
    let Some(bin) = snapshotd_bin() else {
        eprintln!("skipping: no snapshotd binary (set SNAPSHOTD_BIN or run under cargo)");
        return;
    };

    let mut sock = std::env::temp_dir();
    sock.push(format!("snapshotd-term-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let endpoint = Endpoint::Uds(sock);
    let mut state = std::env::temp_dir();
    state.push(format!("snapshotd-term-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&state);
    let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(&state));

    let (mut child, recovered, drain) = spawn_durable(&bin, &endpoint, &state);
    assert_eq!(banner_field(&recovered, "registers="), "0", "{recovered}");

    // A single-replica cluster: quorum 1, so the service runs against
    // exactly the process under test.
    let connect_service = || {
        let transport = Arc::new(RemoteTransport::connect(
            RemoteConfig::new(vec![endpoint.clone()])
                .with_op_timeout(Duration::from_secs(2))
                .with_redial(Duration::from_millis(5), Duration::from_millis(100)),
        ));
        assert!(
            transport.wait_connected(1, Duration::from_secs(10)),
            "handshake with the durable replica"
        );
        let core: Arc<dyn snapshot_abd::Transport> = transport;
        SnapshotService::new(AbdSnapshotCore::remote(core, LANES, 0u64))
    };

    let service = connect_service();
    for lane in 0..LANES {
        let mut client = service.client(lane);
        client
            .update(lane, 0xD00D_0000 + lane as u64)
            .expect("durable update");
    }
    let expected: Vec<u64> = (0..LANES).map(|lane| 0xD00D_0000 + lane as u64).collect();
    assert_eq!(service.client(0).scan().expect("pre-shutdown scan").to_vec(), expected);
    drop(service);

    // SIGTERM (not SIGKILL): the server announces the drain, writes a
    // final checkpoint, and exits 0.
    let status = Command::new("kill")
        .args(["-TERM", &child.0.id().to_string()])
        .status()
        .expect("sending SIGTERM");
    assert!(status.success(), "kill -TERM failed");
    let exit = child.0.wait().expect("reaping after SIGTERM");
    assert!(exit.success(), "SIGTERM must exit 0, got {exit:?}");
    let tail = drain.join().expect("joining stdout drain");
    assert!(
        tail.iter().any(|l| l.contains("SIGTERM: draining")),
        "missing drain announcement in {tail:?}"
    );
    assert!(
        tail.iter()
            .any(|l| l.contains("shutdown complete: final checkpoint written")),
        "missing shutdown banner in {tail:?}"
    );

    // Restart on the same state: recovery must come entirely from the
    // checkpoint — zero replayed log records — with every value intact.
    let (child, recovered, drain) = spawn_durable(&bin, &endpoint, &state);
    assert_eq!(
        banner_field(&recovered, "replayed="),
        "0",
        "post-checkpoint restart must replay nothing: {recovered}"
    );
    let registers: u64 = banner_field(&recovered, "registers=")
        .parse()
        .expect("registers= must be numeric");
    assert!(registers >= LANES as u64, "{recovered}");

    let service = connect_service();
    assert_eq!(
        service.client(0).scan().expect("post-restart scan").to_vec(),
        expected,
        "restart must serve the exact pre-shutdown state"
    );
    drop(service);

    drop(child);
    drop(drain);
    let _ = std::fs::remove_file(&state);
    let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(&state));
}
