//! One quorum engine, two media: the same register traffic run over the
//! simulated `Network` and over a 3-replica `snapshotd` cluster on
//! Unix-domain sockets must be accounted for identically — one broadcast
//! of 3 messages per phase, one latency sample per reached quorum, no
//! retransmissions on a healthy fleet, and exactly one transport-kind
//! gauge. The engine owns these counters and both transports only carry
//! messages, so a medium that counted on its own would show up here.

use std::sync::Arc;
use std::time::Duration;

use snapshot_abd::{
    AbdRegister, Network, NetworkConfig, RegisterId, RemoteConfig, RemoteTransport, RetryPolicy,
    Transport,
};
use snapshot_obs::{CountingSink, MetricValue, Registry, Sink, Trace};
use snapshot_registers::ProcessId;
use snapshot_wire::{Endpoint, ReplicaServer, ServerConfig};

const REPLICAS: usize = 3;

/// Writes and reads one wire-codec register over `transport`, whose
/// metrics live on `registry` and whose trace feeds `sink`, and checks
/// the engine's accounting of that traffic.
fn write_then_read_is_accounted(
    transport: Arc<dyn Transport>,
    registry: &Registry,
    sink: &CountingSink,
) {
    let sent = registry.counter("abd.messages_sent");
    let retries = registry.counter("abd.retries");
    let latency = registry.histogram("abd.quorum_latency_us");
    let (sent0, retries0, latency0) = (sent.get(), retries.get(), latency.snapshot().count());

    let medium = transport.kind();
    let reg = AbdRegister::with_wire_codec(transport, RegisterId::from_lane_segment(0, 0), 0u64);
    reg.try_write(ProcessId::new(0), 7)
        .expect("write on a healthy fleet");
    assert_eq!(
        reg.try_read(ProcessId::new(1))
            .expect("read on a healthy fleet"),
        7
    );

    // write = query + store; read = query, plus a write-back store only
    // if its quorum disagreed on the tag.
    let phases = sink.count("abd_phase_start");
    assert!((3..=4).contains(&phases), "{medium}: {phases} phases");
    assert_eq!(
        sent.get() - sent0,
        REPLICAS as u64 * phases,
        "{medium}: one broadcast per phase"
    );
    assert_eq!(sink.count("abd_quorum_reached"), phases, "{medium}");
    assert_eq!(
        latency.snapshot().count() - latency0,
        sink.count("abd_quorum_reached"),
        "{medium}: one latency sample per reached quorum"
    );
    assert_eq!(
        retries.get() - retries0,
        0,
        "{medium}: nothing retransmitted"
    );
    let kinds: Vec<String> = registry
        .snapshot()
        .into_iter()
        .filter(|(name, value)| {
            name.starts_with("abd.transport.") && *value == MetricValue::Gauge(1)
        })
        .map(|(name, _)| name)
        .collect();
    assert_eq!(kinds, vec![format!("abd.transport.{medium}")]);
}

fn traced() -> (Arc<CountingSink>, Trace) {
    let sink = Arc::new(CountingSink::new());
    let trace = Trace::new(Arc::clone(&sink) as Arc<dyn Sink>);
    (sink, trace)
}

/// A first retransmission a second away: on a healthy fleet every phase
/// reaches its quorum on the initial broadcast, however loaded the host.
fn patient() -> RetryPolicy {
    RetryPolicy {
        initial_backoff: Duration::from_secs(1),
        ..RetryPolicy::default()
    }
}

#[test]
fn simulated_and_socket_media_account_the_same_traffic_identically() {
    // Over the simulated network.
    let registry = Arc::new(Registry::new());
    let (sink, trace) = traced();
    let net = Arc::new(Network::with_config(
        NetworkConfig::new(REPLICAS)
            .with_retry(patient())
            .with_registry(Arc::clone(&registry))
            .with_trace(trace),
    ));
    write_then_read_is_accounted(net, &registry, &sink);

    // Over a UDS cluster, with the same register address.
    let servers: Vec<ReplicaServer> = (0..REPLICAS)
        .map(|i| {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "transport-accounting-{}-{i}.sock",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            ReplicaServer::spawn(ServerConfig::new(Endpoint::Uds(path), i as u32))
                .expect("spawning replica server")
        })
        .collect();
    let registry = Arc::new(Registry::new());
    let (sink, trace) = traced();
    let remote = Arc::new(RemoteTransport::connect(
        RemoteConfig::new(servers.iter().map(|s| s.endpoint().clone()).collect())
            .with_op_timeout(Duration::from_secs(5))
            .with_retry(patient())
            .with_registry(Arc::clone(&registry))
            .with_trace(trace),
    ));
    assert!(remote.wait_connected(REPLICAS, Duration::from_secs(5)));
    write_then_read_is_accounted(Arc::clone(&remote) as Arc<dyn Transport>, &registry, &sink);
    drop(remote);
    drop(servers);
}
