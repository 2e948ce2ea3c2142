//! The fault-tolerant service mode end to end: a coalescing snapshot
//! service over an `AbdSnapshotCore` (Figure 2 running fallibly on
//! ABD-replicated registers), walked through the whole failure path —
//! replica crashes → quorum loss → typed `Backend` errors within the
//! retry budget → the per-shard health gate shedding with `Degraded` →
//! heal → half-open probe → full recovery.
//!
//! The whole run is causally traced: a [`FlightRecorder`] rides the same
//! trace as the ring buffer, so the breaker trip and the expired deadline
//! each freeze a black-box dump of the spans leading up to them. Pass an
//! output path as the first argument to write the breaker-trip dump as
//! JSON-lines (plus a chrome://tracing span file next to it) for offline
//! forensics.
//!
//! Run with: `cargo run --release --example fault_tolerant_service`

use std::sync::Arc;
use std::time::Duration;

use snapshot_abd::{AbdSnapshotCore, Network, NetworkConfig, RetryPolicy};
use snapshot_obs::{
    chrome_tracing, DumpCause, FanoutSink, FlightRecorder, Registry, RingSink, Trace,
};
use snapshot_service::{
    HealthConfig, RetryConfig, ServiceConfig, ServiceError, SnapshotService,
};

fn main() {
    const LANES: usize = 3;
    const REPLICAS: usize = 5;

    let registry = Registry::new();
    // One trace plane for the whole stack: the ring keeps a rolling
    // window for the final report, the flight recorder freezes a dump
    // whenever a breaker trips or a deadline expires.
    let ring = Arc::new(RingSink::new(LANES, 8_192));
    let recorder = Arc::new(FlightRecorder::with_max_dumps(4_096, 16));
    let trace = Trace::new(Arc::new(FanoutSink::new(vec![ring.clone(), recorder.clone()])));
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(REPLICAS)
            .with_op_timeout(Duration::from_millis(50))
            .with_retry(RetryPolicy {
                initial_backoff: Duration::from_micros(300),
                max_backoff: Duration::from_millis(4),
                multiplier: 2,
                jitter: 0.5,
            })
            .with_trace(trace.clone()),
    ));
    println!(
        "replica network: {REPLICAS} replicas, quorum {}, tolerates {} crash(es)",
        network.quorum(),
        network.fault_tolerance()
    );

    let service = SnapshotService::with_config(
        AbdSnapshotCore::new(&network, LANES, 0u64),
        ServiceConfig {
            retry: RetryConfig {
                max_attempts: 2,
                initial_backoff: Duration::from_micros(500),
                ..RetryConfig::default()
            },
            health: HealthConfig {
                // Trip as soon as the 8-outcome window is half errors with
                // at least two outcomes recorded: the two failed attempts
                // of one exhausted retry budget are enough.
                window: 8,
                trip_error_pct: 50,
                min_volume: 2,
                cooldown: Duration::from_millis(100),
                // One good probe closes the breaker again.
                ramp_successes: 1,
                ramp_tokens: 4,
                ramp_interval: Duration::from_millis(5),
                jitter_pct: 25,
            },
            ..ServiceConfig::default()
        },
    )
    .with_registry(&registry)
    .with_trace(trace);

    // Healthy fleet: every operation succeeds, scans coalesce as usual.
    let mut client = service.client(0);
    client.update(0, 10).expect("healthy quorum");
    service.client(1).update(1, 20).expect("healthy quorum");
    println!("scan (all replicas up)       : {:?}", &client.scan().unwrap()[..]);

    // Crash a *majority*. Liveness is gone: each operation burns its
    // retry budget against starving quorum phases and comes back as a
    // typed `Backend` error — never a hang, never a panic.
    println!("crashing replicas 0, 1, 2 (a majority) ...");
    network.crash(0);
    network.crash(1);
    network.crash(2);

    // A budgeted partial scan against the dead majority does not burn
    // the full retry ladder: the wall-clock budget caps the quorum wait,
    // the request comes back as a typed `DeadlineExceeded`, and the
    // flight recorder freezes a dump of the spans leading up to the
    // expiry.
    match client.scan_subset_with_stats(&[1], Some(Duration::from_millis(5))) {
        Err(ServiceError::DeadlineExceeded { .. }) => {
            println!("scan (5ms deadline budget)   : DeadlineExceeded under the blackout");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    match client.scan() {
        Err(ServiceError::Backend { attempts, error }) => {
            println!("scan (majority down)         : Backend after {attempts} attempts: {error}");
        }
        other => panic!("expected a Backend error, got {other:?}"),
    }

    // That failure tripped the health gate: the two failed attempts put
    // the outcome window at 100% errors over the volume guard. Further
    // requests are shed *before touching the sick quorum*, with a
    // jittered hint saying when to come back.
    match client.scan() {
        Err(ServiceError::Degraded { shard, retry_after }) => {
            println!("scan (breaker open)          : Degraded, shard {shard}, retry in {retry_after:?}");
        }
        Err(ServiceError::Backend { attempts, error }) => {
            println!("scan (still probing)         : Backend after {attempts} attempts: {error}");
        }
        other => panic!("expected Degraded or Backend, got {other:?}"),
    }
    println!("degraded shards              : {:?}", service.degraded_shards());

    // Heal: restart the crashed majority, wait out the cooldown, and walk
    // the half-open priority ramp — probe-class traffic is admitted
    // first, so a cheap health probe (not a client's full scan) is what
    // verifies the quorum recovered and closes the breaker.
    println!("restarting replicas 0, 1, 2 ...");
    network.restart(0);
    network.restart(1);
    network.restart(2);
    for shard in 0..LANES {
        loop {
            match client.probe_shard(shard) {
                Ok(()) => break,
                Err(ServiceError::Degraded { retry_after, .. }) => std::thread::sleep(retry_after),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
    let view = client.scan().expect("breaker closed after the probe");
    println!("scan (healed, probe passed)  : {:?}", &view[..]);
    assert_eq!(view[0], 10);
    assert_eq!(view[1], 20);
    assert!(service.degraded_shards().is_empty(), "breaker closed after the probe");

    client.update(0, 11).expect("healed quorum");
    println!("scan (back to normal)        : {:?}", &client.scan().unwrap()[..]);

    // Every operation can also carry a wall-clock budget: it completes
    // within the budget or returns a typed `DeadlineExceeded` — it never
    // parks past its deadline, even coalesced behind a slower leader.
    let (view, _) =
        client.scan_with_stats(Some(Duration::from_secs(1))).expect("healthy quorum is fast");
    assert_eq!(view[0], 11);
    println!("scan (1s deadline budget)    : {:?}", &view[..]);

    println!("\nfault accounting:");
    for name in [
        "service.fault.backend_errors",
        "service.fault.retries",
        "service.fault.retry_exhausted",
        "service.fault.degraded_shed",
        "service.fault.deadline_exceeded",
        "service.load.shed",
        "service.coalesce.abdicated",
    ] {
        println!("  {name:<34} {}", registry.counter(name).get());
    }
    assert!(registry.counter("service.fault.backend_errors").get() >= 1);
    assert_eq!(service.inflight(), 0);
    assert_eq!(service.coalescing_waiters(), 0);

    // The anomalies above each froze a black-box dump: the expired
    // deadline and the breaker trip both captured the span tree of the
    // requests leading up to them.
    let dumps = recorder.dumps();
    println!(
        "\nflight recorder: {} dump(s) captured, {} suppressed",
        dumps.len(),
        recorder.suppressed()
    );
    for dump in &dumps {
        println!(
            "  cause {:<18} trigger_seq {:<6} events {}",
            dump.cause.name(),
            dump.trigger_seq,
            dump.events.len()
        );
    }
    assert!(dumps.iter().any(|d| d.cause == DumpCause::DeadlineExceeded));
    let trip = dumps
        .iter()
        .find(|d| d.cause == DumpCause::BreakerTrip)
        .expect("the blackout tripped the breaker");
    let rendered = trip.render();
    println!("breaker-trip dump header     : {}", rendered.lines().next().unwrap());

    // With an output path, write the dump (JSON-lines, same schema as an
    // ordinary trace dump) and the ring's span trace (chrome://tracing).
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &rendered).expect("write the flight dump");
        let events = ring.drain();
        std::fs::write(format!("{path}.chrome.json"), chrome_tracing(&events))
            .expect("write the chrome span trace");
        println!("flight dump written to {path} (+ .chrome.json span trace)");
    }

    println!("\nevery failure was a typed value; no request ever hung. done.");
}
