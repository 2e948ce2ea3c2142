//! Nemesis suite for the fault-tolerant service mode: a client fleet
//! over an `AbdSnapshotCore` (Figure 2 run fallibly over emulated
//! message-passing registers), attacked by phased partitions and
//! crash/restart storms, plus scripted outages, stalls and overload.
//!
//! The contract under test, end to end:
//!
//! * **No hung request.** Every request returns — a view or a typed
//!   `ServiceError` — within its retry budget; after every phase the
//!   admission budget is fully returned.
//! * **Every success linearizes.** All completed operations, including
//!   ones that straddle a heal boundary, pass the Wing & Gong checker
//!   (failed updates are registered as pending: they are indeterminate,
//!   exactly like an ABD write that lost its quorum).
//! * **Failure is typed at every layer.** Backend faults surface as
//!   `ServiceError::Backend` (budget consumed) or `Degraded` (health
//!   gate shed the request before it touched a register) — never a
//!   panic, never a hang.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snapshot_abd::{
    AbdSnapshotCore, Dwell, FaultPlan, LinkFault, Nemesis, NemesisEvent, Network, NetworkConfig,
    RetryPolicy,
};
use snapshot_bench::scripted::{gated_core, Gate, ScanHook};
use snapshot_core::{CoreError, TrySnapshotCore, UnboundedSnapshot};
use snapshot_lin::{check_history, Recorder};
use snapshot_obs::{
    DumpCause, FlightRecorder, Registry, RingSink, SpanForest, SpanStatus, Trace,
};
use snapshot_registers::ProcessId;
use snapshot_service::{
    Breaker, HealthConfig, RetryConfig, ServiceConfig, ServiceError, SnapshotService,
};

const LANES: usize = 3;
const REPLICAS: usize = 5;

fn mild_lossy_link() -> LinkFault {
    LinkFault::healthy()
        .with_drop(0.08)
        .with_duplicate(0.06)
        .with_reorder(0.10, 3)
        .with_delay(Duration::from_micros(5), Duration::from_micros(80))
}

fn fast_abd_retry() -> RetryPolicy {
    RetryPolicy {
        initial_backoff: Duration::from_micros(300),
        max_backoff: Duration::from_millis(4),
        multiplier: 2,
        jitter: 0.5,
    }
}

fn service_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 3,
        initial_backoff: Duration::from_micros(300),
        max_backoff: Duration::from_millis(4),
        multiplier: 2,
        deadline: Duration::from_secs(30),
    }
}

/// Partition/crash storm: minority cuts the fleet rides out, one
/// majority blackout it must *fail typed* through, then heal.
fn storm(network: &Arc<Network>) -> std::thread::JoinHandle<()> {
    let network = Arc::clone(network);
    std::thread::spawn(move || {
        Nemesis::new()
            .phase(vec![NemesisEvent::Heal], Dwell::Millis(5))
            .phase(
                vec![NemesisEvent::Partition { replicas: vec![0, 1], symmetric: true }],
                Dwell::Millis(25),
            )
            .phase(vec![NemesisEvent::Heal, NemesisEvent::Crash(2)], Dwell::Millis(25))
            .phase(
                // The blackout: a majority is gone. Liveness is lost on
                // purpose; everything issued here must return typed
                // errors within its budget.
                vec![NemesisEvent::Partition { replicas: vec![0, 1, 3], symmetric: true }],
                Dwell::Millis(60),
            )
            .phase(vec![NemesisEvent::Restart(2), NemesisEvent::Heal], Dwell::Millis(30))
            .run(&network)
    })
}

#[test]
fn nemesis_storm_service_returns_views_or_typed_errors() {
    let seed = 1990;
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(REPLICAS)
            .with_jitter(seed)
            .with_faults(FaultPlan::seeded(seed).with_default(mild_lossy_link()))
            .with_op_timeout(Duration::from_millis(40))
            .with_retry(fast_abd_retry()),
    ));
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        AbdSnapshotCore::new(&network, LANES, 0u64),
        ServiceConfig {
            retry: service_retry(),
            health: HealthConfig {
                window: 16,
                trip_error_pct: 60,
                min_volume: 4,
                cooldown: Duration::from_millis(10),
                ramp_successes: 2,
                ramp_tokens: 8,
                ramp_interval: Duration::from_millis(2),
                jitter_pct: 25,
            },
            ..ServiceConfig::default()
        },
    )
    .with_registry(&registry);
    let recorder = Recorder::new(LANES, LANES, 0u64);
    let errors: Mutex<Vec<ServiceError>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for lane in 0..LANES {
            let service = &service;
            let recorder = &recorder;
            let errors = &errors;
            s.spawn(move || {
                let pid = ProcessId::new(lane);
                let mut client = service.client(lane);
                // 21 iterations keeps the worst-case recorded history
                // (every op succeeds: 3 lanes × 21 × 2 ops = 126) inside
                // the Wing & Gong checker's 128-operation limit.
                for k in 1..=21u64 {
                    // Update then scan, riding straight through fault
                    // phases and heal boundaries.
                    let value = ((lane as u64) << 32) | k;
                    let inv = recorder.begin();
                    match client.update(lane, value) {
                        Ok(()) => recorder.end_update(pid, lane, value, inv),
                        Err(e @ ServiceError::Backend { .. }) => {
                            // Indeterminate: the write may have landed on
                            // a quorum we never heard back from.
                            recorder.pending_update(pid, lane, value, inv);
                            errors.lock().unwrap().push(e);
                        }
                        Err(e @ ServiceError::Degraded { .. }) => {
                            // Shed before touching any register: the
                            // write definitely did not happen.
                            errors.lock().unwrap().push(e);
                        }
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
        storm(&network).join().unwrap();
    });

    // (a) No hung request: every thread returned and the admission budget
    // is fully returned.
    assert_eq!(service.inflight(), 0, "admission slots leaked");

    // (b) Every success linearizes, across heal boundaries, with failed
    // updates treated as indeterminate.
    let history = recorder.finish();
    let result = check_history(&history);
    assert!(
        result.is_linearizable(),
        "seed {seed}: storm history rejected ({result:?}): {history:?}"
    );

    // (c) Failure accounting is consistent: the blackout phase makes
    // errors overwhelmingly likely but not certain on every
    // interleaving, so assert consistency rather than a count.
    let errors = errors.into_inner().unwrap();
    let backend = errors.iter().filter(|e| matches!(e, ServiceError::Backend { .. })).count();
    let degraded = errors.iter().filter(|e| matches!(e, ServiceError::Degraded { .. })).count();
    assert_eq!(backend + degraded, errors.len());
    assert!(
        registry.counter("service.fault.retry_exhausted").get() >= backend as u64,
        "every Backend error passed through retry exhaustion"
    );
    assert_eq!(registry.counter("service.fault.degraded_shed").get(), degraded as u64);
    assert!(!network.poisoned(), "a replica thread panicked");

    // After the final heal the service recovers end to end.
    let mut probe = service.client(0);
    let mut view = None;
    for _ in 0..40 {
        match probe.scan() {
            Ok(v) => {
                view = Some(v);
                break;
            }
            Err(ServiceError::Degraded { retry_after, .. }) => std::thread::sleep(retry_after),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert!(view.is_some(), "service must recover after the storm heals");
}

// ---------------------------------------------------------------------------
// Subset scans under nemesis: the native ABD subset lane rides the storm
// ---------------------------------------------------------------------------

#[test]
fn nemesis_subset_scans_return_projections_or_typed_errors() {
    // One subset-scan round over the ABD-backed service while a storm
    // runs: partial scans ride the native subset lane (two quorum passes
    // over just the touched registers) and must return a projection or a
    // typed error — never a panic, never a hang. After the heal, a
    // subset scan must certify natively again.
    let seed = 2026;
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(REPLICAS)
            .with_jitter(seed)
            .with_faults(FaultPlan::seeded(seed).with_default(mild_lossy_link()))
            .with_op_timeout(Duration::from_millis(40))
            .with_retry(fast_abd_retry()),
    ));
    let service = SnapshotService::with_config(
        AbdSnapshotCore::new(&network, LANES, 0u64),
        ServiceConfig { retry: service_retry(), ..ServiceConfig::default() },
    );

    std::thread::scope(|s| {
        for lane in 0..LANES {
            let service = &service;
            s.spawn(move || {
                let mut client = service.client(lane);
                for k in 1..=15u64 {
                    match client.update(lane, (lane as u64) << 32 | k) {
                        Ok(())
                        | Err(ServiceError::Backend { .. } | ServiceError::Degraded { .. }) => {}
                        Err(other) => panic!("lane {lane}: unexpected error {other:?}"),
                    }
                    // A wrapping two-segment window, spanning shards.
                    let subset = {
                        let mut s = vec![lane, (lane + 1) % LANES];
                        s.sort_unstable();
                        s
                    };
                    match client.scan_subset_with_stats(&subset, None) {
                        Ok((view, _)) => {
                            assert_eq!(view.segments(), subset.as_slice());
                            assert_eq!(view.len(), subset.len());
                        }
                        Err(ServiceError::Backend { .. } | ServiceError::Degraded { .. }) => {}
                        Err(other) => panic!("lane {lane}: unexpected error {other:?}"),
                    }
                }
            });
        }
        storm(&network).join().unwrap();
    });

    assert_eq!(service.inflight(), 0, "admission slots leaked");
    assert!(!network.poisoned(), "a replica thread panicked");

    // Healed network: the subset lane certifies natively again (retrying
    // through any breaker cooldown left over from the storm).
    let mut probe = service.client(0);
    let start = Instant::now();
    loop {
        match probe.scan_subset_with_stats(&[0, 2], None) {
            Ok((view, stats)) => {
                assert_eq!(view.segments(), &[0, 2]);
                assert!(stats.native_subset, "healed ABD serves subsets natively");
                assert!(!stats.fallback_full);
                break;
            }
            Err(ServiceError::Degraded { retry_after, .. }) => std::thread::sleep(retry_after),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "subset lane must recover after the heal"
        );
    }
}

// ---------------------------------------------------------------------------
// Flight recorder under nemesis: the dump names the phase that stalled
// ---------------------------------------------------------------------------

/// The observability acceptance scenario: a majority blackout makes a
/// breaker trip *and* a deadline expire, and the flight recorder's dump
/// must attribute the stalled request to a named phase — a quorum wait
/// (`QuorumQuery`/`QuorumStore`/`Collect`) or a retry backoff — from the
/// span tree alone.
#[test]
fn blackout_flight_dump_attributes_the_stall_to_a_named_phase() {
    let recorder = Arc::new(FlightRecorder::with_max_dumps(RingSink::new(LANES, 1024), 64));
    let trace = Trace::new(recorder.clone());
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(REPLICAS)
            .with_op_timeout(Duration::from_millis(5))
            .with_retry(fast_abd_retry())
            .with_trace(trace.clone()),
    ));
    let service = SnapshotService::with_config(
        AbdSnapshotCore::new(&network, LANES, 0u64),
        ServiceConfig {
            retry: RetryConfig {
                max_attempts: 2,
                initial_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
                multiplier: 2,
                deadline: Duration::from_secs(30),
            },
            health: ladder_health(Duration::from_millis(50)),
            ..ServiceConfig::default()
        },
    )
    .with_trace(trace);

    // Majority blackout: every quorum phase stalls to its op timeout,
    // then fails. Scans with an open-ended budget exhaust their retries
    // (filling the breaker window); scans whose budget is *smaller than
    // one op timeout* spend it all inside the first quorum wait and
    // expire — deterministically, because the deadline caps the wait.
    network.partition(&[0, 1, 2]);
    let mut client = service.client(0);
    let start = Instant::now();
    let mut saw_expiry = false;
    let mut saw_trip = false;
    while start.elapsed() < Duration::from_secs(10) && !(saw_expiry && saw_trip) {
        match client.scan_with_stats(Some(Duration::from_millis(3))) {
            Err(ServiceError::DeadlineExceeded { .. }) => saw_expiry = true,
            Err(ServiceError::Backend { .. } | ServiceError::Degraded { .. }) | Ok(_) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
        match client.scan() {
            Err(ServiceError::Backend { .. } | ServiceError::Degraded { .. }) | Ok(_) => {}
            Err(ServiceError::DeadlineExceeded { .. }) => saw_expiry = true,
            Err(other) => panic!("unexpected error {other:?}"),
        }
        saw_trip = recorder.dumps().iter().any(|d| d.cause == DumpCause::BreakerTrip);
    }
    network.heal();
    assert!(saw_expiry, "the blackout must expire a budgeted scan");
    assert!(saw_trip, "the blackout must trip a breaker (and dump on it)");
    assert!(!network.poisoned(), "a replica thread panicked");

    let dumps = recorder.dumps();
    assert!(dumps.iter().any(|d| d.cause == DumpCause::BreakerTrip));
    let dump = dumps
        .iter()
        .find(|d| d.cause == DumpCause::DeadlineExceeded)
        .expect("the expiry froze a flight dump");

    // From the dump alone: the trigger is the `DeadlineExceeded` event,
    // so the expired request is the triggering pid's newest root span in
    // the ring (its end lands after the trigger, so it is still open in
    // the dump). Ask the forest what that request spent its budget on —
    // the answer must be a named stall phase, not a leaf of unknown kind.
    let forest = SpanForest::build(&dump.events);
    let root = forest
        .nodes()
        .iter()
        .filter(|n| n.parent == 0 && n.pid == dump.trigger_pid && n.begin_seq < dump.trigger_seq)
        .max_by_key(|n| n.begin_seq)
        .expect("the expired request's root span is in the dump");
    assert!(
        root.end_seq.is_none() || root.status == Some(SpanStatus::Expired),
        "the anomaly interrupted this root: {forest}"
    );
    let stall = forest
        .attribute_stall(root.id)
        .expect("the expired request has ended descendants to attribute");
    assert!(
        stall.is_stall_phase(),
        "the stall must be attributed to a quorum wait or retry backoff; \
         got {:?} in:\n{forest}",
        stall.kind
    );

    // The dump header names its cause, schema-compatibly.
    let rendered = dump.render();
    assert!(rendered.starts_with('{') && rendered.contains("\"cause\":\"deadline_exceeded\""));
}

// ---------------------------------------------------------------------------
// Deterministic failure paths (scripted backend, no timing luck)
// ---------------------------------------------------------------------------

/// Scripted fallible core: full scans spin while the gate is held (giving
/// up at their request's deadline, like a stalled quorum wait), then fail
/// while failures remain — so the service's whole failure path runs
/// without a network in the loop.
fn scripted_core(n: usize, failures: usize) -> (impl TrySnapshotCore<u64>, Gate) {
    gated_core(UnboundedSnapshot::new(n, 0u64), failures)
}

#[test]
fn concurrent_scans_against_an_outage_each_fail_typed_within_budget() {
    const CLIENTS: usize = 6;
    let (core, Gate { held: gate, entered, .. }) =
        scripted_core(CLIENTS, usize::MAX / 2); // outage outlasts every budget
    gate.store(true, Ordering::SeqCst);

    let retry = RetryConfig {
        max_attempts: 2,
        initial_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_micros(200),
        ..RetryConfig::default()
    };
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        core,
        ServiceConfig {
            retry,
            health: HealthConfig::disabled(), // isolate retries from shedding
            ..ServiceConfig::default()
        },
    )
    .with_registry(&registry);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                let service = &service;
                s.spawn(move || {
                    let start = Instant::now();
                    let err = service.client(lane).scan().unwrap_err();
                    (err, start.elapsed())
                })
            })
            .collect();

        // The whole fleet is inside the held collect at once: every scan
        // runs its own, and none waits for another to get there.
        while entered.load(Ordering::SeqCst) < CLIENTS {
            std::thread::yield_now();
        }
        assert_eq!(service.inflight(), CLIENTS);

        // Release the collects into the outage: every client fails typed
        // on its own budget.
        gate.store(false, Ordering::SeqCst);
        for h in handles {
            let (err, elapsed) = h.join().unwrap();
            match err {
                ServiceError::Backend { attempts, error } => {
                    assert_eq!(attempts, 2, "each client spends exactly its own budget");
                    assert!(error.retryable());
                }
                other => panic!("expected Backend, got {other:?}"),
            }
            assert!(elapsed < retry.deadline, "returned within budget: {elapsed:?}");
        }
    });

    assert_eq!(service.inflight(), 0, "admission budget fully returned");
    assert_eq!(entered.load(Ordering::SeqCst), 2 * CLIENTS, "two collects per client");
    assert_eq!(registry.counter("service.fault.backend_errors").get(), 2 * CLIENTS as u64);
    assert_eq!(registry.counter("service.scan.solo").get(), 0, "no collect was served");
    assert_eq!(
        registry.counter("service.fault.retry_exhausted").get(),
        CLIENTS as u64,
        "every client exhausted its own budget"
    );
}

#[test]
fn full_budget_rejects_with_overloaded() {
    let (core, Gate { held, entered, .. }) = scripted_core(3, 0);
    held.store(true, Ordering::SeqCst);
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        core,
        ServiceConfig { max_inflight: 2, ..ServiceConfig::default() },
    )
    .with_registry(&registry);

    std::thread::scope(|s| {
        // Two scans held inside their collects fill the budget: a request
        // holds its slot for its whole life, so stalled work counts.
        let held_scans: Vec<_> = (0..2)
            .map(|lane| {
                let service = &service;
                s.spawn(move || service.client(lane).scan())
            })
            .collect();
        while entered.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        assert_eq!(service.inflight(), 2);

        // The budget is full: the next request is rejected, not queued.
        let err = service.client(2).scan().unwrap_err();
        assert_eq!(err, ServiceError::Overloaded { inflight: 2, budget: 2 });
        assert_eq!(registry.counter("service.overloaded").get(), 1);
        assert_eq!(entered.load(Ordering::SeqCst), 2, "the rejected scan never collected");

        held.store(false, Ordering::SeqCst);
        for h in held_scans {
            assert!(h.join().unwrap().is_ok());
        }
    });

    // Slots drain once the requests finish.
    assert_eq!(service.inflight(), 0);
    assert!(service.client(2).scan().is_ok());
}

#[test]
fn failed_attempts_count_as_backend_errors_not_collects() {
    // A flaky backend: its first two scans fail with a retryable error,
    // then it recovers.
    let (flaky, Gate { failures: remaining, .. }) = scripted_core(2, 2);
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        flaky,
        ServiceConfig {
            retry: RetryConfig {
                max_attempts: 3,
                initial_backoff: Duration::from_micros(50),
                ..RetryConfig::default()
            },
            health: HealthConfig::disabled(),
            ..ServiceConfig::default()
        },
    )
    .with_registry(&registry);

    let mut client = service.client(0);
    let (view, stats) = client.scan_with_stats(None).expect("third attempt succeeds");
    assert_eq!(view.len(), 2);
    assert_eq!(stats.retries, 2, "two failed attempts before the success");

    // Two failed attempts, one served collect: the error counters are
    // disjoint from `service.scan.solo`.
    assert_eq!(registry.counter("service.scan.solo").get(), 1);
    assert_eq!(registry.counter("service.fault.backend_errors").get(), 2);
    assert_eq!(registry.counter("service.fault.retries").get(), 2);
    assert_eq!(registry.counter("service.fault.retry_exhausted").get(), 0);

    // The budget is finite: with the outage longer than max_attempts the
    // error surfaces typed, and exhaustion is counted.
    remaining.store(10, Ordering::SeqCst);
    let err = client.scan().unwrap_err();
    assert!(matches!(err, ServiceError::Backend { attempts: 3, .. }), "{err:?}");
    assert_eq!(registry.counter("service.fault.retry_exhausted").get(), 1);
    assert_eq!(registry.counter("service.scan.solo").get(), 1);
}

// ---------------------------------------------------------------------------
// Shard health gate: trip, shed, half-open probe, recover
// ---------------------------------------------------------------------------

/// Breaker tuning for the deterministic lifecycle tests: the single ramp
/// interval outlives the test, so only recorded successes (never elapsed
/// wall time) walk the half-open recovery ladder down — the priority
/// ordering is asserted exactly, with no timing luck.
fn ladder_health(cooldown: Duration) -> HealthConfig {
    HealthConfig {
        window: 8,
        trip_error_pct: 50,
        min_volume: 2,
        cooldown,
        ramp_successes: 2,
        ramp_tokens: 8,
        ramp_interval: Duration::from_secs(3600),
        jitter_pct: 0,
    }
}

#[test]
fn health_gate_trips_sheds_probes_and_recovers() {
    let cooldown = Duration::from_millis(40);
    let (core, _) = scripted_core(2, 2); // exactly two failures, then healthy
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        core,
        ServiceConfig {
            retry: RetryConfig::no_retries(), // one backend attempt per request
            health: ladder_health(cooldown),
            ..ServiceConfig::default()
        },
    )
    .with_registry(&registry);
    let mut client = service.client(0);

    // Two failing scans put the window at a 100% error rate with the
    // volume guard met, tripping every gated shard's breaker.
    for _ in 0..2 {
        let err = client.scan().unwrap_err();
        assert!(matches!(err, ServiceError::Backend { attempts: 1, .. }), "{err:?}");
    }
    assert!(!service.degraded_shards().is_empty(), "breaker must be open");

    // Open breaker: shed with a retry hint, without touching the backend.
    match client.scan().unwrap_err() {
        ServiceError::Degraded { retry_after, .. } => {
            assert!(retry_after <= cooldown);
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    assert_eq!(registry.counter("service.fault.degraded_shed").get(), 1);
    assert_eq!(registry.counter("service.load.shed").get(), 1);
    assert_eq!(
        registry.counter("service.fault.backend_errors").get(),
        2,
        "the shed request must not reach the backend"
    );

    // After the cooldown the breaker half-opens into the priority ramp.
    // A full scan is *still* shed — probe-class traffic recovers first.
    std::thread::sleep(cooldown + Duration::from_millis(10));
    match client.scan().unwrap_err() {
        ServiceError::Degraded { .. } => {}
        other => panic!("half-open must admit probes before full scans, got {other:?}"),
    }
    // Walk the recovery ladder per shard: a probe success admits
    // single-shard partials, whose success closes the breaker.
    for shard in 0..2 {
        client.probe_shard(shard).expect("probe-class must be admitted first");
        let partial = client.scan_subset(&[shard]).expect("partials follow a probe success");
        assert_eq!(partial.segments(), &[shard]);
    }
    assert!(service.degraded_shards().is_empty(), "enough successes close the breaker");
    client.scan().expect("closed breaker admits full scans again");
    client.update(0, 7).expect("updates flow again");
    assert_eq!(client.scan().unwrap()[0], 7);
}

// ---------------------------------------------------------------------------
// Healthy-network parity: the ABD-backed service behaves like in-process
// ---------------------------------------------------------------------------

#[test]
fn healthy_abd_service_matches_in_process_semantics() {
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(3).with_retry(fast_abd_retry()),
    ));
    let registry = Registry::new();
    let service = SnapshotService::new(AbdSnapshotCore::new(&network, LANES, 0u64))
        .with_registry(&registry);
    let recorder = Recorder::new(LANES, LANES, 0u64);

    std::thread::scope(|s| {
        for lane in 0..LANES {
            let service = &service;
            let recorder = &recorder;
            s.spawn(move || {
                let pid = ProcessId::new(lane);
                let mut client = service.client(lane);
                for k in 1..=8u64 {
                    let value = ((lane as u64) << 16) | k;
                    let inv = recorder.begin();
                    client.update(lane, value).expect("healthy network");
                    recorder.end_update(pid, lane, value, inv);
                    let inv = recorder.begin();
                    let view = client.scan().expect("healthy network");
                    recorder.end_scan(pid, view.to_vec(), inv);
                    // Partial scans ride the ABD certificates (seq
                    // numbers) exactly like the unbounded in-process core.
                    let partial = client.scan_subset(&[lane]).expect("healthy network");
                    assert_eq!(partial.segments(), &[lane]);
                }
            });
        }
    });

    let history = recorder.finish();
    assert!(check_history(&history).is_linearizable(), "healthy ABD service must linearize");

    // No fault path ever fired, and every full scan and partial ran
    // exactly one collect of its own, as over an in-process core.
    assert_eq!(registry.counter("service.scan.solo").get(), (LANES * 8 * 2) as u64);
    assert_eq!(registry.counter("service.fault.backend_errors").get(), 0);
    assert_eq!(registry.counter("service.fault.degraded_shed").get(), 0);
    assert_eq!(service.inflight(), 0);
}

// ---------------------------------------------------------------------------
// Slow degradation: the schedule the old consecutive-failure breaker
// provably never trips on
// ---------------------------------------------------------------------------

/// A core whose scans fail every *second* call: a slowly degrading shard
/// at a steady 50% error rate that never fails twice in a row.
fn alternating_core(n: usize) -> impl TrySnapshotCore<u64> {
    let calls = AtomicUsize::new(0);
    ScanHook::new(UnboundedSnapshot::new(n, 0u64), move |inner, lane, ctx| {
        if calls.fetch_add(1, Ordering::SeqCst) % 2 == 1 {
            return Err(CoreError::Unavailable { reason: "degrading shard".into() });
        }
        inner.try_scan(lane, ctx)
    })
}

#[test]
fn slow_degrading_shard_trips_the_windowed_breaker() {
    // The alternating schedule is the adversary for a consecutive-failure
    // breaker: a success between every failure resets the consecutive
    // count, so any trip threshold of two or more never fires (shown
    // directly on a raw breaker below). The windowed breaker sees the
    // 50% error rate itself and trips at the volume guard.
    let core = alternating_core(2);
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        core,
        ServiceConfig {
            retry: RetryConfig::no_retries(),
            health: ladder_health(Duration::from_millis(40)),
            ..ServiceConfig::default()
        },
    )
    .with_registry(&registry);
    let recorder = Recorder::new(1, 2, 0u64);
    let pid = ProcessId::new(0);
    let mut client = service.client(0);

    let mut shed = false;
    for _ in 0..32 {
        let inv = recorder.begin();
        match client.scan() {
            Ok(view) => recorder.end_scan(pid, view.to_vec(), inv),
            Err(ServiceError::Backend { .. }) => {}
            Err(ServiceError::Degraded { .. }) => {
                shed = true;
                break;
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(shed, "a 50% alternating error rate must trip the windowed breaker");
    assert!(!service.degraded_shards().is_empty());
    assert!(registry.counter("service.load.shed").get() >= 1);

    // Every successful scan still linearizes.
    let history = recorder.finish();
    assert!(check_history(&history).is_linearizable(), "{history:?}");

    // The same alternating outcome schedule never stacks two failures,
    // yet a bare breaker fed it trips: a success does not reset the
    // window the way it reset the consecutive-failure counter it replaced.
    let raw = Breaker::new(0);
    let cfg = ladder_health(Duration::from_millis(40));
    for t in 0..32u64 {
        raw.on_success(t, &cfg);
        raw.on_failure(true, t, &cfg);
    }
    assert!(raw.trips() >= 1, "the window still tripped on the same schedule");
}

// ---------------------------------------------------------------------------
// Deadline soak: stalled requests honor their own budget
// ---------------------------------------------------------------------------

#[test]
fn deadline_soak_parked_requests_complete_or_expire_within_budget() {
    const CLIENTS: usize = 6;
    let budget = Duration::from_millis(30);
    let (core, Gate { held: gate, entered, .. }) =
        scripted_core(CLIENTS, 0); // healthy once the gate opens
    gate.store(true, Ordering::SeqCst);

    let registry = Registry::new();
    let service = SnapshotService::with_config(
        core,
        ServiceConfig {
            health: HealthConfig::disabled(),
            ..ServiceConfig::default()
        },
    )
    .with_registry(&registry);

    let results: Mutex<Vec<Result<usize, ServiceError>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for lane in 0..CLIENTS {
            let service = &service;
            let results = &results;
            s.spawn(move || {
                // Lane 0 runs on the configured (long) deadline; the rest
                // of the fleet carries 30ms budgets.
                let budget = (lane > 0).then_some(budget);
                let r =
                    service.client(lane).scan_with_stats(budget).map(|(view, _)| view.len());
                results.lock().unwrap().push(r);
            });
        }
        // The whole fleet is parked inside the held collect, each request
        // carrying its own budget.
        while entered.load(Ordering::SeqCst) < CLIENTS {
            std::thread::yield_now();
        }
        // Hold the collect until every budgeted request has resolved:
        // each honors its *own* deadline, so all of them must return typed
        // `DeadlineExceeded` while lane 0 is still stuck.
        let wait_start = Instant::now();
        while results.lock().unwrap().len() < CLIENTS - 1 {
            assert!(
                wait_start.elapsed() < Duration::from_secs(20),
                "requests failed to time out: parked past their budget"
            );
            std::thread::yield_now();
        }
        gate.store(false, Ordering::SeqCst);
    });

    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), CLIENTS);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, 1, "exactly lane 0 completes once released: {results:?}");
    for r in &results {
        match r {
            Ok(len) => assert_eq!(*len, CLIENTS),
            Err(ServiceError::DeadlineExceeded { attempts, budget: b }) => {
                assert_eq!(*attempts, 1, "one attempt: the stalled collect itself");
                assert_eq!(*b, budget);
            }
            Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    assert_eq!(
        registry.counter("service.fault.deadline_exceeded").get(),
        (CLIENTS - 1) as u64
    );
    assert_eq!(service.inflight(), 0, "admission budget fully returned");
}

// ---------------------------------------------------------------------------
// Overload soak: hot-shard skew, blackout shedding, probe-first recovery
// ---------------------------------------------------------------------------

#[test]
fn overload_soak_flags_hot_shard_sheds_and_recovers_probe_first() {
    const SEGMENTS: usize = 4;
    let cooldown = Duration::from_millis(20);
    let network = Arc::new(Network::with_config(
        NetworkConfig::new(REPLICAS)
            .with_jitter(77)
            .with_op_timeout(Duration::from_millis(5))
            .with_retry(fast_abd_retry()),
    ));
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        AbdSnapshotCore::new(&network, SEGMENTS, 0u64),
        ServiceConfig {
            retry: RetryConfig {
                max_attempts: 2,
                initial_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
                multiplier: 2,
                deadline: Duration::from_secs(30),
            },
            health: ladder_health(cooldown),
            ..ServiceConfig::default()
        },
    )
    .with_registry(&registry);

    // Phase 1 — hot-shard skew: every operation lands on shard 0 (the
    // writer hammers segment 0, readers take single-shard partials of
    // it). The load report must flag the skew and stretch shard 0's
    // shed hints so a shed cohort spreads out.
    let mut writer = service.client(0);
    for k in 1..=40u64 {
        writer.update(0, k).expect("healthy network");
    }
    for lane in 1..SEGMENTS {
        let mut reader = service.client(lane);
        for _ in 0..10 {
            let partial = reader.scan_subset(&[0]).expect("healthy network");
            assert_eq!(partial.segments(), &[0]);
        }
    }
    let report = service.load_report();
    assert_eq!(report.hot_shard, Some(0), "all traffic on shard 0: {report:?}");
    assert!(report.is_skewed());
    assert!(report.skew_permille >= 2000);
    assert_eq!(
        report.retry_after_hint(0, cooldown),
        cooldown * 4,
        "a maximally skewed hot shard stretches hints 4x"
    );
    assert_eq!(report.retry_after_hint(1, cooldown), cooldown, "cold shards keep the base hint");
    assert_eq!(registry.gauge("service.load.hot_shard").get(), 0);
    assert!(registry.gauge("service.load.shard0.hits").get() >= 64);

    // Phase 2 — blackout: a majority partition takes the quorum away.
    // Full scans fail typed, the error windows fill, and every shard's
    // breaker trips; once open, requests shed without touching the
    // backend.
    let blackout = {
        let network = Arc::clone(&network);
        std::thread::spawn(move || {
            Nemesis::new()
                .phase(
                    vec![NemesisEvent::Partition { replicas: vec![0, 1, 2], symmetric: true }],
                    Dwell::Millis(250),
                )
                .phase(vec![NemesisEvent::Heal], Dwell::Millis(5))
                .run(&network)
        })
    };
    let mut all_tripped = false;
    let trip_start = Instant::now();
    let mut k = 0u64;
    while trip_start.elapsed() < Duration::from_secs(5) {
        k += 1;
        // Full scans stop reaching the backend the moment the *first*
        // shard trips (the gate sheds them), so shard 0 — whose window
        // still holds the hammer phase's successes — needs its own
        // single-shard evidence: updates gate only shard 0.
        match writer.update(0, 100 + k) {
            Ok(()) => {} // raced the partition onset
            Err(ServiceError::Backend { .. } | ServiceError::Degraded { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
        match writer.scan() {
            Ok(_) => {}
            Err(ServiceError::Backend { .. }) => {}
            Err(ServiceError::Degraded { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
        if service.degraded_shards().len() == SEGMENTS {
            all_tripped = true;
            break;
        }
    }
    assert!(all_tripped, "the blackout must trip every shard's breaker");
    // With every breaker open (or at best half-open to probes), the next
    // full scan sheds at the gate without touching the backend.
    match writer.scan().unwrap_err() {
        ServiceError::Degraded { .. } => {}
        other => panic!("open breakers must shed, got {other:?}"),
    }
    assert!(registry.counter("service.load.shed").get() >= 1);
    blackout.join().unwrap();
    assert!(!network.poisoned(), "a replica thread panicked");

    // Phase 3 — probe-first recovery: after the cooldown the breakers
    // half-open, but a full scan is *still* shed (rank too low for a
    // fresh ramp). Probe-class traffic goes first; each shard's probe
    // success admits its partial scans, whose success closes it.
    std::thread::sleep(cooldown + Duration::from_millis(5));
    match writer.scan().unwrap_err() {
        ServiceError::Degraded { .. } => {}
        other => panic!("half-open must shed full scans before probes ran, got {other:?}"),
    }
    for shard in 0..SEGMENTS {
        writer.probe_shard(shard).expect("probe-class must be admitted first");
        let partial = writer.scan_subset(&[shard]).expect("partials follow a probe success");
        assert_eq!(partial.segments(), &[shard]);
    }
    assert!(service.degraded_shards().is_empty(), "the ramp must close every breaker");
    let view = writer.scan().expect("full scans flow again after recovery");
    assert!(view[0] >= 40, "segment 0 must hold a write from the hammer or blackout phase");
    assert_eq!(service.inflight(), 0, "admission budget fully returned");
}
