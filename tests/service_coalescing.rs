//! The service layer's coalescing claims, checked end to end:
//!
//! 1. **It actually saves work.** With an instrumented backend counting
//!    primitive register operations, a staged cohort of `k + 1`
//!    concurrent scans costs exactly **two** underlying collects — the
//!    in-flight leader's (which nobody else may accept, since its reads
//!    may predate their requests) plus one more that serves the whole
//!    parked cohort — strictly fewer register reads than `k + 1` solo
//!    scans.
//!
//! 2. **Backpressure is typed and observable.** With the in-flight
//!    budget filled by a blocked leader and a parked joiner, the next
//!    request is rejected with `ServiceError::Overloaded` (and counted),
//!    not queued.
//!
//! 3. **It stays linearizable.** A seeded property test drives random
//!    concurrent update/scan plans through the service twice — coalescing
//!    on and off — recording real-time intervals, and requires the Wing &
//!    Gong checker to accept both histories. Coalescing may change *which*
//!    collect a scan returns, never whether the history linearizes.
//!
//! 4. **The generation rule holds under writers.** An adversarially
//!    staged schedule completes a collect, then lets a writer finish an
//!    update, then sends in a new scan — all before the collect
//!    publishes. The new scan's request started after the update
//!    completed, so the parked pre-update view must never be handed to
//!    it: the coalescer forces a fresh collect that contains the write.
//!
//! 5. **Leader failures are accounted as abdications.** With a scripted
//!    flaky backend, failed collect leaderships count toward
//!    `service.coalesce.abdicated` — distinct from `service.scan.solo`
//!    (successful leads) and `service.scan.coalesced` (joins).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use snapshot_bench::scripted::{gated_core, Gate, ScanHook};
use snapshot_core::{ScanStats, TrySnapshotCore, UnboundedSnapshot};
use snapshot_lin::{check_history, Recorder, WgResult};
use snapshot_obs::Registry;
use snapshot_registers::{EpochBackend, Instrumented, OpCounters, ProcessId, SeededRng};
use snapshot_service::{HealthConfig, RetryConfig, ServiceConfig, ServiceError, SnapshotService};

type CountedUnbounded = UnboundedSnapshot<u64, Instrumented<EpochBackend>>;

fn counted_object(n: usize) -> (CountedUnbounded, Arc<OpCounters>) {
    let counters = Arc::new(OpCounters::new(n));
    let backend = Instrumented::new(EpochBackend::new()).with_counters(counters.clone());
    (UnboundedSnapshot::with_backend(n, 0u64, &backend), counters)
}

/// Register reads one service-routed scan costs on an idle object (handle
/// restore plus a clean double collect) — measured, not assumed.
fn reads_per_solo_scan(n: usize) -> u64 {
    let (object, counters) = counted_object(n);
    let service = SnapshotService::new(object);
    service.client(0).scan().expect("within budget");
    let reads = counters.total().reads;
    assert!(reads > 0, "instrumentation must see the collect");
    reads
}

#[test]
fn coalesced_cohort_costs_two_collects_not_k() {
    let n = 4;
    let followers = 3; // staged cohort size, besides the in-flight leader
    let solo_cost = reads_per_solo_scan(n);

    let (object, counters) = counted_object(n);
    // A gated wrapper holds the leader's scan open at a controlled point.
    let (core, Gate { held: blocked, entered: scans_entered, .. }) = gated_core(object, 0);
    blocked.store(true, Ordering::SeqCst);
    let registry = Registry::new();
    let service = SnapshotService::new(core).with_registry(&registry);

    let mut stats = Vec::new();
    std::thread::scope(|s| {
        // The leader: elected for generation 1, held open inside its
        // collect by the gated wrapper.
        let leader = s.spawn(|| {
            let mut client = service.client(0);
            client.scan_with_stats(None).expect("within budget").1
        });
        while scans_entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }

        // The cohort: they arrive while collect 1 is in flight, so the
        // generation rule forbids them from accepting it (its reads may
        // precede their requests) and they park.
        let cohort: Vec<_> = (1..=followers)
            .map(|lane| {
                let service = &service;
                s.spawn(move || {
                    let mut client = service.client(lane);
                    client.scan_with_stats(None).expect("within budget").1
                })
            })
            .collect();
        while service.coalescing_waiters() < followers {
            std::thread::yield_now();
        }

        // Release: the leader publishes generation 1; exactly one parked
        // follower is elected for generation 2 and its collect serves the
        // rest of the cohort.
        blocked.store(false, Ordering::SeqCst);
        stats.push(leader.join().unwrap());
        for f in cohort {
            stats.push(f.join().unwrap());
        }
    });

    // Work accounting: 2 collects total for 1 + followers scans.
    assert_eq!(scans_entered.load(Ordering::SeqCst), 2, "exactly two underlying collects");
    let total_reads = counters.total().reads;
    assert_eq!(total_reads, 2 * solo_cost, "two collects' worth of register reads");
    assert!(
        total_reads < (1 + followers as u64) * solo_cost,
        "coalescing must beat {} solo scans ({} reads vs {})",
        1 + followers,
        total_reads,
        (1 + followers as u64) * solo_cost
    );

    // Outcome accounting: the leader and one elected follower ran
    // collects; the remaining followers joined generation 2 and did no
    // register operations of their own.
    let leaders: Vec<_> = stats.iter().filter(|s| !s.coalesced).collect();
    let joined: Vec<_> = stats.iter().filter(|s| s.coalesced).collect();
    assert_eq!(leaders.len(), 2);
    assert_eq!(joined.len(), followers - 1);
    for s in &joined {
        assert_eq!(s.generation, 2, "the cohort is served by the successor collect");
        assert_eq!(s.underlying, ScanStats::default(), "joined scans touch no registers");
    }
    assert_eq!(registry.counter("service.scan.solo").get(), 2);
    assert_eq!(registry.counter("service.scan.coalesced").get(), followers as u64 - 1);
}

#[test]
fn full_budget_rejects_with_overloaded() {
    let (object, _counters) = counted_object(3);
    let (core, Gate { held: blocked, entered: scans_entered, .. }) = gated_core(object, 0);
    blocked.store(true, Ordering::SeqCst);
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        core,
        ServiceConfig { max_inflight: 2, ..ServiceConfig::default() },
    )
    .with_registry(&registry);

    std::thread::scope(|s| {
        // Slot 1: a leader held open inside its collect.
        let leader = s.spawn(|| service.client(0).scan());
        while scans_entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // Slot 2: a joiner parked in the rendezvous. Parked scans hold
        // their admission slot — that is the backpressure model: waiting
        // work counts against the budget.
        let joiner = s.spawn(|| service.client(1).scan());
        while service.coalescing_waiters() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(service.inflight(), 2);

        // The budget is full: the next request is rejected, not queued.
        let err = service.client(2).scan().unwrap_err();
        assert_eq!(err, ServiceError::Overloaded { inflight: 2, budget: 2 });
        assert_eq!(registry.counter("service.overloaded").get(), 1);

        blocked.store(false, Ordering::SeqCst);
        assert!(leader.join().unwrap().is_ok());
        assert!(joiner.join().unwrap().is_ok());
    });

    // Slots drain once the requests finish.
    assert_eq!(service.inflight(), 0);
    assert!(service.client(2).scan().is_ok());
}

// ---------------------------------------------------------------------------
// Linearizability under coalescing (seeded property test)
// ---------------------------------------------------------------------------

/// One thread's scripted operation: `true` = update (with a fresh value),
/// `false` = full scan.
type Plan = Vec<bool>;

/// Runs `plans` (one per lane) concurrently through a service over an
/// unbounded snapshot, recording real-time intervals, and returns the
/// Wing & Gong verdict.
fn run_service_history(plans: &[Plan], coalesce: bool) -> WgResult {
    let n = plans.len();
    let service = SnapshotService::with_config(
        UnboundedSnapshot::new(n, 0u64),
        ServiceConfig { coalesce, ..ServiceConfig::default() },
    );
    let recorder = Recorder::new(n, n, 0u64);
    std::thread::scope(|s| {
        for (lane, plan) in plans.iter().enumerate() {
            let service = &service;
            let recorder = &recorder;
            s.spawn(move || {
                let pid = ProcessId::new(lane);
                let mut client = service.client(lane);
                for (k, &is_update) in plan.iter().enumerate() {
                    if is_update {
                        let value = ((lane as u64) << 32) | (k as u64 + 1);
                        let inv = recorder.begin();
                        client.update(lane, value).expect("own segment, within budget");
                        recorder.end_update(pid, lane, value, inv);
                    } else {
                        let inv = recorder.begin();
                        let view = client.scan().expect("within budget");
                        recorder.end_scan(pid, view.to_vec(), inv);
                    }
                }
            });
        }
    });
    check_history(&recorder.finish())
}

// ---------------------------------------------------------------------------
// The generation rule under writers (adversarial staging)
// ---------------------------------------------------------------------------

#[test]
fn generation_rule_never_hands_out_a_pre_request_view_under_writers() {
    const MARKER: u64 = 0xFEED;
    let held = Arc::new(AtomicBool::new(true));
    let collects_done = Arc::new(AtomicUsize::new(0));
    // The core completes its collect and then parks (spinning) *before
    // returning* while `held` is set. This stages the adversarial window
    // the generation rule exists for: a finished-but-unpublished collect
    // whose reads all predate whatever happens during the hold.
    let service = SnapshotService::new(ScanHook::new(UnboundedSnapshot::new(3, 0u64), {
        let (held, collects_done) = (held.clone(), collects_done.clone());
        move |inner, lane, ctx| {
            let out = inner.try_scan(lane, ctx);
            collects_done.fetch_add(1, Ordering::SeqCst);
            while held.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            out
        }
    }));

    std::thread::scope(|s| {
        // Leader: its collect observes segment 1 = 0, completes, and is
        // held open before publishing.
        let leader = s.spawn(|| service.client(0).scan().expect("within budget"));
        while collects_done.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }

        // A writer finishes an update *while the stale view is parked*.
        // The update's embedded scan is direct (not via try_scan), so it
        // is not held.
        service.client(1).update(1, MARKER).expect("own segment");

        // A scan request arriving now starts after the update completed:
        // linearizability demands its view contain the marker, and the
        // leader's parked view does not.
        let late = s.spawn(|| {
            let mut client = service.client(2);
            client.scan_with_stats(None).expect("within budget")
        });
        while service.coalescing_waiters() == 0 {
            std::thread::yield_now();
        }

        // Publish the stale view. The late scan must reject it (its
        // generation is not newer than the late scan's entry) and run a
        // fresh collect instead.
        held.store(false, Ordering::SeqCst);
        let stale = leader.join().unwrap();
        assert_eq!(stale[1], 0, "the leader's own pre-update view is fine for the leader");
        let (fresh, stats) = late.join().unwrap();
        assert_eq!(
            fresh[1], MARKER,
            "coalescer handed a pre-request view to a post-update scan"
        );
        assert!(!stats.coalesced, "the late scan must have led its own collect");
        assert_eq!(stats.generation, 2);
    });
    assert_eq!(collects_done.load(Ordering::SeqCst), 2, "exactly one extra collect");
}

// ---------------------------------------------------------------------------
// Abdication accounting with a scripted flaky backend
// ---------------------------------------------------------------------------

#[test]
fn leader_failures_count_as_abdications_not_solo_leads() {
    // A flaky backend: its first two scans fail with a retryable error,
    // then it recovers.
    let (flaky, Gate { failures: remaining, .. }) = gated_core(UnboundedSnapshot::new(2, 0u64), 2);
    let registry = Registry::new();
    let service = SnapshotService::with_config(
        flaky,
        ServiceConfig {
            retry: RetryConfig {
                max_attempts: 3,
                initial_backoff: std::time::Duration::from_micros(50),
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

    // Two failed leaderships, one successful lead, zero joins: the
    // abdication counter is disjoint from the solo/coalesced pair.
    assert_eq!(registry.counter("service.coalesce.abdicated").get(), 2);
    assert_eq!(registry.counter("service.scan.solo").get(), 1);
    assert_eq!(registry.counter("service.scan.coalesced").get(), 0);
    assert_eq!(registry.counter("service.fault.backend_errors").get(), 2);
    assert_eq!(registry.counter("service.fault.retries").get(), 2);
    assert_eq!(registry.counter("service.fault.retry_exhausted").get(), 0);
    assert_eq!(service.abdications(), 2);

    // The budget is finite: with the outage longer than max_attempts the
    // error surfaces typed, and exhaustion is counted.
    remaining.store(10, Ordering::SeqCst);
    let err = client.scan().unwrap_err();
    assert!(matches!(err, ServiceError::Backend { attempts: 3, .. }), "{err:?}");
    assert_eq!(registry.counter("service.fault.retry_exhausted").get(), 1);
}

#[test]
fn coalesced_and_solo_histories_both_linearize() {
    // Seeded so every run explores the same plans: the point is a
    // reproducible certificate, not fresh randomness per CI run.
    for case in 0..24 {
        let mut rng = SeededRng::new(0x5E5E ^ case);
        let plans: Vec<Plan> = (0..3)
            .map(|_| (0..1 + rng.below(7)).map(|_| rng.chance(0.5)).collect())
            .collect();
        for coalesce in [true, false] {
            let verdict = run_service_history(&plans, coalesce);
            assert!(
                matches!(verdict, WgResult::Linearizable { .. }),
                "case {case}, coalesce={coalesce}: history rejected: {verdict:?} (plans {plans:?})"
            );
        }
    }
}
