//! Wait-freedom under adversarial scheduling: the paper's pigeonhole
//! bounds (≤ n+1 double collects for the single-writer algorithms,
//! ≤ 2n+1 for the multi-writer one) hold on *every* schedule, while the
//! plain double-collect baseline is starved forever by the same
//! adversary — Observations 1 and 2 of Section 3, made executable.

use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use snapshot_core::{
    BoundedSnapshot, DoubleCollectSnapshot, MultiWriterSnapshot, MwSnapshot, MwSnapshotHandle,
    ScanStats, SwSnapshot, SwSnapshotHandle, UnboundedSnapshot,
};
use snapshot_registers::{EpochBackend, Instrumented, ProcessId};
use snapshot_sim::{HaltReason, ProcessStatus, RandomPolicy, RoundRobinPolicy, Sim, SimConfig};

/// A poisoned lock yields its guard: simulated bodies may panic on
/// purpose, and what they logged before that is still wanted.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `n - 1` updaters (200 updates each) against one scanner under the
/// given policy; returns the scanner's stats if it completed.
fn scanner_under_adversary<O, F, G>(
    n: usize,
    policy: &mut dyn snapshot_sim::SchedulePolicy,
    max_steps: u64,
    build: F,
    scan: G,
) -> (Option<ScanStats>, HaltReason, Vec<ProcessStatus>)
where
    O: Send + Sync,
    F: FnOnce(&Instrumented<EpochBackend>) -> O,
    G: FnOnce(&O, ProcessId) -> Option<ScanStats> + Send,
    O: UpdaterDriver,
{
    let sim = Sim::new(n);
    let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
    let object = build(&backend);
    let result: Arc<Mutex<Option<ScanStats>>> = Arc::new(Mutex::new(None));

    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for i in 0..n - 1 {
        let object = &object;
        bodies.push(Box::new(move || {
            object.drive_updates(ProcessId::new(i), 200);
        }));
    }
    {
        let object = &object;
        let result = Arc::clone(&result);
        bodies.push(Box::new(move || {
            let stats = scan(object, ProcessId::new(n - 1));
            *lock(&result) = stats;
        }));
    }

    let report = sim
        .run(
            policy,
            SimConfig {
                max_steps: Some(max_steps),
                stop_when_done: vec![ProcessId::new(n - 1)],
                record_trace: false,
            },
            bodies,
        )
        .expect("simulation failed");
    let stats = *lock(&result);
    (stats, report.halt, report.statuses)
}

/// Lets the adversary harness drive updates without naming concrete handle
/// types.
trait UpdaterDriver: Send + Sync {
    fn drive_updates(&self, pid: ProcessId, count: u64);
}

impl<B: snapshot_registers::Backend> UpdaterDriver for UnboundedSnapshot<u64, B> {
    fn drive_updates(&self, pid: ProcessId, count: u64) {
        let mut h = self.handle(pid);
        for k in 0..count {
            h.update(k);
        }
    }
}

impl<B: snapshot_registers::Backend> UpdaterDriver for BoundedSnapshot<u64, B> {
    fn drive_updates(&self, pid: ProcessId, count: u64) {
        let mut h = self.handle(pid);
        for k in 0..count {
            h.update(k);
        }
    }
}

impl<B: snapshot_registers::Backend> UpdaterDriver for DoubleCollectSnapshot<u64, B> {
    fn drive_updates(&self, pid: ProcessId, count: u64) {
        let mut h = self.handle(pid);
        for k in 0..count {
            h.update(k);
        }
    }
}

impl<B: snapshot_registers::Backend, BM: snapshot_registers::Backend> UpdaterDriver
    for MultiWriterSnapshot<u64, B, BM>
{
    fn drive_updates(&self, pid: ProcessId, count: u64) {
        let mut h = self.handle(pid);
        for k in 0..count {
            h.update(pid.get() % self.words(), k);
        }
    }
}

#[test]
fn unbounded_scan_completes_within_pigeonhole_bound_under_round_robin() {
    for n in [2usize, 3, 4] {
        let (stats, halt, _) = scanner_under_adversary(
            n,
            &mut RoundRobinPolicy::new(),
            2_000_000,
            |b| UnboundedSnapshot::with_backend(n, 0u64, b),
            |o, pid| {
                let mut h = o.handle(pid);
                Some(h.scan_with_stats().1)
            },
        );
        let stats = stats.expect("scanner must complete");
        assert_eq!(halt, HaltReason::StopSetDone);
        assert!(
            stats.double_collects as usize <= n + 1,
            "n={n}: {} double collects",
            stats.double_collects
        );
    }
}

#[test]
fn bounded_scan_completes_within_pigeonhole_bound_under_round_robin() {
    for n in [2usize, 3, 4] {
        let (stats, halt, _) = scanner_under_adversary(
            n,
            &mut RoundRobinPolicy::new(),
            2_000_000,
            |b| BoundedSnapshot::with_backend(n, 0u64, b),
            |o, pid| {
                let mut h = o.handle(pid);
                Some(h.scan_with_stats().1)
            },
        );
        let stats = stats.expect("scanner must complete");
        assert_eq!(halt, HaltReason::StopSetDone);
        assert!(
            stats.double_collects as usize <= n + 1,
            "n={n}: {} double collects",
            stats.double_collects
        );
    }
}

#[test]
fn multiwriter_scan_completes_within_pigeonhole_bound_under_round_robin() {
    for n in [2usize, 3] {
        let m = n;
        let (stats, halt, _) = scanner_under_adversary(
            n,
            &mut RoundRobinPolicy::new(),
            2_000_000,
            |b| MultiWriterSnapshot::with_backend(n, m, 0u64, b),
            |o, pid| {
                let mut h = o.handle(pid);
                Some(h.scan_with_stats().1)
            },
        );
        let stats = stats.expect("scanner must complete");
        assert_eq!(halt, HaltReason::StopSetDone);
        assert!(
            stats.double_collects as usize <= 2 * n + 1,
            "n={n}: {} double collects",
            stats.double_collects
        );
    }
}

#[test]
fn double_collect_scanner_is_starved_by_the_same_adversary() {
    // The identical round-robin schedule that the wait-free algorithms
    // shrug off starves the Observation-1-only scanner: with an updater
    // writing between every pair of its reads, no two collects ever agree.
    let n = 2;
    let (stats, _halt, _) = scanner_under_adversary(
        n,
        &mut RoundRobinPolicy::new(),
        2_000_000,
        |b| DoubleCollectSnapshot::with_backend(n, 0u64, b),
        |o, pid| {
            let mut h = o.handle(pid);
            // 50 attempts: a wait-free algorithm would need at most n+1=3.
            h.try_scan(50).map(|(_, s)| s)
        },
    );
    assert!(
        stats.is_none(),
        "double-collect scan unexpectedly succeeded: {stats:?}"
    );
}

#[test]
fn double_collect_succeeds_once_updaters_quiesce() {
    // Same baseline, but the updaters run out of work: the unbounded
    // retry loop then terminates. Not wait-free, merely obstruction-free.
    let n = 2;
    let (stats, _halt, statuses) = scanner_under_adversary(
        n,
        &mut RoundRobinPolicy::new(),
        2_000_000,
        |b| DoubleCollectSnapshot::with_backend(n, 0u64, b),
        |o, pid| {
            let mut h = o.handle(pid);
            Some(h.scan_with_stats().1)
        },
    );
    let stats = stats.expect("scan completes after updater quiesces");
    // It needed far more work than the wait-free bound...
    assert!(
        stats.double_collects > (n as u32) + 1,
        "only {} double collects",
        stats.double_collects
    );
    // ...and the updater had already finished when it got through.
    assert_eq!(statuses[0], ProcessStatus::Completed);
}

#[test]
fn random_adversaries_never_break_the_bound() {
    // 40 random schedules per n; the bound is schedule-independent.
    for n in [2usize, 3] {
        let mut worst = 0u32;
        for seed in 0..40 {
            let (stats, _, _) = scanner_under_adversary(
                n,
                &mut RandomPolicy::seeded(seed),
                2_000_000,
                |b| BoundedSnapshot::with_backend(n, 0u64, b),
                |o, pid| {
                    let mut h = o.handle(pid);
                    Some(h.scan_with_stats().1)
                },
            );
            if let Some(s) = stats {
                worst = worst.max(s.double_collects);
                assert!(s.double_collects as usize <= n + 1, "seed {seed}");
            }
        }
        assert!(worst >= 1);
    }
}

#[test]
fn scan_stats_register_counts_match_the_instrumentation_layer() {
    use snapshot_registers::{OpCounters, OpSnapshot};

    for n in [2usize, 3, 4] {
        let sim = Sim::new(n);
        let counters = Arc::new(OpCounters::new(n));
        let backend = Instrumented::new(EpochBackend::new())
            .with_gate(sim.gate())
            .with_counters(Arc::clone(&counters));
        let object = BoundedSnapshot::with_backend(n, 0u64, &backend);
        let observed: Mutex<Vec<(ScanStats, OpSnapshot)>> = Mutex::new(Vec::new());

        let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for i in 0..n - 1 {
            let object = &object;
            bodies.push(Box::new(move || {
                object.drive_updates(ProcessId::new(i), 100);
            }));
        }
        {
            let object = &object;
            let counters = Arc::clone(&counters);
            let observed = &observed;
            bodies.push(Box::new(move || {
                let pid = ProcessId::new(n - 1);
                let mut h = object.handle(pid);
                for _ in 0..10 {
                    let before = counters.snapshot(pid);
                    let (_, stats) = h.scan_with_stats();
                    let delta = counters.snapshot(pid) - before;
                    lock(observed).push((stats, delta));
                }
            }));
        }
        sim.run(
            &mut RoundRobinPolicy::new(),
            SimConfig {
                max_steps: Some(2_000_000),
                stop_when_done: vec![ProcessId::new(n - 1)],
                record_trace: false,
            },
            bodies,
        )
        .expect("simulation failed");

        let observed = lock(&observed);
        assert_eq!(observed.len(), 10);
        for (k, (stats, delta)) in observed.iter().enumerate() {
            // The stats' own primitive-register tallies must agree exactly
            // with the instrumentation layer's independent count...
            assert_eq!(stats.reads, delta.reads, "n={n} scan {k}: {stats:?} vs {delta:?}");
            assert_eq!(stats.writes, delta.writes, "n={n} scan {k}: {stats:?} vs {delta:?}");
            // ...and match the Figure 3 round structure: every round is n
            // handshake read/write pairs plus two n-register collects.
            let dc = u64::from(stats.double_collects);
            assert_eq!(stats.reads, 3 * n as u64 * dc, "n={n} scan {k}");
            assert_eq!(stats.writes, n as u64 * dc, "n={n} scan {k}");
            // Lemma 4.4's pigeonhole bound, asserted from the per-scan
            // stats alone.
            assert!(
                stats.double_collects as usize <= n + 1,
                "n={n} scan {k}: {} double collects",
                stats.double_collects
            );
        }
    }
}

#[test]
fn borrowed_views_actually_occur_under_adversarial_interleaving() {
    // Sanity: the Observation-2 fallback is exercised, not dead code. The
    // scanner scans repeatedly while the updater streams updates; under
    // round-robin at least one scan must fall back to a borrowed view.
    let (stats, _, _) = scanner_under_adversary(
        2,
        &mut RoundRobinPolicy::new(),
        2_000_000,
        |b| UnboundedSnapshot::with_backend(2, 0u64, b),
        |o, pid| {
            let mut h = o.handle(pid);
            let mut last = None;
            for _ in 0..20 {
                let (_, stats) = h.scan_with_stats();
                last = Some(stats);
                if stats.borrowed {
                    break;
                }
            }
            last
        },
    );
    assert!(
        stats.expect("scanner completes").borrowed,
        "expected at least one scan to return a borrowed view under round-robin"
    );
}
