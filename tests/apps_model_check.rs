//! Model checking and stress for the snapshot applications: bakery mutual
//! exclusion, checkpointable counters, concurrent timestamps, and the
//! snapshot-based multi-writer register.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use snapshot_apps::{BakeryMutex, CheckpointableCounter, SnapshotRegister, TimestampSystem};
use snapshot_lin::{check_linearizable, RegisterOp, RegisterSpec, WgOp};
use snapshot_registers::{EpochBackend, Instrumented, ProcessId};
use snapshot_sim::{RandomPolicy, Sim, SimConfig};

/// A poisoned lock yields its guard: simulated bodies may panic on
/// purpose, and what they logged before that is still wanted.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn bakery_mutual_exclusion_model_checked_over_random_schedules() {
    // Two processes each enter the critical section twice; 150 seeded
    // random schedules; a violation counter guarded by the scheduler's
    // serialization. The CS counter is a plain atomic (not a gated
    // register), so it observes true simultaneity.
    for seed in 0..150u64 {
        let n = 2;
        let sim = Sim::new(n);
        let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
        let mutex = BakeryMutex::with_backend(n, &backend);
        let in_cs = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);

        let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for i in 0..n {
            let mutex = &mutex;
            let in_cs = &in_cs;
            let violations = &violations;
            bodies.push(Box::new(move || {
                let mut h = mutex.handle(ProcessId::new(i));
                for _ in 0..2 {
                    h.lock();
                    if in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    h.unlock();
                }
            }));
        }
        let report = sim
            .run(
                &mut RandomPolicy::seeded(seed),
                SimConfig {
                    max_steps: Some(500_000),
                    ..SimConfig::default()
                },
                bodies,
            )
            .unwrap();
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "seed {seed}: mutual exclusion violated"
        );
        // Random schedules are fair enough in practice for the waiters to
        // get through; livelock would show as a step-limit halt.
        assert_eq!(
            report.halt,
            snapshot_sim::HaltReason::AllDone,
            "seed {seed}: bakery livelocked"
        );
    }
}

#[test]
fn counter_checkpoints_are_monotone_under_adversarial_schedules() {
    for seed in 0..40u64 {
        let n = 3;
        let sim = Sim::new(n);
        let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
        let counter = CheckpointableCounter::with_backend(n, &backend);
        let failed = AtomicUsize::new(0);

        let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for i in 0..n {
            let counter = &counter;
            let failed = &failed;
            bodies.push(Box::new(move || {
                let mut h = counter.handle(ProcessId::new(i));
                let mut prev = 0u64;
                for _ in 0..4 {
                    h.increment();
                    let total: u64 = h.checkpoint().iter().sum();
                    if total < prev {
                        failed.fetch_add(1, Ordering::SeqCst);
                    }
                    prev = total;
                }
            }));
        }
        sim.run(
            &mut RandomPolicy::seeded(seed),
            SimConfig::default(),
            bodies,
        )
        .unwrap();
        assert_eq!(failed.load(Ordering::SeqCst), 0, "seed {seed}");
        let mut h = counter.handle(ProcessId::new(0));
        assert_eq!(h.read(), (n * 4) as u64);
    }
}

#[test]
fn timestamps_respect_real_time_under_adversarial_schedules() {
    for seed in 0..40u64 {
        let n = 3;
        let sim = Sim::new(n);
        let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
        let system = TimestampSystem::with_backend(n, &backend);
        let clock = AtomicU64::new(0);
        let labeled: Mutex<Vec<(u64, u64, snapshot_apps::Timestamp)>> = Mutex::new(Vec::new());

        let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for i in 0..n {
            let system = &system;
            let clock = &clock;
            let labeled = &labeled;
            bodies.push(Box::new(move || {
                let mut h = system.handle(ProcessId::new(i));
                for _ in 0..3 {
                    let inv = clock.fetch_add(1, Ordering::SeqCst);
                    let ts = h.label();
                    let res = clock.fetch_add(1, Ordering::SeqCst);
                    lock(labeled).push((inv, res, ts));
                }
            }));
        }
        sim.run(
            &mut RandomPolicy::seeded(seed),
            SimConfig::default(),
            bodies,
        )
        .unwrap();

        let labeled = labeled.into_inner().unwrap_or_else(PoisonError::into_inner);
        // Distinct labels.
        let mut all: Vec<_> = labeled.iter().map(|x| x.2).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), labeled.len(), "seed {seed}: duplicate labels");
        // Real-time respecting.
        for a in &labeled {
            for b in &labeled {
                if a.1 < b.0 {
                    assert!(a.2 < b.2, "seed {seed}: {} !< {}", a.2, b.2);
                }
            }
        }
    }
}

#[test]
fn immediate_snapshot_properties_hold_on_every_schedule() {
    // Exhaustively explore every interleaving of a 2-process immediate
    // snapshot, and a deep budgeted prefix for 3 processes; on every
    // schedule the views must satisfy self-inclusion, containment and
    // immediacy.
    use snapshot_apps::{check_immediacy, ImmediateSnapshot};
    use snapshot_sim::{ExploreLimits, Explorer};

    for (n, max_runs, must_complete) in [(2usize, 60_000u64, true), (3, 12_000, false)] {
        let mut runs = 0u64;
        let outcome = Explorer::new(ExploreLimits {
            max_runs,
            max_depth: 4096,
        })
        .explore::<String>(|policy| {
            let sim = Sim::new(n);
            let backend = Instrumented::new(EpochBackend::new()).with_gate(sim.gate());
            let object = ImmediateSnapshot::with_backend(n, &backend);
            type View = Vec<(ProcessId, u64)>;
            let views: Arc<Mutex<Vec<Option<View>>>> = Arc::new(Mutex::new(vec![None; n]));
            let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for i in 0..n {
                let object = &object;
                let views = Arc::clone(&views);
                bodies.push(Box::new(move || {
                    let view = object.write_read(ProcessId::new(i), i as u64);
                    lock(&views)[i] = Some(view);
                }));
            }
            sim.run(policy, SimConfig::default(), bodies)
                .map_err(|e| e.to_string())?;
            check_immediacy(&lock(&views))?;
            runs += 1;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("n={n}: {e}"));
        if must_complete {
            assert!(outcome.is_complete(), "n={n}: tree not covered ({runs} runs)");
        }
        assert!(runs > 100, "n={n}: only {runs} runs");
    }
}

#[test]
fn snapshot_register_histories_are_register_linearizable() {
    // Drive the snapshot-built MRMW register from real threads and check
    // the resulting histories against the sequential register spec.
    for round in 0..40u64 {
        let n = 3;
        let reg = SnapshotRegister::new(n, 0u64);
        let clock = Arc::new(AtomicU64::new(0));
        let ops: Arc<Mutex<Vec<WgOp<RegisterOp<u64>>>>> = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for t in 0..n {
                let reg = &reg;
                let clock = Arc::clone(&clock);
                let ops = Arc::clone(&ops);
                s.spawn(move || {
                    let pid = ProcessId::new(t);
                    let mut h = reg.writer(pid);
                    for k in 0..2u64 {
                        if (t as u64 + k + round).is_multiple_of(2) {
                            let value = (t as u64 + 1) * 1000 + k + round;
                            let inv = clock.fetch_add(1, Ordering::SeqCst);
                            h.write(value);
                            let res = clock.fetch_add(1, Ordering::SeqCst);
                            lock(&ops).push(WgOp {
                                pid,
                                inv,
                                res: Some(res),
                                op: RegisterOp::Write { value },
                            });
                        } else {
                            let inv = clock.fetch_add(1, Ordering::SeqCst);
                            let value = h.read();
                            let res = clock.fetch_add(1, Ordering::SeqCst);
                            lock(&ops).push(WgOp {
                                pid,
                                inv,
                                res: Some(res),
                                op: RegisterOp::Read { value },
                            });
                        }
                    }
                });
            }
        });
        let ops = Arc::try_unwrap(ops)
            .unwrap()
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(
            check_linearizable(&RegisterSpec::new(0u64), &ops).is_linearizable(),
            "round {round}: {ops:?}"
        );
    }
}
