//! Crash-fault injection: wait-freedom means every operation of a *live*
//! process terminates no matter how many other processes crash
//! mid-operation. The simulator's `CrashPolicy` freezes processes after a
//! chosen number of steps — including in the middle of an update's
//! embedded scan or between its handshake and its register write, the
//! nastiest spots — and the survivors' histories must stay linearizable
//! (the crashed updates recorded as pending: they may or may not have
//! taken effect).

use snapshot_bench::harness::{run_mw_sim, run_sw_sim, MwStep, SwStep};
use snapshot_core::{BoundedSnapshot, MultiWriterSnapshot, UnboundedSnapshot};
use snapshot_lin::check_history;
use snapshot_registers::ProcessId;
use snapshot_sim::{CrashPolicy, RoundRobinPolicy, SimConfig};

/// Crash P0 after `crash_at` steps while P1 scans; the scan must complete
/// and the history must check out.
fn crash_updater_sw<F, O>(n: usize, crash_at: u64, build: F)
where
    O: snapshot_core::SwSnapshot<u64>,
    F: FnOnce(&snapshot_bench::harness::GatedBackend) -> O,
{
    let mut scripts: Vec<Vec<SwStep>> = vec![vec![SwStep::Update; 5]; n - 1];
    scripts.push(vec![SwStep::Scan, SwStep::Scan]);
    let mut policy =
        CrashPolicy::new(RoundRobinPolicy::new()).crash_after(ProcessId::new(0), crash_at);
    let (history, report) = run_sw_sim(
        n,
        &scripts,
        &mut policy,
        SimConfig {
            max_steps: Some(1_000_000),
            stop_when_done: vec![ProcessId::new(n - 1)],
            record_trace: false,
        },
        build,
    )
    .expect("simulation failed");
    assert!(
        report.completed(ProcessId::new(n - 1)),
        "scanner must complete despite the crash (crash_at={crash_at}, halt={:?})",
        report.halt
    );
    assert!(
        check_history(&history).is_linearizable(),
        "crash_at={crash_at}: {history:?}"
    );
}

#[test]
fn unbounded_survives_updater_crash_at_every_early_step() {
    // Sweep the crash point across the whole window of the first update:
    // mid-embedded-scan, just before the write, just after.
    for crash_at in 0..14 {
        crash_updater_sw(2, crash_at, |b| UnboundedSnapshot::with_backend(2, 0u64, b));
    }
}

#[test]
fn bounded_survives_updater_crash_at_every_early_step() {
    for crash_at in 0..20 {
        crash_updater_sw(2, crash_at, |b| BoundedSnapshot::with_backend(2, 0u64, b));
    }
}

#[test]
fn bounded_survives_multiple_crashed_updaters() {
    let n = 4;
    let mut scripts: Vec<Vec<SwStep>> = vec![vec![SwStep::Update; 5]; n - 1];
    scripts.push(vec![SwStep::Scan, SwStep::Scan, SwStep::Scan]);
    let mut policy = CrashPolicy::new(RoundRobinPolicy::new())
        .crash_after(ProcessId::new(0), 3)
        .crash_after(ProcessId::new(1), 17)
        .crash_after(ProcessId::new(2), 40);
    let (history, report) = run_sw_sim(
        n,
        &scripts,
        &mut policy,
        SimConfig {
            max_steps: Some(1_000_000),
            stop_when_done: vec![ProcessId::new(n - 1)],
            record_trace: false,
        },
        |b| BoundedSnapshot::with_backend(n, 0u64, b),
    )
    .unwrap();
    assert!(report.completed(ProcessId::new(n - 1)));
    assert!(check_history(&history).is_linearizable(), "{history:?}");
}

#[test]
fn multiwriter_survives_crash_between_handshake_and_value_write() {
    // The multi-writer update publishes handshake bits, view and value in
    // three separate writes; crash in each gap.
    let n = 3;
    let m = 2;
    for crash_at in [2u64, 6, 8, 15, 25, 40] {
        let scripts: Vec<Vec<MwStep>> = vec![
            vec![MwStep::Update(0); 3],
            vec![MwStep::Update(1); 3],
            vec![MwStep::Scan, MwStep::Scan],
        ];
        let mut policy =
            CrashPolicy::new(RoundRobinPolicy::new()).crash_after(ProcessId::new(0), crash_at);
        let (history, report) = run_mw_sim(
            n,
            m,
            &scripts,
            &mut policy,
            SimConfig {
                max_steps: Some(1_000_000),
                stop_when_done: vec![ProcessId::new(2)],
                record_trace: false,
            },
            |b| MultiWriterSnapshot::with_backend(n, m, 0u64, b),
        )
        .unwrap();
        assert!(
            report.completed(ProcessId::new(2)),
            "crash_at={crash_at}: scanner did not complete"
        );
        assert!(
            check_history(&history).is_linearizable(),
            "crash_at={crash_at}: {history:?}"
        );
    }
}

/// Crash/restart *storm* on the message-passing side: the ABD emulation's
/// analogue of the simulator crash sweeps above. Two replicas of a
/// 5-replica network flap up and down at random (seeded) instants while
/// writers and readers run — at most 2 replicas are ever down, so a
/// majority stays reachable and, by the paper's Section 6 argument, every
/// operation must complete and the register must stay atomic. Composite
/// `(k, 3k)` values make torn or stale-mix reads detectable.
#[test]
fn abd_register_survives_replica_crash_restart_storm() {
    use snapshot_abd::{AbdRegister, Network, NetworkConfig};
    use snapshot_registers::SeededRng;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    for seed in [3u64, 11, 42] {
        let network = Arc::new(Network::with_config(
            NetworkConfig::new(5).with_jitter(seed),
        ));
        let reg = Arc::new(AbdRegister::new(Arc::clone(&network), (0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            {
                // Storm driver: flap replicas 0 and 1 only, so at most a
                // minority (2 of 5) is ever crashed.
                let network = Arc::clone(&network);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut rng = SeededRng::new(seed);
                    let mut down = [false; 2];
                    while !stop.load(Ordering::Relaxed) {
                        let i = rng.below(2);
                        if down[i] {
                            network.restart(i);
                        } else {
                            network.crash(i);
                        }
                        down[i] = !down[i];
                        std::thread::sleep(Duration::from_micros(rng.range(200..=1_999)));
                    }
                    for (i, d) in down.into_iter().enumerate() {
                        if d {
                            network.restart(i);
                        }
                    }
                });
            }
            for w in 0..2u64 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let pid = ProcessId::new(w as usize);
                    for i in 0..60 {
                        let k = w * 1_000 + i;
                        reg.try_write(pid, (k, k * 3))
                            .unwrap_or_else(|e| panic!("seed {seed}: write under storm: {e}"));
                    }
                });
            }
            let mut readers = Vec::new();
            for r in 0..2u64 {
                let reg = Arc::clone(&reg);
                readers.push(s.spawn(move || {
                    let pid = ProcessId::new(2 + r as usize);
                    for _ in 0..120 {
                        let (a, b) = reg
                            .try_read(pid)
                            .unwrap_or_else(|e| panic!("seed {seed}: read under storm: {e}"));
                        assert_eq!(b, a * 3, "seed {seed}: torn/mixed read ({a}, {b})");
                    }
                }));
            }
            // Stop the storm only after the workload is done; readers and
            // writers never observe a settled network.
            for h in readers {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });

        assert!(!network.poisoned(), "seed {seed}: replica thread panicked");
        // Crashed replicas swallow requests without acking, so the storm
        // itself must have forced some drops to be counted.
        let stats = network.stats();
        assert!(
            stats.messages_dropped > 0,
            "seed {seed}: storm never caught an op in flight: {stats:?}"
        );
    }
}

#[test]
fn all_but_one_crashed_scanner_still_terminates() {
    // Extreme case: every other process crashes almost immediately; the
    // lone survivor's scan terminates (wait-freedom needs no cooperation).
    let n = 4;
    let mut scripts: Vec<Vec<SwStep>> = vec![vec![SwStep::Update; 10]; n - 1];
    scripts.push(vec![SwStep::Scan]);
    let mut policy = CrashPolicy::new(RoundRobinPolicy::new())
        .crash_after(ProcessId::new(0), 1)
        .crash_after(ProcessId::new(1), 2)
        .crash_after(ProcessId::new(2), 1);
    let (history, report) = run_sw_sim(
        n,
        &scripts,
        &mut policy,
        SimConfig {
            max_steps: Some(1_000_000),
            stop_when_done: vec![ProcessId::new(n - 1)],
            record_trace: false,
        },
        |b| UnboundedSnapshot::with_backend(n, 0u64, b),
    )
    .unwrap();
    assert!(report.completed(ProcessId::new(n - 1)));
    assert!(check_history(&history).is_linearizable());
}
