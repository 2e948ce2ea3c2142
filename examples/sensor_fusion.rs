//! Sensor fusion: why "read every register" is not "take a snapshot".
//!
//! Four sensor threads continuously publish monotonically-versioned
//! readings. Two fusion threads each repeatedly observe the whole sensor
//! array, producing a vector of versions per observation.
//!
//! If every observation were a true *instant* of the system, then any two
//! observations — even from different fusion threads — would be
//! **comparable**: the later instant dominates the earlier one
//! componentwise (each sensor's version only grows). So a pair of
//! observations where each is strictly ahead of the other on *some*
//! sensor is a proof that one of them never existed at any instant.
//!
//! * plain per-register collects produce such impossible pairs in droves;
//! * wait-free atomic scans (this paper's construction) never do.
//!
//! This is the paper's opening motivation, measured: "much of the
//! difficulty in proving correctness of concurrent programs is due to the
//! need to argue based on 'inconsistent' views of shared memory."
//!
//! Run with: `cargo run --release --example sensor_fusion`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use snapshot_core::{BoundedSnapshot, SwSnapshot, SwSnapshotHandle};
use snapshot_registers::{
    collect, Backend, EpochBackend, Instrumented, OpKind, ProcessId, Register, StepGate,
};

/// A poisoned lock yields its guard: the log is append-only, so what the
/// other readers pushed is intact even if one of them panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Makes every register access a preemption point — the asynchronous
/// model of the paper, where a process can be delayed arbitrarily between
/// any two register operations. Applied to BOTH competitors below, so the
/// comparison is fair (and the demonstration works even on one CPU).
struct YieldGate;

impl StepGate for YieldGate {
    fn step(&self, _pid: ProcessId, _op: OpKind) {
        std::thread::yield_now();
    }
}

fn yielding_backend() -> Instrumented<EpochBackend> {
    Instrumented::new(EpochBackend::new()).with_gate(Arc::new(YieldGate))
}

const SENSORS: usize = 4;
const OBSERVATIONS: usize = 3_000;
const READERS: usize = 2;

fn main() {
    let naive = incomparable_pairs_naive();
    let snapshot = incomparable_pairs_snapshot();

    println!(
        "impossible (incomparable) observation pairs out of {}x{} cross-pairs:",
        READERS * OBSERVATIONS,
        READERS * OBSERVATIONS
    );
    println!("  naive per-register collects : {naive}");
    println!("  atomic snapshot scans       : {snapshot}");
    assert_eq!(snapshot, 0, "atomic scans must always be comparable");
    if naive == 0 {
        println!("(the naive fusion got lucky this run — rerun, it rarely survives)");
    }
}

fn count_incomparable(observations: &[Vec<Vec<u64>>]) -> usize {
    let all: Vec<&Vec<u64>> = observations.iter().flatten().collect();
    let mut incomparable = 0;
    for (i, u) in all.iter().enumerate() {
        for v in &all[i + 1..] {
            let u_ahead = u.iter().zip(v.iter()).any(|(a, b)| a > b);
            let v_ahead = u.iter().zip(v.iter()).any(|(a, b)| a < b);
            if u_ahead && v_ahead {
                incomparable += 1;
            }
        }
    }
    incomparable
}

/// Fusion by plain collects over raw registers.
fn incomparable_pairs_naive() -> usize {
    let backend = yielding_backend();
    let regs: Vec<_> = (0..SENSORS).map(|_| backend.cell(0u64)).collect();
    let stop = AtomicBool::new(false);
    let observations: Mutex<Vec<Vec<Vec<u64>>>> = Mutex::new(Vec::new());
    let barrier = std::sync::Barrier::new(READERS);

    std::thread::scope(|s| {
        for (i, reg) in regs.iter().enumerate() {
            let stop = &stop;
            s.spawn(move || {
                let pid = ProcessId::new(i);
                let mut version = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    version += 1;
                    reg.write(pid, version);
                }
            });
        }
        for r in 0..READERS {
            let regs = &regs;
            let observations = &observations;
            let barrier = &barrier;
            s.spawn(move || {
                let reader = ProcessId::new(SENSORS + r);
                let mut mine = Vec::with_capacity(OBSERVATIONS);
                barrier.wait();
                for _ in 0..OBSERVATIONS {
                    // Each fusion thread reads the registers one at a time
                    // — reader 0 ascending, reader 1 descending (both are
                    // perfectly reasonable "read everything" loops).
                    let obs: Vec<u64> = if r % 2 == 0 {
                        collect(reader, regs)
                    } else {
                        let mut rev: Vec<u64> =
                            regs.iter().rev().map(|reg| reg.read(reader)).collect();
                        rev.reverse();
                        rev
                    };
                    mine.push(obs);
                }
                lock(observations).push(mine);
            });
        }
        // Let the readers finish, then stop the sensors.
        while lock(&observations).len() < READERS {
            std::hint::spin_loop();
        }
        stop.store(true, Ordering::Relaxed);
    });

    count_incomparable(
        &observations
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    )
}

/// Fusion by atomic scans over the bounded snapshot construction.
fn incomparable_pairs_snapshot() -> usize {
    let n = SENSORS + READERS;
    let snapshot = BoundedSnapshot::with_backend(n, 0u64, &yielding_backend());
    let stop = AtomicBool::new(false);
    let observations: Mutex<Vec<Vec<Vec<u64>>>> = Mutex::new(Vec::new());
    let barrier = std::sync::Barrier::new(READERS);

    std::thread::scope(|s| {
        for i in 0..SENSORS {
            let snapshot = &snapshot;
            let stop = &stop;
            s.spawn(move || {
                let mut handle = snapshot.handle(ProcessId::new(i));
                let mut version = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    version += 1;
                    handle.update(version);
                }
            });
        }
        for r in 0..READERS {
            let snapshot = &snapshot;
            let observations = &observations;
            let barrier = &barrier;
            s.spawn(move || {
                let mut handle = snapshot.handle(ProcessId::new(SENSORS + r));
                let mut mine = Vec::with_capacity(OBSERVATIONS);
                barrier.wait();
                for _ in 0..OBSERVATIONS {
                    // Only the sensor segments matter for comparability.
                    mine.push(handle.scan()[..SENSORS].to_vec());
                }
                lock(observations).push(mine);
            });
        }
        while lock(&observations).len() < READERS {
            std::hint::spin_loop();
        }
        stop.store(true, Ordering::Relaxed);
    });

    count_incomparable(
        &observations
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    )
}
