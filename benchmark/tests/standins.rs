//! The stand-ins under `benchmark/vendor` do what the snapshot crates
//! rely on: the epoch scheme frees every retired record exactly once and
//! never under a live guard, and the channels report disconnects and
//! timeouts the way `snapshot-abd` expects.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use snapshot_registers::{EpochCell, ProcessId, Register};

const WRITES: u64 = 1_000_000;

/// Drop bookkeeping shared by every record of one test.
struct Ledger {
    /// Times record `i` was dropped.
    dropped: Vec<AtomicU8>,
    drops: AtomicU64,
}

/// A record that reports its own destruction.
struct Tracked {
    id: u64,
    ledger: Arc<Ledger>,
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        unreachable!("the test reads in place (`read_with`), never by clone")
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        let before = self.ledger.dropped[self.id as usize].fetch_add(1, Ordering::SeqCst);
        assert_eq!(before, 0, "record {} dropped twice", self.id);
        self.ledger.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn every_retired_record_is_dropped_once_and_never_under_a_guard() {
    let ledger = Arc::new(Ledger {
        dropped: (0..=WRITES).map(|_| AtomicU8::new(0)).collect(),
        drops: AtomicU64::new(0),
    });
    let cell = EpochCell::new(Tracked {
        id: 0,
        ledger: Arc::clone(&ledger),
    });
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let reads = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            start.wait();
            for id in 1..=WRITES {
                cell.write(
                    ProcessId::new(0),
                    Tracked {
                        id,
                        ledger: Arc::clone(&ledger),
                    },
                );
            }
            done.store(true, Ordering::SeqCst);
        });
        let reader = scope.spawn(|| {
            start.wait();
            let mut reads = 0u64;
            let mut last = 0;
            while !done.load(Ordering::SeqCst) {
                // `read_with` borrows the record under an epoch pin: for
                // as long as the closure runs, a guard can reach it.
                cell.read_with(ProcessId::new(1), |rec| {
                    let alive = |when| {
                        assert_eq!(
                            ledger.dropped[rec.id as usize].load(Ordering::SeqCst),
                            0,
                            "record {} destroyed {when} a pinned read",
                            rec.id
                        );
                    };
                    alive("before");
                    assert!(rec.id >= last, "reads went back from {last} to {}", rec.id);
                    last = rec.id;
                    // Hold the pin across many writes (the writer retires a
                    // record every ~100 ns).
                    for _ in 0..200 {
                        std::hint::spin_loop();
                    }
                    alive("during");
                });
                reads += 1;
            }
            reads
        });
        writer.join().expect("writer");
        reader.join().expect("reader")
    });
    assert!(
        reads > 100,
        "the reader must actually have raced the writer ({reads} reads)"
    );

    // The record still installed is the owner's to free; everything before
    // it was retired. Retired records are destroyed once the epoch has
    // moved on twice, which pinning drives.
    let installed = cell.read_with(ProcessId::new(0), |rec| rec.id);
    assert_eq!(installed, WRITES);
    let deadline = Instant::now() + Duration::from_secs(10);
    while ledger.drops.load(Ordering::SeqCst) < WRITES && Instant::now() < deadline {
        drop(crossbeam_epoch::pin());
    }
    assert_eq!(
        ledger.drops.load(Ordering::SeqCst),
        WRITES,
        "every retired record is reclaimed"
    );
    assert_eq!(
        ledger.dropped[WRITES as usize].load(Ordering::SeqCst),
        0,
        "the installed record is still alive"
    );
    drop(cell);
    assert_eq!(ledger.drops.load(Ordering::SeqCst), WRITES + 1);
    assert!(
        ledger.dropped.iter().all(|d| d.load(Ordering::SeqCst) == 1),
        "exactly once each"
    );
}

#[test]
fn nested_pins_share_the_outer_guard_and_unprotected_destroys_at_once() {
    let ledger = Arc::new(Ledger {
        dropped: (0..2).map(|_| AtomicU8::new(0)).collect(),
        drops: AtomicU64::new(0),
    });
    let slot = crossbeam_epoch::Atomic::new(Tracked {
        id: 0,
        ledger: Arc::clone(&ledger),
    });
    let outer = crossbeam_epoch::pin();
    let inner = crossbeam_epoch::pin();
    let old = slot.swap(
        crossbeam_epoch::Owned::new(Tracked {
            id: 1,
            ledger: Arc::clone(&ledger),
        }),
        Ordering::SeqCst,
        &outer,
    );
    // SAFETY: `old` was just swapped out and is retired exactly once.
    unsafe { inner.defer_destroy(old) };
    drop(inner);
    // The outer guard still pins the thread: the record must survive.
    // SAFETY: loaded under `outer`, which is still live.
    assert_eq!(unsafe { old.deref() }.id, 0);
    assert_eq!(ledger.drops.load(Ordering::SeqCst), 0);
    drop(outer);
    // SAFETY: no other thread can reach `slot`.
    unsafe {
        let guard = crossbeam_epoch::unprotected();
        let last = slot.load(Ordering::Relaxed, guard);
        guard.defer_destroy(last);
    }
    assert_eq!(
        ledger.dropped[1].load(Ordering::SeqCst),
        1,
        "an unprotected guard destroys immediately"
    );
}

#[test]
fn recv_fails_once_every_sender_is_gone_and_the_queue_is_drained() {
    let (tx, rx) = unbounded::<u32>();
    let tx2 = tx.clone();
    tx.send(1).unwrap();
    tx2.send(2).unwrap();
    drop(tx);
    // One sender left: still connected.
    assert_eq!(rx.recv(), Ok(1));
    drop(tx2);
    // Disconnected, but queued messages are still delivered first.
    assert_eq!(rx.recv(), Ok(2));
    assert!(rx.recv().is_err(), "recv errors once all senders dropped");
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(1)),
        Err(RecvTimeoutError::Disconnected)
    );
}

#[test]
fn timed_receives_tell_a_timeout_from_a_disconnect() {
    let (tx, rx) = unbounded::<u32>();
    let t0 = Instant::now();
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(20)),
        Err(RecvTimeoutError::Timeout)
    );
    assert!(t0.elapsed() >= Duration::from_millis(20));
    // A deadline already past polls once: a queued message still arrives.
    assert_eq!(
        rx.recv_deadline(Instant::now() - Duration::from_millis(5)),
        Err(RecvTimeoutError::Timeout)
    );
    tx.send(9).unwrap();
    assert_eq!(
        rx.recv_deadline(Instant::now() - Duration::from_millis(5)),
        Ok(9)
    );
    // A blocked receiver wakes on a send from another thread…
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(3).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(3));
    });
    // …and on the last sender going away.
    std::thread::scope(|scope| {
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            drop(tx);
        });
        assert_eq!(
            rx.recv_deadline(Instant::now() + Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    });
}

#[test]
fn send_fails_once_the_receiver_is_gone() {
    let (tx, rx) = unbounded::<u32>();
    drop(rx);
    assert!(tx.send(1).is_err());
}
