//! Property tests: under *sequential* use (one operation at a time, any
//! process order), every snapshot construction must behave exactly like
//! the trivial model — a plain vector. Atomicity machinery (double
//! collects, handshakes, toggles, borrowed views) must be invisible.
//! Each property runs over `CASES` seeded cases; a failure names its case,
//! and `SeededRng::new(SEED ^ case)` regenerates it.

use snapshot_core::{
    BoundedSnapshot, DoubleCollectSnapshot, LockSnapshot, MultiWriterSnapshot, MwSnapshot,
    MwSnapshotHandle, SwSnapshot, SwSnapshotHandle, UnboundedSnapshot,
};
use snapshot_registers::{ProcessId, SeededRng};

const CASES: u64 = 64;

#[derive(Clone, Debug)]
enum SwOp {
    Update { pid: usize, value: u64 },
    Scan { pid: usize },
}

/// Fewer than `len` operations by processes `0..max_procs`.
fn sw_ops(rng: &mut SeededRng, max_procs: usize, len: usize) -> Vec<SwOp> {
    (0..rng.below(len))
        .map(|_| {
            let pid = rng.below(max_procs);
            if rng.chance(0.5) {
                SwOp::Update {
                    pid,
                    value: rng.next_u64(),
                }
            } else {
                SwOp::Scan { pid }
            }
        })
        .collect()
}

/// One case of the single-writer property: a process count in `1..6`, an
/// initial value, and a script.
fn sw_case(seed: u64, case: u64) -> (usize, u64, Vec<SwOp>) {
    let mut rng = SeededRng::new(seed ^ case);
    let n = 1 + rng.below(5);
    let init = rng.next_u64();
    let ops = sw_ops(&mut rng, 6, 40);
    (n, init, ops)
}

/// Drives `object` with `ops`, one at a time, against the vector model.
/// Handles are claimed and dropped per operation — also exercising the
/// claim/release machinery.
fn check_sw<O: SwSnapshot<u64>>(object: &O, n: usize, init: u64, ops: &[SwOp], case: u64) {
    let mut model = vec![init; n];
    // Keep persistent handles (sequence numbers / toggles must survive
    // across operations), one per process.
    let mut handles: Vec<_> = (0..n).map(|i| object.handle(ProcessId::new(i))).collect();
    for op in ops {
        match op {
            SwOp::Update { pid, value } => {
                let pid = pid % n;
                handles[pid].update(*value);
                model[pid] = *value;
            }
            SwOp::Scan { pid } => {
                let pid = pid % n;
                let (view, stats) = handles[pid].scan_with_stats();
                assert_eq!(view.to_vec(), model, "case {case}");
                // Sequential: always the fast path.
                assert!(!stats.borrowed, "case {case}");
            }
        }
    }
}

#[test]
fn unbounded_matches_vector_model() {
    for case in 0..CASES {
        let (n, init, ops) = sw_case(0x0B0D, case);
        check_sw(&UnboundedSnapshot::new(n, init), n, init, &ops, case);
    }
}

#[test]
fn bounded_matches_vector_model() {
    for case in 0..CASES {
        let (n, init, ops) = sw_case(0xB0D0, case);
        check_sw(&BoundedSnapshot::new(n, init), n, init, &ops, case);
    }
}

#[test]
fn double_collect_matches_vector_model() {
    for case in 0..CASES {
        let (n, init, ops) = sw_case(0xDC01, case);
        check_sw(&DoubleCollectSnapshot::new(n, init), n, init, &ops, case);
    }
}

#[test]
fn lock_matches_vector_model() {
    for case in 0..CASES {
        let (n, init, ops) = sw_case(0x10C4, case);
        check_sw(&LockSnapshot::new(n, init), n, init, &ops, case);
    }
}

#[test]
fn multiwriter_matches_vector_model() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x3117 ^ case);
        let (n, m) = (1 + rng.below(4), 1 + rng.below(4));
        let init = rng.next_u64();
        let object = MultiWriterSnapshot::new(n, m, init);
        let mut model = vec![init; m];
        let mut handles: Vec<_> = (0..n).map(|i| object.handle(ProcessId::new(i))).collect();
        for _ in 0..rng.below(40) {
            let (pid, word) = (rng.below(n), rng.below(m));
            if rng.chance(0.5) {
                let value = rng.next_u64();
                handles[pid].update(word, value);
                model[word] = value;
            } else {
                let view = handles[pid].scan();
                assert_eq!(view.to_vec(), model, "case {case}");
            }
        }
    }
}

#[test]
fn views_share_storage_on_borrow_free_scans() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x5A2E ^ case);
        let n = 1 + rng.below(4);
        // Repeated scans with no intervening updates return equal views.
        let object = BoundedSnapshot::new(n, 0u64);
        let mut h = object.handle(ProcessId::new(0));
        for _ in 0..1 + rng.below(7) {
            h.update(rng.next_u64());
            let a = h.scan();
            let b = h.scan();
            assert_eq!(a.as_slice(), b.as_slice(), "case {case}");
        }
    }
}

#[test]
fn handles_can_cycle_without_state_corruption() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0xC7C1 ^ case);
        // Claim, use, drop, re-claim: the bounded algorithm's local toggle
        // resets, which must not confuse scanners (toggle semantics only
        // require *change* detection relative to what was last written by
        // the same claim).
        let object = UnboundedSnapshot::new(2, 0u64);
        let mut expected = 0u64;
        for _ in 0..1 + rng.below(11) {
            let v = rng.next_u64();
            let mut h = object.handle(ProcessId::new(0));
            h.update(v);
            expected = v;
            drop(h);
        }
        let mut h = object.handle(ProcessId::new(1));
        assert_eq!(h.scan()[0], expected, "case {case}");
    }
}
