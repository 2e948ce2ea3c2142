//! Native partial snapshots, exercised directly on the cores.
//!
//! Two claims are checked here. **Cost**: a quiescent `try_scan_subset`
//! over k segments of an n-segment object performs O(k) register
//! operations, not O(n) — counted independently by the instrumentation
//! layer's `OpCounters`, with n = 64 and k = 2 so a full-collect
//! implementation could not sneak past the bounds. **Safety**: seeded
//! concurrent histories of subset scans racing updates on the bounded
//! and multi-writer native paths (plus the unbounded borrow path)
//! linearize against the projected sequential spec under the Wing & Gong
//! checker.

use std::sync::{Arc, Mutex};

use snapshot_core::{
    BoundedSnapshot, MultiWriterSnapshot, RequestCtx, TrySnapshotCore, UnboundedSnapshot,
};
use snapshot_lin::{check_partial_history, PartialOp, WgOp, WgResult};
use snapshot_obs::Clock;
use snapshot_registers::{EpochBackend, Instrumented, OpCounters, ProcessId, SeededRng};

/// In-process cores are wait-free: no deadline to cut, no span to parent.
const NONE: RequestCtx = RequestCtx::none();

// ---------------------------------------------------------------------------
// O(touched) cost, counted by the instrumentation layer
// ---------------------------------------------------------------------------

#[test]
fn quiescent_subset_scans_cost_o_touched_not_o_n() {
    const N: usize = 64;
    let subset = [5usize, 60];
    let k = subset.len() as u64;
    let pid = ProcessId::new(0);

    // Unbounded: two collect passes over the subset — 2k reads, no
    // writes, no borrow.
    {
        let counters = Arc::new(OpCounters::new(N));
        let backend =
            Instrumented::new(EpochBackend::new()).with_counters(Arc::clone(&counters));
        let object = UnboundedSnapshot::with_backend(N, 0u64, &backend);
        let _ = object.try_update(&mut object.lane(ProcessId::new(5)), 5, 55, NONE).unwrap();
        // Claiming a lane reads its own register: claim before counting.
        let mut lane = object.lane(pid);
        let before = counters.snapshot(pid);
        let (values, stats) =
            object.try_scan_subset(&mut lane, &subset, NONE).unwrap().expect("native");
        let delta = counters.snapshot(pid) - before;
        assert_eq!(values, vec![55, 0]);
        assert!(!stats.borrowed);
        assert_eq!(stats.double_collects, 1);
        assert_eq!(delta.reads, 2 * k, "O(k) reads, not O({N})");
        assert_eq!(delta.writes, 0);
    }

    // Bounded: one round is a k-pair subset handshake (k reads + k
    // writes) plus two k-register collects — 3k reads, k writes.
    {
        let counters = Arc::new(OpCounters::new(N));
        let backend =
            Instrumented::new(EpochBackend::new()).with_counters(Arc::clone(&counters));
        let object = BoundedSnapshot::with_backend(N, 0u64, &backend);
        let _ = object.try_update(&mut object.lane(ProcessId::new(5)), 5, 55, NONE).unwrap();
        // Claiming a lane reads its own register: claim before counting.
        let mut lane = object.lane(pid);
        let before = counters.snapshot(pid);
        let (values, stats) =
            object.try_scan_subset(&mut lane, &subset, NONE).unwrap().expect("native");
        let delta = counters.snapshot(pid) - before;
        assert_eq!(values, vec![55, 0]);
        assert!(!stats.borrowed);
        assert_eq!(delta.reads, 3 * k, "O(k) reads, not O({N})");
        assert_eq!(delta.writes, k);
    }

    // Multi-writer: version probes (uncounted hints) certify around a
    // single k-word read pass.
    {
        let counters = Arc::new(OpCounters::new(2));
        let backend =
            Instrumented::new(EpochBackend::new()).with_counters(Arc::clone(&counters));
        let object = MultiWriterSnapshot::with_backend(2, N, 0u64, &backend);
        let _ = object.try_update(&mut object.lane(ProcessId::new(1)), 5, 55, NONE).unwrap();
        let mut lane = object.lane(pid);
        let before = counters.snapshot(pid);
        let (values, stats) =
            object.try_scan_subset(&mut lane, &subset, NONE).unwrap().expect("quiescent");
        let delta = counters.snapshot(pid) - before;
        assert_eq!(values, vec![55, 0]);
        assert!(delta.reads <= 2 * k, "O(k) reads, not O({N}): {}", delta.reads);
        assert_eq!(delta.writes, 0);
        assert_eq!(stats.writes, 0);
    }
}

// ---------------------------------------------------------------------------
// Seeded concurrent histories against the projected spec
// ---------------------------------------------------------------------------

/// Drives every lane with a seeded mix of updates and native subset
/// scans directly on `core`, recording a `PartialOp` history on one
/// shared logical clock, and returns the checker's verdict.
fn run_native_history<C: TrySnapshotCore<u64>>(
    core: C,
    seed: u64,
    ops_per_thread: usize,
) -> WgResult {
    let single_writer = core.single_writer();
    let words = core.segments();
    let threads = core.lanes();
    let clock = Clock::new();
    let ops: Mutex<Vec<WgOp<PartialOp<u64>>>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for lane in 0..threads {
            let core = &core;
            let clock = &clock;
            let ops = &ops;
            s.spawn(move || {
                let pid = ProcessId::new(lane);
                let mut handle = core.lane(pid);
                // One generator per (seed, lane).
                let mut rng =
                    SeededRng::new(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane as u64 + 1));
                for k in 0..ops_per_thread {
                    if rng.below(2) == 0 {
                        let word = if single_writer { lane } else { rng.below(words) };
                        let value = ((lane as u64) << 32) | (k as u64 + 1);
                        let inv = clock.tick();
                        let _ = core.try_update(&mut handle, word, value, NONE).unwrap();
                        let res = Some(clock.tick());
                        ops.lock().unwrap().push(WgOp {
                            pid,
                            inv,
                            res,
                            op: PartialOp::Update { word, value },
                        });
                    } else {
                        let a = rng.below(words);
                        let b = rng.below(words);
                        let mut subset = vec![a, b];
                        subset.sort_unstable();
                        subset.dedup();
                        let inv = clock.tick();
                        let view = match core.try_scan_subset(&mut handle, &subset, NONE).unwrap() {
                            Some((values, _)) => values,
                            // The bounded interference budget ran out (the
                            // multi-writer path under heavy contention):
                            // project a full scan, exactly as the service
                            // fallback does.
                            None => {
                                let (full, _) = core.try_scan(&mut handle, NONE).unwrap();
                                subset.iter().map(|&s| full[s]).collect()
                            }
                        };
                        let res = Some(clock.tick());
                        ops.lock().unwrap().push(WgOp {
                            pid,
                            inv,
                            res,
                            op: PartialOp::ScanSubset { segments: subset, view },
                        });
                    }
                }
            });
        }
    });

    let mut ops = ops.into_inner().unwrap();
    ops.sort_by_key(|op| op.inv);
    check_partial_history(words, 0u64, single_writer, &ops)
}

#[test]
fn seeded_subset_histories_linearize_on_the_unbounded_borrow_path() {
    for seed in [0xA11CEu64, 0x5EED_0001, 0x5EED_0002] {
        let verdict = run_native_history(UnboundedSnapshot::new(3, 0u64), seed, 10);
        assert!(
            matches!(verdict, WgResult::Linearizable { .. }),
            "seed {seed:#x}: unbounded native history rejected: {verdict:?}"
        );
    }
}

#[test]
fn seeded_subset_histories_linearize_on_the_bounded_native_path() {
    for seed in [0xB0Bu64, 0x5EED_0003, 0x5EED_0004] {
        let verdict = run_native_history(BoundedSnapshot::new(3, 0u64), seed, 10);
        assert!(
            matches!(verdict, WgResult::Linearizable { .. }),
            "seed {seed:#x}: bounded native history rejected: {verdict:?}"
        );
    }
}

#[test]
fn seeded_subset_histories_linearize_on_the_multiwriter_native_path() {
    for seed in [0xC0FFEEu64, 0x5EED_0005, 0x5EED_0006] {
        let verdict = run_native_history(MultiWriterSnapshot::new(3, 4, 0u64), seed, 10);
        assert!(
            matches!(verdict, WgResult::Linearizable { .. }),
            "seed {seed:#x}: multi-writer native history rejected: {verdict:?}"
        );
    }
}
