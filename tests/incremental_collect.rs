//! Equivalence of the incremental (clone-free) collect path with the
//! original full-clone collect path.
//!
//! The incremental path caches the previous pass in a
//! [`TrackedCollect`] and re-reads (clones) only the registers whose
//! version hints moved, so it must be *observationally identical* to the
//! full path: same register-operation sequence under the gated
//! simulator, same recorded histories, same views, same linearizability
//! verdicts. These tests pin that contract three ways:
//!
//! 1. a direct property test that [`TrackedCollect::advance`] always
//!    lands on exactly the state a fresh [`collect`] would return, over
//!    random write/advance/invalidate interleavings, with and without
//!    version hints and key trust;
//! 2. property tests running the *same* random scripts under the *same*
//!    seeded adversarial schedule with the incremental path switched on
//!    and off, asserting the recorded histories are bit-identical
//!    (possible because `InstrumentedCell` hides version hints, so both
//!    modes execute the same gated operation sequence);
//! 3. threaded runs of the incremental path on the real (non-gated)
//!    backend, where version probes genuinely skip clones, checked for
//!    linearizability;
//! 4. threaded hunts for a new-old inversion *across* operations: a
//!    scanner whose cache stays warm between scans must never return a
//!    value older than one a scan that already finished returned — the
//!    window a write opens between its pointer swap and its version bump,
//!    which the gated simulator cannot reach because it hides versions.
//!
//! The property tests have a blind spot the deterministic tests below
//! close: under the gated simulator `InstrumentedCell` hides version
//! hints (that is what makes the two modes' operation sequences
//! comparable), and the direct ground-truth property uses `u64` cells
//! whose key *is* the value — so neither can reach the interaction of
//! key-ABA with the version cache. `key_aba_with_trusted_keys_*` drives
//! exactly that corner against real `EpochCell`s with composite records
//! (key ≠ payload): three same-key writes between two trusted advances,
//! asserting the cache is never version-certified while stale.

use snapshot_bench::harness::{
    mw_contended_scripts, mw_disjoint_scripts, run_mw_sim, run_sw_sim, run_sw_threaded,
    sw_random_scripts, GatedBackend, SwStep,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use snapshot_core::{
    BoundedSnapshot, MultiWriterSnapshot, MwSnapshot, MwSnapshotHandle, SwSnapshot,
    SwSnapshotHandle, UnboundedSnapshot,
};
use snapshot_lin::{check_history, check_intervals, History};
use snapshot_registers::{
    collect, Backend, EpochBackend, MutexBackend, ProcessId, Register, SeededRng, TrackedCollect,
};
use snapshot_sim::{RandomPolicy, SimConfig};

// ---------------------------------------------------------------------------
// 1. TrackedCollect vs. ground-truth collect()
// ---------------------------------------------------------------------------

/// One step of the random single-threaded driver for the direct property.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// Overwrite register `reg` with `val`.
    Write { reg: usize, val: u64 },
    /// Run one incremental pass and check it against a full collect.
    Advance,
    /// Drop the cache, forcing the next pass to re-prime.
    Invalidate,
}

/// Writes, advances and invalidations, weighted 3 : 3 : 1.
fn act(rng: &mut SeededRng, regs: usize) -> Act {
    match rng.below(7) {
        0..=2 => Act::Write {
            reg: rng.below(regs),
            val: rng.next_u64(),
        },
        3..=5 => Act::Advance,
        _ => Act::Invalidate,
    }
}

/// Runs the act script over cells from `backend`, asserting after every
/// pass that the incremental cache equals a fresh full collect.
fn check_against_ground_truth<B: Backend>(
    backend: &B,
    acts: &[Act],
    regs: usize,
    trust: bool,
    case: u64,
) {
    let cells: Vec<B::Cell<u64>> = (0..regs).map(|_| backend.cell(0u64)).collect();
    let mut tracked: TrackedCollect<u64> = TrackedCollect::new();
    let pid = ProcessId::new(0);
    for act in acts {
        match *act {
            Act::Write { reg, val } => cells[reg].write(pid, val),
            Act::Advance => {
                let _ = tracked.advance(pid, &cells, trust, |a, b| a == b);
                assert_eq!(
                    tracked.records(),
                    collect(pid, &cells).as_slice(),
                    "case {case}: incremental pass diverged from full collect (trust_keys={trust})"
                );
            }
            Act::Invalidate => tracked.invalidate(),
        }
    }
}

/// With version hints (epoch cells), without them (mutex cells), with
/// keys trusted and not: every advance must land on the full-collect
/// state.
#[test]
fn tracked_collect_always_matches_full_collect() {
    for case in 0..64 {
        let mut rng = SeededRng::new(0x72AC ^ case);
        let acts: Vec<Act> = (0..1 + rng.below(39)).map(|_| act(&mut rng, 4)).collect();
        let trust = rng.chance(0.5);
        check_against_ground_truth(&EpochBackend::new(), &acts, 4, trust, case);
        check_against_ground_truth(&MutexBackend::new(), &acts, 4, trust, case);
    }
}

// ---------------------------------------------------------------------------
// 1b. Key ABA vs. the version cache (deterministic, real version hints)
// ---------------------------------------------------------------------------

/// A record shaped like the bounded algorithms' registers: a small key
/// that toggles and can recur (`.0`) alongside a payload (`.1`) that
/// does not. `same` compares only the key, as the bounded `moved`
/// predicates do.
type Composite = (u8, u64);

fn same_key(a: &Composite, b: &Composite) -> bool {
    a.0 == b.0
}

/// The review scenario behind the `trust_keys` soundness note on
/// [`TrackedCollect`]: three completed same-slot writes between two
/// trusted advances restore the key with a different payload. The
/// trusted pass may keep the stale record (within a double collect the
/// algorithms' handshakes catch the movement), but the *next* advance
/// must re-read the slot — the stale record must never ride a
/// `ReusedByVersion` out of the window.
#[test]
fn key_aba_with_trusted_keys_is_repaired_by_the_next_advance() {
    let backend = EpochBackend::new();
    let cells: Vec<_> = (0..3).map(|_| backend.cell((0u8, 0u64))).collect();
    let p = ProcessId::new(0);
    let mut tc: TrackedCollect<Composite> = TrackedCollect::new();

    tc.advance(p, &cells, true, same_key); // prime: cache (0, 0) per slot

    // Three writes to slot 1, ending on the cached key 0 with a payload
    // the cache has never seen.
    cells[1].write(p, (0, 11));
    cells[1].write(p, (1, 22));
    cells[1].write(p, (0, 33));

    // Trusted pass (pass-b of a double collect): the key matches, so the
    // clone is skipped and the cache legitimately still holds (0, 0).
    let pass = tc.advance(p, &cells, true, same_key);
    assert_eq!(pass.cloned, 0);
    assert_eq!(tc.records()[1], (0, 0));

    // Memory is now quiescent. The next advance — trusted or not — must
    // re-read slot 1 rather than certify the stale record by version.
    let pass = tc.advance(p, &cells, true, same_key);
    assert_eq!(pass.cloned, 0, "key reuse again: record still stale by design");
    let pass = tc.advance(p, &cells, false, same_key);
    assert_eq!(pass.cloned, 1, "untrusted pass must re-validate the moved slot");
    assert_eq!(tc.records(), collect(p, &cells).as_slice());
    assert_eq!(tc.records()[1], (0, 33));
}

/// Same shape, driven through a snapshot-level lens: after a scan-like
/// trusted/untrusted pass pair, a fresh pair over quiescent memory must
/// land on the registers' true contents — a stale cache certified by a
/// current version would instead return (0, 0) forever.
#[test]
fn key_aba_quiescent_scan_sees_completed_writes() {
    let backend = EpochBackend::new();
    let cells: Vec<_> = (0..2).map(|_| backend.cell((0u8, 0u64))).collect();
    let p = ProcessId::new(0);
    let mut tc: TrackedCollect<Composite> = TrackedCollect::new();

    // Scan 1, pass a (untrusted) …
    tc.advance(p, &cells, false, same_key);
    // … three updates complete inside the double collect …
    cells[0].write(p, (0, 2));
    cells[0].write(p, (1, 3));
    cells[0].write(p, (0, 4));
    // … scan 1, pass b (trusted): key restored, clone skipped.
    tc.advance(p, &cells, true, same_key);

    // Scan 2 over quiescent memory: pass a then pass b. Every value it
    // can return must reflect the writes that completed before it began.
    tc.advance(p, &cells, false, same_key);
    let pass_b = tc.advance(p, &cells, true, same_key);
    assert!(pass_b.clean(), "quiescent double collect must succeed");
    assert_eq!(tc.records(), collect(p, &cells).as_slice());
    assert_eq!(tc.records()[0], (0, 4));
}

// ---------------------------------------------------------------------------
// 2. Incremental vs. full under the gated simulator
// ---------------------------------------------------------------------------

/// Runs the same single-writer scripts under the same seeded schedule
/// with the incremental path off and on; returns both histories.
fn sw_both_modes<O, F>(
    n: usize,
    scripts: &[Vec<SwStep>],
    sched_seed: u64,
    build: F,
) -> (History<u64>, History<u64>)
where
    O: SwSnapshot<u64>,
    F: Fn(&GatedBackend, bool) -> O,
{
    let (full, _) = run_sw_sim(
        n,
        scripts,
        &mut RandomPolicy::seeded(sched_seed),
        SimConfig::default(),
        |b| build(b, false),
    )
    .expect("full-mode simulation completes");
    let (incremental, _) = run_sw_sim(
        n,
        scripts,
        &mut RandomPolicy::seeded(sched_seed),
        SimConfig::default(),
        |b| build(b, true),
    )
    .expect("incremental-mode simulation completes");
    (full, incremental)
}

/// Seeded cases per bit-identity property; a failure names its case, and
/// `SeededRng::new(SEED ^ case)` regenerates it.
const SIM_CASES: u64 = 32;

/// Unbounded construction: identical scripts + identical adversarial
/// schedule must record bit-identical histories in both modes.
#[test]
fn unbounded_incremental_histories_are_bit_identical() {
    for case in 0..SIM_CASES {
        let mut rng = SeededRng::new(0x0B1D ^ case);
        let (len, update_prob) = (1 + rng.below(9), rng.unit());
        let (script_seed, sched_seed) = (rng.next_u64(), rng.next_u64());
        let n = 3;
        let scripts = sw_random_scripts(n, len, update_prob, script_seed);
        let (full, incremental) = sw_both_modes(n, &scripts, sched_seed, |b, inc| {
            UnboundedSnapshot::with_backend(n, 0u64, b).with_incremental(inc)
        });
        assert_eq!(full.ops(), incremental.ops(), "case {case}");
        assert_eq!(check_intervals(&incremental), Ok(()), "case {case}");
    }
}

/// Bounded (handshake) construction: same property; the incremental
/// path also re-implements the handshake interleaving, so this guards
/// its per-partner read/write ordering too.
#[test]
fn bounded_incremental_histories_are_bit_identical() {
    for case in 0..SIM_CASES {
        let mut rng = SeededRng::new(0xB01D ^ case);
        let (len, update_prob) = (1 + rng.below(9), rng.unit());
        let (script_seed, sched_seed) = (rng.next_u64(), rng.next_u64());
        let n = 3;
        let scripts = sw_random_scripts(n, len, update_prob, script_seed);
        let (full, incremental) = sw_both_modes(n, &scripts, sched_seed, |b, inc| {
            BoundedSnapshot::with_backend(n, 0u64, b).with_incremental(inc)
        });
        assert_eq!(full.ops(), incremental.ops(), "case {case}");
        assert_eq!(check_intervals(&incremental), Ok(()), "case {case}");
    }
}

/// Multi-writer construction, disjoint words: bit-identical histories
/// plus the fast interval check.
#[test]
fn multiwriter_disjoint_incremental_histories_are_bit_identical() {
    for case in 0..SIM_CASES {
        let mut rng = SeededRng::new(0x3D15 ^ case);
        let (rounds, sched_seed) = (1 + rng.below(3), rng.next_u64());
        let (n, m) = (3, 3);
        let scripts = mw_disjoint_scripts(n, m, rounds);
        let run = |inc: bool, seed: u64| {
            run_mw_sim(
                n,
                m,
                &scripts,
                &mut RandomPolicy::seeded(seed),
                SimConfig::default(),
                |b| MultiWriterSnapshot::with_backend(n, m, 0u64, b).with_incremental(inc),
            )
            .expect("simulation completes")
            .0
        };
        let full = run(false, sched_seed);
        let incremental = run(true, sched_seed);
        assert_eq!(full.ops(), incremental.ops(), "case {case}");
        assert_eq!(check_intervals(&incremental), Ok(()), "case {case}");
    }
}

/// Multi-writer construction, contended words (several writers per
/// word): bit-identical histories, checked with Wing–Gong since the
/// interval checker needs per-word writer order.
#[test]
fn multiwriter_contended_incremental_histories_are_bit_identical() {
    for case in 0..SIM_CASES {
        let mut rng = SeededRng::new(0x3C07 ^ case);
        let len = 1 + rng.below(5);
        let (script_seed, sched_seed) = (rng.next_u64(), rng.next_u64());
        let (n, m) = (3, 2);
        let scripts = mw_contended_scripts(n, m, len, 0.6, script_seed);
        let run = |inc: bool| {
            run_mw_sim(
                n,
                m,
                &scripts,
                &mut RandomPolicy::seeded(sched_seed),
                SimConfig::default(),
                |b| MultiWriterSnapshot::with_backend(n, m, 0u64, b).with_incremental(inc),
            )
            .expect("simulation completes")
            .0
        };
        let full = run(false);
        let incremental = run(true);
        assert_eq!(full.ops(), incremental.ops(), "case {case}");
        assert!(
            check_history(&incremental).is_linearizable(),
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Incremental path on real threads and real version hints
// ---------------------------------------------------------------------------

/// On the non-instrumented epoch backend the version probes genuinely
/// replace clones; hammer the path from real threads and check the
/// recorded history.
#[test]
fn threaded_incremental_unbounded_is_linearizable() {
    let n = 3;
    let object = UnboundedSnapshot::new(n, 0u64);
    let scripts: Vec<Vec<SwStep>> = (0..n)
        .map(|_| {
            (0..30)
                .flat_map(|_| [SwStep::Update, SwStep::Scan])
                .collect()
        })
        .collect();
    let history = run_sw_threaded(&object, &scripts);
    assert_eq!(history.len(), n * 60);
    assert_eq!(check_intervals(&history), Ok(()));
}

#[test]
fn threaded_incremental_bounded_is_linearizable() {
    let n = 3;
    let object = BoundedSnapshot::new(n, 0u64);
    let scripts: Vec<Vec<SwStep>> = (0..n)
        .map(|_| {
            (0..30)
                .flat_map(|_| [SwStep::Update, SwStep::Scan])
                .collect()
        })
        .collect();
    let history = run_sw_threaded(&object, &scripts);
    assert_eq!(check_intervals(&history), Ok(()));
}

/// A scanner repeatedly scanning a quiescent object must keep returning
/// the exact same values through its warm cache.
#[test]
fn warm_cache_is_stable_when_memory_is_quiet() {
    let n = 4;
    let object = UnboundedSnapshot::new(n, 0u64);
    {
        let mut writer = object.handle(ProcessId::new(1));
        writer.update(7);
    }
    let mut scanner = object.handle(ProcessId::new(0));
    let first = scanner.scan().to_vec();
    assert_eq!(first, vec![0, 7, 0, 0]);
    for _ in 0..100 {
        assert_eq!(scanner.scan().to_vec(), first);
    }
}

// ---------------------------------------------------------------------------
// 4. A warm cache never returns older than a finished scan
// ---------------------------------------------------------------------------

/// How long each new-old inversion hunt runs.
const INVERSION_HUNT: Duration = Duration::from_secs(1);

/// Three threads for [`INVERSION_HUNT`]: `write(k)` publishes an
/// increasing value to segment 0; a cold scanner takes a fresh handle for
/// every scan and `fetch_max`es the segment-0 value it returned into a
/// floor; a warm scanner, whose handle (and collect cache) lives across
/// scans, reads the floor before each scan and must never return less —
/// a scan that finished before it began already returned the floor.
fn hunt_new_old_inversions(
    mut write: impl FnMut(u64) + Send,
    mut cold_scan: impl FnMut() -> u64 + Send,
    mut warm_scan: impl FnMut() -> u64,
) {
    let (floor, stop) = (&AtomicU64::new(0), &AtomicBool::new(false));
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut k = 0;
            while !stop.load(Ordering::Relaxed) {
                k += 1;
                write(k);
            }
        });
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                floor.fetch_max(cold_scan(), Ordering::SeqCst);
            }
        });
        let mut warm_scans = 0u64;
        while start.elapsed() < INVERSION_HUNT {
            let before = floor.load(Ordering::SeqCst);
            let seen = warm_scan();
            warm_scans += 1;
            if seen < before {
                stop.store(true, Ordering::Relaxed);
                panic!(
                    "warm scan {warm_scans} returned {seen} for segment 0 after a finished \
                     scan had returned {before}"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn unbounded_warm_scans_never_return_older_than_a_finished_scan() {
    let object = UnboundedSnapshot::new(3, 0u64);
    let mut writer = object.handle(ProcessId::new(0));
    let mut warm = object.handle(ProcessId::new(2));
    hunt_new_old_inversions(
        |k| writer.update(k),
        || object.handle(ProcessId::new(1)).scan()[0],
        || warm.scan()[0],
    );
}

#[test]
fn multiwriter_warm_scans_never_return_older_than_a_finished_scan() {
    let object = MultiWriterSnapshot::new(3, 2, 0u64);
    let mut writer = object.handle(ProcessId::new(0));
    let mut warm = object.handle(ProcessId::new(2));
    hunt_new_old_inversions(
        |k| writer.update(0, k),
        || object.handle(ProcessId::new(1)).scan()[0],
        || warm.scan()[0],
    );
}
