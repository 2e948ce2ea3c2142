//! Property tests for the linearizability checkers.
//!
//! Strategy: generate *known-linearizable* histories by construction
//! (choose linearization points first, then wrap each in a random
//! enclosing interval), assert both checkers accept; then corrupt them in
//! ways that are violations by construction and assert rejection. Each
//! property runs over `CASES` seeded cases; a failure names its case, and
//! `SeededRng::new(SEED ^ case)` regenerates it.

use snapshot_lin::{
    check_history, check_intervals, History, IntervalViolation, OpRecord, SnapOp, WgResult,
};
use snapshot_registers::{ProcessId, SeededRng};

const CASES: u64 = 128;

/// A generated linearizable history: ops with their linearization points.
#[derive(Clone, Debug)]
struct GenHistory {
    n: usize,
    ops: Vec<OpRecord<u64>>,
}

/// Builds a valid single-writer history: a random sequence of serialized
/// operations, each assigned an interval containing its serialization
/// point. Gaps of 10 between points leave room for jitter without
/// reordering effects beyond what concurrency allows.
fn gen_history(rng: &mut SeededRng, max_n: usize, max_ops: usize) -> GenHistory {
    let n = 1 + rng.below(max_n);
    let mut mem = vec![0u64; n];
    let mut next_value = 1u64;
    let mut ops = Vec::new();
    for i in 0..rng.below(max_ops) {
        let sel = rng.below(256);
        let (pre_jitter, post_jitter) = (rng.range(0..=3), rng.range(0..=3));
        let pid = ProcessId::new(sel % n);
        let point = (i as u64 + 1) * 10;
        // Intervals may reach into neighbouring points' slack but
        // always contain the op's own point.
        let inv = point - 1 - pre_jitter.min(8);
        let res = point + 1 + post_jitter.min(8);
        if sel.is_multiple_of(2) {
            let value = next_value;
            next_value += 1;
            mem[pid.get()] = value;
            ops.push(OpRecord {
                pid,
                inv,
                res: Some(res),
                op: SnapOp::Update {
                    word: pid.get(),
                    value,
                },
            });
        } else {
            ops.push(OpRecord {
                pid,
                inv,
                res: Some(res),
                op: SnapOp::Scan { view: mem.clone() },
            });
        }
    }
    GenHistory { n, ops }
}

/// Runs `property` on seeded cases until `CASES` of them were accepted:
/// it returns `false` for an input outside its precondition, and another
/// case is drawn in its place.
fn for_accepted_cases(seed: u64, mut property: impl FnMut(u64, &mut SeededRng) -> bool) {
    let (mut accepted, mut case) = (0, 0);
    while accepted < CASES {
        assert!(
            case < 64 * CASES,
            "the precondition rejects almost every case"
        );
        accepted += u64::from(property(case, &mut SeededRng::new(seed ^ case)));
        case += 1;
    }
}

/// The positions of `ops`' scans.
fn scan_positions(ops: &[OpRecord<u64>]) -> Vec<usize> {
    ops.iter()
        .enumerate()
        .filter(|(_, o)| matches!(o.op, SnapOp::Scan { .. }))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn constructed_linearizable_histories_pass_both_checkers() {
    for_accepted_cases(0xC115, |case, rng| {
        let gen = gen_history(rng, 3, 14);
        // Overlapping intervals of ops by the SAME process are not
        // well-formed histories; our generator's jitter is small enough
        // only when points of the same process are far apart — filter.
        let h = History::from_ops(gen.n, gen.n, 0u64, gen.ops.clone());
        for pid in 0..gen.n {
            let mut intervals: Vec<(u64, u64)> = h
                .ops()
                .iter()
                .filter(|o| o.pid.get() == pid)
                .map(|o| (o.inv, o.res.unwrap()))
                .collect();
            intervals.sort();
            if intervals.windows(2).any(|w| w[0].1 >= w[1].0) {
                return false;
            }
        }

        let wg_ok = matches!(check_history(&h), WgResult::Linearizable { .. });
        assert!(
            wg_ok,
            "case {case}: WG rejected a constructed-valid history: {h:?}"
        );
        assert_eq!(check_intervals(&h), Ok(()), "case {case}");
        true
    });
}

#[test]
fn unknown_values_are_rejected_by_both_checkers() {
    for_accepted_cases(0x0BAD, |case, rng| {
        let gen = gen_history(rng, 3, 10);
        let mut ops = gen.ops.clone();
        let scans = scan_positions(&ops);
        if scans.is_empty() {
            return false;
        }
        let target = scans[rng.below(scans.len())];
        if let SnapOp::Scan { view } = &mut ops[target].op {
            view[0] = 999_999; // never written
        }
        let h = History::from_ops(gen.n, gen.n, 0u64, ops);

        assert_eq!(check_history(&h), WgResult::NotLinearizable, "case {case}");
        let unknown = matches!(
            check_intervals(&h),
            Err(IntervalViolation::UnknownValue { .. })
        );
        assert!(
            unknown,
            "case {case}: expected an UnknownValue interval violation"
        );
        true
    });
}

#[test]
fn interval_rejections_imply_wg_rejections() {
    for_accepted_cases(0x1213, |case, rng| {
        // Corrupt a scan by swapping in an older (but real) value for one
        // word; if the fast checker convicts it, the complete checker must
        // agree (on these single-writer, unique-value histories the
        // interval checks are genuinely necessary conditions).
        let gen = gen_history(rng, 3, 10);
        let mut ops = gen.ops.clone();
        let scans = scan_positions(&ops);
        if scans.is_empty() {
            return false;
        }
        let target = scans[rng.below(scans.len())];
        if let SnapOp::Scan { view } = &mut ops[target].op {
            // Roll word 0 back to the initial value.
            view[0] = 0;
        }
        let h = History::from_ops(gen.n, gen.n, 0u64, ops);

        let interval_verdict = check_intervals(&h);
        let wg_verdict = check_history(&h);
        if matches!(
            interval_verdict,
            Err(IntervalViolation::EmptyWindow { .. })
                | Err(IntervalViolation::IncomparableScans { .. })
                | Err(IntervalViolation::StaleScan { .. })
                | Err(IntervalViolation::UnknownValue { .. })
        ) {
            assert_eq!(
                wg_verdict,
                WgResult::NotLinearizable,
                "case {case}: interval checker convicted ({interval_verdict:?}) a history WG \
                 accepts: {h:?}"
            );
        }
        true
    });
}

#[test]
fn histories_survive_round_trips_through_from_ops() {
    for case in 0..CASES {
        let gen = gen_history(&mut SeededRng::new(0x4077 ^ case), 4, 12);
        let h = History::from_ops(gen.n, gen.n, 0u64, gen.ops.clone());
        assert_eq!(h.len(), gen.ops.len(), "case {case}");
        assert!(h.is_single_writer(), "case {case}");
        // Sorted by invocation.
        assert!(
            h.ops().windows(2).all(|w| w[0].inv <= w[1].inv),
            "case {case}"
        );
    }
}
