//! Property tests for the register substrate: sequential semantics of
//! every cell flavor against a reference model, and the counter algebra.
//! Each property runs over `CASES` seeded cases; a failure names its case,
//! and `SeededRng::new(SEED ^ case)` regenerates it.

use snapshot_registers::{
    Backend, EpochBackend, EpochCell, MutexBackend, MwmrFromSwmr, OpCounters, OpKind, ProcessId,
    Register, SeededRng, SeqLockCell,
};

const CASES: u64 = 256;

/// One sequential register operation by some process.
#[derive(Clone, Debug)]
enum Op {
    Write { pid: usize, value: u64 },
    Read { pid: usize },
}

/// Fewer than `len` operations by processes `0..n_procs`.
fn ops(rng: &mut SeededRng, n_procs: usize, len: usize) -> Vec<Op> {
    (0..rng.below(len))
        .map(|_| {
            let pid = rng.below(n_procs);
            if rng.chance(0.5) {
                Op::Write {
                    pid,
                    value: rng.next_u64(),
                }
            } else {
                Op::Read { pid }
            }
        })
        .collect()
}

/// Applies `ops` sequentially to `reg`, checking every read against the
/// last-write model.
fn check_sequential<R: Register<u64>>(reg: &R, init: u64, ops: &[Op], case: u64) {
    let mut model = init;
    for op in ops {
        match op {
            Op::Write { pid, value } => {
                reg.write(ProcessId::new(*pid), *value);
                model = *value;
            }
            Op::Read { pid } => {
                assert_eq!(reg.read(ProcessId::new(*pid)), model, "case {case}");
            }
        }
    }
}

#[test]
fn epoch_cell_is_a_sequential_register() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0xE90C ^ case);
        let init = rng.next_u64();
        let ops = ops(&mut rng, 4, 64);
        check_sequential(&EpochCell::new(init), init, &ops, case);
    }
}

#[test]
fn mutex_backend_is_a_sequential_register() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x3E7E ^ case);
        let init = rng.next_u64();
        let ops = ops(&mut rng, 4, 64);
        let backend = MutexBackend::new();
        check_sequential(&backend.cell(init), init, &ops, case);
    }
}

#[test]
fn seqlock_is_a_sequential_register() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x5E91 ^ case);
        let init = rng.next_u64();
        // SeqLock is single-writer: all ops by process 0.
        let ops = ops(&mut rng, 1, 64);
        let owner = ProcessId::new(0);
        check_sequential(&SeqLockCell::new(owner, init), init, &ops, case);
    }
}

#[test]
fn mwmr_from_swmr_is_a_sequential_register() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x3735 ^ case);
        let init = rng.next_u64();
        let n = 1 + rng.below(5);
        let ops = ops(&mut rng, n, 48);
        let reg = MwmrFromSwmr::new(&EpochBackend::new(), n, init);
        check_sequential(&reg, init, &ops, case);
    }
}

#[test]
fn bit_cells_round_trip() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0xB175 ^ case);
        let bits: Vec<bool> = (0..rng.below(32)).map(|_| rng.chance(0.5)).collect();
        let backend = EpochBackend::new();
        let bit = backend.bit(false);
        let p = ProcessId::new(0);
        for b in bits {
            bit.write(p, b);
            assert_eq!(bit.read(p), b, "case {case}");
        }
    }
}

#[test]
fn op_counters_sum_to_recorded_totals() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0xC027 ^ case);
        let events: Vec<(usize, bool)> = (0..rng.below(200))
            .map(|_| (rng.below(5), rng.chance(0.5)))
            .collect();
        let counters = OpCounters::new(5);
        let mut reads = [0u64; 5];
        let mut writes = [0u64; 5];
        for (pid, is_read) in &events {
            let kind = if *is_read {
                OpKind::Read
            } else {
                OpKind::Write
            };
            counters.record(ProcessId::new(*pid), kind);
            if *is_read {
                reads[*pid] += 1;
            } else {
                writes[*pid] += 1;
            }
        }
        for pid in 0..5 {
            let snap = counters.snapshot(ProcessId::new(pid));
            assert_eq!(snap.reads, reads[pid], "case {case}");
            assert_eq!(snap.writes, writes[pid], "case {case}");
        }
        let total = counters.total();
        assert_eq!(total.reads, reads.iter().sum::<u64>(), "case {case}");
        assert_eq!(total.writes, writes.iter().sum::<u64>(), "case {case}");
        assert_eq!(total.total(), events.len() as u64, "case {case}");
    }
}

#[test]
fn mwmr_tags_strictly_dominate_after_writes() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x7A65 ^ case);
        let writers: Vec<usize> = (0..1 + rng.below(23)).map(|_| rng.below(4)).collect();
        // After any sequential series of writes, a read from anybody
        // returns the LAST write, regardless of which processes wrote
        // (tag order must break ties deterministically).
        let reg = MwmrFromSwmr::new(&EpochBackend::new(), 4, 0u64);
        let mut last = 0u64;
        for (k, w) in writers.iter().enumerate() {
            last = (k as u64 + 1) * 10 + *w as u64;
            reg.write(ProcessId::new(*w), last);
        }
        for r in 0..4 {
            assert_eq!(reg.read(ProcessId::new(r)), last, "case {case}");
        }
    }
}
