//! Crash-recovery robustness for [`ReplicaStore`]: flip or shear *any*
//! byte of a recorded state log and reopening must never panic — it
//! either recovers (per [`RecoveryPolicy::Truncate`]) or returns a typed
//! [`StoreError::Corrupt`] naming an offset inside the file (per
//! [`RecoveryPolicy::Fail`]). Whatever survives recovery must be state
//! the store actually held: no invented registers, no invented values.
//!
//! Mirrors `proptest_wire.rs`: a seeded deterministic fuzzer
//! (reproducible anywhere; a failure names its case and offset).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snapshot_wire::{
    FsyncPolicy, RecoveryPolicy, ReplicaStore, StoreConfig, StoreError, WireTag,
};

// ---------------------------------------------------------------------
// Shared scaffolding.
// ---------------------------------------------------------------------

/// Minimal xorshift64* PRNG: reproducible fuzz without external deps.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Per register `(lane, segment)`, every (tag, value) it ever held.
type Held = HashMap<(u32, u32), Vec<(WireTag, Vec<u8>)>>;

/// One store mutation the fuzzer will append to the log.
#[derive(Clone, Debug)]
struct Op {
    lane: u32,
    segment: u32,
    seq: u64,
    writer: u32,
    value: Vec<u8>,
}

/// A fresh, collision-free pair of log + checkpoint paths.
fn scratch_log() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "store-fuzz-{}-{n}.log",
        std::process::id()
    ))
}

fn remove_store_files(log: &Path) {
    let _ = std::fs::remove_file(log);
    let _ = std::fs::remove_file(ReplicaStore::checkpoint_path_for(log));
}

fn open(log: &Path, recovery: RecoveryPolicy) -> Result<ReplicaStore, StoreError> {
    ReplicaStore::open_with(
        StoreConfig::at(log.to_path_buf())
            .with_fsync(FsyncPolicy::Never)
            .with_recovery(recovery),
    )
}

/// Records a log by applying `ops` in order (checkpointing after
/// `checkpoint_after` applies, if given), then drops the store so every
/// record is flushed. Returns, per register, every (tag, value) that
/// register ever held — the universe recovery is allowed to land in.
fn record_log(
    log: &Path,
    ops: &[Op],
    checkpoint_after: Option<usize>,
) -> Held {
    let store = open(log, RecoveryPolicy::Fail).expect("opening a fresh store");
    let mut held: Held = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        let tag = WireTag {
            seq: op.seq,
            writer: op.writer,
        };
        let value: Arc<[u8]> = op.value.clone().into();
        if store.apply(op.lane, op.segment, tag, value) {
            held.entry((op.lane, op.segment))
                .or_default()
                .push((tag, op.value.clone()));
        }
        if checkpoint_after == Some(i) {
            store.checkpoint().expect("mid-run checkpoint");
        }
    }
    store.flush(false).expect("flushing the recorded log");
    held
}

/// The core property: after mangling (one flipped byte or a shear at an
/// arbitrary offset), `Fail` never panics and errors name an in-file
/// offset; `Truncate` always opens, and every surviving register holds a
/// (tag, value) the store really held.
fn assert_recovery_contract(
    log: &Path,
    held: &Held,
    context: &str,
) {
    let file_len = std::fs::metadata(log).expect("mangled log exists").len();

    match open(log, RecoveryPolicy::Fail) {
        Ok(store) => drop(store),
        Err(StoreError::Corrupt { offset, .. }) => {
            assert!(
                offset <= file_len,
                "{context}: corruption offset {offset} beyond the {file_len}-byte file"
            );
        }
        Err(StoreError::Io(e)) => panic!("{context}: unexpected i/o error: {e}"),
    }

    let store = match open(log, RecoveryPolicy::Truncate) {
        Ok(store) => store,
        Err(e) => panic!("{context}: truncate-recovery must always open, got {e}"),
    };
    for (&(lane, segment), candidates) in held {
        if let Some((tag, value)) = store.get(lane, segment) {
            assert!(
                candidates
                    .iter()
                    .any(|(t, v)| *t == tag && v.as_slice() == &*value),
                "{context}: register ({lane},{segment}) recovered a (tag, value) it never \
                 held: tag={tag:?}"
            );
        }
    }
    // A truncate-recovery rewrites the damage away: reopening under the
    // strict policy must now succeed.
    drop(store);
    if let Err(e) = open(log, RecoveryPolicy::Fail) {
        panic!("{context}: log must be clean after truncate-recovery, got {e}");
    }
}

fn random_ops(rng: &mut XorShift, n: usize) -> Vec<Op> {
    (0..n)
        .map(|i| Op {
            lane: rng.below(4) as u32,
            segment: rng.below(4) as u32,
            // Mostly increasing seqs with occasional stale replays, like
            // real ABD traffic.
            seq: (i as u64 + 1).saturating_sub(rng.below(3) as u64),
            writer: rng.below(4) as u32,
            value: (0..rng.below(48)).map(|_| rng.next_u64() as u8).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// The seeded properties.
// ---------------------------------------------------------------------

/// Unmangled logs round-trip exactly: every register recovers to the
/// max-tag application it last held.
#[test]
fn clean_reopen_recovers_the_latest_state() {
    let mut rng = XorShift::new(0x5eed);
    for case in 0..20 {
        let log = scratch_log();
        remove_store_files(&log);
        let n = 1 + rng.below(40);
        let ops = random_ops(&mut rng, n);
        let checkpoint_after = if rng.below(2) == 0 {
            Some(rng.below(ops.len()))
        } else {
            None
        };
        let held = record_log(&log, &ops, checkpoint_after);
        let store = open(&log, RecoveryPolicy::Fail).expect("clean reopen");
        for (&(lane, segment), candidates) in &held {
            let (best_tag, best_value) = candidates
                .iter()
                .max_by_key(|(t, _)| (t.seq, t.writer))
                .expect("non-empty candidate set");
            let (tag, value) = store
                .get(lane, segment)
                .unwrap_or_else(|| panic!("case {case}: register ({lane},{segment}) lost"));
            assert_eq!(tag, *best_tag, "case {case}");
            assert_eq!(&*value, best_value.as_slice(), "case {case}");
        }
        remove_store_files(&log);
    }
}

/// 300 seeded mangles — byte flips and shears at arbitrary offsets,
/// with and without a mid-run checkpoint — against the full contract.
#[test]
fn seeded_mangles_never_panic_and_never_invent_state() {
    let mut rng = XorShift::new(0xc0ffee);
    for case in 0..300 {
        let log = scratch_log();
        remove_store_files(&log);
        let n = 1 + rng.below(30);
        let ops = random_ops(&mut rng, n);
        let checkpoint_after = if rng.below(3) == 0 {
            Some(rng.below(ops.len()))
        } else {
            None
        };
        let held = record_log(&log, &ops, checkpoint_after);

        let len = std::fs::metadata(&log).expect("recorded log").len();
        if len == 0 {
            remove_store_files(&log);
            continue;
        }
        let context = format!("case {case}");
        if rng.below(2) == 0 {
            let offset = rng.below(len as usize) as u64;
            let mut bytes = std::fs::read(&log).expect("reading log");
            bytes[offset as usize] ^= 1 << rng.below(8);
            std::fs::write(&log, &bytes).expect("writing flipped log");
            assert_recovery_contract(&log, &held, &format!("{context} flip@{offset}"));
        } else {
            let cut = rng.below(len as usize) as u64;
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&log)
                .expect("opening log for shear");
            file.set_len(cut).expect("shearing log");
            drop(file);
            assert_recovery_contract(&log, &held, &format!("{context} shear@{cut}"));
        }
        remove_store_files(&log);
    }
}
