use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::{epoch, ProcessId, Register, TryRegister, Version};

/// The default lock-free atomic register: an immutable record behind an
/// atomic pointer, reclaimed with epoch-based garbage collection.
///
/// The snapshot constructions require registers holding *composite*
/// records — e.g. `(value, seq, view)` in Figure 2 of the paper — written
/// in a **single atomic write**. Storing the record behind a pointer makes
/// a write one `swap` and a read one `load`, so records of any width are
/// read and written atomically. Writers never wait for readers and vice
/// versa, matching the wait-free register primitive the paper assumes.
///
/// Reads clone the stored value (`T: Clone`); the snapshot algorithms keep
/// their bulky fields (the `view` vectors) behind `Arc`, so cloning is
/// cheap — and the [`Register::read_with`] override here avoids even that
/// clone by borrowing the record under the epoch pin.
///
/// The cell also keeps a completed-write count for
/// [`Register::version_hint`]. A probe reads the count, then the slot
/// pointer, then the count again, and returns the pair (count, pointer):
/// two equal probes prove that **no swap took effect between them**, even
/// one whose `write` has not returned yet. The pointer carries that
/// proof — a swap always installs a fresh allocation — and the count
/// rules out the one way a pointer can look unchanged: its address being
/// freed and reused. `write` bumps the count *before* it retires the
/// swapped-out record, so an address can only come back into the slot
/// after the count has moved past the value a probe that saw the old
/// occupant read first; a probe that then sees the reused address reads
/// the moved count last. A probe whose two count loads differ (a write
/// completed during it) returns a pair with a null pointer, which equals
/// no later probe: a later clean probe differs in the pointer, and a
/// later one whose own count loads differ carries a larger count. Writers
/// pay nothing for this — one swap, one increment, as before; the probe
/// pays two extra loads from the line it already reads.
///
/// # Memory-ordering audit
///
/// All cross-thread accesses here are `SeqCst`, deliberately. The paper's
/// proofs (Observation 1, and the Figure 3 handshake argument recorded as
/// Lemma 4.1 in PROOFS.md) reason about a single real-time total order of
/// operations on *different* registers — e.g. a scanner's write to the
/// handshake bit `q_{i,j}` must be ordered against an updater's read of
/// it and against both parties' subsequent accesses to `r_j`. Pairwise
/// `Acquire`/`Release` only orders accesses to the *same* location and
/// admits IRIW-style anomalies across locations, which would let two
/// scanners disagree on the order of two independent writes — breaking
/// the linearizable-register abstraction out from under every proof. The
/// only non-atomic access is in [`Drop`], where `&mut self` guarantees
/// exclusivity and no concurrent observer exists.
///
/// The slot is a raw `AtomicPtr<T>` with three invariants, on which every
/// `SAFETY` comment below leans: it is never null; every pointer it has
/// held came from `Box::into_raw`; and a pointer leaves it only through
/// the `swap` in `write`, which hands it to `epoch::Guard::retire` exactly
/// once (or through `Drop`, which frees the last one itself).
///
/// # Destructors
///
/// A replaced value is dropped later, by whichever thread reclaims it —
/// possibly while that thread exits. `T`'s `Drop` must therefore be
/// `Send`-safe (the `T: Send` bound) and must not itself read or write an
/// `EpochCell`.
///
/// # Example
///
/// ```
/// use snapshot_registers::{EpochCell, ProcessId, Register};
///
/// let cell = EpochCell::new((0u64, "init"));
/// cell.write(ProcessId::new(1), (9, "hello"));
/// assert_eq!(cell.read(ProcessId::new(0)), (9, "hello"));
/// ```
pub struct EpochCell<T> {
    slot: AtomicPtr<T>,
    /// The cell owns the `T` behind `slot`: `AtomicPtr<T>` alone is
    /// `Send + Sync` for every `T`, which a cell handing `&T` to any
    /// thread must not be.
    _owns: PhantomData<T>,
    /// Completed writes, for `version_hint`: bumped after every swap and
    /// before the swapped-out record is retired.
    writes: AtomicU64,
}

impl<T: Clone + Send + Sync> EpochCell<T> {
    /// Creates a register holding `init`.
    pub fn new(init: T) -> Self {
        EpochCell {
            slot: AtomicPtr::new(Box::into_raw(Box::new(init))),
            _owns: PhantomData,
            writes: AtomicU64::new(0),
        }
    }

    /// The first half of `write`: installs `value`, returning the
    /// swapped-out record. The new value is readable from here on.
    fn swap_in(&self, value: T) -> *mut T {
        // SeqCst: same global-order requirement as `read`.
        self.slot
            .swap(Box::into_raw(Box::new(value)), Ordering::SeqCst)
    }

    /// The second half of `write`: counts the write complete, then
    /// retires `old`. The order is what makes a version sound: `old`'s
    /// address can be reused only after the count has moved.
    ///
    /// # Safety
    ///
    /// `old` must be the pointer one `swap_in` on this cell returned, and
    /// no other `complete` may have been given it.
    unsafe fn complete(&self, guard: &epoch::Guard, old: *mut T) {
        self.writes.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `old` was produced by `Box::into_raw` (in `swap_in` or
        // `new`) and is now unreachable from the slot, and the swap that
        // returned it is the only one that did, so it is retired once;
        // readers that loaded it are pinned, so destruction is deferred
        // past their epochs. `T: Send` lets whichever thread collects the
        // bag drop it.
        unsafe { guard.retire(old) };
    }
}

impl<T: Clone + Send + Sync> Register<T> for EpochCell<T> {
    fn read(&self, _reader: ProcessId) -> T {
        let _guard = epoch::pin();
        // SeqCst: the read must take its place in the global operation
        // order the snapshot proofs quantify over (see the type-level
        // ordering audit above).
        let ptr = self.slot.load(Ordering::SeqCst);
        // SAFETY: the slot is never null (initialized in `new`, and every
        // write installs a valid allocation); the pointer was loaded under
        // `_guard`, which keeps the pointee alive until it drops at the
        // end of this function, after the clone.
        unsafe { &*ptr }.clone()
    }

    fn write(&self, _writer: ProcessId, value: T) {
        let guard = epoch::pin();
        let old = self.swap_in(value);
        // SAFETY: `old` is what this call's own swap returned.
        unsafe { self.complete(&guard, old) };
    }

    fn read_with<U>(&self, _reader: ProcessId, f: impl FnOnce(&T) -> U) -> U {
        let _guard = epoch::pin();
        let ptr = self.slot.load(Ordering::SeqCst);
        // SAFETY: as in `read`; `f` borrows the record only while
        // `_guard` is live, so no clone is needed.
        f(unsafe { &*ptr })
    }

    fn version_hint(&self) -> Option<Version> {
        // SeqCst: the proof in the type-level docs orders these loads
        // against the writers' swap and bump in one total order.
        let writes = self.writes.load(Ordering::SeqCst);
        let slot = self.slot.load(Ordering::SeqCst) as usize;
        let after = self.writes.load(Ordering::SeqCst);
        // A write completed mid-probe: the pointer may predate it, so the
        // probe must match nothing (the slot is never null).
        Some(Version::new(after, if after == writes { slot } else { 0 }))
    }
}

impl<T: Clone + Send + Sync> TryRegister<T> for EpochCell<T> {
    type Error = std::convert::Infallible;

    fn try_read(&self, reader: ProcessId) -> Result<T, Self::Error> {
        Ok(self.read(reader))
    }

    fn try_write(&self, writer: ProcessId, value: T) -> Result<(), Self::Error> {
        self.write(writer, value);
        Ok(())
    }
}

impl<T> Drop for EpochCell<T> {
    fn drop(&mut self) {
        // SAFETY: we have exclusive access; the pointer is non-null, came
        // from `Box::into_raw`, was never retired (only swapped-out
        // pointers are), and no concurrent reader can exist. A plain
        // `get_mut` suffices for the same reason: `&mut self` already
        // synchronized with every past access.
        drop(unsafe { Box::from_raw(*self.slot.get_mut()) });
    }
}

impl<T> fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const P0: ProcessId = ProcessId::new(0);
    const P1: ProcessId = ProcessId::new(1);

    #[test]
    fn initial_value_is_visible() {
        let cell = EpochCell::new(41u32);
        assert_eq!(cell.read(P0), 41);
    }

    #[test]
    fn write_then_read_round_trips() {
        let cell = EpochCell::new(String::from("a"));
        cell.write(P0, String::from("b"));
        assert_eq!(cell.read(P1), "b");
    }

    #[test]
    fn read_with_borrows_the_stored_record() {
        let cell = EpochCell::new(vec![1, 2, 3]);
        assert_eq!(cell.read_with(P0, Vec::len), 3);
        cell.write(P0, vec![9]);
        assert_eq!(cell.read_with(P1, |v| v[0]), 9);
    }

    #[test]
    fn version_hint_moves_on_every_completed_write() {
        let cell = EpochCell::new(0u8);
        let v0 = cell.version_hint().unwrap();
        cell.write(P0, 1);
        let v1 = cell.version_hint().unwrap();
        assert_ne!(v0, v1, "a write must change the version");
        // Writing the same value still counts: the algorithms' toggle
        // bits exist precisely because identical payloads must remain
        // distinguishable writes.
        cell.write(P0, 1);
        assert_ne!(cell.version_hint().unwrap(), v1);
    }

    #[test]
    fn a_swap_moves_the_version_before_its_write_returns() {
        // The window a count alone cannot see: the new value is readable
        // from the swap on, but the count moves only at the bump. A warm
        // cache that trusted an unmoved count here would return the old
        // value after another reader had already returned the new one.
        let cell = EpochCell::new(1u32);
        let before = cell.version_hint();
        let guard = epoch::pin();
        let old = cell.swap_in(2);
        let mid = cell.version_hint();
        assert_ne!(before, mid, "a swap must move the version by itself");
        assert_eq!(cell.read(P1), 2, "the swapped-in value is already readable");
        // SAFETY: `old` is what the swap above returned.
        unsafe { cell.complete(&guard, old) };
        assert_ne!(
            cell.version_hint(),
            mid,
            "and the completing bump moves it again"
        );
    }

    #[test]
    fn version_probe_pairs_with_reads() {
        // The reuse discipline of TrackedCollect: observe the version,
        // read the record, and an unchanged version later certifies the
        // record is still current.
        let cell = EpochCell::new(10u32);
        let v = cell.version_hint().unwrap();
        let rec = cell.read(P0);
        assert_eq!(cell.version_hint().unwrap(), v);
        assert_eq!(rec, cell.read(P0));
        cell.write(P1, 11);
        assert_ne!(cell.version_hint().unwrap(), v);
    }

    #[test]
    fn composite_records_are_written_atomically() {
        // Writers alternate between two internally-consistent records; a
        // torn write would surface as a mixed record.
        let cell = Arc::new(EpochCell::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    cell.write(P0, (k, k.wrapping_mul(3)));
                    k += 1;
                }
            })
        };
        for _ in 0..10_000 {
            let (a, b) = cell.read(P1);
            assert_eq!(b, a.wrapping_mul(3), "torn read: ({a}, {b})");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn many_writers_last_value_wins_eventually() {
        let cell = Arc::new(EpochCell::new(0usize));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cell = &cell;
                s.spawn(move || {
                    for i in 0..1_000 {
                        cell.write(ProcessId::new(t), t * 1_000 + i);
                    }
                });
            }
        });
        let last = cell.read(P0);
        assert!(last % 1_000 == 999, "last write of some thread: {last}");
    }

    #[test]
    fn drop_releases_storage() {
        // Mostly a miri/asan canary: construct, write a few times, drop.
        let cell = EpochCell::new(vec![1, 2, 3]);
        cell.write(P0, vec![4, 5]);
        cell.write(P0, vec![6]);
        drop(cell);
    }
}
