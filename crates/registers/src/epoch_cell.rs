use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::{epoch, ProcessId, Register, TryRegister};

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
/// The cell also keeps a *write-version* counter for
/// [`Register::version_hint`]: it is bumped **after** each pointer swap,
/// inside `write`, so an unchanged version between two observations
/// proves no write completed in between (a swap the observer missed can
/// only belong to a `write` call that had not yet returned — a concurrent
/// write, which a linearizable reader may order after itself).
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
    /// Write-version for `version_hint`; bumped after every swap.
    version: AtomicU64,
}

impl<T: Clone + Send + Sync> EpochCell<T> {
    /// Creates a register holding `init`.
    pub fn new(init: T) -> Self {
        EpochCell {
            slot: AtomicPtr::new(Box::into_raw(Box::new(init))),
            _owns: PhantomData,
            version: AtomicU64::new(0),
        }
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
        // SeqCst: same global-order requirement as `read`.
        let new = Box::into_raw(Box::new(value));
        let old = self.slot.swap(new, Ordering::SeqCst);
        // The version bump follows the swap (both SeqCst, same thread):
        // once this `write` returns, the bump is visible, so an observer
        // seeing an unchanged version can only have missed swaps of writes
        // that had not yet returned — concurrent writes, which the
        // `version_hint` contract explicitly permits missing.
        self.version.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `old` was produced by `Box::into_raw` (here or in `new`)
        // and is now unreachable from the slot, and this swap is the only
        // one that returned it, so it is retired once; readers that loaded
        // it are pinned, so destruction is deferred past their epochs.
        // `T: Send` lets whichever thread collects the bag drop it.
        unsafe { guard.retire(old) };
    }

    fn read_with<U>(&self, _reader: ProcessId, f: impl FnOnce(&T) -> U) -> U {
        let _guard = epoch::pin();
        let ptr = self.slot.load(Ordering::SeqCst);
        // SAFETY: as in `read`; `f` borrows the record only while
        // `_guard` is live, so no clone is needed.
        f(unsafe { &*ptr })
    }

    fn version_hint(&self) -> Option<u64> {
        Some(self.version.load(Ordering::SeqCst))
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
