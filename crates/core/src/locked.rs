use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use snapshot_registers::{CachePadded, ProcessId, RegisterValue};

use crate::api::HandleRegistry;
use crate::{CoreError, RequestCtx, ScanStats, SnapshotView, SwSnapshot, SwSnapshotHandle};

/// A coarse-grained **lock-based** snapshot baseline: the whole memory
/// behind one reader-writer lock.
///
/// Trivially linearizable, trivially *not* wait-free (a preempted lock
/// holder blocks everyone — under the paper's failure model, a crashed
/// process wedges the object forever). It exists to quantify, in the
/// benchmarks, what the wait-free constructions pay for their progress
/// guarantee and what they gain under contention and under crashes.
///
/// # Example
///
/// ```
/// use snapshot_core::{LockSnapshot, SwSnapshot, SwSnapshotHandle};
/// use snapshot_registers::ProcessId;
///
/// let snap = LockSnapshot::new(2, 0u32);
/// let mut h = snap.handle(ProcessId::new(1));
/// h.update(3);
/// assert_eq!(h.scan().to_vec(), vec![0, 3]);
/// ```
pub struct LockSnapshot<V> {
    // Padded so the lock word does not share a line with the registry's
    // claim flags — the benchmarks hammer both from different threads.
    mem: CachePadded<RwLock<Vec<V>>>,
    registry: HandleRegistry,
    n: usize,
}

impl<V: RegisterValue> LockSnapshot<V> {
    /// Creates the object for `n` processes, every segment holding `init`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, init: V) -> Self {
        assert!(n > 0, "a snapshot object needs at least one process");
        LockSnapshot {
            mem: CachePadded::new(RwLock::new(vec![init; n])),
            registry: HandleRegistry::new(n),
            n,
        }
    }
}

impl<V> LockSnapshot<V> {
    /// A poisoned lock yields its guard: the one write under it is a
    /// single element assignment, so the memory is consistent after a
    /// holder's panic.
    fn mem(&self) -> RwLockReadGuard<'_, Vec<V>> {
        self.mem.read().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<V: RegisterValue> SwSnapshot<V> for LockSnapshot<V> {
    type Handle<'a>
        = LockHandle<'a, V>
    where
        Self: 'a;

    fn processes(&self) -> usize {
        self.n
    }

    fn handle(&self, pid: ProcessId) -> LockHandle<'_, V> {
        self.registry.claim(pid);
        LockHandle { shared: self, pid }
    }
}

impl<V> fmt::Debug for LockSnapshot<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockSnapshot")
            .field("processes", &self.n)
            .finish()
    }
}

impl<V: RegisterValue> crate::TrySnapshotCore<V> for LockSnapshot<V> {
    type Lane<'a>
        = LockHandle<'a, V>
    where
        Self: 'a;

    fn segments(&self) -> usize {
        self.n
    }

    fn lanes(&self) -> usize {
        self.n
    }

    fn single_writer(&self) -> bool {
        true
    }

    fn lane(&self, pid: ProcessId) -> LockHandle<'_, V> {
        self.handle(pid)
    }

    fn try_scan(
        &self,
        lane: &mut LockHandle<'_, V>,
        _ctx: RequestCtx,
    ) -> Result<(SnapshotView<V>, ScanStats), CoreError> {
        Ok(lane.scan_with_stats())
    }

    fn try_update(
        &self,
        lane: &mut LockHandle<'_, V>,
        segment: usize,
        value: V,
        _ctx: RequestCtx,
    ) -> Result<ScanStats, CoreError> {
        assert_eq!(
            segment,
            lane.pid.get(),
            "single-writer construction: lane {} cannot update segment {segment}",
            lane.pid
        );
        Ok(lane.update_with_stats(value))
    }

    /// A lock-scoped projection: the read lock makes the whole memory
    /// instantaneous, so copying only the requested segments out of it is
    /// trivially a partial snapshot — and clones `k` values instead of
    /// `n`, which is the entire point for wide objects.
    fn try_scan_subset(
        &self,
        _lane: &mut LockHandle<'_, V>,
        segments: &[usize],
        _ctx: RequestCtx,
    ) -> Result<Option<(Vec<V>, ScanStats)>, CoreError> {
        debug_assert!(!segments.is_empty(), "canonical subsets are non-empty");
        debug_assert!(segments.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        debug_assert!(segments.iter().all(|&s| s < self.n), "segment out of range");
        let mem = self.mem();
        Ok(Some((segments.iter().map(|&s| mem[s].clone()).collect(), ScanStats::default())))
    }
}

/// Process handle for [`LockSnapshot`]; also its
/// [`TrySnapshotCore`](crate::TrySnapshotCore) lane.
pub struct LockHandle<'a, V> {
    shared: &'a LockSnapshot<V>,
    pid: ProcessId,
}

impl<V: RegisterValue> SwSnapshotHandle<V> for LockHandle<'_, V> {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn update_with_stats(&mut self, value: V) -> ScanStats {
        self.shared
            .mem
            .write()
            .unwrap_or_else(PoisonError::into_inner)[self.pid.get()] = value;
        ScanStats::default()
    }

    fn scan_with_stats(&mut self) -> (SnapshotView<V>, ScanStats) {
        let values: Arc<[V]> = self.shared.mem().iter().cloned().collect();
        let view = SnapshotView::from(values);
        // No primitive registers, no double collects: all stats are zero.
        (view, ScanStats::default())
    }
}

impl<V> Drop for LockHandle<'_, V> {
    fn drop(&mut self) {
        self.shared.registry.release(self.pid);
    }
}

impl<V> fmt::Debug for LockHandle<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockHandle")
            .field("pid", &self.pid)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_scan_round_trip() {
        let snap = LockSnapshot::new(3, 0u32);
        let mut h = snap.handle(ProcessId::new(2));
        h.update(5);
        assert_eq!(h.scan().to_vec(), vec![0, 0, 5]);
    }

    #[test]
    fn threaded_scans_are_internally_consistent() {
        // Writers keep segments equal in pairs; scans must never observe a
        // torn pair, thanks to the lock.
        let snap = LockSnapshot::new(2, 0u64);
        std::thread::scope(|s| {
            let snap_ref = &snap;
            s.spawn(move || {
                let mut h = snap_ref.handle(ProcessId::new(0));
                for k in 0..1_000 {
                    h.update(k);
                }
            });
            s.spawn(move || {
                let mut h = snap_ref.handle(ProcessId::new(1));
                let mut last = 0;
                for _ in 0..1_000 {
                    let view = h.scan();
                    assert!(view[0] >= last);
                    last = view[0];
                }
            });
        });
    }
}
