use std::fmt;

use snapshot_registers::ProcessId;

use crate::SnapshotView;

/// Per-scan execution statistics, exposing exactly the quantities the
/// paper's wait-freedom proofs bound.
///
/// Marked `#[must_use]`: if you call a `_with_stats` method, dropping the
/// stats silently is almost always a test that forgot to assert.
#[must_use]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Number of double collects executed (loop iterations). The paper's
    /// pigeonhole arguments bound this by `n + 1` for the single-writer
    /// algorithms (Lemma 3.4 / 4.4) and `2n + 1` for the multi-writer one
    /// (Section 5). The non-wait-free [`DoubleCollectSnapshot`] has no
    /// bound — that is Observation 2's whole point.
    ///
    /// [`DoubleCollectSnapshot`]: crate::DoubleCollectSnapshot
    pub double_collects: u32,
    /// True if the scan returned a *borrowed* view (written by an updater
    /// observed to move twice / three times) rather than its own
    /// successful double collect.
    pub borrowed: bool,
    /// Primitive register reads the operation issued (collects, handshake
    /// reads, borrowed-view reads). Counted at the algorithm level, so the
    /// totals are exact for the deterministic constructions and can be
    /// cross-checked against [`OpCounters`].
    ///
    /// [`OpCounters`]: snapshot_registers::OpCounters
    pub reads: u64,
    /// Primitive register writes the operation issued (handshake writes
    /// and value/view publications). The lock-based baseline, which uses
    /// no primitive registers, reports zero.
    pub writes: u64,
}

/// A single-writer atomic snapshot object shared by `n` processes.
///
/// Each process obtains a [handle](SwSnapshot::handle) carrying its
/// process-local algorithm state; handles are meant to live on the
/// process's own thread.
pub trait SwSnapshot<V>: Send + Sync {
    /// The per-process handle type.
    type Handle<'a>: SwSnapshotHandle<V> + Send
    where
        Self: 'a;

    /// Number of participating processes (= memory segments).
    fn processes(&self) -> usize;

    /// Claims the handle for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or its handle is already claimed
    /// (each process's local state must be unique).
    fn handle(&self, pid: ProcessId) -> Self::Handle<'_>;
}

/// A process's interface to a single-writer snapshot object.
pub trait SwSnapshotHandle<V> {
    /// The process this handle belongs to.
    fn pid(&self) -> ProcessId;

    /// Writes `value` to this process's segment (the paper's
    /// `update_i(value)`), atomically with respect to all scans.
    fn update(&mut self, value: V) {
        let _ = self.update_with_stats(value);
    }

    /// Like [`update`](Self::update), also reporting the statistics of
    /// the *embedded scan* (Figure 2/3 updates scan before writing).
    /// Baselines without an embedded scan report zeros.
    fn update_with_stats(&mut self, value: V) -> ScanStats;

    /// Returns an instantaneous view of all segments (the paper's
    /// `scan_i`).
    fn scan(&mut self) -> SnapshotView<V> {
        self.scan_with_stats().0
    }

    /// Like [`scan`](Self::scan), also reporting how hard the scan had to
    /// work.
    fn scan_with_stats(&mut self) -> (SnapshotView<V>, ScanStats);
}

/// A multi-writer atomic snapshot object: `n` processes over `m` words,
/// any process may update any word (Section 5).
pub trait MwSnapshot<V>: Send + Sync {
    /// The per-process handle type.
    type Handle<'a>: MwSnapshotHandle<V> + Send
    where
        Self: 'a;

    /// Number of participating processes.
    fn processes(&self) -> usize;

    /// Number of memory words.
    fn words(&self) -> usize;

    /// Claims the handle for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or its handle is already claimed.
    fn handle(&self, pid: ProcessId) -> Self::Handle<'_>;
}

/// A process's interface to a multi-writer snapshot object.
pub trait MwSnapshotHandle<V> {
    /// The process this handle belongs to.
    fn pid(&self) -> ProcessId;

    /// Writes `value` to memory word `word` (the paper's
    /// `update_i(k, value)`).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    fn update(&mut self, word: usize, value: V) {
        let _ = self.update_with_stats(word, value);
    }

    /// Like [`update`](Self::update), also reporting the embedded scan's
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    fn update_with_stats(&mut self, word: usize, value: V) -> ScanStats;

    /// Returns an instantaneous view of all `m` words.
    fn scan(&mut self) -> SnapshotView<V> {
        self.scan_with_stats().0
    }

    /// Like [`scan`](Self::scan), also reporting per-scan statistics.
    fn scan_with_stats(&mut self) -> (SnapshotView<V>, ScanStats);
}

/// Guards exclusive ownership of per-process handles: a cell of `n` flags,
/// one per process, claimed on `handle()` and released when the handle
/// drops.
pub(crate) struct HandleRegistry {
    taken: Box<[std::sync::atomic::AtomicBool]>,
}

impl HandleRegistry {
    pub(crate) fn new(n: usize) -> Self {
        HandleRegistry {
            taken: (0..n)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
        }
    }

    /// Claims `pid`'s slot; panics on double-claim or out-of-range pid.
    pub(crate) fn claim(&self, pid: ProcessId) {
        assert!(
            pid.get() < self.taken.len(),
            "process {pid} out of range (object has {} processes)",
            self.taken.len()
        );
        let was = self.taken[pid.get()].swap(true, std::sync::atomic::Ordering::AcqRel);
        assert!(!was, "handle for {pid} already claimed");
    }

    pub(crate) fn release(&self, pid: ProcessId) {
        self.taken[pid.get()].store(false, std::sync::atomic::Ordering::Release);
    }

    /// Claims `pid`'s slot for the lifetime of the returned guard —
    /// the panic-safe transient claim the `try_scan_subset` paths use
    /// instead of constructing a full per-process handle.
    pub(crate) fn claim_guard(&self, pid: ProcessId) -> LaneClaim<'_> {
        self.claim(pid);
        LaneClaim { registry: self, pid }
    }
}

/// RAII lane claim: releases the slot on drop, even on unwind.
pub(crate) struct LaneClaim<'a> {
    registry: &'a HandleRegistry,
    pid: ProcessId,
}

impl Drop for LaneClaim<'_> {
    fn drop(&mut self) {
        self.registry.release(self.pid);
    }
}

impl fmt::Debug for HandleRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandleRegistry")
            .field("processes", &self.taken.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_enforces_exclusive_claims() {
        let reg = HandleRegistry::new(2);
        reg.claim(ProcessId::new(0));
        reg.claim(ProcessId::new(1));
        reg.release(ProcessId::new(0));
        reg.claim(ProcessId::new(0)); // re-claim after release is fine
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_claim_panics() {
        let reg = HandleRegistry::new(1);
        reg.claim(ProcessId::new(0));
        reg.claim(ProcessId::new(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_claim_panics() {
        let reg = HandleRegistry::new(1);
        reg.claim(ProcessId::new(1));
    }
}
