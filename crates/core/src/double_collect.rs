use std::fmt;

use snapshot_obs::{Algo, Event, RoundOutcome, Trace};
use snapshot_registers::{
    collect, Backend, CachePadded, EpochBackend, PaddedCells, ProcessId, Register, RegisterValue,
};

use crate::api::HandleRegistry;
use crate::{ScanStats, SnapshotView, SwSnapshot, SwSnapshotHandle};

#[derive(Clone)]
struct DcRecord<V> {
    value: V,
    seq: u64,
}

/// The **plain double-collect** snapshot sketched after Observation 1 in
/// Section 3 — the baseline the paper's constructions improve on.
///
/// Updates write `(value, seq)`; a scan repeats collects until two
/// consecutive collects agree, which by Observation 1 is a snapshot. This
/// is linearizable but **not wait-free**: a single updater that keeps
/// writing can starve a scanner forever (there is no borrowed view to fall
/// back on — that is exactly what Observation 2 adds). The starvation
/// experiment `E3` demonstrates the difference under the adversarial
/// scheduler.
///
/// Updates, by contrast, are a single register write: cheaper than the
/// wait-free algorithms' embedded scans.
///
/// # Example
///
/// ```
/// use snapshot_core::{DoubleCollectSnapshot, SwSnapshot, SwSnapshotHandle};
/// use snapshot_registers::ProcessId;
///
/// let snap = DoubleCollectSnapshot::new(2, 0u32);
/// let mut h = snap.handle(ProcessId::new(0));
/// h.update(5);
/// assert_eq!(h.scan().to_vec(), vec![5, 0]);
/// ```
pub struct DoubleCollectSnapshot<V: RegisterValue, B: Backend = EpochBackend> {
    // Padded like the wait-free constructions, so benchmark comparisons
    // against them measure the algorithms, not their false sharing.
    regs: PaddedCells<B, DcRecord<V>>,
    registry: HandleRegistry,
    n: usize,
    trace: Trace,
}

impl<V: RegisterValue> DoubleCollectSnapshot<V, EpochBackend> {
    /// Creates the object for `n` processes on the default backend.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, init: V) -> Self {
        Self::with_backend(n, init, &EpochBackend::new())
    }
}

impl<V: RegisterValue, B: Backend> DoubleCollectSnapshot<V, B> {
    /// Creates the object over an explicit register backend.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_backend(n: usize, init: V, backend: &B) -> Self {
        assert!(n > 0, "a snapshot object needs at least one process");
        DoubleCollectSnapshot {
            regs: (0..n)
                .map(|_| {
                    CachePadded::new(backend.cell(DcRecord {
                        value: init.clone(),
                        seq: 0,
                    }))
                })
                .collect(),
            registry: HandleRegistry::new(n),
            n,
            trace: Trace::disabled(),
        }
    }

    /// Routes this object's typed events (scan/update spans and
    /// double-collect rounds) into `trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }
}

impl<V: RegisterValue, B: Backend> SwSnapshot<V> for DoubleCollectSnapshot<V, B> {
    type Handle<'a>
        = DoubleCollectHandle<'a, V, B>
    where
        Self: 'a;

    fn processes(&self) -> usize {
        self.n
    }

    fn handle(&self, pid: ProcessId) -> DoubleCollectHandle<'_, V, B> {
        self.registry.claim(pid);
        DoubleCollectHandle {
            shared: self,
            pid,
            seq: 0,
        }
    }
}

impl<V: RegisterValue, B: Backend> fmt::Debug for DoubleCollectSnapshot<V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DoubleCollectSnapshot")
            .field("processes", &self.n)
            .finish()
    }
}

/// Process-local state for [`DoubleCollectSnapshot`].
pub struct DoubleCollectHandle<'a, V: RegisterValue, B: Backend> {
    shared: &'a DoubleCollectSnapshot<V, B>,
    pid: ProcessId,
    seq: u64,
}

impl<V: RegisterValue, B: Backend> DoubleCollectHandle<'_, V, B> {
    /// Scans, giving up after `max_double_collects` attempts.
    ///
    /// Returns `None` if no two consecutive collects agreed within the
    /// budget — the observable symptom of this algorithm's missing
    /// wait-freedom.
    pub fn try_scan(&mut self, max_double_collects: u32) -> Option<(SnapshotView<V>, ScanStats)> {
        let n = self.shared.n;
        let trace = &self.shared.trace;
        let me = self.pid.get();
        let mut stats = ScanStats::default();
        let mut a = collect(self.pid, &self.shared.regs);
        stats.reads += n as u64;
        while stats.double_collects < max_double_collects {
            trace.emit(
                me,
                Event::RoundStart { algo: Algo::DoubleCollect, round: stats.double_collects + 1 },
            );
            let b = collect(self.pid, &self.shared.regs);
            stats.double_collects += 1;
            stats.reads += n as u64;
            let clean = (0..n).all(|j| a[j].seq == b[j].seq);
            trace.emit(
                me,
                Event::RoundEnd {
                    algo: Algo::DoubleCollect,
                    round: stats.double_collects,
                    outcome: if clean { RoundOutcome::Clean } else { RoundOutcome::Moved },
                },
            );
            if clean {
                let values = b.into_iter().map(|r| r.value).collect::<Vec<_>>();
                return Some((SnapshotView::from(values), stats));
            }
            a = b;
        }
        None
    }
}

impl<V: RegisterValue, B: Backend> SwSnapshotHandle<V> for DoubleCollectHandle<'_, V, B> {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    /// A single register write — no embedded scan, hence no help for
    /// starving scanners.
    fn update_with_stats(&mut self, value: V) -> ScanStats {
        let me = self.pid.get();
        let trace = &self.shared.trace;
        trace.emit(me, Event::UpdateBegin { algo: Algo::DoubleCollect });
        self.seq += 1;
        self.shared.regs[self.pid.get()].write(
            self.pid,
            DcRecord {
                value,
                seq: self.seq,
            },
        );
        trace.emit(me, Event::UpdateEnd { algo: Algo::DoubleCollect, double_collects: 0 });
        ScanStats {
            writes: 1,
            ..ScanStats::default()
        }
    }

    /// # Blocking
    ///
    /// May loop forever under continuous concurrent updates; use
    /// [`DoubleCollectHandle::try_scan`] where starvation is possible.
    fn scan_with_stats(&mut self) -> (SnapshotView<V>, ScanStats) {
        let me = self.pid.get();
        self.shared.trace.emit(me, Event::ScanBegin { algo: Algo::DoubleCollect });
        let (view, stats) = self
            .try_scan(u32::MAX)
            .expect("u32::MAX double collects exhausted");
        self.shared.trace.emit(
            me,
            Event::ScanEnd {
                algo: Algo::DoubleCollect,
                double_collects: stats.double_collects,
                borrowed: false,
            },
        );
        (view, stats)
    }
}

impl<V: RegisterValue, B: Backend> Drop for DoubleCollectHandle<'_, V, B> {
    fn drop(&mut self) {
        self.shared.registry.release(self.pid);
    }
}

impl<V: RegisterValue, B: Backend> fmt::Debug for DoubleCollectHandle<'_, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DoubleCollectHandle")
            .field("pid", &self.pid)
            .field("seq", &self.seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_behavior_matches_snapshot_semantics() {
        let snap = DoubleCollectSnapshot::new(2, 0u32);
        let mut h0 = snap.handle(ProcessId::new(0));
        let mut h1 = snap.handle(ProcessId::new(1));
        h0.update(1);
        h1.update(2);
        assert_eq!(h0.scan().to_vec(), vec![1, 2]);
    }

    #[test]
    fn quiescent_scan_needs_one_double_collect() {
        let snap = DoubleCollectSnapshot::new(3, 0u8);
        let mut h = snap.handle(ProcessId::new(0));
        let (_, stats) = h.scan_with_stats();
        assert_eq!(stats.double_collects, 1);
    }

    #[test]
    fn try_scan_gives_up_gracefully() {
        // Nothing concurrent here, so one attempt suffices; budget 1 works.
        let snap = DoubleCollectSnapshot::new(1, 0u8);
        let mut h = snap.handle(ProcessId::new(0));
        assert!(h.try_scan(1).is_some());
    }
}
