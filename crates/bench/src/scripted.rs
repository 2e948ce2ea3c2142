//! Scripted cores: wrap any [`TrySnapshotCore`] and intercept its full
//! scans, the one seam the service tests need — to hold a coalescing
//! leader inside its collect, to inject an outage, to slow a collect
//! down. Updates and native subset scans pass through untouched, so a
//! scripted shard is degrading, not dead.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use snapshot_core::{CoreError, RequestCtx, ScanStats, SnapshotView, TrySnapshotCore};
use snapshot_registers::ProcessId;

/// What a full scan of a `u64` core returns.
pub type ScanOutcome = Result<(SnapshotView<u64>, ScanStats), CoreError>;

/// A core whose full scans run through `hook` (which decides whether,
/// when and how often to run the wrapped core's own `try_scan`);
/// everything else forwards to the wrapped core.
pub struct ScanHook<C, F> {
    inner: C,
    hook: F,
}

impl<C, F> ScanHook<C, F>
where
    C: TrySnapshotCore<u64>,
    F: Fn(&C, ProcessId, RequestCtx) -> ScanOutcome + Send + Sync,
{
    /// Wraps `inner`, routing its full scans through `hook`.
    pub fn new(inner: C, hook: F) -> Self {
        ScanHook { inner, hook }
    }
}

impl<C, F> TrySnapshotCore<u64> for ScanHook<C, F>
where
    C: TrySnapshotCore<u64>,
    F: Fn(&C, ProcessId, RequestCtx) -> ScanOutcome + Send + Sync,
{
    fn segments(&self) -> usize {
        self.inner.segments()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn single_writer(&self) -> bool {
        self.inner.single_writer()
    }

    fn try_scan(&self, lane: ProcessId, ctx: RequestCtx) -> ScanOutcome {
        (self.hook)(&self.inner, lane, ctx)
    }

    fn try_update(
        &self,
        lane: ProcessId,
        segment: usize,
        value: u64,
        ctx: RequestCtx,
    ) -> Result<ScanStats, CoreError> {
        self.inner.try_update(lane, segment, value, ctx)
    }

    fn try_scan_subset(
        &self,
        lane: ProcessId,
        segments: &[usize],
        ctx: RequestCtx,
    ) -> Result<Option<(Vec<u64>, ScanStats)>, CoreError> {
        self.inner.try_scan_subset(lane, segments, ctx)
    }
}

/// The retryable error every scripted outage reports.
pub fn scripted_outage() -> CoreError {
    CoreError::Unavailable { reason: "scripted outage".into() }
}

/// The test's side of a [`gated_core`].
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// While set, a full scan that has entered spins instead of
    /// proceeding — the deterministic way to hold a coalescing leader
    /// inside its collect so a cohort piles up behind it.
    pub held: Arc<AtomicBool>,
    /// Full scans that have entered (counted before the hold).
    pub entered: Arc<AtomicUsize>,
    /// Full scans that will still fail with [`scripted_outage`] once
    /// released, one per scan.
    pub failures: Arc<AtomicUsize>,
}

/// Wraps `inner` so that every full scan counts itself in
/// [`Gate::entered`], spins while [`Gate::held`] is set, then fails while
/// [`Gate::failures`] (initially `failures`) remain.
pub fn gated_core<C: TrySnapshotCore<u64>>(
    inner: C,
    failures: usize,
) -> (impl TrySnapshotCore<u64>, Gate) {
    let gate = Gate { failures: Arc::new(AtomicUsize::new(failures)), ..Gate::default() };
    let core = ScanHook::new(inner, {
        let gate = gate.clone();
        move |inner, lane, ctx| {
            gate.entered.fetch_add(1, Ordering::SeqCst);
            while gate.held.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let fail = |left: usize| left.checked_sub(1);
            if gate.failures.fetch_update(Ordering::SeqCst, Ordering::SeqCst, fail).is_ok() {
                return Err(scripted_outage());
            }
            inner.try_scan(lane, ctx)
        }
    });
    (core, gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot_core::UnboundedSnapshot;

    #[test]
    fn gated_core_counts_fails_then_forwards() {
        let (core, gate) = gated_core(UnboundedSnapshot::new(2, 0u64), 1);
        let (lane, ctx) = (ProcessId::new(0), RequestCtx::none());
        let _ = core.try_update(lane, 0, 7, ctx).unwrap();
        assert_eq!(core.try_scan(lane, ctx).unwrap_err(), scripted_outage());
        assert_eq!(core.try_scan(lane, ctx).unwrap().0[0], 7);
        assert_eq!(gate.entered.load(Ordering::SeqCst), 2);
        // Subset scans never go through the hook.
        assert_eq!(core.try_scan_subset(lane, &[0], ctx).unwrap().unwrap().0, vec![7]);
        assert_eq!(gate.entered.load(Ordering::SeqCst), 2);
    }
}
