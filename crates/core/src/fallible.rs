//! The object-level interface a request-serving front-end multiplexes
//! over.
//!
//! A front-end (`snapshot-service`) multiplexes many short-lived requests
//! over one object, each on behalf of a client that owns one **lane**.
//! [`TrySnapshotCore`] is that interface: a lane is claimed once per
//! client and holds the process-local state the algorithm keeps between
//! operations (for the in-process constructions, the per-process handle
//! itself, with its warm collect cache), and three operations (scan,
//! update, partial scan) each take the lane and the request's
//! [`RequestCtx`] and return `Result<_, CoreError>`.
//!
//! The paper's constructions assume registers that never fail, and the
//! four in-process constructions of this crate implement the trait with
//! operations that never err. Emulated registers (the ABD
//! message-passing emulation of Section 6) are *live only while a
//! majority of replicas is reachable*: a register operation issued past
//! that boundary must surface an error, not hang or panic — which is why
//! the one interface is the fallible one.

use std::fmt;

use snapshot_registers::ProcessId;

use crate::{RequestCtx, ScanStats, SnapshotView};

/// Why a fallible snapshot operation could not complete.
///
/// The distinction that matters to callers is *retryability*: an
/// [`Unavailable`](CoreError::Unavailable) core may answer again once the
/// backing heals (a partition lifted, replicas restarted), while a
/// [`Failed`](CoreError::Failed) core never will — retrying it only burns
/// the caller's budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// The backing register layer lost liveness (e.g. an ABD quorum phase
    /// starved without a majority). The operation is *indeterminate*: an
    /// update may or may not have taken effect, exactly like a crashed
    /// writer in the paper's model. Retrying after the backing heals may
    /// succeed.
    Unavailable {
        /// What the register layer reported.
        reason: String,
    },
    /// The backing store failed permanently (a poisoned replica fleet, a
    /// type-confused register). Retries cannot succeed.
    Failed {
        /// What the register layer reported.
        reason: String,
    },
}

impl CoreError {
    /// True if retrying the operation later may succeed.
    pub fn retryable(&self) -> bool {
        matches!(self, CoreError::Unavailable { .. })
    }

    /// The backing layer's diagnostic message.
    pub fn reason(&self) -> &str {
        match self {
            CoreError::Unavailable { reason } | CoreError::Failed { reason } => reason,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Unavailable { reason } => {
                write!(f, "snapshot backing unavailable (retryable): {reason}")
            }
            CoreError::Failed { reason } => {
                write!(f, "snapshot backing failed permanently: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Object-level entry points the service layer multiplexes over.
///
/// A **lane** is one process's local state, claimed once with
/// [`lane`](Self::lane) and passed by `&mut` to every operation run on
/// that process's behalf: the borrow is the one-operation-at-a-time
/// discipline, so no operation claims anything. For the in-process
/// constructions a lane is the per-process handle (its sequence number or
/// toggles and its collect cache stay warm between operations); for a
/// message-passing core it is the writer's sequence number. Pass a lane
/// only to the core that claimed it.
///
/// Every operation takes the request's [`RequestCtx`]. A core whose steps
/// can stall (message-passing register emulations) caps its internal
/// waits at `ctx.deadline`, erring [`Unavailable`](CoreError::Unavailable)
/// once it passes, and parents the spans of its register phases under
/// `ctx.span`. The in-process constructions ignore it: they complete in a
/// bounded number of their own steps (wait-freedom), so there is nothing
/// for a deadline to cut short and no internal phase worth a span.
///
/// Contract violations (a lane out of range or claimed twice, a
/// single-writer update to a foreign segment) panic — they are caller
/// bugs the service layer validates away before calling, not runtime
/// faults. `CoreError` is reserved for the backing losing liveness
/// mid-operation.
///
/// The trait has a generic associated type, so it is used through
/// generics (`C: TrySnapshotCore<V>`), not as a trait object.
pub trait TrySnapshotCore<V>: Send + Sync {
    /// One process's local state, borrowed from the core.
    type Lane<'a>: Send
    where
        Self: 'a;

    /// Number of memory segments a scan covers (`n` for the single-writer
    /// constructions, `m` words for the multi-writer one).
    fn segments(&self) -> usize;

    /// Number of lanes (process ids) available to clients.
    fn lanes(&self) -> usize;

    /// True if updates are restricted to the lane's own segment (the
    /// single-writer discipline of Sections 3–4).
    fn single_writer(&self) -> bool;

    /// Claims process `pid`'s lane until the returned value drops.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or its lane is already claimed
    /// (each process's local state must be unique).
    fn lane(&self, pid: ProcessId) -> Self::Lane<'_>;

    /// Runs one full scan on behalf of `lane`.
    fn try_scan(
        &self,
        lane: &mut Self::Lane<'_>,
        ctx: RequestCtx,
    ) -> Result<(SnapshotView<V>, ScanStats), CoreError>;

    /// Writes `value` to `segment` on behalf of `lane`.
    ///
    /// On `Err` the update is *indeterminate* whether the cause was the
    /// backing or the deadline: a write cut off mid-quorum may yet become
    /// visible (linearizability checkers must treat it as pending).
    ///
    /// # Panics
    ///
    /// Panics if `segment` is out of range, or if the construction is
    /// [single-writer](Self::single_writer) and `segment` is not the
    /// lane's own — the service validates and surfaces a typed error
    /// before calling.
    fn try_update(
        &self,
        lane: &mut Self::Lane<'_>,
        segment: usize,
        value: V,
        ctx: RequestCtx,
    ) -> Result<ScanStats, CoreError>;

    /// Runs one **native partial scan** on behalf of `lane`: a
    /// linearizable picture of exactly the requested `segments`, at a
    /// cost proportional to the touched segments rather than the whole
    /// object.
    ///
    /// `segments` must be non-empty, strictly increasing, and in range —
    /// the service layer canonicalizes before calling. The returned
    /// values are in `segments` order.
    ///
    /// `Ok(None)` means "no certified subset view this time" and is not
    /// an error: either the core has no native partial-scan path (the
    /// default), or a bounded interference budget ran out (the
    /// multi-writer construction under heavy subset contention). The
    /// caller falls back to a projected full scan, whose termination the
    /// paper proves. Constructions with a helping discipline on the
    /// subset (the single-writer ones borrow an interfering updater's
    /// embedded view, per the Kallimanis–Kanellou lead/helping idea)
    /// finish within `2k + 1` double collects over `k` segments and
    /// always return `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` violates the canonical-form contract (debug
    /// assertions).
    fn try_scan_subset(
        &self,
        lane: &mut Self::Lane<'_>,
        segments: &[usize],
        ctx: RequestCtx,
    ) -> Result<Option<(Vec<V>, ScanStats)>, CoreError> {
        let _ = (lane, segments, ctx);
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BoundedSnapshot, LockSnapshot, MultiWriterSnapshot, SwSnapshot, UnboundedSnapshot,
    };

    /// The three operations on one lane of `core`, which holds 3
    /// segments.
    fn serve_three_operations<C: TrySnapshotCore<u32>>(core: &C, single_writer: bool) {
        let ctx = RequestCtx::none();
        assert_eq!(core.single_writer(), single_writer);
        assert_eq!((core.segments(), core.lanes()), (3, 3));
        let mut lane = core.lane(ProcessId::new(0));
        let _ = core.try_update(&mut lane, 0, 7, ctx).unwrap();
        assert_eq!(core.try_scan(&mut lane, ctx).unwrap().0[0], 7);
        let (values, stats) = core
            .try_scan_subset(&mut lane, &[0, 2], ctx)
            .unwrap()
            .expect("quiescent native subset scans always certify");
        assert_eq!(values, vec![7, 0]);
        assert!(!stats.borrowed);
        // The lane serves a full scan after a subset scan.
        assert_eq!(core.try_scan(&mut lane, ctx).unwrap().0[0], 7);
    }

    #[test]
    fn all_four_constructions_serve_the_three_operations() {
        serve_three_operations(&UnboundedSnapshot::new(3, 0u32), true);
        serve_three_operations(&BoundedSnapshot::new(3, 0u32), true);
        serve_three_operations(&LockSnapshot::new(3, 0u32), true);
        serve_three_operations(&MultiWriterSnapshot::new(3, 3, 0u32), false);
    }

    #[test]
    fn multiwriter_lanes_write_any_word_and_subsets_cost_o_k() {
        let mw = MultiWriterSnapshot::new(2, 5, 0u32);
        let ctx = RequestCtx::none();
        assert_eq!((mw.segments(), mw.lanes()), (5, 2));
        let _ = mw.try_update(&mut mw.lane(ProcessId::new(1)), 3, 9, ctx).unwrap();
        // Version-filtered over the epoch backend: a quiescent subset
        // scan certifies on the first probe round.
        let (values, stats) = mw
            .try_scan_subset(&mut mw.lane(ProcessId::new(0)), &[1, 3], ctx)
            .unwrap()
            .expect("quiescent");
        assert_eq!(values, vec![0, 9]);
        assert!(stats.reads <= 6, "O(k) cost: {} reads for k = 2", stats.reads);
    }

    #[test]
    #[should_panic(expected = "single-writer")]
    fn single_writer_update_rejects_foreign_segments() {
        let snap = UnboundedSnapshot::new(2, 0u32);
        let _ = snap.try_update(&mut snap.lane(ProcessId::new(0)), 1, 5, RequestCtx::none());
    }

    #[test]
    fn a_dropped_lane_can_be_claimed_again() {
        let snap = UnboundedSnapshot::new(2, 0u32);
        let pid = ProcessId::new(0);
        for k in 1..=5 {
            let mut lane = snap.lane(pid);
            let _ = snap.try_update(&mut lane, 0, k, RequestCtx::none()).unwrap();
            assert_eq!(snap.try_scan(&mut lane, RequestCtx::none()).unwrap().0[0], k);
        }
        // The ordinary handle interface still works afterwards.
        let _h = snap.handle(pid);
    }

    #[test]
    fn retryability_follows_the_variant() {
        let transient = CoreError::Unavailable { reason: "no quorum".into() };
        let terminal = CoreError::Failed { reason: "fleet poisoned".into() };
        assert!(transient.retryable());
        assert!(!terminal.retryable());
        assert!(transient.to_string().contains("retryable"));
        assert!(terminal.to_string().contains("permanently"));
        assert_eq!(terminal.reason(), "fleet poisoned");
    }
}
