//! The unbounded single-writer snapshot construction over ABD registers,
//! with failure as a first-class value.
//!
//! Section 6 of the paper: applying the \[ABD\] register emulators to the
//! snapshot constructions yields atomic snapshot memory in message-passing
//! systems, "resilient to process and link failures, as long as a majority
//! of the system remains connected". [`AbdSnapshotCore`] is that stack
//! built *fallibly*: it runs Figure 2's double-collect + borrowed-view
//! algorithm over one [`AbdRegister`] lane per process, and where the
//! in-process constructions could only panic or hang past the liveness
//! boundary, every operation here returns a typed
//! [`CoreError`] the service layer can retry, shed, or surface.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use snapshot_core::{CoreError, RequestCtx, ScanStats, SnapshotView, TrySnapshotCore};
use snapshot_obs::{SpanKind, SpanStatus};
use snapshot_registers::{CachePadded, ProcessId};
use snapshot_wire::{Reader, WireError, WireValue};

use crate::transport::Transport;
use crate::{AbdError, AbdRegister, Network, RegisterId};

/// Contents of register `r_i` in Figure 2, stored as one ABD register
/// value: `(value, seq, view)` written in one (emulated) atomic write.
#[derive(Clone)]
struct AbdRecord<V> {
    value: V,
    seq: u64,
    view: SnapshotView<V>,
}

/// The record's wire form (for [`AbdSnapshotCore::remote`]): value, seq,
/// then the embedded view as a length-prefixed sequence. Private to this
/// module — replicas carry it opaquely; only clients decode it.
impl<V: WireValue + Clone + Send + Sync + 'static> WireValue for AbdRecord<V> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.value.encode_into(out);
        self.seq.encode_into(out);
        out.extend_from_slice(&(self.view.len() as u32).to_le_bytes());
        for v in self.view.as_slice() {
            v.encode_into(out);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let value = V::decode_from(r)?;
        let seq = u64::decode_from(r)?;
        let len = u32::decode_from(r)?;
        if len as usize > r.remaining() {
            return Err(WireError::BadLength {
                field: "view",
                len: u64::from(len),
            });
        }
        let mut view = Vec::with_capacity(len as usize);
        for _ in 0..len {
            view.push(V::decode_from(r)?);
        }
        Ok(AbdRecord {
            value,
            seq,
            view: SnapshotView::from(view),
        })
    }
}

fn core_error(e: AbdError) -> CoreError {
    match e {
        // The liveness boundary: a healed partition or restarted replica
        // can make the next attempt succeed.
        AbdError::QuorumUnavailable { .. } => CoreError::Unavailable { reason: e.to_string() },
        // Terminal faults: retries cannot succeed.
        AbdError::NetworkPoisoned
        | AbdError::ValueTypeMismatch { .. }
        | AbdError::DecodeFailed { .. } => CoreError::Failed { reason: e.to_string() },
    }
}

/// The unbounded single-writer snapshot (Figure 2) emulated over the
/// replicas of a [`Network`], exposed through the fallible
/// [`TrySnapshotCore`] interface.
///
/// Each of the `n` lanes owns one [`AbdRegister`] holding `(value, seq,
/// view)`. A scan runs double collects until two consecutive collects
/// agree on every sequence number (Observation 1: the second collect is a
/// snapshot) or some lane is observed to move twice (Observation 2: its
/// embedded view is borrowed). An update runs the embedded scan, then one
/// register write of `(value, seq + 1, view)` — wait-free in register
/// operations by the paper's pigeonhole bound of `n + 1` double collects.
///
/// Every collect and every register write is up to two quorum phases that
/// can starve: a drop, partition, or crashed majority surfaces as
/// [`CoreError::Unavailable`] (retryable — heal the network and try
/// again), and a poisoned fleet as [`CoreError::Failed`] (terminal). An
/// errored update is *indeterminate*: the write may have reached some
/// replicas and may yet become visible, exactly like a crashed writer in
/// the paper's model — its sequence number is consumed either way, so a
/// retry never reuses one.
///
/// The single-writer discipline is per **lane**: the caller (normally
/// `snapshot-service`) must run at most one operation per lane at a time;
/// a busy lane panics, mirroring the in-process constructions' handle
/// registry.
pub struct AbdSnapshotCore<V> {
    transport: Arc<dyn Transport>,
    regs: Box<[AbdRegister<AbdRecord<V>>]>,
    /// Next sequence number per lane. Authoritative because registers are
    /// allocated fresh by this core and written only by their own lane;
    /// bumped *before* each write so an indeterminate (errored) write
    /// still consumes its number.
    seqs: Box<[CachePadded<AtomicU64>]>,
    busy: Box<[AtomicBool]>,
    n: usize,
}

impl<V: Clone + Send + Sync + 'static> AbdSnapshotCore<V> {
    /// Creates the object for `n` lanes over `network`'s replicas, every
    /// segment holding `init`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(network: &Arc<Network>, n: usize, init: V) -> Self {
        Self::over(Arc::clone(network) as Arc<dyn Transport>, n, init)
    }

    /// Creates the object for `n` lanes over any in-process transport's
    /// replicas, every segment holding `init`. Values stay type-erased
    /// (no serialization); for a byte-only transport use
    /// [`remote`](Self::remote).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or if the transport only carries encoded
    /// bytes ([`Transport::requires_bytes`]).
    pub fn over(transport: Arc<dyn Transport>, n: usize, init: V) -> Self {
        assert!(n > 0, "a snapshot object needs at least one process");
        let initial_view = SnapshotView::from(vec![init.clone(); n]);
        AbdSnapshotCore {
            regs: (0..n)
                .map(|_| {
                    AbdRegister::with_transport(
                        Arc::clone(&transport),
                        AbdRecord { value: init.clone(), seq: 0, view: initial_view.clone() },
                    )
                })
                .collect(),
            seqs: (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            busy: (0..n).map(|_| AtomicBool::new(false)).collect(),
            transport,
            n,
        }
    }

    /// The transport this core's registers run over.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    fn claim(&self, lane: ProcessId) -> LaneGuard<'_> {
        let i = lane.get();
        assert!(i < self.n, "lane {i} out of range ({} lanes)", self.n);
        let was = self.busy[i].swap(true, Ordering::AcqRel);
        assert!(!was, "lane {i} already has an operation in flight");
        LaneGuard { flag: &self.busy[i] }
    }

    /// One collect: read the given registers (all `n` for a full scan,
    /// the `k` requested ones for a subset scan) as one batched register
    /// read — one query round, and one store round only for registers
    /// whose quorum disagreed. A starved quorum phase aborts the collect
    /// with a typed error; `ctx.deadline` caps each phase's wait. The
    /// pass runs inside a [`SpanKind::QuorumQuery`] span on the
    /// transport's trace, parented under `ctx.span` and noting how many
    /// registers it touched — so a flight recording attributes a starved
    /// scan to its quorum wait, and shows `k`, not `n`, for a subset.
    fn collect(
        &self,
        lane: ProcessId,
        registers: impl ExactSizeIterator<Item = usize>,
        ctx: RequestCtx,
    ) -> Result<Vec<AbdRecord<V>>, CoreError> {
        let span = self.transport.trace().span(lane.get(), SpanKind::QuorumQuery, ctx.span);
        span.note("registers", registers.len() as u64);
        let regs: Vec<&AbdRegister<AbdRecord<V>>> = registers.map(|j| &self.regs[j]).collect();
        let out = AbdRegister::read_many(&regs, lane, ctx.deadline).map_err(core_error);
        span.end(if out.is_ok() { SpanStatus::Ok } else { SpanStatus::Error });
        out
    }

    /// `procedure scan_i` of Figure 2, fallibly. The caller holds the
    /// lane claim.
    fn scan_inner(
        &self,
        lane: ProcessId,
        ctx: RequestCtx,
    ) -> Result<(SnapshotView<V>, ScanStats), CoreError> {
        let n = self.n;
        let mut moved = vec![0u8; n];
        let mut stats = ScanStats::default();
        loop {
            let a = self.collect(lane, 0..n, ctx)?; // line 1
            let b = self.collect(lane, 0..n, ctx)?; // line 2
            stats.double_collects += 1;
            stats.reads += 2 * n as u64;
            debug_assert!(
                stats.double_collects as usize <= n + 1,
                "wait-freedom bound violated: {} double collects for n = {n}",
                stats.double_collects
            );
            if (0..n).all(|j| a[j].seq == b[j].seq) {
                // Observation 1: nobody moved between the collects.
                let values = b.into_iter().map(|r| r.value).collect::<Vec<_>>();
                return Ok((SnapshotView::from(values), stats));
            }
            for j in 0..n {
                if a[j].seq != b[j].seq {
                    if moved[j] == 1 {
                        // Observation 2: lane j completed a whole update
                        // (embedded scan included) inside our interval.
                        stats.borrowed = true;
                        return Ok((b[j].view.clone(), stats));
                    }
                    moved[j] += 1;
                }
            }
        }
    }
}

impl<V: WireValue + Clone + Send + Sync + 'static> AbdSnapshotCore<V> {
    /// Creates the object for `n` lanes over a **wire** transport — the
    /// remote-mode constructor: the same Figure-2 construction, the same
    /// service stack above it, but every register quorum phase crosses
    /// real sockets to `snapshotd` replicas. Records travel as their
    /// [`WireValue`] encoding; register `i` is addressed
    /// `(lane = i, segment = i)` ([`RegisterId::from_lane_segment`]), so
    /// every client of one cluster addresses the same registers.
    ///
    /// Lane sequence numbers start at zero: run one client per lane
    /// against a fresh cluster (the single-writer discipline, now
    /// cluster-wide). A client restarted against surviving replica state
    /// must not reuse a lane without re-reading its register first —
    /// the service layer owns lanes for exactly this reason.
    ///
    /// Works over the simulated network too (the codec round-trips
    /// through the fault plane opaquely), which is how remote mode is
    /// differentially tested against in-process mode.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn remote(transport: Arc<dyn Transport>, n: usize, init: V) -> Self {
        assert!(n > 0, "a snapshot object needs at least one process");
        let initial_view = SnapshotView::from(vec![init.clone(); n]);
        AbdSnapshotCore {
            regs: (0..n)
                .map(|i| {
                    AbdRegister::with_wire_codec(
                        Arc::clone(&transport),
                        RegisterId::from_lane_segment(i as u32, i as u32),
                        AbdRecord { value: init.clone(), seq: 0, view: initial_view.clone() },
                    )
                })
                .collect(),
            seqs: (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            busy: (0..n).map(|_| AtomicBool::new(false)).collect(),
            transport,
            n,
        }
    }
}

/// Releases the lane's busy flag even when an operation errors or panics
/// mid-flight, so a failed operation never wedges its lane.
struct LaneGuard<'a> {
    flag: &'a AtomicBool,
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        self.flag.store(false, Ordering::Release);
    }
}

impl<V: Clone + Send + Sync + 'static> TrySnapshotCore<V> for AbdSnapshotCore<V> {
    fn segments(&self) -> usize {
        self.n
    }

    fn lanes(&self) -> usize {
        self.n
    }

    fn single_writer(&self) -> bool {
        true
    }

    /// Every quorum wait underneath is capped at `ctx.deadline`, so a scan
    /// that cannot finish in the caller's budget surfaces
    /// [`CoreError::Unavailable`] fast instead of waiting out the full
    /// per-phase `op_timeout` repeatedly. Quorum passes run inside
    /// [`SpanKind::QuorumQuery`] spans parented under `ctx.span` (no-ops
    /// when the transport's trace is disabled).
    fn try_scan(
        &self,
        lane: ProcessId,
        ctx: RequestCtx,
    ) -> Result<(SnapshotView<V>, ScanStats), CoreError> {
        let _guard = self.claim(lane);
        self.scan_inner(lane, ctx)
    }

    /// A deadline-cut write is *indeterminate* exactly like a
    /// quorum-starved one; its sequence number is consumed either way, so
    /// a retry never reuses one. The embedded scan's quorum passes and the
    /// final register write run inside [`SpanKind::QuorumQuery`] /
    /// [`SpanKind::QuorumStore`] spans parented under `ctx.span`.
    fn try_update(
        &self,
        lane: ProcessId,
        segment: usize,
        value: V,
        ctx: RequestCtx,
    ) -> Result<ScanStats, CoreError> {
        assert_eq!(
            segment,
            lane.get(),
            "single-writer construction: lane {lane} cannot update segment {segment}"
        );
        let _guard = self.claim(lane);
        let (view, mut stats) = self.scan_inner(lane, ctx)?; // Fig. 2 update line 1
        let seq = self.seqs[lane.get()].fetch_add(1, Ordering::Relaxed) + 1;
        let store = self.transport.trace().span(lane.get(), SpanKind::QuorumStore, ctx.span);
        store.note("seq", seq);
        let written = self.regs[lane.get()]
            .try_write_by(lane, AbdRecord { value, seq, view }, ctx.deadline) // line 2
            .map_err(core_error);
        store.end(if written.is_ok() { SpanStatus::Ok } else { SpanStatus::Error });
        written?;
        stats.writes += 1;
        Ok(stats)
    }

    /// Figure 2's scan over only the requested registers: each round is
    /// two subset collects — `2k` registers read instead of `2n`, in
    /// frames `k/n` the size. Equal sequence
    /// numbers across the passes certify the second pass (each register
    /// provably took no write over a window containing the instant
    /// between them); a lane observed moving twice completed an update
    /// whose embedded full scan ran inside our interval, so its pass-b
    /// record's view is borrowed and projected onto the subset. At most
    /// `2k + 1` rounds, so this always returns `Ok(Some(..))` — or a
    /// typed error when a quorum phase starves, exactly like the full
    /// scan.
    fn try_scan_subset(
        &self,
        lane: ProcessId,
        segments: &[usize],
        ctx: RequestCtx,
    ) -> Result<Option<(Vec<V>, ScanStats)>, CoreError> {
        debug_assert!(!segments.is_empty(), "canonical subsets are non-empty");
        debug_assert!(segments.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        debug_assert!(segments.iter().all(|&s| s < self.n), "segment out of range");
        let _guard = self.claim(lane);
        let k = segments.len();
        let mut moved = vec![0u8; k];
        let mut stats = ScanStats::default();
        loop {
            let a = self.collect(lane, segments.iter().copied(), ctx)?;
            let b = self.collect(lane, segments.iter().copied(), ctx)?;
            stats.double_collects += 1;
            stats.reads += 2 * k as u64;
            debug_assert!(
                stats.double_collects as usize <= 2 * k + 1,
                "subset wait-freedom bound violated: {} double collects for k = {k}",
                stats.double_collects
            );
            if (0..k).all(|x| a[x].seq == b[x].seq) {
                return Ok(Some((b.into_iter().map(|r| r.value).collect(), stats)));
            }
            for x in 0..k {
                if a[x].seq != b[x].seq {
                    if moved[x] == 1 {
                        stats.borrowed = true;
                        let view = &b[x].view;
                        let values = segments.iter().map(|&j| view[j].clone()).collect();
                        return Ok(Some((values, stats)));
                    }
                    moved[x] += 1;
                }
            }
        }
    }
}

impl<V> fmt::Debug for AbdSnapshotCore<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbdSnapshotCore")
            .field("lanes", &self.n)
            .field("replicas", &self.transport.replicas())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use snapshot_core::Deadline;

    use crate::{NetworkConfig, RetryPolicy};

    const NONE: RequestCtx = RequestCtx::none();

    fn fast_net(replicas: usize) -> Arc<Network> {
        Arc::new(Network::with_config(
            NetworkConfig::new(replicas)
                .with_op_timeout(Duration::from_millis(80))
                .with_retry(RetryPolicy {
                    initial_backoff: Duration::from_micros(200),
                    max_backoff: Duration::from_millis(5),
                    multiplier: 2,
                    jitter: 0.5,
                }),
        ))
    }

    #[test]
    fn healthy_round_trip() {
        let net = fast_net(3);
        let core = AbdSnapshotCore::new(&net, 3, 0u32);
        let p1 = ProcessId::new(1);
        let _ = core.try_update(p1, 1, 11, NONE).unwrap();
        let (view, stats) = core.try_scan(p1, NONE).unwrap();
        assert_eq!(view.to_vec(), vec![0, 11, 0]);
        assert!(stats.double_collects >= 1);
        assert_eq!(stats.reads % 6, 0, "collects touch all 3 registers");
    }

    #[test]
    fn majority_partition_surfaces_retryable_error_then_recovers() {
        let net = fast_net(3);
        let core = AbdSnapshotCore::new(&net, 2, 0u32);
        let p0 = ProcessId::new(0);
        let _ = core.try_update(p0, 0, 1, NONE).unwrap();

        net.partition(&[0, 1]); // majority gone
        let err = core.try_scan(p0, NONE).unwrap_err();
        assert!(err.retryable(), "quorum loss must be retryable: {err}");
        let err = core.try_update(p0, 0, 2, NONE).unwrap_err();
        assert!(err.retryable());

        net.heal();
        let (view, _) = core.try_scan(p0, NONE).unwrap();
        // The partitioned update was indeterminate; either outcome is
        // linearizable, and the register must answer again.
        assert!(view[0] == 1 || view[0] == 2, "view {:?}", view.to_vec());
    }

    #[test]
    fn indeterminate_updates_never_reuse_a_sequence_number() {
        let net = fast_net(3);
        let core = AbdSnapshotCore::new(&net, 1, 0u32);
        let p0 = ProcessId::new(0);
        let _ = core.try_update(p0, 0, 1, NONE).unwrap();
        let seq = |core: &AbdSnapshotCore<u32>| {
            core.regs[0].try_read_by(p0, Deadline::none()).unwrap().seq
        };
        let c1 = seq(&core);

        net.partition(&[0, 1, 2]);
        assert!(core.try_update(p0, 0, 2, NONE).is_err());
        net.heal();

        let _ = core.try_update(p0, 0, 3, NONE).unwrap();
        assert_eq!(core.try_scan(p0, NONE).unwrap().0[0], 3);
        let c2 = seq(&core);
        // Sequence numbers stay strictly monotone across the error. (The
        // blackout starved the update's *embedded scan*, before the seq
        // allocation — nothing consumed. A write-phase failure would have
        // consumed its seq: the `fetch_add` makes reuse impossible either
        // way.)
        assert_eq!(c2, c1 + 1);
        assert!(c2 > c1, "the sequence number must move on the successful retry");
    }

    #[test]
    fn deadline_cuts_a_starving_scan_short() {
        // op_timeout is deliberately huge: only the caller's deadline can
        // end the scan quickly, and it must do so with a retryable error.
        let net = Arc::new(Network::with_config(
            NetworkConfig::new(3).with_op_timeout(Duration::from_secs(10)),
        ));
        let core = AbdSnapshotCore::new(&net, 2, 0u32);
        let p0 = ProcessId::new(0);
        net.partition(&[0, 1]);
        let started = std::time::Instant::now();
        let err = core
            .try_scan(p0, RequestCtx::by(Deadline::after(Duration::from_millis(25))))
            .unwrap_err();
        assert!(err.retryable(), "deadline expiry is the retryable boundary: {err}");
        assert!(started.elapsed() < Duration::from_secs(2));
        net.heal();
        assert!(core.try_scan(p0, NONE).is_ok(), "lane released, core answers again");
    }

    #[test]
    fn poisoned_fleet_is_a_terminal_error() {
        let net = fast_net(3);
        let core = AbdSnapshotCore::new(&net, 2, 0u32);
        let p0 = ProcessId::new(0);
        let _ = core.try_update(p0, 0, 5, NONE).unwrap();
        net.poison();
        let err = core.try_scan(p0, NONE).unwrap_err();
        assert!(!err.retryable(), "poisoned fleet must be terminal: {err}");
    }

    #[test]
    fn subset_scans_touch_only_their_registers() {
        let net = fast_net(3);
        let core = AbdSnapshotCore::new(&net, 8, 0u32);
        let p3 = ProcessId::new(3);
        let _ = core.try_update(p3, 3, 33, NONE).unwrap();
        let (values, stats) = core
            .try_scan_subset(ProcessId::new(0), &[3, 6], NONE)
            .unwrap()
            .expect("the single-writer emulation always serves subsets");
        assert_eq!(values, vec![33, 0]);
        assert!(!stats.borrowed);
        assert_eq!(stats.reads, 4, "2k quorum reads for k = 2, quiescent");
    }

    #[test]
    fn subset_scan_errors_are_typed_and_release_the_lane() {
        let net = fast_net(3);
        let core = AbdSnapshotCore::new(&net, 4, 0u32);
        let p0 = ProcessId::new(0);
        net.partition(&[0, 1]);
        let err = core.try_scan_subset(p0, &[1, 2], NONE).unwrap_err();
        assert!(err.retryable(), "quorum loss must be retryable: {err}");
        net.heal();
        assert!(core.try_scan_subset(p0, &[1, 2], NONE).unwrap().is_some());
    }

    #[test]
    fn a_collect_too_large_for_one_frame_degrades_into_smaller_ones() {
        use crate::{RemoteConfig, RemoteTransport};
        use snapshot_wire::{Endpoint, ReplicaServer, ServerConfig};

        // Eight records of up to ~400 bytes: each fits a 1 KiB frame,
        // all eight (or lanes 4..8 alone) do not.
        const MAX_FRAME: u32 = 1024;
        let servers: Vec<ReplicaServer> = (0..3u32)
            .map(|i| {
                let mut path = std::env::temp_dir();
                path.push(format!("abd-core-oversize-{}-{i}.sock", std::process::id()));
                let _ = std::fs::remove_file(&path);
                ReplicaServer::spawn(
                    ServerConfig::new(Endpoint::Uds(path), i).with_max_frame(MAX_FRAME),
                )
                .expect("spawning replica server")
            })
            .collect();
        let transport = Arc::new(RemoteTransport::connect(
            RemoteConfig::new(servers.iter().map(|s| s.endpoint().clone()).collect())
                .with_op_timeout(Duration::from_secs(5))
                .with_max_frame(MAX_FRAME),
        ));
        assert!(transport.wait_connected(3, Duration::from_secs(5)));
        let core = AbdSnapshotCore::remote(
            Arc::clone(&transport) as Arc<dyn Transport>,
            8,
            String::new(),
        );
        let value = |lane: usize| format!("lane-{lane}-{}", "x".repeat(33));
        for lane in 0..8 {
            let _ = core
                .try_update(ProcessId::new(lane), lane, value(lane), NONE)
                .unwrap();
        }
        let (view, stats) = core.try_scan(ProcessId::new(0), NONE).unwrap();
        assert_eq!(view.to_vec(), (0..8).map(value).collect::<Vec<_>>());
        assert_eq!(
            stats.reads, 16,
            "registers read, however many frames carried them"
        );

        let refused: u64 = servers
            .iter()
            .map(|s| s.registry().counter("snapshotd.errors_sent").get())
            .sum();
        assert!(
            refused > 0,
            "the full-width reply must have been refused as too large"
        );
        assert_eq!(transport.connected_replicas(), 3);
        assert_eq!(
            transport.registry().counter("abd.wire.disconnects").get(),
            0,
            "an oversize reply is a typed refusal, not a dropped connection"
        );
        drop(core);
        drop(transport);
        drop(servers);
    }

    #[test]
    fn errored_operations_release_their_lane() {
        let net = fast_net(3);
        let core = AbdSnapshotCore::new(&net, 2, 0u32);
        let p0 = ProcessId::new(0);
        net.partition(&[0, 1, 2]);
        assert!(core.try_scan(p0, NONE).is_err());
        net.heal();
        // The lane is reusable after the error.
        assert!(core.try_scan(p0, NONE).is_ok());
    }
}
