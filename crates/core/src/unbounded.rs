use std::fmt;
use std::sync::Arc;

use snapshot_obs::{Algo, Event, RoundOutcome, Trace};
use snapshot_registers::{
    collect, Backend, CachePadded, EpochBackend, PaddedCells, ProcessId, Register, RegisterValue,
    TrackedCollect,
};

use crate::api::HandleRegistry;
use crate::{CoreError, RequestCtx, ScanStats, SnapshotView, SwSnapshot, SwSnapshotHandle};

/// Contents of register `r_i` in Figure 2: `(value, seq, view)` written in
/// one atomic register write.
#[derive(Clone)]
struct UnbRecord<V> {
    value: V,
    seq: u64,
    view: SnapshotView<V>,
}

/// The **unbounded single-writer** snapshot of Section 3 (Figure 2).
///
/// Each process owns one single-writer register holding `(value, seq,
/// view)`. A scan repeats *double collects* until either
///
/// * two consecutive collects return identical sequence numbers everywhere
///   — by Observation 1 the second collect is a snapshot — or
/// * some process is observed to move **twice**, in which case that
///   process completed an entire update (with its embedded scan) inside
///   this scan's interval, and its written `view` is *borrowed*
///   (Observation 2).
///
/// By the pigeonhole principle a scan finishes within `n + 1` double
/// collects: wait-free, `O(n²)` register operations (Lemma 3.4). An update
/// performs an embedded scan and one register write.
///
/// "Unbounded" refers to the integer sequence numbers; the
/// [`BoundedSnapshot`](crate::BoundedSnapshot) replaces them with
/// handshake bits.
///
/// # Example
///
/// ```
/// use snapshot_core::{SwSnapshot, SwSnapshotHandle, UnboundedSnapshot};
/// use snapshot_registers::ProcessId;
///
/// let snap = UnboundedSnapshot::new(2, 0u32);
/// let mut h0 = snap.handle(ProcessId::new(0));
/// h0.update(42);
/// assert_eq!(h0.scan().to_vec(), vec![42, 0]);
/// ```
pub struct UnboundedSnapshot<V: RegisterValue, B: Backend = EpochBackend> {
    // Padded: each register is written by exactly one process and read by
    // all, the canonical false-sharing layout for a dense array.
    regs: PaddedCells<B, UnbRecord<V>>,
    registry: HandleRegistry,
    n: usize,
    trace: Trace,
    incremental: bool,
}

impl<V: RegisterValue> UnboundedSnapshot<V, EpochBackend> {
    /// Creates the object for `n` processes over the default lock-free
    /// register backend, with every segment holding `init`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, init: V) -> Self {
        Self::with_backend(n, init, &EpochBackend::new())
    }
}

impl<V: RegisterValue, B: Backend> UnboundedSnapshot<V, B> {
    /// Creates the object over an explicit register backend (instrumented,
    /// simulator-gated, mutex baseline, ...).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_backend(n: usize, init: V, backend: &B) -> Self {
        assert!(n > 0, "a snapshot object needs at least one process");
        let initial_view = SnapshotView::from(vec![init.clone(); n]);
        UnboundedSnapshot {
            regs: (0..n)
                .map(|_| {
                    CachePadded::new(backend.cell(UnbRecord {
                        value: init.clone(),
                        seq: 0,
                        view: initial_view.clone(),
                    }))
                })
                .collect(),
            registry: HandleRegistry::new(n),
            n,
            trace: Trace::disabled(),
            incremental: true,
        }
    }

    /// Enables or disables the incremental collect path (default: on).
    ///
    /// Both paths run the same Figure 2 algorithm with identical
    /// move-counting; the incremental one reuses the scanner's cache of
    /// records across collects (see [`TrackedCollect`]) to skip clones —
    /// and, on version-keeping backends, whole reads — of registers that
    /// provably did not move. The switch exists so tests and benchmarks
    /// can compare the two executions directly.
    #[must_use]
    pub fn with_incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Routes this object's typed events (scan/update spans, double-collect
    /// rounds, borrow decisions) into `trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }
}

impl<V: RegisterValue, B: Backend> SwSnapshot<V> for UnboundedSnapshot<V, B> {
    type Handle<'a>
        = UnboundedHandle<'a, V, B>
    where
        Self: 'a;

    fn processes(&self) -> usize {
        self.n
    }

    fn handle(&self, pid: ProcessId) -> UnboundedHandle<'_, V, B> {
        self.registry.claim(pid);
        // Restore the saved sequence number from the own register (the
        // single-writer discipline makes it authoritative), so a dropped
        // and re-claimed handle never reuses a sequence number — scans
        // rely on every write changing it.
        let seq = self.regs[pid.get()].read_with(pid, |r| r.seq);
        UnboundedHandle {
            shared: self,
            pid,
            seq,
            cache: TrackedCollect::new(),
            moved: vec![0; self.n],
        }
    }
}

impl<V: RegisterValue, B: Backend> fmt::Debug for UnboundedSnapshot<V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnboundedSnapshot")
            .field("processes", &self.n)
            .finish()
    }
}

impl<V: RegisterValue, B: Backend> crate::TrySnapshotCore<V> for UnboundedSnapshot<V, B> {
    type Lane<'a>
        = UnboundedHandle<'a, V, B>
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

    fn lane(&self, pid: ProcessId) -> UnboundedHandle<'_, V, B> {
        self.handle(pid)
    }

    fn try_scan(
        &self,
        lane: &mut UnboundedHandle<'_, V, B>,
        _ctx: RequestCtx,
    ) -> Result<(SnapshotView<V>, ScanStats), CoreError> {
        Ok(lane.scan_with_stats())
    }

    fn try_update(
        &self,
        lane: &mut UnboundedHandle<'_, V, B>,
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

    /// Figure 2's scan run over only the requested registers. Equal `seq`
    /// across two passes certifies the second pass: each slot's register
    /// is provably unchanged over a window containing the instant between
    /// the passes, so the subset is instantaneous there (Observation 1
    /// projected). A subset writer observed moving twice completed an
    /// entire update — embedded *full*-view scan included — inside this
    /// scan's interval; the single-writer discipline totally orders its
    /// updates, so one extra read of its register yields a record whose
    /// embedded scan also began inside the interval, and that full view
    /// is projected onto the subset (Observation 2). Pigeonhole: at most
    /// `2k + 1` double collects over `k` registers — `O(k)` reads,
    /// independent of `n`, and the helping rule means this never returns
    /// `Ok(None)`.
    fn try_scan_subset(
        &self,
        lane: &mut UnboundedHandle<'_, V, B>,
        segments: &[usize],
        _ctx: RequestCtx,
    ) -> Result<Option<(Vec<V>, ScanStats)>, CoreError> {
        debug_assert!(!segments.is_empty(), "canonical subsets are non-empty");
        debug_assert!(segments.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        debug_assert!(segments.iter().all(|&s| s < self.n), "segment out of range");
        let lane = lane.pid;
        let k = segments.len();
        let mut moved = vec![0u8; k];
        let mut stats = ScanStats::default();
        loop {
            let a: Vec<u64> =
                segments.iter().map(|&j| self.regs[j].read_with(lane, |r| r.seq)).collect();
            let b: Vec<(u64, V)> = segments
                .iter()
                .map(|&j| self.regs[j].read_with(lane, |r| (r.seq, r.value.clone())))
                .collect();
            stats.double_collects += 1;
            stats.reads += 2 * k as u64;
            debug_assert!(
                stats.double_collects as usize <= 2 * k + 1,
                "subset wait-freedom bound violated: {} double collects for k = {k}",
                stats.double_collects
            );
            if (0..k).all(|x| a[x] == b[x].0) {
                return Ok(Some((b.into_iter().map(|(_, v)| v).collect(), stats)));
            }
            for x in 0..k {
                if a[x] != b[x].0 {
                    if moved[x] == 1 {
                        stats.borrowed = true;
                        stats.reads += 1;
                        let view =
                            self.regs[segments[x]].read_with(lane, |r| r.view.clone());
                        let values = segments.iter().map(|&j| view[j].clone()).collect();
                        return Ok(Some((values, stats)));
                    }
                    moved[x] += 1;
                }
            }
        }
    }
}

/// Process-local state for [`UnboundedSnapshot`]: the saved sequence
/// number `seq_i` of Figure 2, and what the scans keep between
/// operations — the record cache and the move counts — so that a warm
/// scan allocates only the view it returns.
///
/// It is also the object's [`TrySnapshotCore`](crate::TrySnapshotCore)
/// lane.
pub struct UnboundedHandle<'a, V: RegisterValue, B: Backend> {
    shared: &'a UnboundedSnapshot<V, B>,
    pid: ProcessId,
    seq: u64,
    /// Scanner-local record cache for the incremental collect path.
    cache: TrackedCollect<UnbRecord<V>>,
    /// Figure 2's `moved[j]`, reset at the start of every scan.
    moved: Vec<u8>,
}

impl<V: RegisterValue, B: Backend> UnboundedHandle<'_, V, B> {
    /// `procedure scan_i` of Figure 2.
    fn scan_inner(&mut self) -> (SnapshotView<V>, ScanStats) {
        if self.shared.incremental {
            self.scan_inner_incremental()
        } else {
            self.scan_inner_full()
        }
    }

    /// The literal double-collect loop: two fresh full collects per round.
    fn scan_inner_full(&self) -> (SnapshotView<V>, ScanStats) {
        let n = self.shared.n;
        let trace = &self.shared.trace;
        let me = self.pid.get();
        let mut moved = vec![0u8; n];
        let mut stats = ScanStats::default();
        loop {
            trace.emit(
                me,
                Event::RoundStart { algo: Algo::UnboundedSw, round: stats.double_collects + 1 },
            );
            let a = collect(self.pid, &self.shared.regs); // line 1
            let b = collect(self.pid, &self.shared.regs); // line 2
            stats.double_collects += 1;
            stats.reads += 2 * n as u64;
            debug_assert!(
                stats.double_collects as usize <= n + 1,
                "wait-freedom bound violated: {} double collects for n = {n}",
                stats.double_collects
            );
            if (0..n).all(|j| a[j].seq == b[j].seq) {
                // Line 3-4: nobody moved; Observation 1 makes `b` a
                // snapshot serialized between the two collects.
                trace.emit(
                    me,
                    Event::RoundEnd {
                        algo: Algo::UnboundedSw,
                        round: stats.double_collects,
                        outcome: RoundOutcome::Clean,
                    },
                );
                let values = b.into_iter().map(|r| r.value).collect::<Vec<_>>();
                return (SnapshotView::from(values), stats);
            }
            trace.emit(
                me,
                Event::RoundEnd {
                    algo: Algo::UnboundedSw,
                    round: stats.double_collects,
                    outcome: RoundOutcome::Moved,
                },
            );
            for j in 0..n {
                if a[j].seq != b[j].seq {
                    // line 6: P_j moved
                    if moved[j] == 1 {
                        // Line 7-8: P_j moved once before — its second
                        // observed update ran a whole embedded scan inside
                        // our interval; borrow its view (Observation 2).
                        stats.borrowed = true;
                        trace.emit(me, Event::BorrowDecision { lender: j, moved: 2 });
                        return (b[j].view.clone(), stats);
                    }
                    moved[j] += 1; // line 9
                }
            }
            // line 10: goto line 1
        }
    }

    /// The same loop over the handle's record cache: collects advance the
    /// cache instead of allocating fresh vectors, cloning only records
    /// whose sequence number moved (steady state on a version-keeping
    /// backend: `n` probes and zero clones per collect).
    ///
    /// Per-writer `seq` is monotone, so equal keys mean the *same write*
    /// in any window — the unbounded construction may trust keys on every
    /// pass, not just the round-internal one (see `TrackedCollect`).
    /// `changed()[j]` after the second pass equals Figure 2's
    /// `a[j].seq != b[j].seq`, so move-counting, the clean rule and the
    /// borrow rule are bitwise those of `scan_inner_full`.
    fn scan_inner_incremental(&mut self) -> (SnapshotView<V>, ScanStats) {
        let shared = self.shared;
        let n = shared.n;
        let me = self.pid.get();
        let same = |a: &UnbRecord<V>, b: &UnbRecord<V>| a.seq == b.seq;
        self.moved.fill(0);
        let mut stats = ScanStats::default();
        loop {
            shared.trace.emit(
                me,
                Event::RoundStart { algo: Algo::UnboundedSw, round: stats.double_collects + 1 },
            );
            let _ = self.cache.advance(self.pid, &shared.regs, true, same); // line 1
            let pass_b = self.cache.advance(self.pid, &shared.regs, true, same); // line 2
            stats.double_collects += 1;
            // Stats keep the paper's cost model (a collect touches all n
            // registers); version-probe savings are physical, not logical.
            stats.reads += 2 * n as u64;
            debug_assert!(
                stats.double_collects as usize <= n + 1,
                "wait-freedom bound violated: {} double collects for n = {n}",
                stats.double_collects
            );
            if pass_b.clean() {
                trace_round_end(&shared.trace, me, stats.double_collects, RoundOutcome::Clean);
                let values: Arc<[V]> =
                    self.cache.records().iter().map(|r| r.value.clone()).collect();
                return (SnapshotView::from(values), stats);
            }
            trace_round_end(&shared.trace, me, stats.double_collects, RoundOutcome::Moved);
            for (j, strikes) in self.moved.iter_mut().enumerate() {
                if self.cache.changed()[j] {
                    if *strikes == 1 {
                        stats.borrowed = true;
                        shared.trace.emit(me, Event::BorrowDecision { lender: j, moved: 2 });
                        return (self.cache.records()[j].view.clone(), stats);
                    }
                    *strikes += 1;
                }
            }
        }
    }
}

fn trace_round_end(trace: &Trace, me: usize, round: u32, outcome: RoundOutcome) {
    trace.emit(me, Event::RoundEnd { algo: Algo::UnboundedSw, round, outcome });
}

impl<V: RegisterValue, B: Backend> SwSnapshotHandle<V> for UnboundedHandle<'_, V, B> {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    /// `procedure update_i(value)` of Figure 2: embedded scan, then one
    /// atomic write of `(value, seq + 1, view)`.
    fn update_with_stats(&mut self, value: V) -> ScanStats {
        let trace = &self.shared.trace;
        let me = self.pid.get();
        trace.emit(me, Event::UpdateBegin { algo: Algo::UnboundedSw });
        let (view, mut stats) = self.scan_inner(); // line 1: embedded scan
        self.seq += 1;
        self.shared.regs[self.pid.get()].write(
            self.pid,
            UnbRecord {
                value,
                seq: self.seq,
                view,
            },
        ); // line 2
        stats.writes += 1;
        trace.emit(
            me,
            Event::UpdateEnd { algo: Algo::UnboundedSw, double_collects: stats.double_collects },
        );
        stats
    }

    fn scan_with_stats(&mut self) -> (SnapshotView<V>, ScanStats) {
        let trace = &self.shared.trace;
        let me = self.pid.get();
        trace.emit(me, Event::ScanBegin { algo: Algo::UnboundedSw });
        let (view, stats) = self.scan_inner();
        trace.emit(
            me,
            Event::ScanEnd {
                algo: Algo::UnboundedSw,
                double_collects: stats.double_collects,
                borrowed: stats.borrowed,
            },
        );
        (view, stats)
    }
}

impl<V: RegisterValue, B: Backend> Drop for UnboundedHandle<'_, V, B> {
    fn drop(&mut self) {
        self.shared.registry.release(self.pid);
    }
}

impl<V: RegisterValue, B: Backend> fmt::Debug for UnboundedHandle<'_, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnboundedHandle")
            .field("pid", &self.pid)
            .field("seq", &self.seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_scan_returns_init_everywhere() {
        let snap = UnboundedSnapshot::new(3, 7u32);
        let mut h = snap.handle(ProcessId::new(0));
        assert_eq!(h.scan().to_vec(), vec![7, 7, 7]);
    }

    #[test]
    fn updates_are_visible_to_subsequent_scans() {
        let snap = UnboundedSnapshot::new(2, 0u32);
        let mut h0 = snap.handle(ProcessId::new(0));
        let mut h1 = snap.handle(ProcessId::new(1));
        h0.update(10);
        h1.update(20);
        assert_eq!(h0.scan().to_vec(), vec![10, 20]);
        h0.update(11);
        assert_eq!(h1.scan().to_vec(), vec![11, 20]);
    }

    #[test]
    fn quiescent_scan_needs_exactly_one_double_collect() {
        let snap = UnboundedSnapshot::new(4, 0u8);
        let mut h = snap.handle(ProcessId::new(2));
        let (_, stats) = h.scan_with_stats();
        assert_eq!(
            stats,
            ScanStats {
                double_collects: 1,
                borrowed: false,
                reads: 8, // two collects over four registers
                writes: 0
            }
        );
    }

    #[test]
    fn handles_are_exclusive_until_dropped() {
        let snap = UnboundedSnapshot::new(1, 0u8);
        let h = snap.handle(ProcessId::new(0));
        drop(h);
        let _h2 = snap.handle(ProcessId::new(0));
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_handle_panics() {
        let snap = UnboundedSnapshot::new(1, 0u8);
        let _a = snap.handle(ProcessId::new(0));
        let _b = snap.handle(ProcessId::new(0));
    }

    #[test]
    fn update_reports_its_embedded_scan_stats() {
        let snap = UnboundedSnapshot::new(3, 0u32);
        let mut h = snap.handle(ProcessId::new(0));
        let stats = h.update_with_stats(5);
        // Quiescent: the embedded scan succeeds on its first double collect
        // and never borrows.
        assert_eq!(stats.double_collects, 1);
        assert!(!stats.borrowed);
    }

    #[test]
    fn own_segment_reflects_own_last_update() {
        let snap = UnboundedSnapshot::new(2, 0i64);
        let mut h = snap.handle(ProcessId::new(1));
        for k in 1..=10 {
            h.update(k);
            assert_eq!(h.scan()[1], k);
        }
    }

    #[test]
    fn incremental_and_full_paths_agree_operation_for_operation() {
        // Kill-switch equivalence: the same operation sequence, one object
        // per mode, identical scan results and identical ScanStats.
        let inc = UnboundedSnapshot::new(3, 0u32).with_incremental(true);
        let full = UnboundedSnapshot::new(3, 0u32).with_incremental(false);
        let mut hi = inc.handle(ProcessId::new(0));
        let mut hf = full.handle(ProcessId::new(0));
        for k in 1..=20u32 {
            assert_eq!(hi.update_with_stats(k), hf.update_with_stats(k));
            let (vi, si) = hi.scan_with_stats();
            let (vf, sf) = hf.scan_with_stats();
            assert_eq!(vi.to_vec(), vf.to_vec());
            assert_eq!(si, sf);
        }
    }

    #[test]
    fn warm_cache_scans_report_the_same_abstract_cost() {
        // The stats keep the paper's cost model even when the incremental
        // path's version probes skip physical reads: every scan of a
        // quiescent 4-process object reports 2n = 8 reads, warm or cold.
        let snap = UnboundedSnapshot::new(4, 0u8);
        let mut h = snap.handle(ProcessId::new(2));
        for _ in 0..5 {
            let (view, stats) = h.scan_with_stats();
            assert_eq!(view.to_vec(), vec![0; 4]);
            assert_eq!(stats.double_collects, 1);
            assert_eq!(stats.reads, 8);
        }
    }

    #[test]
    fn borrowed_view_is_the_lender_allocation_not_a_copy() {
        // Observation 2 made literal: the view a starving scanner borrows
        // is the *same allocation* the lender embedded in its register —
        // pointer identity, not structural equality. The updater body here
        // inlines Figure 2's update (embedded scan, then write) so it can
        // log the exact Arc it is about to publish, race-free, before the
        // gated write.
        use std::sync::{Mutex, PoisonError};
        use snapshot_sim::{RoundRobinPolicy, Sim, SimConfig};

        let n = 2;
        let sim = Sim::new(n);
        let backend = snapshot_registers::Instrumented::new(EpochBackend::new())
            .with_gate(sim.gate());
        let object = UnboundedSnapshot::with_backend(n, 0u64, &backend);
        let published: Mutex<Vec<SnapshotView<u64>>> = Mutex::new(Vec::new());
        let borrowed: Mutex<Option<SnapshotView<u64>>> = Mutex::new(None);

        let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        {
            let object = &object;
            let published = &published;
            bodies.push(Box::new(move || {
                let p0 = ProcessId::new(0);
                let mut h = object.handle(p0);
                for k in 1..=400u64 {
                    let (view, _) = h.scan_with_stats(); // update line 1
                    published
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(view.clone()); // log the Arc itself
                    object.regs[0].write(p0, UnbRecord { value: k, seq: k, view }); // line 2
                }
            }));
        }
        {
            let object = &object;
            let borrowed = &borrowed;
            bodies.push(Box::new(move || {
                let mut h = object.handle(ProcessId::new(1));
                for _ in 0..20 {
                    let (view, stats) = h.scan_with_stats();
                    if stats.borrowed {
                        *borrowed.lock().unwrap_or_else(PoisonError::into_inner) = Some(view);
                        break;
                    }
                }
            }));
        }
        sim.run(
            &mut RoundRobinPolicy::new(),
            SimConfig {
                max_steps: Some(2_000_000),
                stop_when_done: vec![ProcessId::new(1)],
                record_trace: false,
            },
            bodies,
        )
        .expect("simulation failed");

        let view = borrowed
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("round-robin starves the scanner into borrowing");
        let log = published
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(
            log.iter().any(|v| std::ptr::eq(v.as_slice().as_ptr(), view.as_slice().as_ptr())),
            "borrowed view must alias one of the {} published allocations",
            log.len()
        );
    }

    #[test]
    fn threaded_smoke_all_scans_are_plausible() {
        let snap = UnboundedSnapshot::new(4, 0u64);
        std::thread::scope(|s| {
            for i in 0..4usize {
                let snap = &snap;
                s.spawn(move || {
                    let mut h = snap.handle(ProcessId::new(i));
                    let mut last_seen = [0u64; 4];
                    for k in 1..=200u64 {
                        h.update(k * 4 + i as u64);
                        let view = h.scan();
                        // Segments never go backwards (values encode a
                        // per-process counter).
                        for (j, &v) in view.iter().enumerate() {
                            assert!(v >= last_seen[j], "segment {j} went backwards");
                            last_seen[j] = v;
                        }
                        assert_eq!(view[i], k * 4 + i as u64);
                    }
                });
            }
        });
    }
}
