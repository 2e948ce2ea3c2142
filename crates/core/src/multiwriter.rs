use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use snapshot_obs::{Algo, Event, RoundOutcome, Trace};
use snapshot_registers::{
    collect, subset_collect, Backend, CachePadded, EpochBackend, PaddedBitRows, PaddedCells,
    ProcessId, Register, RegisterValue, SubsetOutcome, TrackedCollect, Version,
};

use crate::api::HandleRegistry;
use crate::{CoreError, MwSnapshot, MwSnapshotHandle, RequestCtx, ScanStats, SnapshotView};

/// Sentinel for "no process": the `id` of the initial register contents.
const NO_WRITER: usize = usize::MAX;

/// Contents of value register `r_k` in Figure 4: `(value, id, toggle)`.
///
/// Unlike the single-writer algorithms, the handshake bits and views are
/// **not** written atomically with the value — they live in separate
/// single-writer registers — which is why a scanner must see a process
/// move *three* times before borrowing its view.
#[derive(Clone)]
struct MwRecord<V> {
    value: V,
    id: usize,
    toggle: bool,
}

/// Which retry edge the scan loop takes — the one place where the
/// technical-memo pseudocode of Figure 4 is ambiguous.
///
/// The scanned text of Figure 4 says `goto line 1` (retry the collects
/// *without* refreshing the handshake bits), while the bounded
/// single-writer algorithm of Figure 3 retries from its handshake step.
/// Re-reading the proof of Lemma 5.2 shows the handshake must be
/// refreshed: with `goto line 1` a **single** handshake flip by a stalled
/// updater is blamed on every subsequent iteration, three blames accrue
/// from one incomplete update, and the scanner borrows a view that may
/// predate its own interval — a genuine linearizability violation, which
/// the model-checking experiment `E5b` reproduces mechanically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MwVariant {
    /// Retry from the handshake step (the reading consistent with
    /// Lemma 5.2; default).
    #[default]
    RescanHandshake,
    /// Retry from the first collect, exactly as the scanned pseudocode
    /// reads. **Incorrect** — kept for the reproduction's ablation
    /// experiment, where the linearizability checker catches it.
    LiteralGoto1,
}

/// The **bounded multi-writer** snapshot of Section 5 (Figure 4): `n`
/// processes, `m` memory words, any process may update any word.
///
/// Value registers are `n`-writer, `n`-reader atomic registers carrying
/// `(value, id, toggle)`; handshake bits `p_{i,j}`/`q_{i,j}` and the
/// borrowed-view registers `view_i` are single-writer. Because an update
/// writes its handshake bits, its view and the value register in three
/// *separate* atomic writes, one update can be observed changing state
/// twice; a scanner therefore borrows a view only from a process seen
/// moving **three** times. By pigeonhole a scan completes within `2n + 1`
/// double collects: wait-free, `O(n²)` register operations per operation.
///
/// The multi-writer registers may themselves be implemented from
/// single-writer ones ([`CompoundBackend`]), which yields the compound
/// `O(n³)` single-writer cost of Section 6.
///
/// [`CompoundBackend`]: snapshot_registers::CompoundBackend
///
/// # Example
///
/// ```
/// use snapshot_core::{MultiWriterSnapshot, MwSnapshot, MwSnapshotHandle};
/// use snapshot_registers::ProcessId;
///
/// // 2 processes sharing 3 words.
/// let snap = MultiWriterSnapshot::new(2, 3, 0u32);
/// let mut h0 = snap.handle(ProcessId::new(0));
/// h0.update(2, 77); // any process may write any word
/// assert_eq!(h0.scan().to_vec(), vec![0, 0, 77]);
/// ```
pub struct MultiWriterSnapshot<V: RegisterValue, B: Backend = EpochBackend, BM: Backend = B> {
    /// The `m` multi-writer value registers `r_k` (padded: dense array of
    /// independently-hammered words).
    vals: PaddedCells<BM, MwRecord<V>>,
    /// `view_i`: single-writer registers holding each process's last
    /// embedded-scan result (padded: one per process).
    views: PaddedCells<B, SnapshotView<V>>,
    /// `p[i][j]`: written by updates of `P_i`, read by scans of `P_j`.
    /// Rows padded — row `i` has a single writer.
    p: PaddedBitRows<B>,
    /// `q[i][j]`: written by scans of `P_i`, read by updates of `P_j`.
    q: PaddedBitRows<B>,
    /// Per-process saved toggle arrays `t_k`, persisted across handle
    /// claims: every write by the same process to the same word must flip
    /// the toggle, even across a drop/re-claim of the handle.
    saved_toggles: Box<[CachePadded<Mutex<Vec<bool>>>]>,
    registry: HandleRegistry,
    variant: MwVariant,
    n: usize,
    m: usize,
    trace: Trace,
    incremental: bool,
}

impl<V: RegisterValue> MultiWriterSnapshot<V, EpochBackend, EpochBackend> {
    /// Creates the object for `n` processes over `m` words on the default
    /// lock-free register backend, every word holding `init`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `m` is zero.
    pub fn new(n: usize, m: usize, init: V) -> Self {
        let backend = EpochBackend::new();
        Self::with_options(n, m, init, &backend, &backend, MwVariant::default())
    }
}

impl<V: RegisterValue, B: Backend> MultiWriterSnapshot<V, B, B> {
    /// Creates the object with one backend for both the single-writer and
    /// multi-writer registers.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `m` is zero.
    pub fn with_backend(n: usize, m: usize, init: V, backend: &B) -> Self {
        Self::with_options(n, m, init, backend, backend, MwVariant::default())
    }
}

impl<V: RegisterValue, B: Backend, BM: Backend> MultiWriterSnapshot<V, B, BM> {
    /// Full-control constructor: separate backends for the single-writer
    /// parts (handshake bits, views) and the multi-writer value registers,
    /// plus the scan-retry [`MwVariant`].
    ///
    /// Passing a [`CompoundBackend`] as `mwmr` yields the paper's Section 6
    /// compound construction.
    ///
    /// [`CompoundBackend`]: snapshot_registers::CompoundBackend
    ///
    /// # Panics
    ///
    /// Panics if `n` or `m` is zero.
    pub fn with_options(
        n: usize,
        m: usize,
        init: V,
        swmr: &B,
        mwmr: &BM,
        variant: MwVariant,
    ) -> Self {
        assert!(n > 0, "a snapshot object needs at least one process");
        assert!(m > 0, "a multi-writer snapshot needs at least one word");
        let initial_view = SnapshotView::from(vec![init.clone(); m]);
        MultiWriterSnapshot {
            vals: (0..m)
                .map(|_| {
                    CachePadded::new(mwmr.cell(MwRecord {
                        value: init.clone(),
                        id: NO_WRITER,
                        toggle: false,
                    }))
                })
                .collect(),
            views: (0..n)
                .map(|_| CachePadded::new(swmr.cell(initial_view.clone())))
                .collect(),
            p: (0..n)
                .map(|_| CachePadded::new((0..n).map(|_| swmr.bit(false)).collect()))
                .collect(),
            q: (0..n)
                .map(|_| CachePadded::new((0..n).map(|_| swmr.bit(false)).collect()))
                .collect(),
            saved_toggles: (0..n)
                .map(|_| CachePadded::new(Mutex::new(vec![false; m])))
                .collect(),
            registry: HandleRegistry::new(n),
            variant,
            n,
            m,
            trace: Trace::disabled(),
            incremental: true,
        }
    }

    /// Enables or disables the incremental collect path (default: on).
    ///
    /// Same Figure 4 algorithm, same three-strike blame accounting; the
    /// incremental path caches value records across collects (see
    /// [`TrackedCollect`]), trusting `(id, toggle)` keys only within a
    /// double collect (Lemma 5.1's window) and version probes everywhere.
    #[must_use]
    pub fn with_incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Routes this object's typed events (scan/update spans, double-collect
    /// rounds, handshake and toggle transitions, borrow decisions) into
    /// `trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The scan-retry variant this object was built with.
    pub fn variant(&self) -> MwVariant {
        self.variant
    }

    /// `pid`'s saved toggles. A poisoned lock yields its guard: the array
    /// is replaced whole, so a handle dropped by a panicking body (the
    /// simulator runs those on purpose) left a consistent one.
    fn saved_toggles(&self, pid: ProcessId) -> MutexGuard<'_, Vec<bool>> {
        self.saved_toggles[pid.get()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<V: RegisterValue, B: Backend, BM: Backend> MwSnapshot<V> for MultiWriterSnapshot<V, B, BM> {
    type Handle<'a>
        = MultiWriterHandle<'a, V, B, BM>
    where
        Self: 'a;

    fn processes(&self) -> usize {
        self.n
    }

    fn words(&self) -> usize {
        self.m
    }

    fn handle(&self, pid: ProcessId) -> MultiWriterHandle<'_, V, B, BM> {
        self.registry.claim(pid);
        let toggles = self.saved_toggles(pid).clone();
        MultiWriterHandle {
            shared: self,
            pid,
            toggles,
            cache: TrackedCollect::new(),
            moved: vec![0; self.n],
            q_local: vec![false; self.n],
            h: vec![false; self.n],
            versions: Vec::new(),
        }
    }
}

impl<V: RegisterValue, B: Backend, BM: Backend> fmt::Debug for MultiWriterSnapshot<V, B, BM> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiWriterSnapshot")
            .field("processes", &self.n)
            .field("words", &self.m)
            .field("variant", &self.variant)
            .finish()
    }
}

impl<V: RegisterValue, B: Backend, BM: Backend> crate::TrySnapshotCore<V>
    for MultiWriterSnapshot<V, B, BM>
{
    type Lane<'a>
        = MultiWriterHandle<'a, V, B, BM>
    where
        Self: 'a;

    fn segments(&self) -> usize {
        self.m
    }

    fn lanes(&self) -> usize {
        self.n
    }

    fn single_writer(&self) -> bool {
        false
    }

    fn lane(&self, pid: ProcessId) -> MultiWriterHandle<'_, V, B, BM> {
        self.handle(pid)
    }

    fn try_scan(
        &self,
        lane: &mut MultiWriterHandle<'_, V, B, BM>,
        _ctx: RequestCtx,
    ) -> Result<(SnapshotView<V>, ScanStats), CoreError> {
        Ok(lane.scan_with_stats())
    }

    fn try_update(
        &self,
        lane: &mut MultiWriterHandle<'_, V, B, BM>,
        segment: usize,
        value: V,
        _ctx: RequestCtx,
    ) -> Result<ScanStats, CoreError> {
        Ok(lane.update_with_stats(segment, value))
    }

    /// Version-filtered subset collect over the requested value words.
    ///
    /// Figure 4's update linearizes at its single `vals[word]` write (the
    /// handshake/view writes around it are helping metadata, invisible to
    /// readers of the word), so a window over which a word's register
    /// provably took no write is a window over which the *segment* did
    /// not change. [`subset_collect`] builds exactly that proof from
    /// [`Register::version_hint`] probes: when a probe pass matches the
    /// previous pass everywhere, the previous pass's records were all
    /// current at the instant between the two passes — an instantaneous
    /// picture of the subset at `O(k)` cost.
    ///
    /// Unlike the single-writer constructions there is no helping
    /// discipline to finish against sustained subset writes (a view
    /// borrow needs the full three-blame protocol over all words), so
    /// this path is **bounded, not wait-free**: after a few contended
    /// rounds it returns `Ok(None)` and the caller falls back to the
    /// projected full scan, whose termination Lemma 5.2 proves. Hintless
    /// backends (mutex cells, gated simulation) also return `Ok(None)`.
    fn try_scan_subset(
        &self,
        lane: &mut MultiWriterHandle<'_, V, B, BM>,
        segments: &[usize],
        _ctx: RequestCtx,
    ) -> Result<Option<(Vec<V>, ScanStats)>, CoreError> {
        debug_assert!(!segments.is_empty(), "canonical subsets are non-empty");
        debug_assert!(segments.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        debug_assert!(segments.iter().all(|&s| s < self.m), "segment out of range");
        // Interference budget: enough rounds to ride out a burst, small
        // enough that the fallback's O(n·m) bound still dominates cost.
        const MAX_ROUNDS: u32 = 4;
        let value = |r: &MwRecord<V>| r.value.clone();
        let outcome =
            subset_collect(lane.pid, &self.vals, segments, MAX_ROUNDS, &mut lane.versions, value);
        Ok(match outcome {
            SubsetOutcome::Clean { records, rounds, reads } => Some((
                records,
                ScanStats { double_collects: rounds, borrowed: false, reads, writes: 0 },
            )),
            SubsetOutcome::Unsupported | SubsetOutcome::Contended { .. } => None,
        })
    }
}

/// Process-local state for [`MultiWriterSnapshot`]: the per-word toggle
/// bits `t_k` of Figure 4 (saved between updates), and what the scans
/// keep between operations — the value-record cache and the per-partner
/// buffers — so that a warm scan allocates only the view it returns.
///
/// It is also the object's [`TrySnapshotCore`](crate::TrySnapshotCore)
/// lane.
pub struct MultiWriterHandle<'a, V: RegisterValue, B: Backend, BM: Backend> {
    shared: &'a MultiWriterSnapshot<V, B, BM>,
    pid: ProcessId,
    toggles: Vec<bool>,
    /// Scanner-local value-record cache for the incremental collect path.
    cache: TrackedCollect<MwRecord<V>>,
    /// Figure 4's `moved[j]`, reset at the start of every scan.
    moved: Vec<u8>,
    /// The last value this scan wrote to each `q_{i,j}`.
    q_local: Vec<bool>,
    /// Line 2.5's collect of `p_{j,i}`.
    h: Vec<bool>,
    /// A subset scan's version probes, one per requested word.
    versions: Vec<Version>,
}

impl<V: RegisterValue, B: Backend, BM: Backend> MultiWriterHandle<'_, V, B, BM> {
    /// `procedure scan_i` of Figure 4.
    fn scan_inner(&mut self) -> (SnapshotView<V>, ScanStats) {
        if self.shared.incremental {
            self.scan_inner_incremental()
        } else {
            self.scan_inner_full()
        }
    }

    /// The literal Figure 4 loop: two fresh full collects per round.
    fn scan_inner_full(&self) -> (SnapshotView<V>, ScanStats) {
        let shared = self.shared;
        let (n, m) = (shared.n, shared.m);
        let i = self.pid.get();
        let trace = &shared.trace;
        let mut moved = vec![0u8; n];
        let mut stats = ScanStats::default();
        let mut q_local = vec![false; n];

        let handshake = |q_local: &mut [bool], stats: &mut ScanStats| {
            // Line 0.5: q_{i,j} := p_{j,i}.
            for (j, q) in q_local.iter_mut().enumerate() {
                *q = shared.p[j][i].read(self.pid);
                shared.q[i][j].write(self.pid, *q);
                stats.reads += 1;
                stats.writes += 1;
                trace.emit(i, Event::HandshakeCopy { partner: j, bit: *q });
            }
        };

        handshake(&mut q_local, &mut stats);
        loop {
            trace.emit(
                i,
                Event::RoundStart { algo: Algo::MultiWriter, round: stats.double_collects + 1 },
            );
            let a = collect(self.pid, &shared.vals); // line 1
            let b = collect(self.pid, &shared.vals); // line 2
                                                     // Line 2.5: h := collect(p_{j,i}).
            let h: Vec<bool> = (0..n).map(|j| shared.p[j][i].read(self.pid)).collect();
            stats.double_collects += 1;
            stats.reads += 2 * m as u64 + n as u64;
            debug_assert!(
                stats.double_collects as usize <= 2 * n + 1,
                "wait-freedom bound violated: {} double collects for n = {n}",
                stats.double_collects
            );
            // Line 3: nobody moved.
            let handshakes_clean = (0..n).all(|j| q_local[j] == h[j]);
            let values_clean = (0..m).all(|k| a[k].id == b[k].id && a[k].toggle == b[k].toggle);
            if handshakes_clean && values_clean {
                trace.emit(
                    i,
                    Event::RoundEnd {
                        algo: Algo::MultiWriter,
                        round: stats.double_collects,
                        outcome: RoundOutcome::Clean,
                    },
                );
                let values = b.into_iter().map(|r| r.value).collect::<Vec<_>>();
                return (SnapshotView::from(values), stats); // line 4
            }
            trace.emit(
                i,
                Event::RoundEnd {
                    algo: Algo::MultiWriter,
                    round: stats.double_collects,
                    outcome: RoundOutcome::Moved,
                },
            );
            for j in 0..n {
                // Line 6: P_j moved — its handshake bit toward us flipped,
                // or a word it last wrote changed under our double collect.
                let hs_moved = q_local[j] != h[j];
                let val_moved = (0..m)
                    .any(|k| b[k].id == j && (a[k].id != b[k].id || a[k].toggle != b[k].toggle));
                if hs_moved || val_moved {
                    if moved[j] == 2 {
                        // Line 7-8: moved twice before — its second
                        // complete update's embedded scan ran inside our
                        // interval; borrow its published view.
                        stats.borrowed = true;
                        stats.reads += 1;
                        trace.emit(i, Event::BorrowDecision { lender: j, moved: 3 });
                        return (shared.views[j].read(self.pid), stats);
                    }
                    moved[j] += 1; // line 9
                }
            }
            // Line 10: the retry edge — see `MwVariant`.
            if shared.variant == MwVariant::RescanHandshake {
                handshake(&mut q_local, &mut stats);
            }
        }
    }

    /// Figure 4 over the handle's value-record cache.
    ///
    /// Handshake bits and the `h` collect are always read fresh — the
    /// bits *are* the movement signal and are never cached. Value-record
    /// keys `(id, toggle)` are trusted only on the second collect of a
    /// round (Lemma 5.1's window); in any wider window two completed
    /// updates can restore a word's key, so only a version probe may
    /// substitute for the read. The blame test `b[k].id == j ∧ (a[k] ≠
    /// b[k] keys)` becomes `changed_b[k] ∧ records[k].id == j`: after the
    /// second collect the cache holds exactly the `b` records (`id` is
    /// part of the key, so even a key-reused slot has `b`'s id).
    fn scan_inner_incremental(&mut self) -> (SnapshotView<V>, ScanStats) {
        let shared = self.shared;
        let (n, m) = (shared.n, shared.m);
        let i = self.pid.get();
        let pid = self.pid;
        let trace = &shared.trace;
        let same = |a: &MwRecord<V>, b: &MwRecord<V>| a.id == b.id && a.toggle == b.toggle;
        self.moved.fill(0);
        let mut stats = ScanStats::default();

        let handshake = |q_local: &mut [bool], stats: &mut ScanStats| {
            // Line 0.5: q_{i,j} := p_{j,i}.
            for (j, q) in q_local.iter_mut().enumerate() {
                *q = shared.p[j][i].read(pid);
                shared.q[i][j].write(pid, *q);
                stats.reads += 1;
                stats.writes += 1;
                trace.emit(i, Event::HandshakeCopy { partner: j, bit: *q });
            }
        };

        handshake(&mut self.q_local, &mut stats);
        loop {
            trace.emit(
                i,
                Event::RoundStart { algo: Algo::MultiWriter, round: stats.double_collects + 1 },
            );
            // Line 1 — collect a: keys untrusted outside the double collect.
            let _ = self.cache.advance(pid, &shared.vals, false, same);
            // Line 2 — collect b: key comparison is the paper's own test.
            let pass_b = self.cache.advance(pid, &shared.vals, true, same);
            // Line 2.5: h := collect(p_{j,i}).
            for (j, h) in self.h.iter_mut().enumerate() {
                *h = shared.p[j][i].read(pid);
            }
            stats.double_collects += 1;
            stats.reads += 2 * m as u64 + n as u64;
            debug_assert!(
                stats.double_collects as usize <= 2 * n + 1,
                "wait-freedom bound violated: {} double collects for n = {n}",
                stats.double_collects
            );
            let handshakes_clean = self.q_local == self.h;
            if handshakes_clean && pass_b.clean() {
                trace.emit(
                    i,
                    Event::RoundEnd {
                        algo: Algo::MultiWriter,
                        round: stats.double_collects,
                        outcome: RoundOutcome::Clean,
                    },
                );
                let values: Arc<[V]> =
                    self.cache.records().iter().map(|r| r.value.clone()).collect();
                return (SnapshotView::from(values), stats); // line 4
            }
            trace.emit(
                i,
                Event::RoundEnd {
                    algo: Algo::MultiWriter,
                    round: stats.double_collects,
                    outcome: RoundOutcome::Moved,
                },
            );
            let (records, changed_b) = (self.cache.records(), self.cache.changed());
            for j in 0..n {
                let hs_moved = self.q_local[j] != self.h[j];
                let val_moved = (0..m).any(|k| changed_b[k] && records[k].id == j);
                if hs_moved || val_moved {
                    if self.moved[j] == 2 {
                        stats.borrowed = true;
                        stats.reads += 1;
                        trace.emit(i, Event::BorrowDecision { lender: j, moved: 3 });
                        return (shared.views[j].read(pid), stats);
                    }
                    self.moved[j] += 1; // line 9
                }
            }
            // Line 10: the retry edge — see `MwVariant`.
            if shared.variant == MwVariant::RescanHandshake {
                handshake(&mut self.q_local, &mut stats);
            }
        }
    }
}

impl<V: RegisterValue, B: Backend, BM: Backend> MwSnapshotHandle<V>
    for MultiWriterHandle<'_, V, B, BM>
{
    fn pid(&self) -> ProcessId {
        self.pid
    }

    /// `procedure update_i(k, value)` of Figure 4.
    ///
    /// # Panics
    ///
    /// Panics if `word >= m`.
    fn update_with_stats(&mut self, word: usize, value: V) -> ScanStats {
        let shared = self.shared;
        assert!(
            word < shared.m,
            "word {word} out of range (object has {} words)",
            shared.m
        );
        let i = self.pid.get();
        let trace = &shared.trace;
        trace.emit(i, Event::UpdateBegin { algo: Algo::MultiWriter });
        // Line 0: p_{i,j} := ¬q_{j,i} — announce movement to every scanner.
        let mut extra = ScanStats::default();
        for j in 0..shared.n {
            let qji = shared.q[j][i].read(self.pid);
            shared.p[i][j].write(self.pid, !qji);
            extra.reads += 1;
            extra.writes += 1;
            trace.emit(i, Event::HandshakeFlip { partner: j, bit: !qji });
        }
        // Line 1: view_i := scan_i (embedded scan, published separately).
        let (view, mut stats) = self.scan_inner();
        shared.views[i].write(self.pid, view);
        // Lines 1.5-2: flip the word's local toggle, write the value
        // register.
        self.toggles[word] = !self.toggles[word];
        trace.emit(i, Event::ToggleFlip { word, toggle: self.toggles[word] });
        shared.vals[word].write(
            self.pid,
            MwRecord {
                value,
                id: i,
                toggle: self.toggles[word],
            },
        );
        stats.reads += extra.reads;
        stats.writes += extra.writes + 2; // the view and value publications
        trace.emit(
            i,
            Event::UpdateEnd { algo: Algo::MultiWriter, double_collects: stats.double_collects },
        );
        stats
    }

    fn scan_with_stats(&mut self) -> (SnapshotView<V>, ScanStats) {
        let i = self.pid.get();
        let trace = &self.shared.trace;
        trace.emit(i, Event::ScanBegin { algo: Algo::MultiWriter });
        let (view, stats) = self.scan_inner();
        trace.emit(
            i,
            Event::ScanEnd {
                algo: Algo::MultiWriter,
                double_collects: stats.double_collects,
                borrowed: stats.borrowed,
            },
        );
        (view, stats)
    }
}

impl<V: RegisterValue, B: Backend, BM: Backend> Drop for MultiWriterHandle<'_, V, B, BM> {
    fn drop(&mut self) {
        *self.shared.saved_toggles(self.pid) = std::mem::take(&mut self.toggles);
        self.shared.registry.release(self.pid);
    }
}

impl<V: RegisterValue, B: Backend, BM: Backend> fmt::Debug for MultiWriterHandle<'_, V, B, BM> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiWriterHandle")
            .field("pid", &self.pid)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_scan_returns_init_everywhere() {
        let snap = MultiWriterSnapshot::new(2, 4, 0u32);
        let mut h = snap.handle(ProcessId::new(0));
        assert_eq!(h.scan().to_vec(), vec![0; 4]);
    }

    #[test]
    fn any_process_writes_any_word() {
        let snap = MultiWriterSnapshot::new(3, 2, 0u32);
        let mut h2 = snap.handle(ProcessId::new(2));
        h2.update(0, 10);
        h2.update(1, 20);
        let mut h0 = snap.handle(ProcessId::new(0));
        h0.update(0, 11);
        assert_eq!(h0.scan().to_vec(), vec![11, 20]);
    }

    #[test]
    fn same_word_alternating_writers() {
        let snap = MultiWriterSnapshot::new(2, 1, 0u8);
        let mut h0 = snap.handle(ProcessId::new(0));
        let mut h1 = snap.handle(ProcessId::new(1));
        for k in 0..6 {
            if k % 2 == 0 {
                h0.update(0, k);
            } else {
                h1.update(0, k);
            }
            assert_eq!(h0.scan().to_vec(), vec![k]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_word_panics() {
        let snap = MultiWriterSnapshot::new(1, 1, 0u8);
        let mut h = snap.handle(ProcessId::new(0));
        h.update(1, 9);
    }

    #[test]
    fn quiescent_scan_needs_exactly_one_double_collect() {
        let snap = MultiWriterSnapshot::new(3, 5, 0u8);
        let mut h = snap.handle(ProcessId::new(1));
        let (_, stats) = h.scan_with_stats();
        assert_eq!(stats.double_collects, 1);
        assert!(!stats.borrowed);
    }

    #[test]
    fn variant_is_recorded() {
        let backend = EpochBackend::new();
        let snap: MultiWriterSnapshot<u8, _, _> =
            MultiWriterSnapshot::with_options(1, 1, 0, &backend, &backend, MwVariant::LiteralGoto1);
        assert_eq!(snap.variant(), MwVariant::LiteralGoto1);
    }

    #[test]
    fn incremental_and_full_paths_agree_operation_for_operation() {
        let backend = EpochBackend::new();
        let inc = MultiWriterSnapshot::with_backend(2, 3, 0u32, &backend).with_incremental(true);
        let full = MultiWriterSnapshot::with_backend(2, 3, 0u32, &backend).with_incremental(false);
        let mut hi = inc.handle(ProcessId::new(0));
        let mut hf = full.handle(ProcessId::new(0));
        for k in 1..=20u32 {
            let word = (k as usize) % 3;
            assert_eq!(hi.update_with_stats(word, k), hf.update_with_stats(word, k));
            let (vi, si) = hi.scan_with_stats();
            let (vf, sf) = hf.scan_with_stats();
            assert_eq!(vi.to_vec(), vf.to_vec());
            assert_eq!(si, sf);
        }
    }

    #[test]
    fn borrowed_view_is_the_lender_published_allocation() {
        // The multi-writer S3 check: the view a three-strike borrow
        // returns is the very allocation the lender published to its
        // `view_i` register — an Arc alias, not a structural copy. The
        // updater body inlines Figure 4's update so it can log the exact
        // Arc before the gated publication write.
        use snapshot_sim::{Decision, FnPolicy, ReadyProcess, Sim, SimConfig};

        let (n, m) = (2usize, 2usize);
        let sim = Sim::new(n);
        let backend = snapshot_registers::Instrumented::new(EpochBackend::new())
            .with_gate(sim.gate());
        let object = MultiWriterSnapshot::with_backend(n, m, 0u64, &backend);
        let published: Mutex<Vec<SnapshotView<u64>>> = Mutex::new(Vec::new());
        let borrowed: Mutex<Option<SnapshotView<u64>>> = Mutex::new(None);

        let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        {
            let object = &object;
            let published = &published;
            bodies.push(Box::new(move || {
                let p0 = ProcessId::new(0);
                let mut h = object.handle(p0);
                let mut toggle = false;
                for k in 1..=1000u64 {
                    // Line 0: p_{0,j} := ¬q_{j,0}.
                    for j in 0..n {
                        let qj0 = object.q[j][0].read(p0);
                        object.p[0][j].write(p0, !qj0);
                    }
                    let (view, _) = h.scan_with_stats(); // line 1: embedded scan
                    published
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(view.clone()); // log the Arc itself
                    object.views[0].write(p0, view);
                    toggle = !toggle;
                    object.vals[0].write(p0, MwRecord { value: k, id: 0, toggle }); // line 2
                }
            }));
        }
        {
            let object = &object;
            let borrowed = &borrowed;
            bodies.push(Box::new(move || {
                let mut h = object.handle(ProcessId::new(1));
                for _ in 0..50 {
                    let (view, stats) = h.scan_with_stats();
                    if stats.borrowed {
                        *borrowed.lock().unwrap_or_else(PoisonError::into_inner) = Some(view);
                        break;
                    }
                }
            }));
        }
        // One whole update (16 gated steps at n = m = 2) per scanner step:
        // every double collect of the scanner straddles several complete
        // updates, so the updater moves in each round and the third
        // strike borrows. (1:1 round-robin does not starve it: that
        // schedule is periodic, and every scan comes up clean in its
        // second or third round, two strikes at most.)
        let mut starve_scanner = FnPolicy(|ready: &[ReadyProcess], step| {
            let turn = if step % 17 == 16 { 1 } else { 0 };
            Decision::Run(ready.iter().position(|r| r.pid.get() == turn).unwrap_or(0))
        });
        sim.run(
            &mut starve_scanner,
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
            .expect("sixteen updater steps per scanner step starve the scanner into borrowing");
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
    fn threaded_smoke_words_monotone_per_writer() {
        // Each word is written by a dedicated process with increasing
        // values, so scanned words must be monotone.
        let snap = MultiWriterSnapshot::new(4, 4, 0u64);
        std::thread::scope(|s| {
            for i in 0..4usize {
                let snap = &snap;
                s.spawn(move || {
                    let mut h = snap.handle(ProcessId::new(i));
                    let mut last_seen = [0u64; 4];
                    for k in 1..=120u64 {
                        h.update(i, k);
                        let view = h.scan();
                        for (w, &v) in view.iter().enumerate() {
                            assert!(v >= last_seen[w], "word {w} went backwards");
                            last_seen[w] = v;
                        }
                        assert_eq!(view[i], k);
                    }
                });
            }
        });
    }
}
