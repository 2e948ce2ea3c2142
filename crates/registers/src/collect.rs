use crate::{ProcessId, Register, Version};

/// Reads every register in `regs`, in index order, on behalf of `reader`.
///
/// This is the paper's `collect` operation: a *non-atomic* read of the
/// whole register array, the building block of the double-collect scans in
/// Figures 2–4. A single collect gives no consistency guarantee — the whole
/// point of the snapshot constructions is to turn pairs of collects into an
/// atomic scan.
///
/// # Example
///
/// ```
/// use snapshot_registers::{collect, Backend, EpochBackend, ProcessId, Register};
///
/// let backend = EpochBackend::default();
/// let regs: Vec<_> = (0..3u32).map(|i| backend.cell(i)).collect();
/// regs[1].write(ProcessId::new(1), 10);
/// assert_eq!(collect(ProcessId::new(0), &regs), vec![0, 10, 2]);
/// ```
pub fn collect<T, R: Register<T>>(reader: ProcessId, regs: &[R]) -> Vec<T> {
    regs.iter().map(|r| r.read(reader)).collect()
}

/// How [`TrackedCollect`] resolved one register slot during a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// The register's [`Register::version_hint`] matched the one recorded
    /// with the cached record, so no write took effect since the record
    /// was read — the cache is current and the register was not touched.
    ReusedByVersion,
    /// The register was read in place ([`Register::read_with`]) and the
    /// caller's key comparison said the stored record is the *same write*
    /// as the cached one, so the clone was skipped. The stored version is
    /// *not* refreshed: a key match does not carry the version contract's
    /// guarantee, so the slot will be re-validated by reading on the next
    /// pass (see the soundness discussion on [`TrackedCollect`]).
    ReusedByKey,
    /// The register was read and its record cloned into the cache.
    Cloned {
        /// Whether the caller's key comparison saw a *different* write
        /// than the cached record (always `true` on the priming pass).
        changed: bool,
    },
}

/// Summary of one full [`TrackedCollect::advance`] pass over the array.
/// Which slots changed stays in the collect ([`TrackedCollect::changed`]),
/// so a pass allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSummary {
    /// How many slots observed a different write than the cache held
    /// before the pass.
    pub changed: usize,
    /// How many slots were actually cloned (the `k` in the "n probes +
    /// k clones" steady-state cost).
    pub cloned: usize,
}

impl PassSummary {
    /// `true` when no slot changed — the collect equals the previous one.
    pub fn clean(&self) -> bool {
        self.changed == 0
    }
}

/// An incremental collect: a cached copy of the register array that
/// re-reads (and re-clones) only the registers that moved.
///
/// The classical double collect clones all `n` composite records twice
/// per round even when nothing changed. `TrackedCollect` keeps the last
/// record seen per register together with the [`Register::version_hint`]
/// observed *just before* that record was read. A later pass first probes
/// the version: if it is unchanged, **no write took effect in between**
/// (see the `version_hint` contract), so the cached record is still the
/// register's current content and the slot costs a version probe — no
/// read, no clone. In the steady state a pass is `n` version probes plus
/// `k` clones, where `k` is the number of registers that actually moved.
/// Because the proof holds in any window, the cache stays sound across
/// scans: a scanner that keeps its `TrackedCollect` between operations
/// returns nothing older than what any read that finished before its
/// probe returned.
///
/// When the version differs (or the register keeps no versions), the slot
/// is read in place via [`Register::read_with`] and the caller's `same`
/// closure compares algorithm-level keys — `seq` for the unbounded
/// construction, `(p[i], toggle)` for the bounded one, `(id, toggle)` for
/// the multi-writer one. The comparison decides the `changed` bit that
/// drives the algorithms' move-counting, exactly as comparing two full
/// collects did.
///
/// # Key reuse vs. version reuse — soundness (`trust_keys`)
///
/// The two reuse paths have *different* soundness windows, and the
/// `trust_keys` flag exists to keep them apart:
///
/// * A **version** match proves no write took effect between the two
///   observations, full stop. It is sound in *any* window — across
///   rounds, across scans, across handshakes.
/// * A **key** match only proves the keys are equal. For the bounded
///   algorithms a key can recur: two completed updates can restore
///   `(p[i], toggle)` (an ABA), so outside a double collect a key match
///   may equate two different writes, and reusing the cached record there
///   could hand the scanner a stale value for one register combined with
///   fresher values for others — a cut the original algorithm can never
///   output. *Within* one scan's pass-`b`, however, the key comparison is
///   exactly the paper's own `moved` predicate (Lemma 4.1 / 5.1 exclude
///   the ABA there), so skipping the clone is safe. Callers therefore
///   pass `trust_keys = true` only on the second collect of a double
///   collect — except the unbounded construction, whose per-writer `seq`
///   is monotone (key-equal implies same write in every window), so it
///   may trust keys everywhere.
///
/// With `trust_keys = false` a key match still yields `changed = false`
/// (the move-counting semantics) but the record is re-cloned, so the
/// cache always holds what was actually read in that pass.
///
/// Because a key match proves less than a version match, a key-reuse
/// never *upgrades* into version-level trust: the slot keeps the version
/// recorded when its cached record was actually read, not the one probed
/// in the reusing pass. (The probed version certifies the register's
/// current record, which under a key ABA may differ from the cached one;
/// storing it would let every later pass `ReusedByVersion` a stale
/// record forever.) The cost is one extra in-place read the next time
/// the slot is visited; the cache self-corrects on the next untrusted
/// pass.
///
/// # Example
///
/// ```
/// use snapshot_registers::{Backend, EpochBackend, ProcessId, Register, TrackedCollect};
///
/// let backend = EpochBackend::default();
/// let regs: Vec<_> = (0..4u64).map(|i| backend.cell(i)).collect();
/// let p = ProcessId::new(0);
/// let mut tc = TrackedCollect::new();
/// let same = |a: &u64, b: &u64| a == b;
///
/// tc.advance(p, &regs, false, same); // priming pass: clones everything
/// let pass = tc.advance(p, &regs, false, same);
/// assert!(pass.clean());
/// assert_eq!(pass.cloned, 0); // steady state: version probes only
///
/// regs[2].write(ProcessId::new(2), 99);
/// let pass = tc.advance(p, &regs, false, same);
/// assert_eq!(pass.changed, 1);
/// assert_eq!(tc.changed(), &[false, false, true, false]);
/// assert_eq!(tc.records()[2], 99);
/// ```
#[derive(Debug, Clone)]
pub struct TrackedCollect<T> {
    records: Vec<T>,
    versions: Vec<Option<Version>>,
    /// Per slot: whether its last advance saw a different write.
    changed: Vec<bool>,
}

impl<T: Clone> Default for TrackedCollect<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> TrackedCollect<T> {
    /// Creates an empty, unprimed cache.
    pub fn new() -> Self {
        TrackedCollect {
            records: Vec::new(),
            versions: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// `true` once a priming pass has filled the cache.
    pub fn is_primed(&self) -> bool {
        !self.records.is_empty()
    }

    /// The cached records, one per register, in index order.
    pub fn records(&self) -> &[T] {
        &self.records
    }

    /// Per slot, in index order: whether the slot's last advance
    /// observed a different write than the cache held before it — after
    /// [`advance`](Self::advance), that pass's mask. Always `true` on the
    /// priming pass.
    pub fn changed(&self) -> &[bool] {
        &self.changed
    }

    /// Drops the cache; the next pass will prime from scratch.
    pub fn invalidate(&mut self) {
        self.records.clear();
        self.versions.clear();
        self.changed.clear();
    }

    /// Advances the cache for register `j` alone.
    ///
    /// This exists so the bounded scan's handshake loop can interleave the
    /// cache refresh of `r_j` with its write of `q_{i,j}` *per register*,
    /// preserving the exact operation sequence (`read r_0`, `write q_0`,
    /// `read r_1`, …) that the deterministic-scheduler tests count on.
    /// On an unprimed cache, slots must be advanced in index order.
    ///
    /// `same(cached, current)` compares algorithm-level keys; see the
    /// type-level docs for what `trust_keys` licenses.
    pub fn advance_one<R: Register<T>>(
        &mut self,
        reader: ProcessId,
        regs: &[R],
        j: usize,
        trust_keys: bool,
        same: impl Fn(&T, &T) -> bool,
    ) -> SlotOutcome {
        // Observe the version BEFORE reading the record: an unchanged
        // probe later then certifies the record (contract: no write took
        // effect between the two probes, and the read sits between).
        let hint = regs[j].version_hint();
        if j >= self.records.len() {
            // Priming: first visit of this slot.
            debug_assert_eq!(j, self.records.len(), "prime slots in index order");
            let rec = regs[j].read_with(reader, |cur| cur.clone());
            self.records.push(rec);
            self.versions.push(hint);
            self.changed.push(true);
            return SlotOutcome::Cloned { changed: true };
        }
        if hint.is_some() && hint == self.versions[j] {
            self.changed[j] = false;
            return SlotOutcome::ReusedByVersion;
        }
        let prev = &self.records[j];
        let fresh = regs[j].read_with(reader, |cur| {
            let is_same = same(prev, cur);
            if trust_keys && is_same {
                None
            } else {
                Some((cur.clone(), !is_same))
            }
        });
        match fresh {
            None => {
                // Do NOT refresh `self.versions[j]` here. `hint` certifies
                // the record *currently stored* in the register (`cur`),
                // but the cache keeps `prev`, and a key match does not
                // prove `prev == cur`: the bounded algorithms' keys can
                // recur (three updates inside one double collect restore
                // `(p[i], toggle)` with a different value). Pairing `prev`
                // with `hint` would let every later pass take
                // `ReusedByVersion` on a stale record — a scan of a
                // then-quiescent object would return values older than
                // writes that completed before it began. Keeping the old
                // version (probed before `prev` was read) preserves the
                // pairing invariant, so the next pass sees the version
                // mismatch and re-validates the slot by reading.
                self.changed[j] = false;
                SlotOutcome::ReusedByKey
            }
            Some((rec, changed)) => {
                self.records[j] = rec;
                self.versions[j] = hint;
                self.changed[j] = changed;
                SlotOutcome::Cloned { changed }
            }
        }
    }

    /// Advances the cache across the whole array — one incremental
    /// collect pass — and reports how many slots moved; which ones is
    /// [`changed`](Self::changed).
    ///
    /// On an unprimed cache this is the priming pass: every slot is
    /// cloned and reported `changed` (callers discard the mask of a
    /// priming pass; the algorithms always run at least two passes).
    pub fn advance<R: Register<T>>(
        &mut self,
        reader: ProcessId,
        regs: &[R],
        trust_keys: bool,
        same: impl Fn(&T, &T) -> bool,
    ) -> PassSummary {
        let mut pass = PassSummary { changed: 0, cloned: 0 };
        for j in 0..regs.len() {
            if let SlotOutcome::Cloned { changed } =
                self.advance_one(reader, regs, j, trust_keys, &same)
            {
                pass.cloned += 1;
                pass.changed += usize::from(changed);
            }
        }
        pass
    }
}

// ---------------------------------------------------------------------------
// Version-filtered subset collect
// ---------------------------------------------------------------------------

/// Outcome of a [`subset_collect`]: either a certified picture of the
/// requested slots, or a typed reason it could not be produced.
#[derive(Debug)]
pub enum SubsetOutcome<T> {
    /// A probe pass found every slot's version equal to the probe its
    /// record was read after: each record in `records` was read inside a
    /// window bracketed by equal version probes, and all the windows
    /// overlap (they share the instant before that pass), so the records
    /// form an instantaneous picture of the subset — see the soundness
    /// note on [`subset_collect`].
    Clean {
        /// One projected record per requested slot, in the caller's slot
        /// order.
        records: Vec<T>,
        /// Probe passes performed after the priming pass (≥ 1).
        rounds: u32,
        /// Physical register reads performed (probes are not reads).
        reads: u64,
    },
    /// Some slot's register keeps no version hints
    /// ([`Register::version_hint`] returned [`None`]), so the filter
    /// cannot certify anything. Reported before any record is read.
    Unsupported,
    /// The round budget ran out with some version still moving every
    /// pass. The caller falls back (e.g. to a full scan, which has its
    /// own termination argument) rather than spinning unboundedly.
    Contended {
        /// Probe passes performed after the priming pass.
        rounds: u32,
        /// Physical register reads performed before giving up.
        reads: u64,
    },
}

/// A bounded, version-filtered collect of a *subset* of registers: the
/// interference filter behind the O(touched)-cost partial snapshots.
///
/// Collects `regs[j]` for each `j` in `slots`, keeping `project` of each
/// record. The protocol is rounds of *probe-then-read* per slot. The
/// priming pass probes each slot's [`version_hint`] and reads its record;
/// each following pass re-probes every slot, and re-reads a slot right
/// after a probe that moved. When a whole pass finds every probe equal to
/// the one its record was read after, the records are returned. After
/// `max_rounds` re-probe passes the call gives up with
/// [`SubsetOutcome::Contended`]. `versions` is the caller's scratch for
/// the probes (cleared here), so a warm caller allocates only the result.
///
/// # Soundness
///
/// The hint contract says equal probes prove no write took effect
/// between them. Each returned record was read inside a window whose
/// endpoints are equal probes of its slot — opened in an earlier pass,
/// closed in the clean one — so the register held that record
/// throughout its window; and every window contains the instant before
/// the clean pass. At that instant every slot held the record returned
/// for it: the records are an instantaneous picture of the subset, which
/// is exactly a linearizable subset read for callers whose updates
/// linearize at the register write.
///
/// Quiescent cost: `k` reads plus `2k` probes for `k` slots — the
/// priming pass and one clean confirmation pass — independent of how
/// many registers the full object has.
///
/// [`version_hint`]: Register::version_hint
pub fn subset_collect<T, U, R: Register<T>>(
    reader: ProcessId,
    regs: &[R],
    slots: &[usize],
    max_rounds: u32,
    versions: &mut Vec<Version>,
    project: impl Fn(&T) -> U,
) -> SubsetOutcome<U> {
    versions.clear();
    for &j in slots {
        match regs[j].version_hint() {
            Some(v) => versions.push(v),
            None => return SubsetOutcome::Unsupported,
        }
    }
    // Priming pass: every record is read *after* its version probe, so
    // each window opens at its probe.
    let mut records: Vec<U> = slots.iter().map(|&j| regs[j].read_with(reader, &project)).collect();
    let mut reads = slots.len() as u64;

    for round in 1..=max_rounds {
        let mut clean = true;
        for (x, &j) in slots.iter().enumerate() {
            let probe = regs[j].version_hint();
            if probe != Some(versions[x]) {
                // A `None` here means the register changed its mind about
                // keeping hints (no in-tree register does); never certify
                // through it.
                let Some(v) = probe else {
                    return SubsetOutcome::Unsupported;
                };
                clean = false;
                versions[x] = v;
                // The probe just taken opens the fresh window.
                records[x] = regs[j].read_with(reader, &project);
                reads += 1;
            }
        }
        if clean {
            // Every record's window is bracketed by equal probes and
            // contains the instant before this pass: certified.
            return SubsetOutcome::Clean { records, rounds: round, reads };
        }
    }
    SubsetOutcome::Contended { rounds: max_rounds, reads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, EpochBackend, MutexBackend};

    const P0: ProcessId = ProcessId::new(0);

    #[test]
    fn collect_reads_in_index_order() {
        let backend = EpochBackend::new();
        let regs: Vec<_> = (0..5i32).map(|i| backend.cell(i * i)).collect();
        assert_eq!(collect(ProcessId::new(0), &regs), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn collect_of_empty_array_is_empty() {
        let regs: Vec<crate::EpochCell<u8>> = Vec::new();
        assert!(collect(ProcessId::new(0), &regs).is_empty());
    }

    #[test]
    fn steady_state_costs_zero_clones_with_versions() {
        let backend = EpochBackend::new();
        let regs: Vec<_> = (0..6u64).map(|i| backend.cell(i)).collect();
        let same = |a: &u64, b: &u64| a == b;
        let mut tc = TrackedCollect::new();
        let prime = tc.advance(P0, &regs, false, same);
        assert_eq!(prime.cloned, 6);
        assert!(tc.is_primed());
        for _ in 0..3 {
            let pass = tc.advance(P0, &regs, false, same);
            assert!(pass.clean());
            assert_eq!(pass.cloned, 0, "quiescent pass must be probe-only");
        }
        assert_eq!(tc.records(), collect(P0, &regs).as_slice());
    }

    #[test]
    fn a_single_write_costs_a_single_clone() {
        let backend = EpochBackend::new();
        let regs: Vec<_> = (0..4u64).map(|i| backend.cell(i)).collect();
        let same = |a: &u64, b: &u64| a == b;
        let mut tc = TrackedCollect::new();
        tc.advance(P0, &regs, false, same);
        regs[1].write(ProcessId::new(1), 77);
        let pass = tc.advance(P0, &regs, false, same);
        assert_eq!(pass.changed, 1);
        assert_eq!(tc.changed(), &[false, true, false, false]);
        assert_eq!(pass.cloned, 1);
        assert_eq!(tc.records(), collect(P0, &regs).as_slice());
    }

    #[test]
    fn version_reuse_detects_same_payload_rewrites() {
        // Rewriting the same payload is still a write; the algorithms'
        // toggle bits exist to distinguish it. The key comparison alone
        // would call it unchanged — correct for move-counting — but the
        // version probe must NOT claim the register was untouched.
        let backend = EpochBackend::new();
        let regs: Vec<_> = (0..2u64).map(|i| backend.cell(i)).collect();
        let same = |a: &u64, b: &u64| a == b;
        let mut tc = TrackedCollect::new();
        tc.advance(P0, &regs, false, same);
        regs[0].write(P0, 0); // same payload, new write
        let pass = tc.advance(P0, &regs, false, same);
        assert!(pass.clean(), "key comparison says unmoved");
        assert_eq!(pass.cloned, 1, "but the slot had to be re-read");
    }

    #[test]
    fn without_versions_untrusted_keys_clone_everything() {
        let backend = MutexBackend::new();
        let regs: Vec<_> = (0..3u64).map(|i| backend.cell(i)).collect();
        let same = |a: &u64, b: &u64| a == b;
        let mut tc = TrackedCollect::new();
        tc.advance(P0, &regs, false, same);
        let pass = tc.advance(P0, &regs, false, same);
        assert!(pass.clean());
        assert_eq!(pass.cloned, 3, "no versions + no key trust = full clone");
    }

    #[test]
    fn without_versions_trusted_keys_skip_clones() {
        let backend = MutexBackend::new();
        let regs: Vec<_> = (0..3u64).map(|i| backend.cell(i)).collect();
        let same = |a: &u64, b: &u64| a == b;
        let mut tc = TrackedCollect::new();
        tc.advance(P0, &regs, true, same);
        let pass = tc.advance(P0, &regs, true, same);
        assert!(pass.clean());
        assert_eq!(pass.cloned, 0, "key-equal slots reuse the cache");
        regs[2].write(ProcessId::new(2), 9);
        let pass = tc.advance(P0, &regs, true, same);
        assert_eq!(pass.changed, 1);
        assert_eq!(tc.changed(), &[false, false, true]);
        assert_eq!(tc.records(), collect(P0, &regs).as_slice());
    }

    #[test]
    fn key_reuse_does_not_certify_stale_records() {
        // Composite records whose key (.0) can recur with a different
        // payload (.1) — the bounded algorithms' key ABA. A trusted key
        // match legitimately skips the clone (the cache is stale *by
        // design* within that pass), but it must NOT pair the stale
        // cached record with the freshly probed version: that would make
        // every later pass `ReusedByVersion` on the stale record, even
        // once memory is quiescent.
        let backend = EpochBackend::new();
        let regs = vec![backend.cell((0u8, 0u64))];
        let same = |a: &(u8, u64), b: &(u8, u64)| a.0 == b.0;
        let mut tc = TrackedCollect::new();
        tc.advance(P0, &regs, false, same); // cache holds (0, 0)

        // Two completed writes restore key 0 with a different payload.
        regs[0].write(P0, (1, 10));
        regs[0].write(P0, (0, 20));

        // Trusted pass: key matches, clone skipped, cache keeps (0, 0).
        let out = tc.advance_one(P0, &regs, 0, true, same);
        assert_eq!(out, SlotOutcome::ReusedByKey);
        assert_eq!(tc.records()[0], (0u8, 0u64));

        // No further writes: the slot's version must still mismatch, so
        // the next pass re-reads and repairs the cache instead of
        // certifying the stale record.
        let pass = tc.advance(P0, &regs, false, same);
        assert_eq!(pass.cloned, 1, "stale slot must be re-validated by reading");
        assert_eq!(tc.records(), collect(P0, &regs).as_slice());
        assert_eq!(tc.records()[0], (0u8, 20u64));

        // Only now — cache repaired and version correctly paired — may
        // the quiescent slot be served by version probes alone.
        let pass = tc.advance(P0, &regs, false, same);
        assert_eq!(pass.cloned, 0);
        assert_eq!(tc.records()[0], (0u8, 20u64));
    }

    #[test]
    fn advance_one_primes_in_index_order() {
        let backend = EpochBackend::new();
        let regs: Vec<_> = (0..3u64).map(|i| backend.cell(i)).collect();
        let same = |a: &u64, b: &u64| a == b;
        let mut tc = TrackedCollect::new();
        for j in 0..regs.len() {
            let out = tc.advance_one(P0, &regs, j, false, same);
            assert_eq!(out, SlotOutcome::Cloned { changed: true });
        }
        assert_eq!(tc.records(), &[0, 1, 2]);
        assert_eq!(tc.advance_one(P0, &regs, 1, false, same), SlotOutcome::ReusedByVersion);
    }

    #[test]
    fn invalidate_forces_a_fresh_prime() {
        let backend = EpochBackend::new();
        let regs: Vec<_> = (0..2u64).map(|i| backend.cell(i)).collect();
        let same = |a: &u64, b: &u64| a == b;
        let mut tc = TrackedCollect::new();
        tc.advance(P0, &regs, false, same);
        tc.invalidate();
        assert!(!tc.is_primed());
        let pass = tc.advance(P0, &regs, false, same);
        assert_eq!(pass.cloned, 2);
    }

    // -----------------------------------------------------------------------
    // subset_collect
    // -----------------------------------------------------------------------

    #[test]
    fn quiescent_subset_collect_costs_k_reads() {
        let backend = EpochBackend::new();
        let regs: Vec<_> = (0..64u64).map(|i| backend.cell(i * 10)).collect();
        match subset_collect(P0, &regs, &[3, 41], 4, &mut Vec::new(), u64::clone) {
            SubsetOutcome::Clean { records, rounds, reads } => {
                assert_eq!(records, vec![30, 410]);
                assert_eq!(rounds, 1, "one confirmation pass suffices when quiet");
                assert_eq!(reads, 2, "the priming pass reads each slot once");
            }
            other => panic!("quiescent collect must certify: {other:?}"),
        }
    }

    #[test]
    fn hintless_registers_are_reported_unsupported_before_any_read() {
        let backend = MutexBackend::new();
        let regs: Vec<_> = (0..4u64).map(|i| backend.cell(i)).collect();
        assert!(matches!(
            subset_collect(P0, &regs, &[0, 2], 4, &mut Vec::new(), u64::clone),
            SubsetOutcome::Unsupported
        ));
    }

    #[test]
    fn a_write_between_passes_forces_a_reread_then_certifies() {
        let backend = EpochBackend::new();
        let regs: Vec<_> = (0..8u64).map(|i| backend.cell(i)).collect();
        // Dirty the slot between the priming read and the first probe
        // pass cannot be staged from one thread, but a write *before*
        // priming and another after a full collect round-trips the same
        // machinery: run once, write, run again — the second run must see
        // the new value with the same O(k) cost.
        regs[5].write(ProcessId::new(1), 55);
        match subset_collect(P0, &regs, &[5, 7], 4, &mut Vec::new(), u64::clone) {
            SubsetOutcome::Clean { records, reads, .. } => {
                assert_eq!(records, vec![55, 7]);
                assert_eq!(reads, 2);
            }
            other => panic!("collect after a completed write must certify: {other:?}"),
        }
    }

    #[test]
    fn contended_slot_exhausts_the_round_budget() {
        // A register whose version moves on every probe: the filter must
        // give up with `Contended` after exactly `max_rounds` passes, not
        // spin or certify.
        struct Restless(std::sync::atomic::AtomicU64);
        impl Register<u64> for Restless {
            fn read(&self, _reader: ProcessId) -> u64 {
                0
            }
            fn write(&self, _writer: ProcessId, _value: u64) {}
            fn version_hint(&self) -> Option<Version> {
                Some(Version::new(self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed), 1))
            }
        }
        let slots = [Restless(std::sync::atomic::AtomicU64::new(0))];
        match subset_collect(P0, &slots, &[0], 3, &mut Vec::new(), u64::clone) {
            SubsetOutcome::Contended { rounds, reads } => {
                assert_eq!(rounds, 3);
                // Priming read + one re-read per dirty pass (the last
                // pass's mismatch still re-reads before giving up).
                assert_eq!(reads, 4);
            }
            other => panic!("a restless version must exhaust the budget: {other:?}"),
        }
    }
}
