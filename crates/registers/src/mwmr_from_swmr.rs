use std::fmt;
use std::sync::Arc;

use crate::{Backend, CachePadded, PaddedCells, ProcessId, Register, RegisterValue};

/// A value stamped with a totally-ordered `(seq, pid)` tag.
///
/// Tags order the writes of the [`MwmrFromSwmr`] construction: larger
/// sequence number wins, ties broken by writer id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tagged<V> {
    /// Unbounded sequence number (the construction's whole point of
    /// divergence from the bounded constructions of \[PB87\]/\[LTV89\] — see
    /// DESIGN.md's substitution table).
    pub seq: u64,
    /// The process whose write produced this tag.
    pub pid: usize,
    /// The stored value.
    pub value: V,
}

impl<V> Tagged<V> {
    fn tag(&self) -> (u64, usize) {
        (self.seq, self.pid)
    }
}

/// An n-writer, n-reader atomic register built from `n` single-writer
/// multi-reader registers.
///
/// This is the classic unbounded-timestamp construction (in the style of
/// Vitányi–Awerbuch): each process owns one single-writer register holding
/// a [`Tagged`] value.
///
/// * **write(v)** — collect all `n` tags, pick `seq` one larger than the
///   maximum seen, write `(seq, self, v)` to the own register:
///   `n` reads + 1 write.
/// * **read()** — collect all `n` tagged values, take the maximum tag,
///   *write it back* to the own register (so later readers cannot observe
///   an older maximum: the standard fix for new/old inversion), return the
///   value: `n` reads + 1 write.
///
/// Both operations cost `Θ(n)` single-writer register operations, which is
/// the per-operation factor Section 6 of the paper uses when it credits the
/// multi-writer snapshot with `O(n³)` single-writer operations end-to-end.
/// The experiment `E4` counts exactly these operations through an
/// instrumented inner backend.
///
/// # Example
///
/// ```
/// use snapshot_registers::{EpochBackend, MwmrFromSwmr, ProcessId, Register};
///
/// let reg = MwmrFromSwmr::new(&EpochBackend::default(), 3, 0u64);
/// reg.write(ProcessId::new(2), 42);
/// assert_eq!(reg.read(ProcessId::new(0)), 42);
/// reg.write(ProcessId::new(0), 7);
/// assert_eq!(reg.read(ProcessId::new(1)), 7);
/// ```
pub struct MwmrFromSwmr<V: RegisterValue, B: Backend> {
    // One single-writer cell per process, each written only by its owner:
    // the canonical false-sharing layout, hence the padding.
    cells: PaddedCells<B, Tagged<V>>,
}

impl<V: RegisterValue, B: Backend> MwmrFromSwmr<V, B> {
    /// Builds the register for `n` processes over single-writer cells from
    /// `backend`, holding `init`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(backend: &B, n: usize, init: V) -> Self {
        assert!(n > 0, "a multi-writer register needs at least one process");
        MwmrFromSwmr {
            cells: (0..n)
                .map(|pid| {
                    CachePadded::new(backend.cell(Tagged {
                        seq: 0,
                        pid,
                        value: init.clone(),
                    }))
                })
                .collect(),
        }
    }

    /// Number of embedded single-writer registers (= processes).
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    fn max_tagged(&self, reader: ProcessId) -> Tagged<V> {
        self.cells
            .iter()
            .map(|c| c.read(reader))
            .max_by_key(Tagged::tag)
            .expect("width > 0 by construction")
    }
}

impl<V: RegisterValue, B: Backend> Register<V> for MwmrFromSwmr<V, B> {
    /// # Panics
    ///
    /// Panics if `reader.get() >= n`.
    fn read(&self, reader: ProcessId) -> V {
        let best = self.max_tagged(reader);
        // Write-back: publish the maximum we observed so that a read
        // starting after we return can never see an older maximum
        // (new/old-inversion freedom, required for atomicity).
        self.cells[reader.get()].write(reader, best.clone());
        best.value
    }

    /// # Panics
    ///
    /// Panics if `writer.get() >= n`.
    fn write(&self, writer: ProcessId, value: V) {
        let max_seq = self
            .cells
            .iter()
            .map(|c| c.read(writer).seq)
            .max()
            .expect("width > 0 by construction");
        self.cells[writer.get()].write(
            writer,
            Tagged {
                seq: max_seq + 1,
                pid: writer.get(),
                value,
            },
        );
    }
}

impl<V: RegisterValue, B: Backend> fmt::Debug for MwmrFromSwmr<V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MwmrFromSwmr")
            .field("width", &self.cells.len())
            .finish()
    }
}

/// A [`Backend`] whose every cell is a full [`MwmrFromSwmr`] register over
/// an inner backend's single-writer cells.
///
/// Plugging this into the multi-writer snapshot algorithm yields the
/// *compound construction* of Section 6: multi-writer snapshot → multi-writer
/// registers → single-writer registers, with `O(n³)` single-writer
/// operations per snapshot operation. Handshake bits and view registers are
/// single-writer in the algorithm, so [`Backend::bit`] delegates directly to
/// the inner backend.
#[derive(Debug)]
pub struct CompoundBackend<B> {
    n: usize,
    inner: Arc<B>,
}

impl<B: Backend> CompoundBackend<B> {
    /// Creates a compound backend for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, inner: B) -> Self {
        assert!(n > 0, "a compound backend needs at least one process");
        CompoundBackend {
            n,
            inner: Arc::new(inner),
        }
    }

    /// The inner (single-writer) backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: Backend> Backend for CompoundBackend<B> {
    type Cell<T: RegisterValue> = MwmrFromSwmr<T, B>;
    type Bit = B::Bit;

    fn cell<T: RegisterValue>(&self, init: T) -> Self::Cell<T> {
        MwmrFromSwmr::new(&*self.inner, self.n, init)
    }

    fn bit(&self, init: bool) -> Self::Bit {
        self.inner.bit(init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochBackend, Instrumented, OpCounters};

    #[test]
    fn initial_value_is_returned() {
        let reg = MwmrFromSwmr::new(&EpochBackend::new(), 4, 99u32);
        for p in ProcessId::all(4) {
            assert_eq!(reg.read(p), 99);
        }
    }

    #[test]
    fn later_writes_supersede_earlier_ones() {
        let reg = MwmrFromSwmr::new(&EpochBackend::new(), 3, 0u32);
        reg.write(ProcessId::new(0), 1);
        reg.write(ProcessId::new(1), 2);
        reg.write(ProcessId::new(2), 3);
        assert_eq!(reg.read(ProcessId::new(0)), 3);
    }

    #[test]
    fn reads_are_monotone_per_reader_after_write_back() {
        let reg = MwmrFromSwmr::new(&EpochBackend::new(), 2, 0u32);
        reg.write(ProcessId::new(1), 5);
        assert_eq!(reg.read(ProcessId::new(0)), 5);
        // The write-back means P0's own cell now carries the tag of P1's
        // write; a subsequent write by P0 must dominate it.
        reg.write(ProcessId::new(0), 6);
        assert_eq!(reg.read(ProcessId::new(1)), 6);
    }

    #[test]
    fn operation_cost_is_linear_in_n() {
        for n in [2usize, 4, 8] {
            let counters = Arc::new(OpCounters::new(n));
            let backend =
                Instrumented::new(EpochBackend::new()).with_counters(Arc::clone(&counters));
            let reg = MwmrFromSwmr::new(&backend, n, 0u8);
            let p = ProcessId::new(0);

            let before = counters.snapshot(p);
            reg.write(p, 1);
            let write_cost = counters.snapshot(p) - before;
            assert_eq!(write_cost.reads, n as u64);
            assert_eq!(write_cost.writes, 1);

            let before = counters.snapshot(p);
            reg.read(p);
            let read_cost = counters.snapshot(p) - before;
            assert_eq!(read_cost.reads, n as u64);
            assert_eq!(read_cost.writes, 1);
        }
    }

    #[test]
    fn no_stale_read_under_concurrency() {
        // After a writer finishes writing k, any read that *starts* later
        // must return >= k (tags grow).
        let reg = Arc::new(MwmrFromSwmr::new(&EpochBackend::new(), 4, 0u64));
        std::thread::scope(|s| {
            for t in 0..2 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let p = ProcessId::new(t);
                    for k in 0..500u64 {
                        reg.write(p, k);
                    }
                });
            }
            for t in 2..4 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let p = ProcessId::new(t);
                    let mut last = 0u64;
                    for _ in 0..500 {
                        let v = reg.read(p);
                        // Values from one writer are increasing; across two
                        // writers monotonicity of *tags* implies the value
                        // can regress only between writers, never below a
                        // value this reader already observed from the same
                        // writer sequence. Weak sanity check: no panic and
                        // values stay in range.
                        assert!(v < 500);
                        last = last.max(v);
                    }
                    assert!(last < 500);
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_is_rejected() {
        let _ = MwmrFromSwmr::new(&EpochBackend::new(), 0, 0u8);
    }
}
