use std::fmt;

use crate::{BitCell, CachePadded, EpochCell, MutexCell, Register};

/// Values that may be stored in a register cell.
///
/// This is a blanket alias — every `Clone + Send + Sync + 'static` type
/// qualifies. Snapshot records keep their wide fields behind `Arc`, so
/// cloning on read stays cheap.
pub trait RegisterValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> RegisterValue for T {}

/// A factory for atomic register cells.
///
/// The snapshot algorithms are generic over a `Backend`, so the *same*
/// algorithm code runs over the lock-free [`EpochCell`], the blocking
/// [`MutexCell`] baseline, an instrumented/step-counted wrapper
/// ([`Instrumented`]), the scheduler-gated deterministic simulator, or the
/// multi-writer-from-single-writer compound construction
/// ([`CompoundBackend`]).
///
/// [`Instrumented`]: crate::Instrumented
/// [`CompoundBackend`]: crate::CompoundBackend
///
/// # Example
///
/// ```
/// use snapshot_registers::{Backend, EpochBackend, ProcessId, Register};
///
/// fn fill<B: Backend>(backend: &B) -> Vec<B::Cell<u32>> {
///     (0..4).map(|i| backend.cell(i)).collect()
/// }
///
/// let cells = fill(&EpochBackend::default());
/// assert_eq!(cells[2].read(ProcessId::new(0)), 2);
/// ```
pub trait Backend: Send + Sync + 'static {
    /// The register cell type produced for values of type `T`.
    type Cell<T: RegisterValue>: Register<T>;

    /// The register type used for one-bit handshake registers.
    type Bit: Register<bool>;

    /// Creates a register cell holding `init`.
    fn cell<T: RegisterValue>(&self, init: T) -> Self::Cell<T>;

    /// Creates a one-bit register holding `init`.
    fn bit(&self, init: bool) -> Self::Bit;
}

/// A dense array of `B`'s cells holding `T`, each on its own cache-line
/// block: the layout of every per-process register array here.
pub type PaddedCells<B, T> = Box<[CachePadded<<B as Backend>::Cell<T>>]>;

/// Rows of `B`'s handshake bits (`rows[i][j]`), each row on its own
/// cache-line block — a row has a single writer.
pub type PaddedBitRows<B> = Box<[CachePadded<Box<[<B as Backend>::Bit]>>]>;

/// The default backend: lock-free [`EpochCell`] registers and hardware
/// [`BitCell`] handshake bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochBackend;

impl EpochBackend {
    /// Creates the default backend.
    pub fn new() -> Self {
        EpochBackend
    }
}

impl Backend for EpochBackend {
    type Cell<T: RegisterValue> = EpochCell<T>;
    type Bit = BitCell;

    fn cell<T: RegisterValue>(&self, init: T) -> EpochCell<T> {
        EpochCell::new(init)
    }

    fn bit(&self, init: bool) -> BitCell {
        BitCell::new(init)
    }
}

/// A blocking baseline backend: every register is a [`MutexCell`].
#[derive(Clone, Copy, Default)]
pub struct MutexBackend;

impl MutexBackend {
    /// Creates the mutex baseline backend.
    pub fn new() -> Self {
        MutexBackend
    }
}

impl Backend for MutexBackend {
    type Cell<T: RegisterValue> = MutexCell<T>;
    type Bit = BitCell;

    fn cell<T: RegisterValue>(&self, init: T) -> MutexCell<T> {
        MutexCell::new(init)
    }

    fn bit(&self, init: bool) -> BitCell {
        BitCell::new(init)
    }
}

impl fmt::Debug for MutexBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MutexBackend")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    fn exercise<B: Backend>(backend: &B) {
        let p = ProcessId::new(0);
        let cell = backend.cell(10u64);
        assert_eq!(cell.read(p), 10);
        cell.write(p, 20);
        assert_eq!(cell.read(p), 20);

        let bit = backend.bit(true);
        assert!(bit.read(p));
        bit.write(p, false);
        assert!(!bit.read(p));
    }

    #[test]
    fn epoch_backend_round_trips() {
        exercise(&EpochBackend::new());
    }

    #[test]
    fn mutex_backend_round_trips() {
        exercise(&MutexBackend::new());
    }
}
