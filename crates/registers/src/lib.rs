//! Atomic read/write register substrate for the wait-free atomic-snapshot
//! constructions of Afek, Attiya, Dolev, Gafni, Merritt and Shavit
//! (*Atomic Snapshots of Shared Memory*, PODC 1990).
//!
//! The paper's model allows exactly one kind of shared primitive: the
//! **atomic (linearizable) read/write register**. This crate provides that
//! primitive in several interchangeable flavors, plus the instrumentation
//! the reproduction needs:
//!
//! * [`Register`] — the abstract single-cell read/write interface, with
//!   every access attributed to a [`ProcessId`];
//! * [`EpochCell`] — the default lock-free register: an immutable record
//!   behind an atomic pointer, reclaimed by the in-tree epoch scheme in
//!   `registers/epoch.rs` (a write is a single pointer swap, so
//!   arbitrarily wide records are written atomically, exactly as the
//!   paper assumes);
//! * [`MutexCell`] — the blocking baseline for the benchmarks;
//! * [`BitCell`] — a specialized boolean register for the handshake bits
//!   of the bounded algorithms;
//! * [`Backend`] — a factory abstraction so each snapshot algorithm is
//!   generic over the register flavor;
//! * [`Instrumented`] — a transparent wrapper that counts register
//!   operations per process ([`OpCounters`]) and/or parks at every
//!   register access until a scheduler grants a step ([`StepGate`]); the
//!   deterministic simulator in `snapshot-sim` drives the latter;
//! * [`MwmrFromSwmr`] — an n-writer n-reader register built from n
//!   single-writer registers (Vitányi–Awerbuch-style unbounded-tag
//!   construction), used to trace the multi-writer snapshot's cost back to
//!   single-writer operations as in Section 6 of the paper;
//! * [`CachePadded`] — 128-byte padding for per-process cell arrays, so
//!   neighbouring processes' registers never false-share a cache line
//!   (re-exported from `snapshot-obs`, whose striped metrics use it too);
//! * [`TrackedCollect`] — an incremental collect that re-reads only the
//!   registers that moved, using [`Register::version_hint`] probes and the
//!   algorithms' own seq/handshake keys (see `registers/collect.rs`);
//! * [`SeededRng`] — the workspace's one seeded generator (fault
//!   schedules, scheduler policies, seeded property loops).
//!
//! # Example
//!
//! ```
//! use snapshot_registers::{Backend, EpochBackend, ProcessId, Register};
//!
//! let backend = EpochBackend::default();
//! let cell = backend.cell(0u64);
//! let p0 = ProcessId::new(0);
//! cell.write(p0, 7);
//! assert_eq!(cell.read(p0), 7);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod bit_cell;
mod collect;
mod counting;
mod epoch;
mod epoch_cell;
mod gate;
mod instrument;
mod mutex_cell;
mod mwmr_from_swmr;
mod pad;
mod process;
mod rng;

pub use backend::{
    Backend, EpochBackend, MutexBackend, PaddedBitRows, PaddedCells, RegisterValue,
};
pub use bit_cell::BitCell;
pub use collect::{collect, subset_collect, PassSummary, SlotOutcome, SubsetOutcome, TrackedCollect};
pub use counting::{OpCounters, OpKind, OpSnapshot};
pub use epoch_cell::EpochCell;
pub use gate::{NullGate, StepGate};
pub use instrument::{Instrumented, InstrumentedCell, Probe};
pub use mutex_cell::MutexCell;
pub use mwmr_from_swmr::{CompoundBackend, MwmrFromSwmr, Tagged};
pub use pad::CachePadded;
pub use process::ProcessId;
pub use rng::SeededRng;

/// A shared atomic (linearizable) read/write register.
///
/// Every access names the process performing it; implementations use this
/// for instrumentation, for scheduler gating, and (in debug builds) to
/// enforce single-writer disciplines.
///
/// Implementations must be linearizable: each `read` returns the value of
/// some `write` (or the initial value) consistent with a total order of all
/// operations that respects real time.
pub trait Register<T>: Send + Sync {
    /// Reads the current register contents on behalf of `reader`.
    fn read(&self, reader: ProcessId) -> T;

    /// Replaces the register contents with `value` on behalf of `writer`.
    fn write(&self, writer: ProcessId, value: T);

    /// Applies `f` to the current register contents *in place* and returns
    /// its result — one atomic read, no clone of `T`.
    ///
    /// This is the clone-free read path the collects are built on: a
    /// scanner comparing sequence numbers or handshake bits only needs to
    /// *look at* a record, and cloning the whole `(value, seq, view)`
    /// composite just to drop it is the dominant constant-factor cost of a
    /// double collect. The default implementation clones via [`read`] and
    /// borrows the copy, so every register is correct out of the box;
    /// in-memory cells override it to borrow the shared record directly
    /// (e.g. [`EpochCell`] pins an epoch and derefs the stored pointer).
    ///
    /// `f` may run while an implementation-internal resource is held (an
    /// epoch pin, a lock): keep it short and never call back into the same
    /// register from inside it.
    ///
    /// Note the `where Self: Sized` bound: `read_with` cannot be
    /// dispatched through a `dyn Register` trait object, so an unsized
    /// register only ever exposes this cloning fallback. The blanket
    /// impls for `&R` and `Arc<R>` require `R: Sized` precisely so they
    /// can forward to the inner register's (possibly clone-free)
    /// override instead of silently degrading to `read` + clone while
    /// still advertising [`version_hint`].
    ///
    /// [`read`]: Register::read
    /// [`version_hint`]: Register::version_hint
    /// [`EpochCell`]: crate::EpochCell
    fn read_with<U>(&self, reader: ProcessId, f: impl FnOnce(&T) -> U) -> U
    where
        Self: Sized,
    {
        f(&self.read(reader))
    }

    /// A cheap *write-version* observation, if the implementation keeps
    /// one ([`None`] otherwise, the default).
    ///
    /// Contract for implementers: if two calls return the same
    /// `Some(v)`, **no write took effect between them** — no write's
    /// new value became readable in the interval between the two
    /// observations, whether or not that write has returned yet. A
    /// caller that observes the version, then reads the record, may
    /// later treat an unchanged version as proof that the register still
    /// holds that record: every read in between would have returned it,
    /// so the cached record is what a read at the second observation
    /// returns. [`TrackedCollect`] uses exactly this to skip re-reading
    /// registers that have not moved, within a scan and across scans.
    ///
    /// [`TrackedCollect`]: crate::TrackedCollect
    fn version_hint(&self) -> Option<Version> {
        None
    }
}

/// An opaque write-version observation ([`Register::version_hint`]).
///
/// Only equality means anything: two equal observations of the same
/// register prove that no write took effect between them. For
/// [`EpochCell`] a version is the pair (completed-write count, slot
/// pointer) — see its docs for why the pair, and not the count alone,
/// carries the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Version {
    writes: u64,
    slot: usize,
}

impl Version {
    pub(crate) const fn new(writes: u64, slot: usize) -> Self {
        Version { writes, slot }
    }
}

/// A register whose operations can fail with a typed error.
///
/// In-process registers never fail (their `Error` is
/// [`std::convert::Infallible`]), but registers emulated over a
/// message-passing system lose liveness when the network degrades past
/// the protocol's resilience boundary — e.g. the ABD emulation's quorum
/// phases starve once a majority of replicas is unreachable. This trait
/// lets such embeddings surface that as a typed error the caller can
/// retry or report, while the plain [`Register`] interface (which the
/// wait-free constructions use, and which has no error channel) panics.
///
/// For infallible implementations the `try_` methods are exactly
/// `read`/`write`; implementations with real failure modes must keep the
/// pair coherent: `read`/`write` behave as `try_read`/`try_write` with
/// errors escalated to panics.
pub trait TryRegister<T>: Register<T> {
    /// The error produced when an operation cannot complete.
    type Error: std::error::Error + Send + Sync + 'static;

    /// Reads the current register contents on behalf of `reader`.
    fn try_read(&self, reader: ProcessId) -> Result<T, Self::Error>;

    /// Replaces the register contents with `value` on behalf of `writer`.
    fn try_write(&self, writer: ProcessId, value: T) -> Result<(), Self::Error>;
}

// `R: Sized` (not `?Sized`) so `read_with` can forward to the inner
// register's override — a `&R` register must not degrade to the cloning
// fallback while still advertising `version_hint`. `dyn Register` is
// deliberately unsupported here; see the `read_with` docs.
impl<T, R: Register<T>> Register<T> for &R {
    fn read(&self, reader: ProcessId) -> T {
        (**self).read(reader)
    }

    fn write(&self, writer: ProcessId, value: T) {
        (**self).write(writer, value)
    }

    fn read_with<U>(&self, reader: ProcessId, f: impl FnOnce(&T) -> U) -> U {
        (**self).read_with(reader, f)
    }

    fn version_hint(&self) -> Option<Version> {
        (**self).version_hint()
    }
}

impl<T, R: Register<T>> Register<T> for std::sync::Arc<R> {
    fn read(&self, reader: ProcessId) -> T {
        (**self).read(reader)
    }

    fn write(&self, writer: ProcessId, value: T) {
        (**self).write(writer, value)
    }

    fn read_with<U>(&self, reader: ProcessId, f: impl FnOnce(&T) -> U) -> U {
        (**self).read_with(reader, f)
    }

    fn version_hint(&self) -> Option<Version> {
        (**self).version_hint()
    }
}
