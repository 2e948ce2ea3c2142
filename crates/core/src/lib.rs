//! The three wait-free atomic-snapshot constructions of *Atomic Snapshots
//! of Shared Memory* (Afek, Attiya, Dolev, Gafni, Merritt, Shavit;
//! PODC 1990 / MIT-LCS-TM-429), plus the baselines they are compared
//! against.
//!
//! An **atomic snapshot memory** lets `n` concurrent processes `update`
//! individual memory segments and `scan` *all* segments in one atomic
//! step — every scan returns a true instantaneous picture of the memory.
//! All constructions here are **wait-free** (every operation finishes in a
//! bounded number of its own steps, regardless of what other processes do)
//! and are built from nothing but atomic read/write registers, exactly as
//! the paper requires:
//!
//! | Type | Paper | Registers | Control state | Ops per scan/update |
//! |------|-------|-----------|---------------|----------------------|
//! | [`UnboundedSnapshot`] | Fig. 2 | single-writer | unbounded seq numbers | `O(n²)` |
//! | [`BoundedSnapshot`] | Fig. 3 | single-writer | handshake + toggle bits | `O(n²)` |
//! | [`MultiWriterSnapshot`] | Fig. 4 | multi-writer | handshake + id/toggle | `O(n²)` |
//! | [`DoubleCollectSnapshot`] | §3 Obs. 1 | single-writer | unbounded seq numbers | **unbounded** (not wait-free) |
//! | [`LockSnapshot`] | — | (a mutex) | — | blocking baseline |
//!
//! Every construction is generic over the register [`Backend`], so the
//! same algorithm code runs on lock-free hardware-backed registers, on
//! counted registers (step-complexity experiments), under the
//! deterministic scheduler of `snapshot-sim` (model checking), or on top
//! of the multi-writer-from-single-writer register construction (the
//! compound-cost experiment of Section 6).
//!
//! [`Backend`]: snapshot_registers::Backend
//!
//! The unbounded, bounded, multi-writer and locked constructions also
//! implement [`TrySnapshotCore`] — the object-level multiplexing
//! interface (`&self` scan / update / partial scan, each taking a lane and
//! the request's [`RequestCtx`]) that the `snapshot-service` front-end
//! serves many concurrent clients over. Its operations return `Result` so
//! the same front-end also runs over emulated registers whose operations
//! can fail — see `snapshot-abd`'s `AbdSnapshotCore`; the in-process
//! constructions never err.
//!
//! # Quickstart
//!
//! ```
//! use snapshot_core::{BoundedSnapshot, SwSnapshot, SwSnapshotHandle};
//! use snapshot_registers::ProcessId;
//!
//! let snapshot = BoundedSnapshot::new(3, 0u64);
//! std::thread::scope(|s| {
//!     for i in 0..3 {
//!         let snapshot = &snapshot;
//!         s.spawn(move || {
//!             let mut h = snapshot.handle(ProcessId::new(i));
//!             h.update((i as u64 + 1) * 10);
//!             let view = h.scan();
//!             // The view is an instantaneous picture: my own segment
//!             // already carries my update.
//!             assert_eq!(view[i], (i as u64 + 1) * 10);
//!         });
//!     }
//! });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod bounded;
mod ctx;
mod deadline;
mod double_collect;
mod fallible;
mod locked;
mod multiwriter;
mod unbounded;
mod view;

pub use api::{MwSnapshot, MwSnapshotHandle, ScanStats, SwSnapshot, SwSnapshotHandle};
pub use ctx::RequestCtx;
pub use deadline::Deadline;
pub use fallible::{CoreError, TrySnapshotCore};
pub use bounded::{BoundedHandle, BoundedSnapshot};
pub use double_collect::{DoubleCollectHandle, DoubleCollectSnapshot};
pub use locked::{LockHandle, LockSnapshot};
pub use multiwriter::{MultiWriterHandle, MultiWriterSnapshot, MwVariant};
pub use unbounded::{UnboundedHandle, UnboundedSnapshot};
pub use view::SnapshotView;
