//! A warm, quiescent scan allocates exactly once: the `Arc<[V]>` of the
//! view it returns.
//!
//! Each handle keeps what its scans need between operations — the record
//! cache, Figure 2–4's `moved` counts, the handshake buffers — and
//! collects a clean view straight into the shared slice, so the steady
//! state of a scan costs no allocator traffic beyond its result. A
//! counting global allocator, scoped to the calling thread, checks it for
//! the three wait-free constructions' handles.
//!
//! One test drives all three: the epoch scheme's occasional collection
//! would allocate if another test's exiting thread had left it garbage to
//! adopt, so this binary starts no other thread that retires records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use snapshot_core::{
    BoundedSnapshot, MultiWriterSnapshot, MwSnapshot, MwSnapshotHandle, SnapshotView, SwSnapshot,
    SwSnapshotHandle, UnboundedSnapshot,
};
use snapshot_registers::ProcessId;

/// Counts the calling thread's allocations; frees are not counted.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `scan` and returns its view with the allocations it made on this
/// thread.
fn counted(scan: impl FnOnce() -> SnapshotView<u64>) -> (SnapshotView<u64>, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let view = scan();
    (view, ALLOCATIONS.with(Cell::get) - before)
}

/// Scans per handle: enough to cross the epoch scheme's periodic
/// collection inside the measured stretch.
const SCANS: usize = 300;

#[test]
fn a_warm_quiescent_scan_allocates_only_its_view() {
    const N: usize = 4;
    let expected = vec![0, 11, 0, 0];

    let unbounded = UnboundedSnapshot::new(N, 0u64);
    unbounded.handle(ProcessId::new(1)).update(11);
    let mut h = unbounded.handle(ProcessId::new(0));
    let _ = h.scan(); // primes the cache
    for _ in 0..SCANS {
        let (view, allocations) = counted(|| h.scan());
        assert_eq!(view.to_vec(), expected);
        assert_eq!(
            allocations, 1,
            "UnboundedHandle: a warm scan allocates its view only"
        );
    }

    let bounded = BoundedSnapshot::new(N, 0u64);
    bounded.handle(ProcessId::new(1)).update(11);
    let mut h = bounded.handle(ProcessId::new(0));
    let _ = h.scan();
    for _ in 0..SCANS {
        let (view, allocations) = counted(|| h.scan());
        assert_eq!(view.to_vec(), expected);
        assert_eq!(
            allocations, 1,
            "BoundedHandle: a warm scan allocates its view only"
        );
    }

    let multiwriter = MultiWriterSnapshot::new(2, N, 0u64);
    multiwriter.handle(ProcessId::new(1)).update(1, 11);
    let mut h = multiwriter.handle(ProcessId::new(0));
    let _ = h.scan();
    for _ in 0..SCANS {
        let (view, allocations) = counted(|| h.scan());
        assert_eq!(view.to_vec(), expected);
        assert_eq!(
            allocations, 1,
            "MultiWriterHandle: a warm scan allocates its view only"
        );
    }
}
