//! Epoch-based reclamation for [`EpochCell`](crate::EpochCell), the one
//! type that retires heap records while other threads may still be
//! reading them. All `unsafe` reclamation lives in this file.
//!
//! # The scheme
//!
//! * a global epoch counter and a push-only list of per-thread
//!   *participants*, each on its own 128-byte block;
//! * [`pin`] copies the global epoch into the caller's participant slot
//!   and issues a `SeqCst` fence — it writes no cache line another thread
//!   writes;
//! * [`Guard::retire`] queues the record in a thread-local bag; a full
//!   bag is *sealed* with the global epoch read after a `SeqCst` fence;
//! * the epoch advances from `e` to `e + 1` only when every pinned
//!   participant is pinned at `e`, and a bag sealed at `e` is destroyed
//!   once the global epoch reaches `e + 2`.
//!
//! Sealed bags stay with the thread that filled them; a thread that exits
//! publishes what it still holds on a global orphan list, tries two
//! advances itself, and leaves the rest to whichever thread collects next.
//! `pin` from inside a thread-local destructor panics — and since a
//! record may be destroyed by its retiring thread's exit, a record's own
//! `Drop` must not read or write an `EpochCell`.
//!
//! # Safety argument
//!
//! *Who may free what.* A record is freed only by [`Deferred::run`], and a
//! `Deferred` exists only for a pointer handed to [`Guard::retire`], whose
//! contract says the pointer came from `Box::into_raw`, has already been
//! swapped out of every place a newly pinned thread could load it from,
//! and is retired once. So the only threads that can still hold the
//! pointer are those that were pinned when it was swapped out.
//!
//! *Why two epochs are enough.* A thread pinned at epoch `p` publishes
//! `p` in its slot and then fences `SeqCst` before its first load
//! ([`Local::pin`]). [`try_advance`] fences `SeqCst` before scanning the
//! slots. The two fences order the pin store against the scan: either the
//! scan sees the slot pinned at `p` and refuses to move the epoch past
//! `p + 1`, or the pinning thread's loads come after the scan and see
//! every swap that preceded it — including the swap that unlinked any
//! record retired before the scan. A bag is sealed with the global epoch
//! `e` read *after* a `SeqCst` fence that follows its last retire, so
//! every reader that could hold one of its records was pinned at some
//! `p <= e`. The epoch reaching `e + 2` required a scan at `e + 1` that
//! found no slot pinned at `e` or earlier: all those readers have
//! unpinned, and `unpin`'s `Release` store, read by the scan and followed
//! by its `Acquire` fence, orders their last dereference before the free.
//!
//! *Why bags never `realloc`.* See the comment in [`Local::retire`]: it
//! is a measured property of the allocator, not of the scheme.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Records queued in the open bag before it is sealed with an epoch.
pub(crate) const BAG_CAPACITY: usize = 64;
/// Pins between two collection attempts by a thread that retires nothing.
const PINS_BETWEEN_COLLECT: usize = 128;

// ---------------------------------------------------------------------
// Global state.
// ---------------------------------------------------------------------

/// One thread's published pin state, alone on its cache-line block.
#[repr(align(128))]
struct Participant {
    /// `0` while unpinned, `(epoch << 1) | 1` while pinned.
    state: AtomicUsize,
    /// Whether a live thread owns this slot (slots are never freed, only
    /// handed to the next thread that registers).
    claimed: AtomicBool,
    next: AtomicPtr<Participant>,
}

#[repr(align(128))]
struct GlobalEpoch(AtomicUsize);

static EPOCH: GlobalEpoch = GlobalEpoch(AtomicUsize::new(0));
static PARTICIPANTS: AtomicPtr<Participant> = AtomicPtr::new(ptr::null_mut());
/// Bags abandoned by exited threads; `ORPHAN_BAGS` mirrors the length so
/// the common case (none) costs one relaxed load.
static ORPHANS: Mutex<Vec<SealedBag>> = Mutex::new(Vec::new());
static ORPHAN_BAGS: AtomicUsize = AtomicUsize::new(0);

fn register() -> &'static Participant {
    let mut cur = PARTICIPANTS.load(Ordering::Acquire);
    // SAFETY (both derefs below): participants are leaked boxes, never
    // freed, so any pointer read from the list stays valid forever.
    while let Some(p) = unsafe { cur.as_ref() } {
        if !p.claimed.load(Ordering::Relaxed)
            && p.claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            return p;
        }
        cur = p.next.load(Ordering::Acquire);
    }
    let fresh: &'static Participant = Box::leak(Box::new(Participant {
        state: AtomicUsize::new(0),
        claimed: AtomicBool::new(true),
        next: AtomicPtr::new(ptr::null_mut()),
    }));
    let mut head = PARTICIPANTS.load(Ordering::Relaxed);
    loop {
        fresh.next.store(head, Ordering::Relaxed);
        match PARTICIPANTS.compare_exchange_weak(
            head,
            fresh as *const Participant as *mut Participant,
            Ordering::Release,
            Ordering::Relaxed,
        ) {
            Ok(_) => return fresh,
            Err(now) => head = now,
        }
    }
}

/// Tries to move the global epoch forward by one; returns the epoch the
/// caller may judge bag expiry against. Must be called while pinned.
fn try_advance() -> usize {
    let global = EPOCH.0.load(Ordering::Relaxed);
    fence(Ordering::SeqCst);
    let mut cur = PARTICIPANTS.load(Ordering::Acquire);
    // SAFETY: participants are never freed (see `register`).
    while let Some(p) = unsafe { cur.as_ref() } {
        let state = p.state.load(Ordering::Relaxed);
        if state & 1 == 1 && state >> 1 != global {
            // Someone is still pinned in an older epoch.
            return global;
        }
        cur = p.next.load(Ordering::Acquire);
    }
    fence(Ordering::Acquire);
    // The caller is pinned at `global`, so no other thread can have moved
    // the epoch past `global + 1`: concurrent advancers store one value.
    EPOCH.0.store(global.wrapping_add(1), Ordering::Release);
    global.wrapping_add(1)
}

// ---------------------------------------------------------------------
// Deferred destruction.
// ---------------------------------------------------------------------

struct Deferred {
    ptr: *mut u8,
    destroy: unsafe fn(*mut u8),
}

// SAFETY: a `Deferred` is only ever *run* (never dereferenced otherwise),
// and `retire`'s contract makes its caller vouch that destroying the
// record from another thread is sound.
unsafe impl Send for Deferred {}

impl Deferred {
    fn new<T>(ptr: *mut T) -> Self {
        unsafe fn destroy<T>(ptr: *mut u8) {
            // SAFETY: `ptr` came from `Box::into_raw` (`retire`'s
            // contract) and is destroyed exactly once, by this call.
            drop(unsafe { Box::from_raw(ptr.cast::<T>()) });
        }
        Deferred {
            ptr: ptr.cast(),
            destroy: destroy::<T>,
        }
    }

    fn run(self) {
        // SAFETY: `destroy` is the monomorphization matching `ptr`.
        unsafe { (self.destroy)(self.ptr) }
    }
}

struct SealedBag {
    epoch: usize,
    items: Vec<Deferred>,
}

impl SealedBag {
    fn expired(&self, global: usize) -> bool {
        global.wrapping_sub(self.epoch) >= 2
    }
}

// ---------------------------------------------------------------------
// Thread-local state.
// ---------------------------------------------------------------------

struct Local {
    participant: Cell<Option<&'static Participant>>,
    guards: Cell<usize>,
    pins: Cell<usize>,
    open: RefCell<Vec<Deferred>>,
    sealed: RefCell<VecDeque<SealedBag>>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            participant: Cell::new(None),
            guards: Cell::new(0),
            pins: Cell::new(0),
            open: RefCell::new(Vec::new()),
            sealed: RefCell::new(VecDeque::new()),
        }
    };
}

impl Local {
    fn participant(&self) -> &'static Participant {
        match self.participant.get() {
            Some(p) => p,
            None => {
                let p = register();
                self.participant.set(Some(p));
                p
            }
        }
    }

    fn pin(&self) {
        let guards = self.guards.get();
        self.guards.set(guards + 1);
        if guards == 0 {
            let p = self.participant();
            let global = EPOCH.0.load(Ordering::Relaxed);
            p.state.store((global << 1) | 1, Ordering::Relaxed);
            // Orders the slot write before every load inside the critical
            // section, against the fence in `try_advance`.
            fence(Ordering::SeqCst);
            let pins = self.pins.get().wrapping_add(1);
            self.pins.set(pins);
            if pins.is_multiple_of(PINS_BETWEEN_COLLECT) {
                self.collect();
            }
        }
    }

    fn unpin(&self) {
        let guards = self.guards.get() - 1;
        self.guards.set(guards);
        if guards == 0 {
            if let Some(p) = self.participant.get() {
                p.state.store(0, Ordering::Release);
            }
        }
    }

    fn retire(&self, deferred: Deferred) {
        let full = {
            let mut open = self.open.borrow_mut();
            if open.capacity() == 0 {
                // Sized once, never grown: growing would `realloc`, and
                // glibc's realloc locks the arena the chunk came from,
                // which after a few frees is as often as not the arena of
                // the *other* thread (chunks migrate through the
                // per-thread caches). That convoy halves write throughput
                // for seconds at a time.
                open.reserve_exact(BAG_CAPACITY);
            }
            open.push(deferred);
            open.len() >= BAG_CAPACITY
        };
        if full {
            self.seal();
            self.collect();
        }
    }

    /// Stamps the open bag with the current global epoch and queues it.
    fn seal(&self) {
        let items = std::mem::take(&mut *self.open.borrow_mut());
        if items.is_empty() {
            return;
        }
        fence(Ordering::SeqCst);
        let epoch = EPOCH.0.load(Ordering::Relaxed);
        self.sealed
            .borrow_mut()
            .push_back(SealedBag { epoch, items });
    }

    /// Advances the epoch if possible and destroys every expired bag.
    /// Caller is pinned.
    fn collect(&self) {
        let global = try_advance();
        loop {
            // Pop under a short borrow: a destructor may retire more.
            let bag = {
                let mut sealed = self.sealed.borrow_mut();
                match sealed.front() {
                    Some(bag) if bag.expired(global) => sealed.pop_front(),
                    _ => None,
                }
            };
            match bag {
                Some(bag) => bag.items.into_iter().for_each(Deferred::run),
                None => break,
            }
        }
        if ORPHAN_BAGS.load(Ordering::Relaxed) > 0 {
            let expired: Vec<SealedBag> = match ORPHANS.try_lock() {
                Ok(mut orphans) => {
                    let (dead, live) = std::mem::take(&mut *orphans)
                        .into_iter()
                        .partition(|bag: &SealedBag| bag.expired(global));
                    *orphans = live;
                    ORPHAN_BAGS.store(orphans.len(), Ordering::Relaxed);
                    dead
                }
                Err(_) => Vec::new(),
            };
            for bag in expired {
                bag.items.into_iter().for_each(Deferred::run);
            }
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Thread exit: publish unexpired garbage for the survivors, then
        // try the two advances that expire it — with nobody else pinned
        // they succeed and nothing outlives the thread that retired it;
        // otherwise whoever collects next inherits the bags.
        self.seal();
        let bags: Vec<SealedBag> = self.sealed.get_mut().drain(..).collect();
        if !bags.is_empty() {
            let mut orphans = ORPHANS.lock().unwrap_or_else(PoisonError::into_inner);
            orphans.extend(bags);
            ORPHAN_BAGS.store(orphans.len(), Ordering::Relaxed);
        }
        if ORPHAN_BAGS.load(Ordering::Relaxed) > 0 {
            for _ in 0..2 {
                self.pin();
                self.collect();
                self.unpin();
            }
        }
        // Free the participant slot for the next thread.
        if let Some(p) = self.participant.get() {
            p.state.store(0, Ordering::Release);
            p.claimed.store(false, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------
// The module's surface: `pin`, `Guard::retire`.
// ---------------------------------------------------------------------

/// Proof that the current thread is pinned: a pointer loaded from a shared
/// slot while it lives stays allocated until it is dropped.
pub(crate) struct Guard {
    /// The pinning thread's state; `Guard` is `!Send`, so always the
    /// current thread's.
    local: *const Local,
}

/// Pins the current thread. Nested pins share the outermost one.
///
/// # Panics
///
/// Panics when called from a thread-local destructor after this module's
/// own thread-local state is gone.
pub(crate) fn pin() -> Guard {
    LOCAL.with(|local| {
        local.pin();
        Guard { local }
    })
}

impl Guard {
    /// Destroys the record behind `ptr` once no pinned thread can still
    /// hold a reference to it.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Box::into_raw` and be unreachable for threads
    /// that pin after this call (it has been swapped out of every shared
    /// slot); it must not be destroyed or retired twice; and dropping the
    /// record on another thread must be sound.
    pub(crate) unsafe fn retire<T>(&self, ptr: *mut T) {
        debug_assert!(!ptr.is_null(), "retire on a null pointer");
        // SAFETY: `local` points at the thread-local of the thread that
        // created this guard; `Guard` is `!Send`, so that is the current
        // thread and its thread-local is still alive.
        unsafe { &*self.local }.retire(Deferred::new(ptr));
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // SAFETY: as in `retire`.
        unsafe { &*self.local }.unpin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochCell, ProcessId, Register};
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // Tests share the global epoch with every other test in the binary.
    // Each assertion below holds whatever the others do: a pin held by
    // this test caps the epoch at one past the pinned value, and freeing
    // is only ever *awaited*, with a deadline.

    /// A record that counts its own destruction.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn retire_counted(guard: &Guard, drops: &Arc<AtomicUsize>) {
        let record = Box::into_raw(Box::new(Counted(Arc::clone(drops))));
        // SAFETY: fresh from `Box::into_raw`, never shared, retired once.
        unsafe { guard.retire(record) };
    }

    /// Seals the open bag and collects once, as a filled bag would; returns
    /// the epoch the newest sealed bag carries, if any is queued.
    fn flush() -> Option<usize> {
        let _guard = pin();
        LOCAL.with(|local| {
            local.seal();
            let sealed_at = local.sealed.borrow().back().map(|bag| bag.epoch);
            local.collect();
            sealed_at
        })
    }

    fn flush_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            flush();
        }
    }

    #[test]
    fn a_retired_record_survives_a_concurrent_pin_and_dies_two_epochs_later() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (pinned_tx, pinned_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let _guard = pin();
                pinned_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
            pinned_rx.recv().unwrap();

            // Retired while the reader is pinned: the reader could hold it.
            retire_counted(&pin(), &drops);
            let sealed_at = flush().expect("the retired record's bag is queued");
            for _ in 0..1_000 {
                flush();
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "freed while a thread pinned before the retire was still pinned"
            );
            assert!(
                EPOCH.0.load(Ordering::SeqCst).wrapping_sub(sealed_at) < 2,
                "the epoch ran two past a bag sealed under a live pin"
            );

            release_tx.send(()).unwrap();
            reader.join().unwrap();
            flush_until("the record is freed", || drops.load(Ordering::SeqCst) == 1);
            assert!(EPOCH.0.load(Ordering::SeqCst).wrapping_sub(sealed_at) >= 2);
        });
    }

    #[test]
    fn nested_pins_share_the_outer_pin() {
        let drops = Arc::new(AtomicUsize::new(0));
        let pinned =
            || LOCAL.with(|local| local.participant().state.load(Ordering::SeqCst) & 1 == 1);
        assert!(!pinned());
        let outer = pin();
        let published = LOCAL.with(|local| local.participant().state.load(Ordering::SeqCst));
        let inner = pin();
        assert_eq!(LOCAL.with(|local| local.guards.get()), 2);
        assert_eq!(
            LOCAL.with(|local| local.participant().state.load(Ordering::SeqCst)),
            published,
            "an inner pin must not republish the slot"
        );
        retire_counted(&inner, &drops);
        drop(inner);
        assert!(
            pinned(),
            "dropping the inner guard must leave the thread pinned"
        );
        // Still pinned, so the epoch cannot run two past the record's bag.
        for _ in 0..1_000 {
            LOCAL.with(|local| {
                local.seal();
                local.collect();
            });
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under the outer pin");
        drop(outer);
        assert!(!pinned());
        flush_until("the record is freed", || drops.load(Ordering::SeqCst) == 1);
    }

    #[test]
    fn an_exiting_thread_hands_its_bags_to_a_survivor() {
        let drops = Arc::new(AtomicUsize::new(0));
        // While this pin lives, nothing retired from now on can expire —
        // so the exiting thread's own two advances cannot free its bags.
        let keeper = pin();
        let retired = BAG_CAPACITY + 1; // one sealed bag, one record in the open bag
        std::thread::spawn({
            let drops = Arc::clone(&drops);
            move || {
                let guard = pin();
                for _ in 0..retired {
                    retire_counted(&guard, &drops);
                }
            }
        })
        .join()
        .unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert!(
            ORPHAN_BAGS.load(Ordering::SeqCst) >= 2,
            "the sealed bag and the open one (sealed at exit) are on the orphan list"
        );
        drop(keeper);
        flush_until("a survivor frees the orphans", || {
            drops.load(Ordering::SeqCst) == retired
        });
    }

    #[test]
    fn a_million_writes_from_two_threads_keep_the_live_record_count_bounded() {
        const THREADS: usize = 2;
        const WRITES: usize = 1_000_000;
        // Per thread: the open bag and the bags of the two epochs that have
        // not expired yet.
        const BOUND: usize = THREADS * 3 * BAG_CAPACITY;

        struct Live {
            created: AtomicUsize,
            dropped: AtomicUsize,
        }
        struct Record(Arc<Live>);
        impl Record {
            fn new(live: &Arc<Live>) -> Self {
                live.created.fetch_add(1, Ordering::SeqCst);
                Record(Arc::clone(live))
            }
        }
        impl Clone for Record {
            fn clone(&self) -> Self {
                Record::new(&self.0)
            }
        }
        impl Drop for Record {
            fn drop(&mut self) {
                self.0.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }

        let live = Arc::new(Live {
            created: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        });
        // Dropped first, created second: never under-counts the dead.
        let alive = || {
            let dropped = live.dropped.load(Ordering::SeqCst);
            live.created.load(Ordering::SeqCst) - dropped
        };
        let cell = EpochCell::new(Record::new(&live));
        // A leak grows without bound, so the smallest count seen in the
        // second half of the run tells a leak from a backlog: a thread
        // descheduled while pinned lets the other's bags pile up, but
        // they drain again once it runs.
        let mut low_water = usize::MAX;
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cell, live) = (&cell, &live);
                    scope.spawn(move || {
                        for _ in 0..WRITES / THREADS {
                            cell.write(ProcessId::new(t), Record::new(live));
                        }
                    })
                })
                .collect();
            while !writers.iter().all(|w| w.is_finished()) {
                if live.created.load(Ordering::SeqCst) > WRITES / 2 {
                    low_water = low_water.min(alive());
                }
                std::thread::yield_now();
            }
            for writer in writers {
                writer.join().unwrap();
            }
        });
        assert_eq!(live.created.load(Ordering::SeqCst), WRITES + 1);
        assert!(
            low_water <= BOUND + 1,
            "live records never came back under {BOUND} (+ the installed one): {low_water}"
        );
        // Both writers are gone; what they could not free on the way out is
        // orphaned, and any pinning thread finishes the job.
        flush_until("only the installed record is left", || alive() == 1);
        drop(cell);
        assert_eq!(alive(), 0);
    }
}
