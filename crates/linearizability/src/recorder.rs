use std::fmt;
use std::sync::{Mutex, PoisonError};

use snapshot_obs::Clock;
use snapshot_registers::ProcessId;

use crate::{History, OpRecord, SnapOp};

/// Concurrent capture of a snapshot-object history.
///
/// Threads bracket each operation with [`Recorder::begin`] (immediately
/// before invoking it) and one of the `end_*` methods (immediately after it
/// returns). Timestamps come from one shared logical clock
/// (`fetch_add`), so the recorded intervals are sub-intervals of the real
/// operation intervals — any linearization of the recorded history is a
/// linearization of the real one and vice versa, because all the
/// operation's shared-memory effects happen between the two timestamps.
///
/// Operations that never complete (a crashed process) are registered with
/// [`Recorder::pending_update`] / [`Recorder::pending_scan`] so the
/// checkers know an effect may or may not have taken place.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Recorder<V> {
    n: usize,
    words: usize,
    init: V,
    clock: Clock,
    ops: Mutex<Vec<OpRecord<V>>>,
}

impl<V: Clone> Recorder<V> {
    /// Creates a recorder for `n` processes over `words` memory words all
    /// initialized to `init` (use `words == n` for single-writer objects).
    pub fn new(n: usize, words: usize, init: V) -> Self {
        Self::with_clock(n, words, init, Clock::new())
    }

    /// Like [`Recorder::new`], but timestamps come from the given shared
    /// [`Clock`]. Pass a trace's clock (see `snapshot_obs::Trace::clock`)
    /// to put operation intervals and trace events on one timestamp axis —
    /// the prerequisite for [`render_annotated_timeline`].
    ///
    /// [`render_annotated_timeline`]: crate::render_annotated_timeline
    pub fn with_clock(n: usize, words: usize, init: V, clock: Clock) -> Self {
        Recorder {
            n,
            words,
            init,
            clock,
            ops: Mutex::new(Vec::new()),
        }
    }

    /// Takes an invocation timestamp. Call immediately before invoking the
    /// operation.
    pub fn begin(&self) -> u64 {
        self.clock.tick()
    }

    /// Records a completed `update(word, value)` by `pid` invoked at `inv`.
    pub fn end_update(&self, pid: ProcessId, word: usize, value: V, inv: u64) {
        let res = self.clock.tick();
        self.push(OpRecord {
            pid,
            inv,
            res: Some(res),
            op: SnapOp::Update { word, value },
        });
    }

    /// Records a completed `scan()` by `pid` that returned `view`.
    pub fn end_scan(&self, pid: ProcessId, view: Vec<V>, inv: u64) {
        let res = self.clock.tick();
        self.push(OpRecord {
            pid,
            inv,
            res: Some(res),
            op: SnapOp::Scan { view },
        });
    }

    /// Registers an update that was invoked at `inv` but never returned.
    pub fn pending_update(&self, pid: ProcessId, word: usize, value: V, inv: u64) {
        self.push(OpRecord {
            pid,
            inv,
            res: None,
            op: SnapOp::Update { word, value },
        });
    }

    /// Registers a scan that was invoked at `inv` but never returned.
    ///
    /// A pending scan has no observable result, so it carries an empty
    /// placeholder view and is ignored by the checkers' result matching —
    /// it is recorded for completeness of the interval structure.
    pub fn pending_scan(&self, pid: ProcessId, inv: u64) {
        // A scan has no effect on the object state; a pending scan can
        // always be linearized (or dropped) trivially, so we simply do not
        // record it.
        let _ = (pid, inv);
    }

    /// Finalizes into an immutable [`History`].
    ///
    /// # Panics
    ///
    /// Panics if any recorded operation is malformed (out-of-range pid or
    /// word, wrong view length) — see [`History::from_ops`].
    pub fn finish(self) -> History<V> {
        History::from_ops(
            self.n,
            self.words,
            self.init,
            self.ops
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    fn push(&self, op: OpRecord<V>) {
        // A poisoned lock yields its guard: a push is all that ever runs
        // under it, so the log is intact after a recording thread's panic.
        self.ops
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(op);
    }
}

impl<V> fmt::Debug for Recorder<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("processes", &self.n)
            .field("words", &self.words)
            .field(
                "recorded",
                &self
                    .ops
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_strictly_increasing() {
        let r = Recorder::new(1, 1, 0u8);
        let t1 = r.begin();
        r.end_update(ProcessId::new(0), 0, 1, t1);
        let t2 = r.begin();
        r.end_scan(ProcessId::new(0), vec![1], t2);
        let h = r.finish();
        assert_eq!(h.len(), 2);
        let ops = h.ops();
        assert!(ops[0].inv < ops[0].res.unwrap());
        assert!(ops[0].res.unwrap() < ops[1].inv);
    }

    #[test]
    fn pending_updates_are_kept_incomplete() {
        let r = Recorder::new(2, 2, 0u8);
        let t = r.begin();
        r.pending_update(ProcessId::new(1), 1, 9, t);
        let h = r.finish();
        assert_eq!(h.len(), 1);
        assert!(!h.ops()[0].is_complete());
    }

    #[test]
    fn concurrent_recording_from_many_threads() {
        let r = Recorder::new(4, 4, 0u32);
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = &r;
                s.spawn(move || {
                    let pid = ProcessId::new(t);
                    for k in 0..100 {
                        let inv = r.begin();
                        r.end_update(pid, t, k, inv);
                    }
                });
            }
        });
        let h = r.finish();
        assert_eq!(h.len(), 400);
        // `finish` sorts by invocation.
        assert!(h.ops().windows(2).all(|w| w[0].inv <= w[1].inv));
    }
}
