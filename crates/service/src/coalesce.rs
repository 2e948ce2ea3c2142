//! The scan-coalescing rendezvous.
//!
//! [`Coalescer`] lets many concurrent scan requests share one underlying
//! collect, with the paper's borrowed-view discipline (Observation 2 /
//! Lemma 4.1) lifted to the service layer: a request may return a view
//! produced by someone else **only if** the collect that produced it
//! started after the request did — then the collect interval is nested in
//! the request interval, so the collect's linearization point is a valid
//! linearization point for the borrowing request too.
//!
//! The protocol is a generation counter under one mutex:
//!
//! * `started` — bumped by a leader at election, which is also when its
//!   collect starts (the leader runs the collect immediately after
//!   [`enter`](Coalescer::enter) returns);
//! * `published` — the generation of the newest completed view;
//! * `failed` — the generation of the newest *failed* collect (fallible
//!   backing cores can error instead of publishing).
//!
//! A request records `my_gen = started` on entry. It may accept a
//! published view iff `published > my_gen`: such a view's collect was
//! elected — and therefore started — after the request entered. When no
//! acceptable view exists, the request becomes the leader if the seat is
//! free, else parks on a condvar. In particular a request that arrives
//! *during* collect `g` never accepts `g` (some of `g`'s reads may
//! precede the request); it is served by collect `g + 1`, whose leader is
//! elected from the parked cohort when `g` publishes. Every request
//! therefore waits for at most two collects, and each collect serves the
//! whole cohort parked before its election — the coalescing win.
//!
//! # Failure fan-out
//!
//! A leader whose collect errors calls [`LeadToken::fail`] instead of
//! publishing. The same generation rule then routes the *error*: a waiter
//! observing `failed > my_gen` learns that the collect elected to serve it
//! died, and returns [`Entry::Failed`] instead of parking forever. A
//! waiter that arrived *during* the failing collect (`my_gen = failed`)
//! is untouched by the error — the dead collect was never acceptable to
//! it anyway — and simply re-elects on the freed seat, exactly as it
//! would after a leader crash ([`LeadToken`]'s drop-abdication). Both
//! paths wake the whole cohort, so no waiter can park forever behind a
//! failed collect.
//!
//! Failed generations keep `started` bumped and never rewind. That is
//! what preserves the Observation-2 nesting condition across a
//! fault/heal boundary: any request re-entering after a fan-out error
//! records a *fresh* `my_gen ≥ failed`, so the only views it can ever
//! accept come from collects started after the re-entry — a post-heal
//! view can never be smuggled to a pre-fault request whose interval it
//! does not nest inside.

use std::sync::{Condvar, Mutex, MutexGuard};

use snapshot_core::{CoreError, Deadline};

struct CoalState<T> {
    /// Generation of the most recently elected leader (its collect starts
    /// at election).
    started: u64,
    /// Whether a leader is currently elected and collecting.
    leading: bool,
    /// Generation of the newest published view (0 = none yet).
    published: u64,
    /// The newest published view.
    view: Option<T>,
    /// Span id of the collect that produced `view` (0 = untraced): handed
    /// to joiners so their park spans can record a causal `follows` edge
    /// to the lead's collect.
    view_span: u64,
    /// Generation of the newest failed collect (0 = none yet).
    failed: u64,
    /// The error the newest failed collect died with.
    error: Option<CoreError>,
    /// Leaders that ended without publishing: explicit failures plus
    /// drop-abdications.
    abdications: u64,
    /// Requests currently parked on the condvar (observability; tests use
    /// it to stage deterministic cohorts).
    waiting: usize,
}

/// A generation-counted rendezvous point for coalescing scans.
#[derive(Debug)]
pub(crate) struct Coalescer<T> {
    state: Mutex<CoalState<T>>,
    cv: Condvar,
}

impl<T> std::fmt::Debug for CoalState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoalState")
            .field("started", &self.started)
            .field("leading", &self.leading)
            .field("published", &self.published)
            .field("failed", &self.failed)
            .field("abdications", &self.abdications)
            .field("waiting", &self.waiting)
            .finish()
    }
}

/// Outcome of [`Coalescer::enter`].
pub(crate) enum Entry<'a, T> {
    /// An acceptable view was (or became) available: its collect started
    /// after this request entered.
    Joined {
        /// The generation of the accepted view.
        generation: u64,
        /// The accepted view.
        view: T,
        /// Span id of the lead's collect span (0 when the lead was
        /// untraced): the joiner's causal link to the work it borrowed.
        lead_span: u64,
    },
    /// The collect elected to serve this request failed: the leader's
    /// error, fanned out to the cohort. The caller decides whether to
    /// re-enter (a fresh entry re-elects) or surface the error.
    Failed {
        /// The error the leader's collect died with.
        error: CoreError,
    },
    /// This request was elected leader: it must run the collect and
    /// [`publish`](LeadToken::publish) the result (or
    /// [`fail`](LeadToken::fail) it).
    Lead(LeadToken<'a, T>),
    /// The request's own deadline expired before any resolution arrived:
    /// it leaves the rendezvous empty-handed rather than parking past its
    /// budget. Crucially a waiter measures *its own* deadline here — it
    /// never inherits the (possibly longer) budget of the leader whose
    /// collect it was waiting on.
    Expired,
}

/// Leadership of one collect generation.
///
/// A leader ends its generation one of three ways: [`publish`] a
/// completed view, [`fail`] with the collect's typed error (fanned out to
/// the cohort), or drop without either (the collect panicked), which
/// abdicates — the seat is freed and waiters are woken so one of them can
/// take over. A stuck leader never wedges the cohort.
///
/// [`publish`]: LeadToken::publish
/// [`fail`]: LeadToken::fail
pub(crate) struct LeadToken<'a, T> {
    coalescer: &'a Coalescer<T>,
    generation: u64,
    done: bool,
}

fn lock<T>(m: &Mutex<CoalState<T>>) -> MutexGuard<'_, CoalState<T>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T: Clone> Coalescer<T> {
    pub(crate) fn new() -> Self {
        Coalescer {
            state: Mutex::new(CoalState {
                started: 0,
                leading: false,
                published: 0,
                view: None,
                view_span: 0,
                failed: 0,
                error: None,
                abdications: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Joins the rendezvous: returns an acceptable published view, the
    /// fanned-out error of the collect that was serving this request,
    /// leadership of the next collect, or [`Entry::Expired`] once the
    /// request's own `deadline` passes unresolved. Blocks (without
    /// holding the lock, and never past `deadline`) while another
    /// leader's collect is in flight and none of those resolutions is
    /// available yet.
    pub(crate) fn enter(&self, deadline: Deadline) -> Entry<'_, T> {
        let mut s = lock(&self.state);
        let my_gen = s.started;
        loop {
            // Success is checked before failure: if a newer collect
            // published after an older one failed, the view serves this
            // request and the stale error is irrelevant to it.
            if s.published > my_gen {
                let generation = s.published;
                let view = s.view.clone().expect("published generation without a view");
                return Entry::Joined { generation, view, lead_span: s.view_span };
            }
            if s.failed > my_gen {
                let error = s.error.clone().expect("failed generation without an error");
                return Entry::Failed { error };
            }
            // Deadline before leadership: an out-of-budget request must
            // not start a collect it has no time to run.
            if deadline.expired() {
                return Entry::Expired;
            }
            if !s.leading {
                s.leading = true;
                s.started += 1;
                let generation = s.started;
                return Entry::Lead(LeadToken { coalescer: self, generation, done: false });
            }
            s.waiting += 1;
            s = match deadline.remaining() {
                None => self.cv.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(left) => {
                    // Timed park: on timeout the loop re-checks — a view
                    // or error that raced the deadline still wins.
                    let (guard, _timeout) = self
                        .cv
                        .wait_timeout(s, left)
                        .unwrap_or_else(|e| e.into_inner());
                    guard
                }
            };
            s.waiting -= 1;
        }
    }

    /// Number of requests currently parked waiting for a collect.
    pub(crate) fn waiters(&self) -> usize {
        lock(&self.state).waiting
    }

    /// Number of leaderships that ended without a published view
    /// (explicit failures plus drop-abdications).
    pub(crate) fn abdications(&self) -> u64 {
        lock(&self.state).abdications
    }
}

impl<T> LeadToken<'_, T> {
    /// The generation this leader's collect carries.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Publishes the completed collect's view and wakes the cohort.
    /// `span` is the id of the collect span that produced the view (0
    /// when untraced); joiners record it as a causal `follows` edge.
    pub(crate) fn publish(mut self, view: T, span: u64) {
        let mut s = lock(&self.coalescer.state);
        debug_assert_eq!(s.started, self.generation, "interleaved leaders");
        s.leading = false;
        s.published = self.generation;
        s.view = Some(view);
        s.view_span = span;
        self.done = true;
        drop(s);
        self.coalescer.cv.notify_all();
    }

    /// Ends the generation with the collect's error and wakes the cohort.
    ///
    /// Every waiter this collect was serving (`my_gen < generation`)
    /// receives [`Entry::Failed`] with this error; waiters that arrived
    /// during the collect re-elect on the freed seat.
    pub(crate) fn fail(mut self, error: CoreError) {
        let mut s = lock(&self.coalescer.state);
        debug_assert_eq!(s.started, self.generation, "interleaved leaders");
        s.leading = false;
        s.failed = self.generation;
        s.error = Some(error);
        s.abdications += 1;
        self.done = true;
        drop(s);
        self.coalescer.cv.notify_all();
    }
}

impl<T> Drop for LeadToken<'_, T> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Abdication: free the seat so a waiter can lead the generation's
        // retry. `started` stays bumped — waiters from before this failed
        // election still need a collect that starts after them, which the
        // successor provides.
        let mut s = lock(&self.coalescer.state);
        s.leading = false;
        s.abdications += 1;
        drop(s);
        self.coalescer.cv.notify_all();
    }
}

impl<T> std::fmt::Debug for LeadToken<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeadToken")
            .field("generation", &self.generation)
            .field("done", &self.done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unavailable() -> CoreError {
        CoreError::Unavailable { reason: "quorum lost".into() }
    }

    #[test]
    fn first_entrant_leads_generation_one() {
        let c: Coalescer<u32> = Coalescer::new();
        match c.enter(Deadline::none()) {
            Entry::Lead(t) => assert_eq!(t.generation(), 1),
            _ => panic!("nothing published yet"),
        };
    }

    #[test]
    fn entrant_after_publish_must_not_accept_the_old_view() {
        // The published collect started before this entrant's request, so
        // the generation rule forces a fresh collect.
        let c: Coalescer<u32> = Coalescer::new();
        let Entry::Lead(t) = c.enter(Deadline::none()) else { panic!("expected lead") };
        t.publish(7, 0);
        match c.enter(Deadline::none()) {
            Entry::Lead(t) => assert_eq!(t.generation(), 2),
            _ => panic!("stale view accepted"),
        };
    }

    #[test]
    fn waiter_parked_during_a_collect_joins_the_next_generation() {
        let c: Coalescer<u32> = Coalescer::new();
        let Entry::Lead(t1) = c.enter(Deadline::none()) else { panic!("expected lead") };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match c.enter(Deadline::none()) {
                // Parked during collect 1 → elected for collect 2.
                Entry::Lead(t2) => {
                    assert_eq!(t2.generation(), 2);
                    t2.publish(8, 0);
                    8
                }
                _ => panic!("must not accept generation 1"),
            });
            while c.waiters() == 0 {
                std::thread::yield_now();
            }
            t1.publish(7, 0);
            assert_eq!(waiter.join().unwrap(), 8);
        });
        // A cohort parked during collect 2 would have accepted it; a fresh
        // entrant (request started after collect 2) must not.
        assert!(matches!(c.enter(Deadline::none()), Entry::Lead(_)));
    }

    #[test]
    fn cohort_parked_before_election_accepts_the_published_view() {
        let c: Coalescer<u32> = Coalescer::new();
        let Entry::Lead(t1) = c.enter(Deadline::none()) else { panic!("expected lead") };
        std::thread::scope(|s| {
            let followers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| match c.enter(Deadline::none()) {
                        Entry::Joined { generation, view, .. } => (generation, view, false),
                        Entry::Lead(t) => {
                            let g = t.generation();
                            t.publish(90 + g as u32, 0);
                            (g, 90 + g as u32, true)
                        }
                        Entry::Failed { .. } => panic!("nothing failed"),
                        Entry::Expired => panic!("unbounded deadlines never expire"),
                    })
                })
                .collect();
            while c.waiters() < 4 {
                std::thread::yield_now();
            }
            // All four parked during collect 1: exactly one leads collect
            // 2, the other three join it.
            t1.publish(70, 0);
            let results: Vec<_> = followers.into_iter().map(|f| f.join().unwrap()).collect();
            assert_eq!(results.iter().filter(|r| r.2).count(), 1, "one leader");
            for (generation, view, _) in results {
                assert_eq!(generation, 2);
                assert_eq!(view, 92);
            }
        });
    }

    #[test]
    fn dropped_leadership_is_taken_over_by_a_waiter() {
        let c: Coalescer<u32> = Coalescer::new();
        let Entry::Lead(t1) = c.enter(Deadline::none()) else { panic!("expected lead") };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match c.enter(Deadline::none()) {
                Entry::Lead(t) => {
                    t.publish(5, 0);
                    true
                }
                _ => false,
            });
            while c.waiters() == 0 {
                std::thread::yield_now();
            }
            drop(t1); // leader "crashed" without publishing
            assert!(waiter.join().unwrap(), "waiter must inherit the seat");
        });
        assert_eq!(c.abdications(), 1);
    }

    #[test]
    fn failure_fans_out_to_the_cohort_the_collect_served() {
        // Three waiters park during collect 1. The leader abdicates, one
        // waiter inherits the seat as collect 2 — elected to serve the
        // other two — and its collect fails: both must receive the error
        // rather than park forever.
        let c: Coalescer<u32> = Coalescer::new();
        let Entry::Lead(t1) = c.enter(Deadline::none()) else { panic!("expected lead") };
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| match c.enter(Deadline::none()) {
                        Entry::Lead(t) => {
                            assert_eq!(t.generation(), 2);
                            t.fail(unavailable());
                            None
                        }
                        Entry::Failed { error } => Some(error),
                        Entry::Joined { .. } => panic!("nothing publishable"),
                        Entry::Expired => panic!("unbounded deadlines never expire"),
                    })
                })
                .collect();
            while c.waiters() < 3 {
                std::thread::yield_now();
            }
            drop(t1);
            let results: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
            let fanned: Vec<_> = results.iter().flatten().collect();
            assert_eq!(fanned.len(), 2, "exactly one waiter led, two got the fan-out");
            for error in fanned {
                assert_eq!(*error, unavailable());
            }
        });
        assert_eq!(c.abdications(), 2, "one drop + one explicit failure");
    }

    #[test]
    fn waiters_parked_during_the_failing_collect_reelect() {
        // A waiter that arrived during collect 1 is NOT served by it — it
        // ignores the failure and simply inherits the seat, like after a
        // crash.
        let c: Coalescer<u32> = Coalescer::new();
        let Entry::Lead(t1) = c.enter(Deadline::none()) else { panic!("expected lead") };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match c.enter(Deadline::none()) {
                Entry::Lead(t) => {
                    assert_eq!(t.generation(), 2);
                    t.publish(9, 0);
                    true
                }
                _ => false,
            });
            while c.waiters() == 0 {
                std::thread::yield_now();
            }
            t1.fail(unavailable());
            assert!(waiter.join().unwrap(), "waiter must re-elect, not receive gen-1's error");
        });
    }

    #[test]
    fn expired_entrant_leaves_without_taking_the_seat() {
        use std::time::{Duration, Instant};
        let c: Coalescer<u32> = Coalescer::new();
        // The seat is free, but an expired request must not lead.
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(matches!(c.enter(past), Entry::Expired));
        // The rendezvous is untouched: a live request leads generation 1.
        let entry = c.enter(Deadline::none());
        match entry {
            Entry::Lead(t) => assert_eq!(t.generation(), 1),
            _ => panic!("expired entrant must not consume a generation"),
        }
    }

    #[test]
    fn waiter_honors_its_own_deadline_not_the_leaders() {
        use std::time::Duration;
        // The leader (unbounded budget) parks the cohort. A waiter with a
        // short budget must give up with Expired instead of inheriting
        // the leader's patience; a resolution arriving later is ignored.
        let c: Coalescer<u32> = Coalescer::new();
        let Entry::Lead(t1) = c.enter(Deadline::none()) else { panic!("expected lead") };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let d = Deadline::after(Duration::from_millis(20));
                let started = std::time::Instant::now();
                let out = c.enter(d);
                (matches!(out, Entry::Expired), started.elapsed())
            });
            let (expired, waited) = waiter.join().unwrap();
            assert!(expired, "short-budget waiter must expire, not park");
            assert!(waited < Duration::from_secs(5), "must not wait for the leader");
            t1.publish(7, 0); // the leader finishing later is fine
        });
        assert_eq!(c.waiters(), 0, "expired waiters un-count themselves");
    }

    #[test]
    fn fresh_entrant_after_a_failure_never_sees_the_stale_error() {
        let c: Coalescer<u32> = Coalescer::new();
        let Entry::Lead(t1) = c.enter(Deadline::none()) else { panic!("expected lead") };
        t1.fail(unavailable());
        // my_gen = started = 1 = failed: the failure predates this request
        // and must not leak into it.
        let Entry::Lead(t2) = c.enter(Deadline::none()) else { panic!("stale error leaked") };
        assert_eq!(t2.generation(), 2);
        t2.publish(11, 0);
        // And the post-heal view obeys the same generation rule as ever: a
        // request entering now must not accept collect 2.
        assert!(matches!(c.enter(Deadline::none()), Entry::Lead(_)));
    }
}
