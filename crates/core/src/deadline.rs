//! Per-request deadline budgets.
//!
//! The paper's wait-freedom bound is a *step* bound: every operation
//! finishes in a bounded number of its own steps. Over emulated registers
//! whose steps are message round-trips, a step bound is not a wall-clock
//! bound — a quorum phase can legally stall for as long as the network
//! does. [`Deadline`] is the wall-clock analogue carried through the
//! service front-end into the register emulation: the instant past which
//! an operation must stop trying and report failure instead of parking.
//!
//! A `Deadline` is a *point in time*, not a duration, so it composes under
//! call nesting: a retry loop and the ABD quorum waits below it both
//! measure themselves against the same instant, and the remaining budget
//! shrinks monotonically as the request descends.
//! It travels as the `deadline` field of [`RequestCtx`](crate::RequestCtx),
//! the one value every layer hands to the next.

use std::fmt;
use std::time::{Duration, Instant};

/// An absolute wall-clock budget for one request.
///
/// `Deadline::none()` is the unbounded deadline — every check reports
/// time remaining. A bounded deadline wraps the [`Instant`] past which
/// the request should fail fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// The unbounded deadline: never expires.
    pub const fn none() -> Self {
        Deadline(None)
    }

    /// A deadline at the absolute instant `at`.
    pub const fn at(at: Instant) -> Self {
        Deadline(Some(at))
    }

    /// A deadline `budget` from now. A budget too large to represent
    /// saturates to [`none`](Self::none).
    pub fn after(budget: Duration) -> Self {
        Deadline(Instant::now().checked_add(budget))
    }

    /// The underlying instant, or `None` for the unbounded deadline.
    pub const fn instant(self) -> Option<Instant> {
        self.0
    }

    /// True if this deadline never expires.
    pub const fn is_unbounded(self) -> bool {
        self.0.is_none()
    }

    /// True if the deadline has passed.
    pub fn expired(self) -> bool {
        self.expired_at(Instant::now())
    }

    /// True if the deadline had passed at `now` — for a caller that
    /// already holds a fresh clock reading.
    pub fn expired_at(self, now: Instant) -> bool {
        self.0.is_some_and(|d| now >= d)
    }

    /// Time left before expiry: `None` when unbounded, zero when already
    /// expired.
    pub fn remaining(self) -> Option<Duration> {
        self.0.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The earlier of the two deadlines (unbounded is the identity).
    pub fn min(self, other: Deadline) -> Deadline {
        match (self.0, other.0) {
            (Some(a), Some(b)) => Deadline(Some(a.min(b))),
            (a, b) => Deadline(a.or(b)),
        }
    }

    /// Caps an instant at this deadline: the wake-up time a wait loop
    /// should use so it never sleeps past the budget.
    pub fn cap(self, wake: Instant) -> Instant {
        match self.0 {
            Some(d) => wake.min(d),
            None => wake,
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

impl fmt::Display for Deadline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.remaining() {
            None => f.write_str("unbounded"),
            Some(left) if left.is_zero() => f.write_str("expired"),
            Some(left) => write!(f, "in {left:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let d = Deadline::none();
        assert!(d.is_unbounded());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        assert_eq!(d.to_string(), "unbounded");
    }

    #[test]
    fn past_deadlines_report_expired() {
        let now = Instant::now();
        let d = Deadline::at(now - Duration::from_millis(1));
        assert!(d.expired());
        assert!(d.expired_at(now));
        assert!(Deadline::at(now).expired_at(now), "a zero budget is spent at once");
        assert!(!d.expired_at(now - Duration::from_millis(2)));
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        assert_eq!(d.to_string(), "expired");
    }

    #[test]
    fn after_grants_the_budget() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        let left = d.remaining().unwrap();
        assert!(left > Duration::from_secs(59));
        assert!(left <= Duration::from_secs(60));
    }

    #[test]
    fn min_picks_the_earlier_and_ignores_unbounded() {
        let soon = Deadline::after(Duration::from_millis(10));
        let late = Deadline::after(Duration::from_secs(10));
        assert_eq!(soon.min(late), soon);
        assert_eq!(late.min(soon), soon);
        assert_eq!(Deadline::none().min(soon), soon);
        assert_eq!(soon.min(Deadline::none()), soon);
        assert!(Deadline::none().min(Deadline::none()).is_unbounded());
    }

    #[test]
    fn cap_bounds_a_wake_instant() {
        let now = Instant::now();
        let d = Deadline::at(now + Duration::from_millis(5));
        assert_eq!(d.cap(now + Duration::from_secs(1)), now + Duration::from_millis(5));
        assert_eq!(d.cap(now), now);
        assert_eq!(Deadline::none().cap(now), now);
    }

    #[test]
    fn huge_budgets_saturate_to_unbounded() {
        let d = Deadline::after(Duration::MAX);
        assert!(d.is_unbounded());
    }
}
