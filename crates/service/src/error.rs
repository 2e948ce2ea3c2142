//! Typed service errors.

use std::fmt;
use std::time::Duration;

use snapshot_core::CoreError;

/// Why the service refused (or could not complete) a request.
///
/// The first four variants are *caller-visible backpressure or usage
/// errors*: rejected requests perform no register operations and the
/// underlying snapshot object is never left in a partial state.
/// [`Degraded`](ServiceError::Degraded) likewise touches no registers —
/// the shard's health gate shed the request before it reached the
/// backend. [`Backend`](ServiceError::Backend) is the one variant that
/// *did* reach the backend: the operation's retry budget was consumed by
/// [`CoreError`]s. For scans that is harmless (reads leave no trace); a
/// failed update is **indeterminate** — the write may or may not have
/// taken effect, exactly like an ABD write that lost its quorum.
/// [`DeadlineExceeded`](ServiceError::DeadlineExceeded) is the wall-clock
/// twin of `Backend`: the request's time budget, not its attempt budget,
/// ran out — with the same indeterminacy rule for updates that had
/// already reached the backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded in-flight budget was exhausted. Retry later (the
    /// admission check is wait-free; there is no queue to sit in).
    Overloaded {
        /// Other requests in flight when the rejection was issued.
        inflight: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A segment index was out of range.
    InvalidSegment {
        /// The offending index.
        segment: usize,
        /// Number of segments the object has.
        segments: usize,
    },
    /// `scan_subset` was called with an empty segment list.
    EmptySubset,
    /// An update named a segment the lane does not own (the backing
    /// construction is single-writer).
    NotOwner {
        /// The requesting lane.
        lane: usize,
        /// The foreign segment it tried to write.
        segment: usize,
    },
    /// A shard's health gate is open (its circuit breaker tripped on
    /// consecutive backend failures): the request was shed without
    /// touching the backend.
    Degraded {
        /// The unhealthy shard.
        shard: usize,
        /// How long until the breaker half-opens and admits a probe — a
        /// retry hint, not a guarantee.
        retry_after: Duration,
    },
    /// The backing core kept erroring until the operation's retry budget
    /// (attempts or deadline) ran out, or failed terminally.
    Backend {
        /// Attempts consumed, including the first.
        attempts: u32,
        /// The final backend error.
        error: CoreError,
    },
    /// The request's deadline budget ran out before the operation could
    /// finish: it failed fast (at admission, before a retry backoff, or
    /// when an ABD quorum wait was cut short) instead of waiting past its
    /// budget. An update that reached the backend before the
    /// deadline expired is **indeterminate**, exactly like
    /// [`Backend`](ServiceError::Backend).
    DeadlineExceeded {
        /// Attempts started before the budget expired (0 if admission
        /// itself was past the deadline).
        attempts: u32,
        /// The budget the request was given.
        budget: Duration,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { inflight, budget } => {
                write!(f, "service overloaded: {inflight} requests in flight (budget {budget})")
            }
            ServiceError::InvalidSegment { segment, segments } => {
                write!(f, "segment {segment} out of range (object has {segments} segments)")
            }
            ServiceError::EmptySubset => f.write_str("scan_subset requires at least one segment"),
            ServiceError::NotOwner { lane, segment } => {
                write!(
                    f,
                    "lane {lane} cannot update segment {segment}: the backing construction \
                     is single-writer"
                )
            }
            ServiceError::Degraded { shard, retry_after } => {
                write!(
                    f,
                    "shard {shard} degraded: health gate open, retry after {:?}",
                    retry_after
                )
            }
            ServiceError::Backend { attempts, error } => {
                write!(f, "backend failed after {attempts} attempt(s): {error}")
            }
            ServiceError::DeadlineExceeded { attempts, budget } => {
                write!(
                    f,
                    "deadline exceeded: {attempts} attempt(s) could not finish within {budget:?}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Backend { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServiceError::Overloaded { inflight: 9, budget: 8 };
        assert!(e.to_string().contains("budget 8"));
        assert!(ServiceError::EmptySubset.to_string().contains("at least one"));
        let d = ServiceError::Degraded { shard: 3, retry_after: Duration::from_millis(10) };
        assert!(d.to_string().contains("shard 3"));
        let b = ServiceError::Backend {
            attempts: 4,
            error: CoreError::Unavailable { reason: "quorum lost".into() },
        };
        assert!(b.to_string().contains("4 attempt(s)"));
        assert!(b.to_string().contains("quorum lost"));
        let t = ServiceError::DeadlineExceeded {
            attempts: 2,
            budget: Duration::from_millis(50),
        };
        assert!(t.to_string().contains("deadline exceeded"));
        assert!(t.to_string().contains("50ms"));
    }

    #[test]
    fn backend_errors_expose_their_source() {
        use std::error::Error as _;
        let b = ServiceError::Backend {
            attempts: 1,
            error: CoreError::Failed { reason: "poisoned".into() },
        };
        assert!(b.source().is_some());
        assert!(ServiceError::EmptySubset.source().is_none());
    }
}
