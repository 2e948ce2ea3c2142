//! Priority classes for shedding and recovery.
//!
//! Wait-freedom is a per-operation promise; at service scale the matching
//! promise is *graceful degradation*: when a shard sickens, the service
//! keeps answering — it just answers some classes of traffic before
//! others. This module defines the classification ([`Priority`]: health
//! probes over partial scans over full scans over update bulk).

/// How important a request class is when a breaker sheds or ramps.
///
/// Ordered by shed resistance: under pressure the service drops
/// [`Bulk`](Priority::Bulk) first and [`Probe`](Priority::Probe) last,
/// and a half-open breaker re-admits classes in the opposite order
/// (probes first — they are cheap, single-shard, and produce exactly the
/// health evidence recovery needs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Update traffic: retried writes are idempotent at the snapshot
    /// level, so bulk is the safest class to delay.
    Bulk,
    /// Full scans: touch every shard, so one sick shard sheds them all.
    Full,
    /// Partial scans: confined to the shards they actually read; sheds
    /// only when one of *those* is sick.
    Partial,
    /// Health probes: minimal single-shard reads admitted first during
    /// half-open recovery.
    Probe,
}

impl Priority {
    /// Numeric rank, higher = shed-resistant (`Bulk` = 0 … `Probe` = 3).
    pub fn rank(self) -> u8 {
        match self {
            Priority::Bulk => 0,
            Priority::Full => 1,
            Priority::Partial => 2,
            Priority::Probe => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_matches_shed_resistance() {
        assert!(Priority::Probe > Priority::Partial);
        assert!(Priority::Partial > Priority::Full);
        assert!(Priority::Full > Priority::Bulk);
        assert_eq!(Priority::Bulk.rank(), 0);
        assert_eq!(Priority::Probe.rank(), 3);
    }
}
