//! Priority classes and the metrics-driven hot-shard load report.
//!
//! Wait-freedom is a per-operation promise; at service scale the matching
//! promise is *graceful degradation*: when a shard sickens or load skews,
//! the service keeps answering — it just answers some classes of traffic
//! before others. This module defines the classification
//! ([`Priority`]: health probes over partial scans over full scans over
//! update bulk) and the [`LoadReport`] view that aggregates per-shard
//! hit/error/latency counts into a skew diagnosis, feeding `retry_after`
//! hints and laying the seam for generation-swapped shard maps later.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

    /// Stable lowercase name for metrics/traces.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Bulk => "bulk",
            Priority::Full => "full",
            Priority::Partial => "partial",
            Priority::Probe => "probe",
        }
    }
}

/// Lock-free per-shard load accumulators (service-internal).
#[derive(Debug, Default)]
pub(crate) struct ShardLoad {
    hits: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    latency_us_total: AtomicU64,
    latency_samples: AtomicU64,
}

impl ShardLoad {
    pub(crate) fn record_hit(&self, latency: Duration) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_us_total.fetch_add(us, Ordering::Relaxed);
        self.latency_samples.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stat(&self, shard: usize, open: bool) -> ShardLoadStat {
        let samples = self.latency_samples.load(Ordering::Relaxed);
        let total = self.latency_us_total.load(Ordering::Relaxed);
        ShardLoadStat {
            shard,
            hits: self.hits.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            mean_latency_us: total.checked_div(samples).unwrap_or(0),
            open,
        }
    }
}

/// One shard's row in a [`LoadReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoadStat {
    /// The shard index.
    pub shard: usize,
    /// Backend operations that reached this shard and succeeded.
    pub hits: u64,
    /// Backend operations that reached this shard and errored.
    pub errors: u64,
    /// Requests shed at this shard's gate without touching the backend.
    pub shed: u64,
    /// Mean backend latency of this shard's hits, in microseconds.
    pub mean_latency_us: u64,
    /// True if the shard's breaker was open when the report was taken.
    pub open: bool,
}

/// Minimum total hits before the report diagnoses skew — below this the
/// sample is noise, not a hot shard.
const SKEW_VOLUME_FLOOR: u64 = 64;

/// Hot-shard threshold: a shard is hot when its hits are at least double
/// the per-shard mean, expressed in permille (‰ of the mean).
const SKEW_HOT_PERMILLE: u64 = 2000;

/// An instantaneous diagnosis of load distribution across shards.
///
/// Taken with [`SnapshotService::load_report`]; the same numbers are
/// exported as `service.load.*` gauges. `hot_shard` flags the busiest
/// shard once traffic is meaningfully skewed — the seam a later
/// generation-swapped shard map will consume to rebalance ranges.
///
/// [`SnapshotService::load_report`]: crate::SnapshotService::load_report
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Per-shard rows, indexed by shard.
    pub shards: Vec<ShardLoadStat>,
    /// The busiest shard's hit share, in permille of the per-shard mean
    /// (1000 = perfectly balanced; 2000 = double its fair share). Zero
    /// when there is no traffic.
    pub skew_permille: u64,
    /// The busiest shard, if traffic is skewed enough to matter (volume
    /// past a floor and the leader at ≥ 2× the mean).
    pub hot_shard: Option<usize>,
    /// Permille of served partial scans that did **not** fall back to a
    /// projected full scan — they were served natively, joined a cohort,
    /// or covered every segment. 1000 until the first partial is served
    /// (a quiet service reads as healthy); a sagging ratio means subset
    /// traffic is paying full-scan cost and the backing (or contention
    /// profile) deserves a look.
    pub partial_certified_permille: u64,
}

impl LoadReport {
    /// Builds the report from per-shard rows.
    pub(crate) fn compute(shards: Vec<ShardLoadStat>) -> Self {
        let n = shards.len().max(1) as u64;
        let total: u64 = shards.iter().map(|s| s.hits).sum();
        let (leader, leader_hits) = shards
            .iter()
            .map(|s| (s.shard, s.hits))
            .max_by_key(|&(_, hits)| hits)
            .unwrap_or((0, 0));
        let skew_permille = (leader_hits * 1000 * n).checked_div(total).unwrap_or(0);
        let hot = shards.len() > 1
            && total >= SKEW_VOLUME_FLOOR
            && skew_permille >= SKEW_HOT_PERMILLE;
        LoadReport {
            shards,
            skew_permille,
            hot_shard: hot.then_some(leader),
            partial_certified_permille: 1000,
        }
    }

    /// True if the report flags a hot shard.
    pub fn is_skewed(&self) -> bool {
        self.hot_shard.is_some()
    }

    /// Scales a breaker's `retry_after` hint by this report's view of
    /// `shard`: a hot shard gets a longer hint (up to 4× `base`) so its
    /// retry cohort spreads out instead of re-converging on the hotspot.
    pub fn retry_after_hint(&self, shard: usize, base: Duration) -> Duration {
        if self.hot_shard != Some(shard) {
            return base;
        }
        // skew_permille ≥ 2000 here; 2000‰ → 2×, capped at 4×.
        let factor_permille = self.skew_permille.min(4000);
        base.saturating_mul((factor_permille / 1000).max(1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(shard: usize, hits: u64) -> ShardLoadStat {
        ShardLoadStat { shard, hits, ..ShardLoadStat::default() }
    }

    #[test]
    fn priority_order_matches_shed_resistance() {
        assert!(Priority::Probe > Priority::Partial);
        assert!(Priority::Partial > Priority::Full);
        assert!(Priority::Full > Priority::Bulk);
        assert_eq!(Priority::Bulk.rank(), 0);
        assert_eq!(Priority::Probe.rank(), 3);
        assert_eq!(Priority::Partial.name(), "partial");
    }

    #[test]
    fn balanced_load_reports_no_hot_shard() {
        let r = LoadReport::compute(vec![stat(0, 100), stat(1, 100), stat(2, 100)]);
        assert_eq!(r.skew_permille, 1000);
        assert!(!r.is_skewed());
        assert_eq!(r.hot_shard, None);
    }

    #[test]
    fn skewed_load_flags_the_leader() {
        let r = LoadReport::compute(vec![stat(0, 10), stat(1, 180), stat(2, 10)]);
        assert!(r.skew_permille >= 2000, "{}", r.skew_permille);
        assert_eq!(r.hot_shard, Some(1));
    }

    #[test]
    fn low_volume_never_diagnoses_skew() {
        let r = LoadReport::compute(vec![stat(0, 0), stat(1, 10)]);
        assert!(!r.is_skewed(), "10 hits total is noise, not skew");
    }

    #[test]
    fn empty_and_single_shard_reports_are_quiet() {
        assert!(!LoadReport::compute(vec![]).is_skewed());
        let r = LoadReport::compute(vec![stat(0, 1_000_000)]);
        assert!(!r.is_skewed(), "one shard cannot be hotter than the mean");
    }

    #[test]
    fn hints_stretch_only_for_the_hot_shard() {
        let r = LoadReport::compute(vec![stat(0, 10), stat(1, 300), stat(2, 10)]);
        let base = Duration::from_millis(10);
        assert_eq!(r.retry_after_hint(0, base), base);
        let hot = r.retry_after_hint(1, base);
        assert!(hot >= 2 * base, "{hot:?}");
        assert!(hot <= 4 * base, "{hot:?}");
    }

    #[test]
    fn shard_load_accumulates_means() {
        let l = ShardLoad::default();
        l.record_hit(Duration::from_micros(100));
        l.record_hit(Duration::from_micros(300));
        l.record_error();
        l.record_shed();
        let s = l.stat(3, true);
        assert_eq!(s.shard, 3);
        assert_eq!(s.hits, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.mean_latency_us, 200);
        assert!(s.open);
    }
}
