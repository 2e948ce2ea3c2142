//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! of the registered metric, so hot paths update a pre-resolved atomic and
//! never touch the registry lock. Histogram buckets use the same
//! log₂-of-microseconds scheme the ABD layer has always reported, so
//! migrating `NetworkStats` onto the registry changes no observable
//! quantiles.

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets; bucket `k` holds samples whose value `v`
/// (in microseconds) satisfies `ilog2(max(v, 1)) == k`, with the last
/// bucket absorbing everything larger.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A free-standing gauge (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ histogram over microsecond-scale values.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl fmt::Debug for HistogramInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistogramInner").finish_non_exhaustive()
    }
}

/// Maps a microsecond value to its bucket index.
pub fn bucket_of(micros: u64) -> usize {
    let v = micros.max(1);
    (v.ilog2() as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// A free-standing histogram (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a duration (bucketed by whole microseconds).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records a raw microsecond value.
    #[inline]
    pub fn record_micros(&self, micros: u64) {
        self.0.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// An immutable copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts; see [`bucket_of`] for the bucket boundaries.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// An upper bound (in microseconds) on the `q`-quantile (`q` clamped
    /// to `[0, 1]`): the exclusive upper edge of the bucket containing
    /// that quantile. Returns `None` if nothing was recorded.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(1u64.checked_shl(k as u32 + 1).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

/// Per-op-class latency quantiles distilled from a log₂ histogram.
///
/// The quantiles are bucket upper bounds (exclusive, in microseconds) —
/// the resolution the histograms have always had — so a summary is a
/// compact, comparable view, not a new measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Upper bound on the median, in microseconds (0 when empty).
    pub p50_us: u64,
    /// Upper bound on the 95th percentile, in microseconds (0 when empty).
    pub p95_us: u64,
    /// Upper bound on the 99th percentile, in microseconds (0 when empty).
    pub p99_us: u64,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50<={}us p95<={}us p99<={}us",
            self.count, self.p50_us, self.p95_us, self.p99_us
        )
    }
}

impl HistogramSnapshot {
    /// Distills this snapshot into a [`LatencySummary`].
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50_us: self.quantile_upper_bound(0.50).unwrap_or(0),
            p95_us: self.quantile_upper_bound(0.95).unwrap_or(0),
            p99_us: self.quantile_upper_bound(0.99).unwrap_or(0),
        }
    }
}

impl fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count())
            .field("p50_us_le", &self.quantile_upper_bound(0.50))
            .field("p99_us_le", &self.quantile_upper_bound(0.99))
            .finish()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time value exported from the registry.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's current buckets (boxed: 32 buckets against the other
    /// variants' one word).
    Histogram(Box<HistogramSnapshot>),
}

/// Named registry of metrics.
///
/// `counter` / `gauge` / `histogram` get-or-create by name and return a
/// handle; asking for an existing name with a different metric type
/// panics (it is always a programming error).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<Vec<(String, Metric)>>,
}

impl fmt::Debug for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.type_name())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("Registry poisoned");
        if let Some((_, m)) = metrics.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = make();
        metrics.push((name.to_string(), m.clone()));
        m
    }

    /// Get-or-create the counter called `name`.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.type_name()),
        }
    }

    /// Get-or-create the gauge called `name`.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Get-or-create the histogram called `name`.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.type_name()),
        }
    }

    /// All registered metrics with their current values, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let metrics = self.metrics.lock().expect("Registry poisoned");
        let mut out: Vec<(String, MetricValue)> = metrics
            .iter()
            .map(|(n, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (n.clone(), v)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Plain-text rendering of [`Registry::snapshot`], one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => out.push_str(&format!("{name:<40} counter   {v}\n")),
                MetricValue::Gauge(v) => out.push_str(&format!("{name:<40} gauge     {v}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{name:<40} histogram count={} p50<={:?}us p99<={:?}us\n",
                    h.count(),
                    h.quantile_upper_bound(0.50),
                    h.quantile_upper_bound(0.99),
                )),
            }
        }
        out
    }
}
