//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! of the registered metric, so hot paths never touch the registry lock.
//! Counters and histograms are **striped**: each holds 16 cache-padded
//! cells, a thread claims one cell index round-robin on its first update
//! (through a thread-local, shared by every striped metric), and `get` /
//! `snapshot` sum the cells. A hot path therefore writes only its own
//! thread's cache line — two client threads bumping the same counter
//! never move a line between cores — and every count stays exact, since
//! each cell is updated with an atomic add and a reader folds all of
//! them. (Threads beyond the 16th share cells; that costs contention,
//! never a count.) Gauges are set, not accumulated, so they stay one
//! atomic; a hot path should store one only when its value changes.
//!
//! Histogram buckets use the same log₂-of-microseconds scheme the ABD
//! layer has always reported, so migrating `NetworkStats` onto the
//! registry changes no observable quantiles.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::CachePadded;

/// Number of histogram buckets; bucket `k` holds samples whose value `v`
/// (in microseconds) satisfies `ilog2(max(v, 1)) == k`, with the last
/// bucket absorbing everything larger.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Cells per striped metric ([`Counter`], [`Histogram`]): the number of
/// threads that can update one metric without sharing a cache line.
const CELLS: usize = 16;

/// The next cell index to hand out.
static NEXT_CELL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's cell in every striped metric; `CELLS` until claimed.
    static CELL: Cell<usize> = const { Cell::new(CELLS) };
}

/// The calling thread's cell index, claimed on first use.
#[inline]
fn my_cell() -> usize {
    CELL.with(|cell| {
        let i = cell.get();
        if i < CELLS {
            i
        } else {
            claim_cell(cell)
        }
    })
}

#[cold]
fn claim_cell(cell: &Cell<usize>) -> usize {
    let i = NEXT_CELL.fetch_add(1, Ordering::Relaxed) % CELLS;
    cell.set(i);
    i
}

/// A monotonically increasing counter, striped over 16 padded cells (see
/// the module docs).
#[derive(Clone, Default)]
pub struct Counter(Arc<[CachePadded<AtomicU64>; CELLS]>);

impl Counter {
    /// A free-standing counter (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter (to the calling thread's cell).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[my_cell()].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value: the sum of the cells.
    pub fn get(&self) -> u64 {
        self.0.iter().fold(0, |sum, c| sum.wrapping_add(c.load(Ordering::Relaxed)))
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
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

/// A fixed-bucket log₂ histogram over microsecond-scale values, striped
/// like [`Counter`]: each cell is one thread's full bucket array.
#[derive(Clone, Default)]
pub struct Histogram(Arc<[CachePadded<[AtomicU64; HISTOGRAM_BUCKETS]>; CELLS]>);

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Histogram").field(&self.snapshot()).finish()
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
        self.0[my_cell()][bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// An immutable copy of the bucket counts, each summed over the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for cell in self.0.iter() {
            for (out, b) in buckets.iter_mut().zip(cell.iter()) {
                *out = out.wrapping_add(b.load(Ordering::Relaxed));
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_counts_are_exact_across_threads() {
        // Twice as many threads as cells, released together. Even threads
        // claim their cells as usual; odd ones are all put on cell 0, so
        // that cell is updated concurrently. The count must be exact, for
        // a counter and for a histogram alike.
        const THREADS: usize = 2 * CELLS;
        const OPS: u64 = 100_000;
        let counter = Counter::new();
        let histogram = Histogram::new();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (counter, histogram, start) = (&counter, &histogram, &start);
                s.spawn(move || {
                    if t % 2 == 1 {
                        CELL.with(|cell| cell.set(0));
                    }
                    start.wait();
                    for k in 0..OPS {
                        counter.inc();
                        histogram.record_micros(k % 4 + t as u64);
                    }
                });
            }
        });
        assert_eq!(counter.get(), THREADS as u64 * OPS);
        assert_eq!(histogram.snapshot().count(), THREADS as u64 * OPS);
    }

    #[test]
    fn a_thread_writes_one_cell_and_reads_fold_them_all() {
        let counter = Counter::new();
        let histogram = Histogram::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                counter.add(5);
                counter.inc();
                histogram.record_micros(3);
                histogram.record_micros(3);
            });
        });
        counter.add(10);
        histogram.record_micros(100);
        let used = counter.0.iter().filter(|c| c.load(Ordering::Relaxed) > 0).count();
        assert!((1..=2).contains(&used), "each thread adds into its own cell: {used} used");
        assert_eq!(counter.get(), 16);
        let snap = histogram.snapshot();
        assert_eq!(snap.buckets[bucket_of(3)], 2);
        assert_eq!(snap.buckets[bucket_of(100)], 1);
        assert_eq!(snap.count(), 3);
    }
}
