//! Percentiles, medians and the median-of-windows rule.

/// The `q`-quantile (`0 < q < 1`) of `sorted` nanosecond samples.
///
/// The clock truncates to whole nanoseconds, so a sample reading `v`
/// stands for a duration somewhere in `[v, v + 1)`. The quantile is
/// therefore interpolated inside the 1-ns bin that holds its rank (the
/// grouped-data estimator): a 40 ns median does not read `40` on every
/// run, it reads where in the bin the rank fell.
///
/// Returns `None` for an empty slice.
pub fn quantile_ns(sorted: &[u32], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let rank = q * sorted.len() as f64;
    let idx = (rank as usize).min(sorted.len() - 1);
    let v = sorted[idx];
    let below = sorted.partition_point(|&s| s < v);
    let through = sorted.partition_point(|&s| s <= v);
    let frac = (rank - below as f64) / (through - below) as f64;
    Some(f64::from(v) + frac.clamp(0.0, 1.0))
}

/// Samples strictly beyond the `q`-quantile's rank: a percentile is only
/// reported as such when at least ten samples lie beyond it.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64) as usize).min(len)
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median over windows of a per-window statistic, skipping windows where
/// the statistic is undefined (no sample of that kind).
pub fn median_of_windows(per_window: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let defined: Vec<f64> = per_window.into_iter().flatten().collect();
    median(&defined)
}

/// Nanoseconds per call from block timings: the median over blocks of
/// `block_ns / calls`. Panics without a block.
pub fn per_call_ns(block_ns: &[u64], calls: usize) -> f64 {
    let per: Vec<f64> = block_ns
        .iter()
        .map(|&ns| ns as f64 / calls as f64)
        .collect();
    median(&per).expect("at least one block was timed")
}
