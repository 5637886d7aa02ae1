//! Medians and the percentile rule: a percentile is reported only when
//! at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even lengths).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `q`-quantile (`0 < q < 1`) of `values` by the nearest-rank rule,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} out of (0, 1)");
    let n = values.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it; everything after that rank lies beyond it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= MIN_BEYOND
        })
        .expect("some sample count supports every quantile below 1")
}

/// The `q`-quantile of each of up to `max_groups` consecutive groups of
/// `values` (in time order), each large enough for [`percentile`], and
/// the median of those. A stall that hits one stretch of a run moves one
/// group's figure, not the result. `None` when even one group is too
/// small.
pub fn grouped_percentile(values: &[f64], q: f64, max_groups: usize) -> Option<f64> {
    let groups = (values.len() / min_samples_for(q)).min(max_groups);
    if groups == 0 {
        return None;
    }
    let per: Vec<f64> = (0..groups)
        .map(|g| {
            let (a, b) = (values.len() * g / groups, values.len() * (g + 1) / groups);
            percentile(&values[a..b], q).expect("each group holds enough samples")
        })
        .collect();
    median(&per)
}
