//! Order statistics on raw samples: exact-rank percentiles that refuse
//! an unsupported tail, and the spread figures `--calibrate` reports.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Exact-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `pct` percent of the samples at or below it. No
/// interpolation — the value is one that was actually measured.
///
/// Returns `None` for an empty slice, and for a tail (`pct > 50`) with
/// fewer than [`MIN_BEYOND`] samples beyond the selected rank: a p99 of
/// 300 samples is the third-largest value, which is an anecdote.
pub fn percentile(sorted: &[u64], pct: u32) -> Option<u64> {
    assert!((1..=100).contains(&pct), "percentile out of range: {pct}");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (n * pct as usize).div_ceil(100).max(1);
    if pct > 50 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest percentile of `ladder` (ascending, starting at 50) that
/// `n` samples support under the [`MIN_BEYOND`] rule.
pub fn highest_supported(ladder: &[u32], n: usize) -> u32 {
    ladder
        .iter()
        .copied()
        .rev()
        .find(|&p| p <= 50 || n.saturating_sub((n * p as usize).div_ceil(100)) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Median of floats (mean of the middle pair for even counts; 0 when
/// empty). Sorts in place.
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// [`median_f64`] of a borrowed slice.
pub fn median_of(values: &[f64]) -> f64 {
    median_f64(&mut values.to_vec())
}

/// Run-to-run spread of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 - q1) / median` — the figure the bounds are checked against.
    pub iqr_share: f64,
    /// `(max - min) / median`.
    pub range_share: f64,
}

/// Quartiles by the exclusive method (`statistics.quantiles(v, n=4)` in
/// Python, which the contract this benchmark is written to names).
/// Needs at least two values.
pub fn spread(values: &[f64]) -> Spread {
    assert!(values.len() >= 2, "spread needs at least two runs");
    let mut v = values.to_vec();
    let median = median_f64(&mut v);
    let n = v.len();
    let quantile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let (q1, q3) = (quantile(1), quantile(3));
    let share = |x: f64| if median == 0.0 { 0.0 } else { x / median.abs() };
    Spread { median, q1, q3, iqr_share: share(q3 - q1), range_share: share(v[n - 1] - v[0]) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn median_is_exact_rank() {
        assert_eq!(percentile(&ramp(1), 50), Some(1));
        assert_eq!(percentile(&ramp(4), 50), Some(2));
        assert_eq!(percentile(&ramp(5), 50), Some(3));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95: rank ceil(0.95 n); 199 samples leave 9 beyond, 200 leave 10.
        assert_eq!(percentile(&ramp(199), 95), None);
        assert_eq!(percentile(&ramp(200), 95), Some(190));
        // p99: 999 samples leave 9 beyond, 1000 leave 10.
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990));
        // p75: 37 samples leave 9 beyond, 40 leave 10.
        assert_eq!(percentile(&ramp(37), 75), None);
        assert_eq!(percentile(&ramp(40), 75), Some(30));
        // The median is never refused.
        assert_eq!(percentile(&ramp(3), 50), Some(2));
    }

    #[test]
    fn highest_supported_walks_the_ladder_down() {
        let ladder = [50, 75, 90, 95, 99];
        assert_eq!(highest_supported(&ladder, 2), 50);
        assert_eq!(highest_supported(&ladder, 39), 50);
        assert_eq!(highest_supported(&ladder, 40), 75);
        assert_eq!(highest_supported(&ladder, 100), 90);
        assert_eq!(highest_supported(&ladder, 199), 90);
        assert_eq!(highest_supported(&ladder, 200), 95);
        assert_eq!(highest_supported(&ladder, 1000), 99);
        for n in [40usize, 100, 200, 1000, 12345] {
            let p = highest_supported(&ladder, n);
            assert!(percentile(&ramp(n as u64), p).is_some(), "n={n} p={p}");
        }
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert!((s.q1 - 2.75).abs() < 1e-12 && (s.q3 - 8.25).abs() < 1e-12);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.iqr_share - 1.0).abs() < 1e-12);
        assert!((s.range_share - 9.0 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
