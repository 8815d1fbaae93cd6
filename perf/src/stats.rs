//! Order statistics over the benchmark's samples.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// The highest whole percentile (50..=99) that still has at least ten
/// samples beyond it, or `None` below twenty samples: a tail read off fewer
/// samples is one outlier, not a percentile.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - rank(n.max(1), p).min(n) >= 10)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the benchmark contract bounds.  `None` below two samples or
/// for a zero median.  The quartiles are the exclusive-method ones Python's
/// `statistics.quantiles(values, n=4)` returns.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let m = median(&v);
    (m != 0.0).then(|| (quartile(3) - quartile(1)) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(94));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100_000), Some(99));
        for n in 20..400 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            assert!(p == 99 || n - rank(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 100.0);
        assert_eq!(percentile(&v, 95), 190.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }
}
