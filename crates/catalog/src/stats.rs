//! Column statistics with a Zipf-skew knob.
//!
//! The paper evaluates on TPC-H data generated by `tpcdskew` \[8\], which skews
//! value frequencies by a Zipf parameter `z` (`z = 0` uniform, `z = 2` highly
//! skewed).  Skew changes *selectivities*: with high skew, a handful of values
//! dominate, so equality predicates on non-dominant values become extremely
//! selective and secondary indexes on them extremely attractive — which is
//! exactly the effect §5.2 observes ("certain indices become very beneficial").
//!
//! We reproduce this with an equi-*width* histogram whose bucket frequencies
//! follow a Zipf(z) law, plus the usual NDV / min / max summary.  Estimation
//! formulas follow the classic System-R conventions \[18\].

use serde::{Deserialize, Serialize};

/// Zipf skew parameter, as in `tpcdskew`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Skew(pub f64);

impl Skew {
    pub(crate) const UNIFORM: Skew = Skew(0.0);

    /// Normalized Zipf frequencies `f_j ∝ 1/(j+1)^z` for `n` ranks.
    pub(crate) fn frequencies(&self, n: usize) -> Vec<f64> {
        assert!(n > 0, "need at least one rank");
        let z = self.0;
        let mut f: Vec<f64> = (0..n).map(|j| 1.0 / ((j + 1) as f64).powf(z)).collect();
        let sum: f64 = f.iter().sum();
        for v in &mut f {
            *v /= sum;
        }
        f
    }
}

/// Number of histogram buckets kept per column.
pub(crate) const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-width histogram over a numeric domain `[lo, hi]` with per-bucket
/// *fractions* of the table's rows.  Bucket `j` covers
/// `[lo + j·w, lo + (j+1)·w)` for width `w = (hi−lo)/buckets`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    /// Fraction of rows per bucket; sums to 1.
    pub fractions: Vec<f64>,
}

impl Histogram {
    /// Uniform histogram over `[lo, hi]`.
    pub fn uniform(lo: f64, hi: f64) -> Self {
        Self::zipf(lo, hi, Skew::UNIFORM)
    }

    /// Histogram whose bucket frequencies follow Zipf(z).  The heaviest bucket
    /// is placed first (lowest values), matching `tpcdskew`'s convention of
    /// skewing toward small key values.
    pub(crate) fn zipf(lo: f64, hi: f64, skew: Skew) -> Self {
        assert!(hi >= lo, "histogram domain must be non-empty");
        Histogram { lo, hi, fractions: skew.frequencies(HISTOGRAM_BUCKETS) }
    }

    fn width(&self) -> f64 {
        ((self.hi - self.lo) / self.fractions.len() as f64).max(f64::MIN_POSITIVE)
    }

    /// Fraction of rows with value `< v` (interpolating within a bucket).
    pub(crate) fn fraction_below(&self, v: f64) -> f64 {
        if v <= self.lo {
            return 0.0;
        }
        if v >= self.hi {
            return 1.0;
        }
        let w = self.width();
        let pos = (v - self.lo) / w;
        let full = pos.floor() as usize;
        let partial = pos - pos.floor();
        let mut acc: f64 = self.fractions.iter().take(full).sum();
        if full < self.fractions.len() {
            acc += self.fractions[full] * partial;
        }
        acc.clamp(0.0, 1.0)
    }

    /// Fraction of rows in `[a, b]`.
    pub(crate) fn fraction_between(&self, a: f64, b: f64) -> f64 {
        if b < a {
            return 0.0;
        }
        (self.fraction_below(b) - self.fraction_below(a)).clamp(0.0, 1.0)
    }
}

/// Summary statistics for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub ndv: u64,
    /// Domain bounds (numeric encoding; strings are dictionary-encoded ranks).
    pub min: f64,
    pub max: f64,
    /// Fraction of NULLs.
    pub null_frac: f64,
    pub histogram: Histogram,
}

impl ColumnStats {
    /// Uniformly distributed column with `ndv` distinct values on `[min, max]`.
    pub fn uniform(ndv: u64, min: f64, max: f64) -> Self {
        Self::zipf(ndv, min, max, Skew::UNIFORM)
    }

    /// Zipf-skewed column.
    pub(crate) fn zipf(ndv: u64, min: f64, max: f64, skew: Skew) -> Self {
        ColumnStats {
            ndv: ndv.max(1),
            min,
            max,
            null_frac: 0.0,
            histogram: Histogram::zipf(min, max, skew),
        }
    }

    /// Selectivity of `col = literal`.
    ///
    /// Under skew the *average* equality selectivity is frequency-weighted:
    /// a random predicate constant drawn from the data hits heavy values
    /// proportionally more often.  We estimate it as the second moment of the
    /// bucket frequencies scaled to values (`Σ f_j² · buckets / ndv`), which
    /// reduces to the textbook `1/ndv` when uniform.
    pub fn eq_selectivity(&self) -> f64 {
        let b = self.histogram.fractions.len() as f64;
        let m2: f64 = self.histogram.fractions.iter().map(|f| f * f).sum();
        let sel = m2 * b / self.ndv as f64;
        sel.clamp(1.0 / self.ndv as f64 / 10.0, 1.0)
    }

    /// Selectivity of `col = literal` for a literal known to fall at numeric
    /// value `v` — uses the histogram bucket holding `v`.
    pub fn eq_selectivity_at(&self, v: f64) -> f64 {
        let frac = self.histogram.fraction_between(v, v + self.histogram.width());
        let per_value = frac / (self.ndv as f64 / self.histogram.fractions.len() as f64).max(1.0);
        per_value.clamp(0.0, 1.0)
    }

    /// Selectivity of `col < v` / `col <= v` (the cost model does not
    /// distinguish open/closed bounds at histogram resolution).
    pub fn lt_selectivity(&self, v: f64) -> f64 {
        self.histogram.fraction_below(v)
    }

    /// Selectivity of `a <= col <= b`.
    pub fn range_selectivity(&self, a: f64, b: f64) -> f64 {
        self.histogram.fraction_between(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_frequencies_normalized_and_decreasing() {
        for &z in &[0.0, 0.5, 1.0, 2.0] {
            let f = Skew(z).frequencies(16);
            let sum: f64 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "z={z} sum={sum}");
            for w in f.windows(2) {
                assert!(w[0] >= w[1] - 1e-15, "frequencies must be non-increasing");
            }
        }
    }

    #[test]
    fn uniform_skew_is_flat() {
        let f = Skew::UNIFORM.frequencies(8);
        for v in &f {
            assert!((v - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn histogram_cdf_monotone_and_bounded() {
        let h = Histogram::zipf(0.0, 100.0, Skew(1.5));
        assert_eq!(h.fraction_below(-5.0), 0.0);
        assert_eq!(h.fraction_below(1000.0), 1.0);
        let mut prev = 0.0;
        for i in 0..=50 {
            let v = i as f64 * 2.0;
            let f = h.fraction_below(v);
            assert!(f >= prev - 1e-12, "cdf must be monotone");
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
    }

    #[test]
    fn uniform_histogram_is_linear() {
        let h = Histogram::uniform(0.0, 100.0);
        assert!((h.fraction_below(25.0) - 0.25).abs() < 1e-9);
        assert!((h.fraction_between(10.0, 60.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn skew_concentrates_low_values() {
        let h = Histogram::zipf(0.0, 100.0, Skew(2.0));
        // Under z=2 the first bucket holds the lion's share.
        assert!(h.fraction_below(100.0 / 32.0) > 0.5);
    }

    #[test]
    fn eq_selectivity_uniform_matches_textbook() {
        let s = ColumnStats::uniform(200, 0.0, 199.0);
        assert!((s.eq_selectivity() - 1.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn eq_selectivity_grows_with_skew() {
        let uni = ColumnStats::uniform(1000, 0.0, 999.0);
        let skewed = ColumnStats::zipf(1000, 0.0, 999.0, Skew(2.0));
        assert!(skewed.eq_selectivity() > uni.eq_selectivity());
    }

    #[test]
    fn range_selectivity_bounds() {
        let s = ColumnStats::zipf(100, 0.0, 99.0, Skew(1.0));
        assert_eq!(s.range_selectivity(50.0, 10.0), 0.0);
        assert!((s.range_selectivity(0.0, 99.0) - 1.0).abs() < 1e-9);
        assert!(s.lt_selectivity(0.0) == 0.0);
    }

    impl Histogram {
        fn width_test(&self) -> f64 {
            self.width()
        }
    }

    #[test]
    fn eq_at_heavy_value_exceeds_light_value() {
        let s = ColumnStats::zipf(320, 0.0, 319.0, Skew(2.0));
        let w = s.histogram.width_test();
        let heavy = s.eq_selectivity_at(0.0);
        let light = s.eq_selectivity_at(319.0 - w);
        assert!(heavy > light, "heavy {heavy} light {light}");
    }
}
