//! Descriptive statistics used throughout the characterization study:
//! Spearman/Pearson correlation, percentiles, running moments, histograms,
//! and empirical CDFs.

use crate::{MlError, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Ascending order with every NaN after every number. Numbers compare
/// exactly as `partial_cmp` orders them (`-0.0 == 0.0`), so a stable sort
/// of NaN-free input keeps the order it always had.
fn nan_last(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// `Err(NanInput)` naming `name` when `xs` holds a NaN.
fn reject_nan(name: &'static str, xs: &[f64]) -> Result<()> {
    if xs.iter().any(|x| x.is_nan()) {
        return Err(MlError::NanInput { name });
    }
    Ok(())
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0.0 for fewer than two values.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Pearson linear correlation coefficient.
///
/// # Errors
///
/// Returns [`MlError::DimensionMismatch`] when lengths differ,
/// [`MlError::EmptyDataset`] for fewer than two points, and
/// [`MlError::NumericalError`] when either input is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(MlError::DimensionMismatch {
            expected: format!("{} values", xs.len()),
            found: format!("{} values", ys.len()),
        });
    }
    if xs.len() < 2 {
        return Err(MlError::EmptyDataset);
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(MlError::NumericalError(
            "pearson correlation undefined for constant input".into(),
        ));
    }
    Ok(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Spearman rank correlation coefficient (the statistic the paper uses for
/// Fig. 4 and the temperature/offender spatial comparison).
///
/// Ties receive average ranks; the coefficient is the Pearson correlation of
/// the rank vectors.
///
/// # Errors
///
/// Same conditions as [`pearson`], and [`MlError::NanInput`] when either
/// input holds a NaN.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(MlError::DimensionMismatch {
            expected: format!("{} values", xs.len()),
            found: format!("{} values", ys.len()),
        });
    }
    reject_nan("xs", xs)?;
    reject_nan("ys", ys)?;
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

/// Average ranks (1-based) with ties sharing their mean rank. NaNs rank
/// after every number, each on its own, and leave the numbers' ranks as
/// they would be without them.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| nan_last(xs[a], xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted data.
///
/// # Errors
///
/// Returns [`MlError::EmptyDataset`] for empty input,
/// [`MlError::InvalidParameter`] when `p` is out of range, and
/// [`MlError::NanInput`] when `xs` holds a NaN.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(MlError::EmptyDataset);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(MlError::InvalidParameter {
            name: "p",
            reason: format!("percentile must be in [0, 100], got {p}"),
        });
    }
    reject_nan("xs", xs)?;
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|&a, &b| nan_last(a, b));
    let idx = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = idx - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Streaming mean/std/min/max accumulator (Welford's algorithm).
///
/// Used by the telemetry engine to summarise temperature/power windows
/// without storing the series.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> RunningStats {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0.0 for < 2 observations).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Minimum (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// An empirical CDF over a sample.
///
/// # Example
///
/// ```
/// use mlkit::stats::Ecdf;
///
/// let cdf = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.eval(2.5), 0.5);
/// assert_eq!(cdf.eval(0.0), 0.0);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample (unsorted input accepted). A NaN
    /// counts towards the sample size but is never `<= x`, so it sorts
    /// after every number.
    pub fn new(xs: &[f64]) -> Ecdf {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|&a, &b| nan_last(a, b));
        Ecdf { sorted }
    }

    /// Fraction of the sample that is `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Number of samples backing the ECDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the ECDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Inverse CDF (quantile); clamps `q` into `[0, 1]`.
    ///
    /// Returns `None` when the sample is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
    }
}

/// A fixed-bin histogram over `[lo, hi)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] when `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Histogram> {
        if bins == 0 {
            return Err(MlError::InvalidParameter {
                name: "bins",
                reason: "must be > 0".into(),
            });
        }
        if hi <= lo {
            return Err(MlError::InvalidParameter {
                name: "hi",
                reason: format!("hi ({hi}) must exceed lo ({lo})"),
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let bin = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
            let last = self.counts.len() - 1;
            self.counts[bin.min(last)] += 1;
        }
    }

    /// Per-bin raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bin probabilities (counts normalised by the in-range total).
    pub fn probabilities(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Observations below `lo` / at-or-above `hi`.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_line() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let yneg = [6.0, 4.0, 2.0];
        assert!((pearson(&x, &yneg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_constant() {
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_err());
    }

    #[test]
    fn spearman_monotonic_nonlinear() {
        // y = x^3 is monotone, so Spearman must be exactly 1.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|&v| v * v * v).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn nan_ranks_last_and_leaves_the_numbers_ranks() {
        let r = ranks(&[3.0, f64::NAN, 1.0, 3.0, f64::NAN]);
        assert_eq!(r, vec![2.5, 4.0, 1.0, 2.5, 5.0]);
        let cdf = Ecdf::new(&[2.0, f64::NAN, 1.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.eval(2.0), 0.5);
        assert_eq!(cdf.eval(f64::INFINITY), 0.75);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
    }

    #[test]
    fn nan_input_is_an_error_where_a_result_is_returned() {
        let nan = MlError::NanInput { name: "xs" };
        assert_eq!(percentile(&[1.0, f64::NAN], 50.0), Err(nan.clone()));
        assert_eq!(spearman(&[f64::NAN, 1.0, 2.0], &[1.0, 2.0, 3.0]), Err(nan));
        assert_eq!(
            spearman(&[1.0, 2.0, 3.0], &[1.0, f64::NAN, 3.0]),
            Err(MlError::NanInput { name: "ys" })
        );
    }

    #[test]
    fn equal_zeros_keep_their_input_order() {
        // `-0.0 == 0.0`: the stable sort must not reorder them, so the
        // sign each output carries is the one it always had.
        assert!(percentile(&[0.0, -0.0], 0.0).unwrap().is_sign_positive());
        assert!(percentile(&[-0.0, 0.0], 0.0).unwrap().is_sign_negative());
        assert!(Ecdf::new(&[0.0, -0.0])
            .quantile(0.0)
            .unwrap()
            .is_sign_positive());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 4.0);
        assert_eq!(percentile(&xs, 50.0).unwrap(), 2.5);
        assert!(percentile(&xs, 101.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.std_dev() - std_dev(&xs)).abs() < 1e-12);
        assert_eq!(rs.min(), 1.0);
        assert_eq!(rs.max(), 8.0);
        assert_eq!(rs.count(), 5);
    }

    #[test]
    fn empty_running_stats() {
        let rs = RunningStats::new();
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.std_dev(), 0.0);
        assert_eq!(rs.min(), 0.0);
        assert_eq!(rs.max(), 0.0);
    }

    #[test]
    fn ecdf_step_function() {
        let cdf = Ecdf::new(&[3.0, 1.0, 2.0]);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert!((cdf.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((cdf.eval(2.9) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.eval(3.0), 1.0);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(3.0));
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        for x in [0.5, 1.5, 2.5, 9.9, 10.0, -1.0] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.out_of_range(), (1, 1));
        assert_eq!(h.bin_center(0), 1.0);
        let p = h.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_bad_params() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
    }
}
