//! Support vector machines.
//!
//! [`SvmRbf`] implements the classical soft-margin kernel SVM trained with
//! a simplified SMO (sequential minimal optimisation) procedure and an RBF
//! kernel — the quadratic-cost model that made SVM the slowest entry in the
//! paper's Table III.
//!
//! Probabilities are produced by squashing the signed decision value
//! through a logistic link (a lightweight stand-in for Platt scaling); the
//! 0.5 probability threshold coincides with the zero decision boundary.

use crate::dataset::Dataset;
use crate::linear::sigmoid;
use crate::matrix::sq_dist;
use crate::model::Classifier;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Soft-margin SVM with an RBF kernel, trained by simplified SMO.
///
/// Training cost grows quadratically with the number of samples. When the
/// training set exceeds [`SvmRbf::max_samples`], a stratified random subset
/// of that size is used (the subsampling is recorded and deterministic).
///
/// # Example
///
/// ```
/// use mlkit::dataset::Dataset;
/// use mlkit::model::Classifier;
/// use mlkit::svm::SvmRbf;
///
/// // Concentric classes: inner disk positive, ring negative.
/// let mut rows = Vec::new();
/// let mut y = Vec::new();
/// for i in 0..60 {
///     let a = i as f32 / 60.0 * std::f32::consts::TAU;
///     let r = if i % 2 == 0 { 0.3 } else { 1.2 };
///     rows.push(vec![r * a.cos(), r * a.sin()]);
///     y.push(if i % 2 == 0 { 1.0 } else { 0.0 });
/// }
/// let ds = Dataset::from_rows(&rows, &y)?;
/// let mut svm = SvmRbf::new().gamma(2.0).c(5.0);
/// svm.fit(&ds, &mut obskit::Recorder::null())?;
/// let acc = svm
///     .predict(&ds)?
///     .iter()
///     .zip(ds.y())
///     .filter(|(a, b)| a == b)
///     .count();
/// assert!(acc >= 58);
/// # Ok::<(), mlkit::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvmRbf {
    c: f32,
    gamma: f32,
    tol: f32,
    max_passes: usize,
    max_iters: usize,
    max_samples: usize,
    seed: u64,
    // Fitted state: support vectors and their coefficients.
    support_x: Vec<Vec<f32>>,
    support_coef: Vec<f32>, // alpha_i * y_i (y in {-1, +1})
    bias: f32,
    n_features: usize,
    fitted: bool,
}

impl Default for SvmRbf {
    fn default() -> SvmRbf {
        SvmRbf::new()
    }
}

impl SvmRbf {
    /// Creates an SVM with defaults `C = 1`, `gamma = 0.5`,
    /// `max_samples = 4000`.
    pub fn new() -> SvmRbf {
        SvmRbf {
            c: 1.0,
            gamma: 0.5,
            tol: 1e-3,
            max_passes: 5,
            max_iters: 10_000,
            max_samples: 4000,
            seed: 42,
            support_x: Vec::new(),
            support_coef: Vec::new(),
            bias: 0.0,
            n_features: 0,
            fitted: false,
        }
    }

    /// Sets the soft-margin penalty `C`.
    pub fn c(mut self, c: f32) -> SvmRbf {
        self.c = c;
        self
    }

    /// Sets the RBF kernel width `gamma` in `exp(-gamma * ||a-b||^2)`.
    pub fn gamma(mut self, gamma: f32) -> SvmRbf {
        self.gamma = gamma;
        self
    }

    /// Sets the KKT violation tolerance.
    pub fn tol(mut self, tol: f32) -> SvmRbf {
        self.tol = tol;
        self
    }

    /// Sets the number of violation-free passes required to stop.
    pub fn max_passes(mut self, p: usize) -> SvmRbf {
        self.max_passes = p.max(1);
        self
    }

    /// Sets the hard cap on SMO outer iterations.
    pub fn max_iters(mut self, it: usize) -> SvmRbf {
        self.max_iters = it.max(1);
        self
    }

    /// Sets the training-set size cap; larger sets are stratified-subsampled.
    pub fn max_samples(mut self, n: usize) -> SvmRbf {
        self.max_samples = n.max(2);
        self
    }

    /// Sets the RNG seed (pair selection, subsampling).
    pub fn seed(mut self, seed: u64) -> SvmRbf {
        self.seed = seed;
        self
    }

    /// Number of support vectors retained after fitting.
    pub fn n_support_vectors(&self) -> usize {
        self.support_x.len()
    }

    fn kernel(&self, a: &[f32], b: &[f32]) -> f32 {
        (-self.gamma * sq_dist(a, b)).exp()
    }

    /// Signed decision value for one row.
    fn decision(&self, row: &[f32]) -> f32 {
        let mut s = self.bias;
        for (sv, &coef) in self.support_x.iter().zip(&self.support_coef) {
            s += coef * self.kernel(sv, row);
        }
        s
    }

    fn validate(&self) -> Result<()> {
        if self.c <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "c",
                reason: format!("must be positive, got {}", self.c),
            });
        }
        if self.gamma <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "gamma",
                reason: format!("must be positive, got {}", self.gamma),
            });
        }
        Ok(())
    }
}

impl Classifier for SvmRbf {
    fn fit(&mut self, train: &Dataset, _rec: &mut obskit::Recorder) -> Result<()> {
        self.validate()?;
        if train.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if train.n_positive() == 0 || train.n_negative() == 0 {
            return Err(MlError::SingleClass);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Stratified subsample when the training set is too large for SMO.
        let indices: Vec<usize> = if train.len() > self.max_samples {
            let (mut pos, mut neg) = train.class_indices();
            pos.shuffle(&mut rng);
            neg.shuffle(&mut rng);
            let frac = self.max_samples as f64 / train.len() as f64;
            let keep_pos = ((pos.len() as f64 * frac).round() as usize).max(1);
            let keep_neg = ((neg.len() as f64 * frac).round() as usize).max(1);
            let mut idx: Vec<usize> = pos[..keep_pos.min(pos.len())]
                .iter()
                .chain(&neg[..keep_neg.min(neg.len())])
                .copied()
                .collect();
            idx.shuffle(&mut rng);
            idx
        } else {
            (0..train.len()).collect()
        };

        let n = indices.len();
        let x: Vec<&[f32]> = indices.iter().map(|&i| train.x().row(i)).collect();
        // Labels in {-1, +1}.
        let y: Vec<f32> = indices
            .iter()
            .map(|&i| if train.y()[i] == 1.0 { 1.0 } else { -1.0 })
            .collect();

        // Full kernel matrix; bounded by max_samples^2 entries.
        let mut k = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i..n {
                let v = self.kernel(x[i], x[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }

        let mut alpha = vec![0.0f32; n];
        let mut b = 0.0f32;
        let decision = |alpha: &[f32], b: f32, k: &[f32], i: usize| -> f32 {
            let mut s = b;
            for (j, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    s += a * y[j] * k[j * n + i];
                }
            }
            s
        };

        let mut passes = 0;
        let mut iters = 0;
        while passes < self.max_passes && iters < self.max_iters {
            iters += 1;
            let mut changed = 0;
            for i in 0..n {
                let ei = decision(&alpha, b, &k, i) - y[i];
                let violates = (y[i] * ei < -self.tol && alpha[i] < self.c)
                    || (y[i] * ei > self.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                // Pick a random partner j != i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = decision(&alpha, b, &k, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] != y[j] {
                    (
                        (aj_old - ai_old).max(0.0),
                        (self.c + aj_old - ai_old).min(self.c),
                    )
                } else {
                    (
                        (ai_old + aj_old - self.c).max(0.0),
                        (ai_old + aj_old).min(self.c),
                    )
                };
                if lo >= hi {
                    continue;
                }
                let eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b
                    - ei
                    - y[i] * (ai - ai_old) * k[i * n + i]
                    - y[j] * (aj - aj_old) * k[i * n + j];
                let b2 = b
                    - ej
                    - y[i] * (ai - ai_old) * k[i * n + j]
                    - y[j] * (aj - aj_old) * k[j * n + j];
                b = if ai > 0.0 && ai < self.c {
                    b1
                } else if aj > 0.0 && aj < self.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Retain only support vectors.
        self.support_x.clear();
        self.support_coef.clear();
        for i in 0..n {
            if alpha[i] > 1e-7 {
                self.support_x.push(x[i].to_vec());
                self.support_coef.push(alpha[i] * y[i]);
            }
        }
        self.bias = b;
        self.n_features = train.n_features();
        self.fitted = true;
        if self.support_x.is_empty() {
            return Err(MlError::NumericalError(
                "smo converged to zero support vectors".into(),
            ));
        }
        Ok(())
    }

    fn predict_proba(&self, data: &Dataset) -> Result<Vec<f32>> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if data.n_features() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} features", self.n_features),
                found: format!("{} features", data.n_features()),
            });
        }
        Ok(data
            .x()
            .rows_iter()
            .map(|row| sigmoid(2.0 * self.decision(row)))
            .collect())
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_dataset(n: usize) -> Dataset {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = i as f32 / n as f32 * std::f32::consts::TAU;
            let r = if i % 2 == 0 { 0.3 } else { 1.2 };
            rows.push(vec![r * a.cos(), r * a.sin()]);
            y.push(if i % 2 == 0 { 1.0 } else { 0.0 });
        }
        Dataset::from_rows(&rows, &y).unwrap()
    }

    fn linear_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![i as f32 / n as f32, ((i * 13) % 17) as f32 / 17.0])
            .collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    fn accuracy<C: Classifier>(m: &C, ds: &Dataset) -> f64 {
        m.predict(ds)
            .unwrap()
            .iter()
            .zip(ds.y())
            .filter(|(a, b)| a == b)
            .count() as f64
            / ds.len() as f64
    }

    #[test]
    fn rbf_separates_nonlinear_rings() {
        let ds = ring_dataset(80);
        let mut svm = SvmRbf::new().gamma(2.0).c(5.0);
        svm.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        assert!(accuracy(&svm, &ds) > 0.95);
        assert!(svm.n_support_vectors() > 0);
    }

    #[test]
    fn rbf_not_fitted_error() {
        let ds = ring_dataset(8);
        assert!(matches!(
            SvmRbf::new().predict_proba(&ds),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn rbf_subsamples_large_sets() {
        let ds = linear_dataset(400);
        let mut svm = SvmRbf::new().max_samples(100).gamma(1.0);
        svm.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        // Support vectors come from the subsample only.
        assert!(svm.n_support_vectors() <= 100);
        assert!(accuracy(&svm, &ds) > 0.9);
    }

    #[test]
    fn rbf_invalid_params() {
        let ds = ring_dataset(8);
        assert!(SvmRbf::new()
            .c(0.0)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
        assert!(SvmRbf::new()
            .gamma(-1.0)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
    }

    #[test]
    fn rbf_single_class_rejected() {
        let ds = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[1.0, 1.0]).unwrap();
        assert!(matches!(
            SvmRbf::new().fit(&ds, &mut obskit::Recorder::null()),
            Err(MlError::SingleClass)
        ));
    }

    #[test]
    fn rbf_probability_threshold_matches_decision_sign() {
        let ds = ring_dataset(60);
        let mut svm = SvmRbf::new().gamma(2.0).c(5.0);
        svm.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let proba = svm.predict_proba(&ds).unwrap();
        let pred = svm.predict(&ds).unwrap();
        for (p, label) in proba.iter().zip(&pred) {
            assert_eq!(*label == 1.0, *p >= 0.5);
        }
    }

    #[test]
    fn feature_mismatch_rejected() {
        let ds = ring_dataset(40);
        let mut svm = SvmRbf::new().gamma(2.0).c(5.0);
        svm.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let wrong = Dataset::from_rows(&[vec![0.0]], &[0.0]).unwrap();
        assert!(svm.predict_proba(&wrong).is_err());
    }
}
