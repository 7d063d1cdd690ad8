//! Logistic regression trained with mini-batch gradient descent.
//!
//! This is the "LR" model of the paper: simple and fast, but limited to a
//! linear decision boundary between inputs and the log-odds of the output.

use crate::dataset::Dataset;
use crate::matrix::dot;
use crate::model::Classifier;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// L2-regularised logistic regression.
///
/// Trained with mini-batch SGD with a decaying learning rate. Supports
/// class weighting so that the minority (SBE) class can be emphasised.
///
/// # Example
///
/// ```
/// use mlkit::dataset::Dataset;
/// use mlkit::linear::LogisticRegression;
/// use mlkit::model::Classifier;
///
/// let ds = Dataset::from_rows(
///     &[vec![0.0], vec![0.1], vec![0.9], vec![1.0]],
///     &[0.0, 0.0, 1.0, 1.0],
/// )?;
/// let mut lr = LogisticRegression::new();
/// lr.fit(&ds, &mut obskit::Recorder::null())?;
/// assert_eq!(lr.predict(&ds)?, vec![0.0, 0.0, 1.0, 1.0]);
/// # Ok::<(), mlkit::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    learning_rate: f32,
    l2: f32,
    epochs: usize,
    batch_size: usize,
    pos_weight: f32,
    seed: u64,
    weights: Option<Vec<f32>>,
    bias: f32,
}

impl Default for LogisticRegression {
    fn default() -> LogisticRegression {
        LogisticRegression::new()
    }
}

impl LogisticRegression {
    /// Creates a model with default hyper-parameters
    /// (lr = 0.1, l2 = 1e-4, 60 epochs, batch 64, no class weighting).
    pub fn new() -> LogisticRegression {
        LogisticRegression {
            learning_rate: 0.1,
            l2: 1e-4,
            epochs: 60,
            batch_size: 64,
            pos_weight: 1.0,
            seed: 42,
            weights: None,
            bias: 0.0,
        }
    }

    /// Sets the initial learning rate.
    pub fn learning_rate(mut self, lr: f32) -> LogisticRegression {
        self.learning_rate = lr;
        self
    }

    /// Sets the L2 regularisation strength.
    pub fn l2(mut self, l2: f32) -> LogisticRegression {
        self.l2 = l2;
        self
    }

    /// Sets the number of passes over the training data.
    pub fn epochs(mut self, epochs: usize) -> LogisticRegression {
        self.epochs = epochs;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, batch: usize) -> LogisticRegression {
        self.batch_size = batch.max(1);
        self
    }

    /// Sets the loss weight multiplier for positive samples.
    pub fn pos_weight(mut self, w: f32) -> LogisticRegression {
        self.pos_weight = w;
        self
    }

    /// Sets the RNG seed used for shuffling.
    pub fn seed(mut self, seed: u64) -> LogisticRegression {
        self.seed = seed;
        self
    }

    /// Learned feature weights, or `None` before fitting.
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// Learned bias term.
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Reduces the fitted model to a
    /// [`CompiledLinear`](crate::fastpath::CompiledLinear) scorer with
    /// bit-identical probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before fitting.
    pub fn compile(&self) -> Result<crate::fastpath::CompiledLinear> {
        let w = self.weights.clone().ok_or(MlError::NotFitted)?;
        Ok(crate::fastpath::CompiledLinear::new(
            w,
            self.bias,
            self.threshold(),
        ))
    }

    fn validate(&self) -> Result<()> {
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(MlError::InvalidParameter {
                name: "learning_rate",
                reason: format!("must be positive and finite, got {}", self.learning_rate),
            });
        }
        if self.l2 < 0.0 {
            return Err(MlError::InvalidParameter {
                name: "l2",
                reason: format!("must be non-negative, got {}", self.l2),
            });
        }
        if self.epochs == 0 {
            return Err(MlError::InvalidParameter {
                name: "epochs",
                reason: "must be > 0".into(),
            });
        }
        Ok(())
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, train: &Dataset, _rec: &mut obskit::Recorder) -> Result<()> {
        self.validate()?;
        if train.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if train.n_positive() == 0 || train.n_negative() == 0 {
            return Err(MlError::SingleClass);
        }
        let n = train.len();
        let d = train.n_features();
        let mut w = vec![0.0f32; d];
        let mut b = 0.0f32;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut idx: Vec<usize> = (0..n).collect();

        for epoch in 0..self.epochs {
            idx.shuffle(&mut rng);
            // 1/t learning-rate decay keeps early progress fast and the
            // tail stable.
            let lr = self.learning_rate / (1.0 + 0.05 * epoch as f32);
            for batch in idx.chunks(self.batch_size) {
                let mut gw = vec![0.0f32; d];
                let mut gb = 0.0f32;
                for &i in batch {
                    let row = train.x().row(i);
                    let y = train.y()[i];
                    let p = sigmoid(dot(&w, row) + b);
                    let weight = if y == 1.0 { self.pos_weight } else { 1.0 };
                    let err = (p - y) * weight;
                    for (g, &x) in gw.iter_mut().zip(row) {
                        *g += err * x;
                    }
                    gb += err;
                }
                let scale = lr / batch.len() as f32;
                for (wj, gj) in w.iter_mut().zip(&gw) {
                    *wj -= scale * (gj + self.l2 * *wj * batch.len() as f32);
                }
                b -= scale * gb;
            }
        }
        if w.iter().any(|v| !v.is_finite()) || !b.is_finite() {
            return Err(MlError::NumericalError(
                "logistic regression diverged (non-finite weights)".into(),
            ));
        }
        self.weights = Some(w);
        self.bias = b;
        Ok(())
    }

    fn predict_proba(&self, data: &Dataset) -> Result<Vec<f32>> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        if data.n_features() != w.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} features", w.len()),
                found: format!("{} features", data.n_features()),
            });
        }
        Ok(data
            .x()
            .rows_iter()
            .map(|row| sigmoid(dot(w, row) + self.bias))
            .collect())
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> Dataset {
        // y = 1 iff x0 > 0.5
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32 / 40.0, ((i * 7) % 13) as f32 / 13.0])
            .collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn fits_separable_data() {
        let ds = separable();
        let mut lr = LogisticRegression::new().learning_rate(1.0).epochs(400);
        lr.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let pred = lr.predict(&ds).unwrap();
        let acc = pred.iter().zip(ds.y()).filter(|(a, b)| a == b).count() as f64 / ds.len() as f64;
        assert!(acc >= 0.95, "accuracy {acc} too low");
    }

    #[test]
    fn predict_before_fit_errors() {
        let ds = separable();
        let lr = LogisticRegression::new();
        assert!(matches!(lr.predict_proba(&ds), Err(MlError::NotFitted)));
    }

    #[test]
    fn single_class_rejected() {
        let ds = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[0.0, 0.0]).unwrap();
        let mut lr = LogisticRegression::new();
        assert!(matches!(
            lr.fit(&ds, &mut obskit::Recorder::null()),
            Err(MlError::SingleClass)
        ));
    }

    #[test]
    fn feature_mismatch_rejected() {
        let ds = separable();
        let mut lr = LogisticRegression::new();
        lr.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let other = Dataset::from_rows(&[vec![1.0]], &[0.0]).unwrap();
        assert!(lr.predict_proba(&other).is_err());
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let ds = separable();
        let mut lr = LogisticRegression::new();
        lr.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        for p in lr.predict_proba(&ds).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn pos_weight_increases_recall() {
        // Imbalanced, noisy data: upweighting positives should not reduce
        // the number of predicted positives.
        let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![(i % 10) as f32 / 10.0]).collect();
        let y: Vec<f32> = (0..100)
            .map(|i| if i % 10 >= 8 { 1.0 } else { 0.0 })
            .collect();
        let ds = Dataset::from_rows(&rows, &y).unwrap();

        let mut plain = LogisticRegression::new().epochs(100);
        plain.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let plain_pos: usize = plain
            .predict(&ds)
            .unwrap()
            .iter()
            .filter(|&&v| v == 1.0)
            .count();

        let mut weighted = LogisticRegression::new().epochs(100).pos_weight(8.0);
        weighted.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let weighted_pos: usize = weighted
            .predict(&ds)
            .unwrap()
            .iter()
            .filter(|&&v| v == 1.0)
            .count();
        assert!(weighted_pos >= plain_pos);
    }

    #[test]
    fn invalid_params_rejected() {
        let ds = separable();
        assert!(LogisticRegression::new()
            .learning_rate(-1.0)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
        assert!(LogisticRegression::new()
            .epochs(0)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
        assert!(LogisticRegression::new()
            .l2(-0.1)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = separable();
        let mut a = LogisticRegression::new().seed(9);
        let mut b = LogisticRegression::new().seed(9);
        a.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        b.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        assert_eq!(a.weights(), b.weights());
    }
}
