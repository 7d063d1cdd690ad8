//! Gradient-boosted decision trees (GBDT) for binary classification.
//!
//! This is the paper's best-performing model. The implementation follows
//! the second-order boosting formulation (as popularised by XGBoost):
//! at each round a regression tree is fit to the gradient/hessian of the
//! logistic loss, and leaves take Newton steps `-G/(H + lambda)` shrunk by
//! the learning rate. Features are quantile-binned once up front, so each
//! boosting round costs `O(samples × features)`.

use crate::dataset::Dataset;
use crate::hist::{TrainMode, TrainScratch};
use crate::linear::sigmoid;
use crate::model::Classifier;
use crate::tree::{QuantileBinner, RegressionTree, TreeParams};
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The grain, in rows, of the score update after each tree and of batch
/// prediction ([`parkit::Threads::for_work`]): smaller passes run inline,
/// where spawning would cost more than the work saves.
const PAR_ROW_MIN: usize = 4_096;

/// Gradient-boosted decision tree classifier with logistic loss.
///
/// # Example
///
/// ```
/// use mlkit::dataset::Dataset;
/// use mlkit::gbdt::Gbdt;
/// use mlkit::model::Classifier;
///
/// // XOR-ish data (with slight jitter) that a linear model cannot fit.
/// let rows: Vec<Vec<f32>> = (0..80)
///     .map(|i| {
///         let a = (i % 2) as f32 + (i % 7) as f32 * 0.01;
///         let b = ((i / 2) % 2) as f32 + (i % 5) as f32 * 0.01;
///         vec![a, b]
///     })
///     .collect();
/// let y: Vec<f32> = rows
///     .iter()
///     .map(|r| if (r[0] > 0.5) != (r[1] > 0.5) { 1.0 } else { 0.0 })
///     .collect();
/// let ds = Dataset::from_rows(&rows, &y)?;
/// let mut model = Gbdt::new().n_trees(20).min_samples_leaf(1);
/// model.fit(&ds, &mut obskit::Recorder::null())?;
/// let pred = model.predict(&ds)?;
/// assert_eq!(pred, y);
/// # Ok::<(), mlkit::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbdt {
    n_trees: usize,
    learning_rate: f32,
    max_depth: usize,
    min_samples_leaf: usize,
    lambda: f64,
    subsample: f64,
    colsample: f64,
    n_bins: usize,
    pos_weight: f32,
    seed: u64,
    /// Worker-thread policy for split finding, score updates, and
    /// prediction. Execution detail — results are identical under any
    /// policy — so fitted-model serialization excludes it.
    #[serde(skip)]
    threads: parkit::Threads,
    /// Split-finding engine (see [`TrainMode`]). Training detail — the
    /// default `Exact` engine is bit-identical to `Reference`, and
    /// `Fast` is locked split-identical by the differential suite — so
    /// fitted-model serialization excludes it.
    #[serde(skip)]
    train_mode: TrainMode,
    // Fitted state.
    binner: Option<QuantileBinner>,
    trees: Vec<RegressionTree>,
    base_score: f32,
    n_features: usize,
}

impl Default for Gbdt {
    fn default() -> Gbdt {
        Gbdt::new()
    }
}

impl Gbdt {
    /// Creates a model with defaults suited to medium-size tabular data
    /// (100 trees, depth 5, learning rate 0.1, 64 bins).
    pub fn new() -> Gbdt {
        Gbdt {
            n_trees: 100,
            learning_rate: 0.1,
            max_depth: 5,
            min_samples_leaf: 10,
            lambda: 1.0,
            subsample: 1.0,
            colsample: 1.0,
            n_bins: 64,
            pos_weight: 1.0,
            seed: 42,
            threads: parkit::Threads::Auto,
            train_mode: TrainMode::Exact,
            binner: None,
            trees: Vec::new(),
            base_score: 0.0,
            n_features: 0,
        }
    }

    /// Sets the number of boosting rounds.
    pub fn n_trees(mut self, n: usize) -> Gbdt {
        self.n_trees = n;
        self
    }

    /// Sets the shrinkage (learning rate) applied to each tree.
    pub fn learning_rate(mut self, lr: f32) -> Gbdt {
        self.learning_rate = lr;
        self
    }

    /// Sets the maximum depth of each tree.
    pub fn max_depth(mut self, d: usize) -> Gbdt {
        self.max_depth = d;
        self
    }

    /// Sets the minimum samples per leaf.
    pub fn min_samples_leaf(mut self, m: usize) -> Gbdt {
        self.min_samples_leaf = m.max(1);
        self
    }

    /// Sets the L2 leaf regularisation.
    pub fn lambda(mut self, l: f64) -> Gbdt {
        self.lambda = l;
        self
    }

    /// Sets the per-round row subsampling fraction (`(0, 1]`).
    pub fn subsample(mut self, s: f64) -> Gbdt {
        self.subsample = s;
        self
    }

    /// Sets the per-split feature sampling fraction (`(0, 1]`).
    pub fn colsample(mut self, c: f64) -> Gbdt {
        self.colsample = c;
        self
    }

    /// Sets the number of quantile bins per feature (2–256).
    pub fn n_bins(mut self, b: usize) -> Gbdt {
        self.n_bins = b;
        self
    }

    /// Sets the loss weight multiplier for positive samples.
    pub fn pos_weight(mut self, w: f32) -> Gbdt {
        self.pos_weight = w;
        self
    }

    /// Sets the RNG seed (subsampling, feature sampling).
    pub fn seed(mut self, seed: u64) -> Gbdt {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread policy. Training and prediction results are
    /// bit-identical under any policy (see `parkit`); this only changes
    /// wall-clock time.
    pub fn threads(mut self, threads: parkit::Threads) -> Gbdt {
        self.threads = threads;
        self
    }

    /// Sets the split-finding engine. `Exact` (the default) is
    /// bit-identical to the pre-engine `Reference` path; `Fast` adds
    /// sibling subtraction and row-block parallelism for a ≥2x
    /// training-throughput gain at the cost of last-ulp floating-point
    /// identity (see [`crate::hist`] for the contract).
    pub fn train_mode(mut self, mode: TrainMode) -> Gbdt {
        self.train_mode = mode;
        self
    }

    /// Flattens the fitted ensemble into a branch-free
    /// [`CompiledGbdt`](crate::fastpath::CompiledGbdt) whose
    /// probabilities are bit-identical to
    /// [`Classifier::predict_proba`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before fitting.
    pub fn compile(&self) -> Result<crate::fastpath::CompiledGbdt> {
        crate::fastpath::CompiledGbdt::from_gbdt(self)
    }

    /// The fitted trees, for fastpath flattening.
    pub(crate) fn fitted_trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// The fitted base score (log-odds prior).
    pub(crate) fn fitted_base_score(&self) -> f32 {
        self.base_score
    }

    /// The shrinkage applied to each tree's leaf values.
    pub(crate) fn shrinkage(&self) -> f32 {
        self.learning_rate
    }

    /// The fitted feature count.
    pub(crate) fn fitted_n_features(&self) -> usize {
        self.n_features
    }

    /// Split-count feature importances, or `None` before fitting.
    pub fn feature_importances(&self) -> Option<Vec<u32>> {
        if self.trees.is_empty() {
            return None;
        }
        let mut counts = vec![0u32; self.n_features];
        for t in &self.trees {
            t.accumulate_feature_counts(&mut counts);
        }
        Some(counts)
    }

    fn validate(&self) -> Result<()> {
        if self.n_trees == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_trees",
                reason: "must be > 0".into(),
            });
        }
        if self.learning_rate <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "learning_rate",
                reason: format!("must be positive, got {}", self.learning_rate),
            });
        }
        if !(0.0..=1.0).contains(&self.subsample) || self.subsample == 0.0 {
            return Err(MlError::InvalidParameter {
                name: "subsample",
                reason: format!("must be in (0, 1], got {}", self.subsample),
            });
        }
        if !(0.0..=1.0).contains(&self.colsample) || self.colsample == 0.0 {
            return Err(MlError::InvalidParameter {
                name: "colsample",
                reason: format!("must be in (0, 1], got {}", self.colsample),
            });
        }
        Ok(())
    }

    /// Raw additive score (log-odds) for one feature row.
    fn raw_score_row(&self, row: &[f32]) -> f32 {
        let mut s = self.base_score;
        for t in &self.trees {
            s += self.learning_rate * t.predict_row(row);
        }
        s
    }
}

impl Classifier for Gbdt {
    /// The boosting loop. Recording is strictly read-only with respect
    /// to training state, so any recorder produces the same model.
    fn fit(&mut self, train: &Dataset, rec: &mut obskit::Recorder) -> Result<()> {
        self.validate()?;
        if train.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let n_pos = train.n_positive();
        let n_neg = train.n_negative();
        if n_pos == 0 || n_neg == 0 {
            return Err(MlError::SingleClass);
        }
        let n = train.len();
        self.n_features = train.n_features();

        let binner = QuantileBinner::fit(train.x(), self.n_bins)?;
        let binned = binner.transform(train.x())?;

        // Initialise with the log-odds of the (weighted) base rate.
        let wp = n_pos as f64 * self.pos_weight as f64;
        let wn = n_neg as f64;
        self.base_score = ((wp / wn).ln()) as f32;

        let mut raw = vec![self.base_score; n];
        let mut grad = vec![0.0f32; n];
        let mut hess = vec![0.0f32; n];
        let mut rng = StdRng::seed_from_u64(self.seed);
        let params = TreeParams {
            max_depth: self.max_depth,
            min_samples_leaf: self.min_samples_leaf,
            min_gain: 1e-6,
            lambda: self.lambda,
            colsample: self.colsample,
            threads: self.threads,
            mode: self.train_mode,
        };

        self.trees.clear();
        let mut all_idx: Vec<usize> = (0..n).collect();
        let sub_n = ((n as f64) * self.subsample).ceil() as usize;
        // One scratch arena for the whole boosting run: gathers, slabs,
        // and partials allocate during the first tree and are reused by
        // every later one, so steady-state training is allocation-free.
        let mut scratch = TrainScratch::for_binner(&binner);

        for _ in 0..self.n_trees {
            // Logistic loss derivatives with optional positive-class weight:
            //   L = -w_i [y ln p + (1-y) ln (1-p)],  p = sigmoid(raw)
            //   dL/draw = w_i (p - y),  d2L/draw2 = w_i p (1 - p)
            for i in 0..n {
                let p = sigmoid(raw[i]);
                let y = train.y()[i];
                let w = if y == 1.0 { self.pos_weight } else { 1.0 };
                grad[i] = w * (p - y);
                hess[i] = (w * p * (1.0 - p)).max(1e-6);
            }
            let idx: &[usize] = if self.subsample < 1.0 {
                all_idx.shuffle(&mut rng);
                &all_idx[..sub_n]
            } else {
                &all_idx
            };
            let tree = RegressionTree::fit(
                &binned,
                &binner,
                &grad,
                &hess,
                idx,
                params,
                &mut rng,
                rec,
                &mut scratch,
            )?;
            // Update raw scores for every sample (not just the subsample).
            // Each element is touched exactly once, so the chunked
            // parallel pass equals the serial loop bit for bit.
            let threads = self.threads.for_work(n, PAR_ROW_MIN);
            parkit::par_apply_chunks(threads, &mut raw, |offset, chunk| {
                for (k, r) in chunk.iter_mut().enumerate() {
                    *r += self.learning_rate * tree.predict_row(train.x().row(offset + k));
                }
            });
            rec.incr("mlkit.gbdt.boosting_rounds", 1);
            rec.observe("mlkit.gbdt.tree_leaves", tree.n_leaves() as f64);
            self.trees.push(tree);
        }
        self.binner = Some(binner);
        Ok(())
    }

    fn predict_proba(&self, data: &Dataset) -> Result<Vec<f32>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        if data.n_features() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} features", self.n_features),
                found: format!("{} features", data.n_features()),
            });
        }
        let rows: Vec<usize> = (0..data.len()).collect();
        Ok(parkit::par_map(
            self.threads.for_work(rows.len(), PAR_ROW_MIN),
            &rows,
            |&i| sigmoid(self.raw_score_row(data.x().row(i))),
        ))
    }

    fn name(&self) -> &'static str {
        "GBDT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let a = (i % 2) as f32;
                let b = ((i / 2) % 2) as f32;
                // jitter so bins are informative
                vec![a + (i % 7) as f32 * 0.01, b + (i % 5) as f32 * 0.01]
            })
            .collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| {
                if (r[0] > 0.5) != (r[1] > 0.5) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn learns_xor() {
        let ds = xor_dataset(200);
        let mut model = Gbdt::new().n_trees(30).max_depth(3).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let pred = model.predict(&ds).unwrap();
        let acc = pred.iter().zip(ds.y()).filter(|(a, b)| a == b).count() as f64 / 200.0;
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn outperforms_linear_on_xor() {
        use crate::linear::LogisticRegression;
        let ds = xor_dataset(200);
        let mut lin = LogisticRegression::new().epochs(100);
        lin.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let lin_acc = lin
            .predict(&ds)
            .unwrap()
            .iter()
            .zip(ds.y())
            .filter(|(a, b)| a == b)
            .count() as f64
            / 200.0;
        let mut model = Gbdt::new().n_trees(30).max_depth(3).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let gb_acc = model
            .predict(&ds)
            .unwrap()
            .iter()
            .zip(ds.y())
            .filter(|(a, b)| a == b)
            .count() as f64
            / 200.0;
        assert!(gb_acc > lin_acc + 0.2, "gbdt {gb_acc} vs linear {lin_acc}");
    }

    #[test]
    fn not_fitted_error() {
        let ds = xor_dataset(8);
        assert!(matches!(
            Gbdt::new().predict_proba(&ds),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn single_class_rejected() {
        let ds = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[1.0, 1.0]).unwrap();
        assert!(matches!(
            Gbdt::new().fit(&ds, &mut obskit::Recorder::null()),
            Err(MlError::SingleClass)
        ));
    }

    #[test]
    fn invalid_hyperparameters_rejected() {
        let ds = xor_dataset(20);
        assert!(Gbdt::new()
            .n_trees(0)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
        assert!(Gbdt::new()
            .learning_rate(0.0)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
        assert!(Gbdt::new()
            .subsample(0.0)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
        assert!(Gbdt::new()
            .colsample(1.5)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
    }

    #[test]
    fn subsample_and_colsample_still_learn() {
        let ds = xor_dataset(300);
        let mut model = Gbdt::new()
            .n_trees(60)
            .max_depth(3)
            .min_samples_leaf(2)
            .subsample(0.7)
            .colsample(0.5);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let pred = model.predict(&ds).unwrap();
        let acc = pred.iter().zip(ds.y()).filter(|(a, b)| a == b).count() as f64 / 300.0;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn probabilities_bounded_and_base_rate_sane() {
        let ds = xor_dataset(100);
        let mut model = Gbdt::new().n_trees(10);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        for p in model.predict_proba(&ds).unwrap() {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
    }

    #[test]
    fn recording_never_changes_the_model() {
        let ds = xor_dataset(120);
        let mut plain = Gbdt::new().n_trees(8).max_depth(3).min_samples_leaf(2);
        plain.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let mut observed = Gbdt::new().n_trees(8).max_depth(3).min_samples_leaf(2);
        let mut rec = obskit::Recorder::new();
        observed.fit(&ds, &mut rec).unwrap();
        assert_eq!(
            plain.predict_proba(&ds).unwrap(),
            observed.predict_proba(&ds).unwrap()
        );
        assert_eq!(rec.counter("mlkit.gbdt.boosting_rounds"), 8);
        assert!(rec.counter("mlkit.tree.split_candidates") > 0);
        assert_eq!(rec.histogram("mlkit.gbdt.tree_leaves").unwrap().count(), 8);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = xor_dataset(100);
        let mut a = Gbdt::new().n_trees(10).subsample(0.8).seed(3);
        let mut b = Gbdt::new().n_trees(10).subsample(0.8).seed(3);
        a.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        b.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        assert_eq!(a.predict_proba(&ds).unwrap(), b.predict_proba(&ds).unwrap());
    }

    #[test]
    fn feature_importances_cover_both_xor_features() {
        let ds = xor_dataset(200);
        let mut model = Gbdt::new().n_trees(20).max_depth(3).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let imp = model.feature_importances().unwrap();
        assert_eq!(imp.len(), 2);
        assert!(imp[0] > 0 && imp[1] > 0, "xor needs both features: {imp:?}");
    }

    #[test]
    fn feature_mismatch_rejected() {
        let ds = xor_dataset(50);
        let mut model = Gbdt::new().n_trees(5);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let wrong = Dataset::from_rows(&[vec![0.0]], &[0.0]).unwrap();
        assert!(model.predict_proba(&wrong).is_err());
    }
}
