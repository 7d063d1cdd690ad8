//! Multi-layer perceptron (the paper's "NN" model).
//!
//! A fully connected feed-forward network with ReLU hidden activations and
//! a sigmoid output, trained with mini-batch Adam on the logistic loss.

use crate::dataset::Dataset;
use crate::linear::sigmoid;
use crate::model::Classifier;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One dense layer's parameters and Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Layer {
    in_dim: usize,
    out_dim: usize,
    // Row-major `out_dim x in_dim` weights.
    w: Vec<f32>,
    b: Vec<f32>,
    // Adam moments.
    mw: Vec<f32>,
    vw: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Layer {
        // He initialisation for ReLU layers.
        let scale = (2.0 / in_dim as f32).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
        }
    }

    /// `out = W x + b`
    fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
        out.clear();
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wv, xv) in row.iter().zip(x) {
                acc += wv * xv;
            }
            out.push(acc);
        }
    }
}

/// MLP binary classifier.
///
/// # Example
///
/// ```
/// use mlkit::dataset::Dataset;
/// use mlkit::model::Classifier;
/// use mlkit::nn::MlpClassifier;
///
/// let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32 / 40.0]).collect();
/// let y: Vec<f32> = rows.iter().map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 }).collect();
/// let ds = Dataset::from_rows(&rows, &y)?;
/// let mut nn = MlpClassifier::new().hidden_layers(&[8]).epochs(200);
/// nn.fit(&ds, &mut obskit::Recorder::null())?;
/// assert!(nn.predict_proba(&ds)?[0] < 0.5);
/// assert!(nn.predict_proba(&ds)?[39] > 0.5);
/// # Ok::<(), mlkit::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpClassifier {
    hidden: Vec<usize>,
    learning_rate: f32,
    epochs: usize,
    batch_size: usize,
    l2: f32,
    pos_weight: f32,
    seed: u64,
    layers: Vec<Layer>,
    n_features: usize,
    adam_t: u64,
}

impl Default for MlpClassifier {
    fn default() -> MlpClassifier {
        MlpClassifier::new()
    }
}

impl MlpClassifier {
    /// Creates an MLP with one hidden layer of 32 units, Adam lr 1e-3,
    /// 50 epochs, batch 64.
    pub fn new() -> MlpClassifier {
        MlpClassifier {
            hidden: vec![32],
            learning_rate: 1e-3,
            epochs: 50,
            batch_size: 64,
            l2: 1e-5,
            pos_weight: 1.0,
            seed: 42,
            layers: Vec::new(),
            n_features: 0,
            adam_t: 0,
        }
    }

    /// Sets hidden-layer sizes (one entry per layer).
    pub fn hidden_layers(mut self, sizes: &[usize]) -> MlpClassifier {
        self.hidden = sizes.to_vec();
        self
    }

    /// Sets the Adam learning rate.
    pub fn learning_rate(mut self, lr: f32) -> MlpClassifier {
        self.learning_rate = lr;
        self
    }

    /// Sets the number of epochs.
    pub fn epochs(mut self, e: usize) -> MlpClassifier {
        self.epochs = e.max(1);
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, b: usize) -> MlpClassifier {
        self.batch_size = b.max(1);
        self
    }

    /// Sets the L2 weight decay.
    pub fn l2(mut self, l2: f32) -> MlpClassifier {
        self.l2 = l2;
        self
    }

    /// Sets the loss weight multiplier for positive samples.
    pub fn pos_weight(mut self, w: f32) -> MlpClassifier {
        self.pos_weight = w;
        self
    }

    /// Sets the RNG seed (init, shuffling).
    pub fn seed(mut self, seed: u64) -> MlpClassifier {
        self.seed = seed;
        self
    }

    /// Forward pass; returns per-layer activations (input first) and the
    /// output logit.
    fn forward(&self, x: &[f32]) -> (Vec<Vec<f32>>, f32) {
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len() + 1);
        // `cur` always holds the most recent activation, so no layer
        // ever has to reach back into `acts` (which would need a panic
        // or a default on the impossible empty case).
        let mut cur: Vec<f32> = x.to_vec();
        let mut buf = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut buf);
            let last = li + 1 == self.layers.len();
            if !last {
                for v in buf.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(std::mem::take(&mut cur));
            cur = buf.clone();
        }
        let logit = cur.first().copied().unwrap_or_default();
        acts.push(cur);
        (acts, logit)
    }

    fn validate(&self) -> Result<()> {
        if self.learning_rate <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "learning_rate",
                reason: format!("must be positive, got {}", self.learning_rate),
            });
        }
        if self.hidden.contains(&0) {
            return Err(MlError::InvalidParameter {
                name: "hidden_layers",
                reason: "layer sizes must be > 0".into(),
            });
        }
        Ok(())
    }
}

impl Classifier for MlpClassifier {
    // Gradient buffers are indexed by layer/unit throughout backprop;
    // iterator rewrites would obscure the maths.
    #[allow(clippy::needless_range_loop)]
    fn fit(&mut self, train: &Dataset, rec: &mut obskit::Recorder) -> Result<()> {
        self.validate()?;
        if train.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if train.n_positive() == 0 || train.n_negative() == 0 {
            return Err(MlError::SingleClass);
        }
        let d = train.n_features();
        self.n_features = d;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Build layer stack: d -> hidden... -> 1
        self.layers.clear();
        let mut dims = vec![d];
        dims.extend_from_slice(&self.hidden);
        dims.push(1);
        for w in dims.windows(2) {
            self.layers.push(Layer::new(w[0], w[1], &mut rng));
        }
        self.adam_t = 0;

        let n = train.len();
        let mut idx: Vec<usize> = (0..n).collect();
        const BETA1: f32 = 0.9;
        const BETA2: f32 = 0.999;
        const EPS: f32 = 1e-8;

        // Per-layer gradient buffers.
        let mut gw: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        for _ in 0..self.epochs {
            idx.shuffle(&mut rng);
            for batch in idx.chunks(self.batch_size) {
                for g in gw.iter_mut() {
                    g.fill(0.0);
                }
                for g in gb.iter_mut() {
                    g.fill(0.0);
                }
                for &i in batch {
                    let x = train.x().row(i);
                    let y = train.y()[i];
                    let (acts, logit) = self.forward(x);
                    let p = sigmoid(logit);
                    let w = if y == 1.0 { self.pos_weight } else { 1.0 };
                    // dL/dlogit for weighted logistic loss.
                    let mut delta = vec![w * (p - y)];
                    // Backpropagate layer by layer.
                    for li in (0..self.layers.len()).rev() {
                        let layer = &self.layers[li];
                        let a_in = &acts[li];
                        // Accumulate gradients for this layer.
                        for o in 0..layer.out_dim {
                            let dv = delta[o];
                            if dv == 0.0 {
                                continue;
                            }
                            gb[li][o] += dv;
                            let grow = &mut gw[li][o * layer.in_dim..(o + 1) * layer.in_dim];
                            for (g, &av) in grow.iter_mut().zip(a_in) {
                                *g += dv * av;
                            }
                        }
                        if li == 0 {
                            break;
                        }
                        // delta for previous layer: W^T delta, masked by ReLU'.
                        let mut prev = vec![0.0f32; layer.in_dim];
                        for o in 0..layer.out_dim {
                            let dv = delta[o];
                            if dv == 0.0 {
                                continue;
                            }
                            let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                            for (pv, &wv) in prev.iter_mut().zip(row) {
                                *pv += dv * wv;
                            }
                        }
                        for (pv, &av) in prev.iter_mut().zip(&acts[li]) {
                            if av <= 0.0 {
                                *pv = 0.0;
                            }
                        }
                        delta = prev;
                    }
                }
                // Adam update.
                self.adam_t += 1;
                let t = self.adam_t as f32;
                let bc1 = 1.0 - BETA1.powf(t);
                let bc2 = 1.0 - BETA2.powf(t);
                let scale = 1.0 / batch.len() as f32;
                for (li, layer) in self.layers.iter_mut().enumerate() {
                    for k in 0..layer.w.len() {
                        let g = gw[li][k] * scale + self.l2 * layer.w[k];
                        layer.mw[k] = BETA1 * layer.mw[k] + (1.0 - BETA1) * g;
                        layer.vw[k] = BETA2 * layer.vw[k] + (1.0 - BETA2) * g * g;
                        let mhat = layer.mw[k] / bc1;
                        let vhat = layer.vw[k] / bc2;
                        layer.w[k] -= self.learning_rate * mhat / (vhat.sqrt() + EPS);
                    }
                    for k in 0..layer.b.len() {
                        let g = gb[li][k] * scale;
                        layer.mb[k] = BETA1 * layer.mb[k] + (1.0 - BETA1) * g;
                        layer.vb[k] = BETA2 * layer.vb[k] + (1.0 - BETA2) * g * g;
                        let mhat = layer.mb[k] / bc1;
                        let vhat = layer.vb[k] / bc2;
                        layer.b[k] -= self.learning_rate * mhat / (vhat.sqrt() + EPS);
                    }
                }
            }
        }
        for layer in &self.layers {
            if layer.w.iter().any(|v| !v.is_finite()) {
                return Err(MlError::NumericalError(
                    "mlp training diverged (non-finite weights)".into(),
                ));
            }
        }
        // The optimiser always runs exactly `epochs × ceil(n / batch_size)`
        // Adam steps, so the training-loop metrics are recorded in closed
        // form after a successful fit; recording can never perturb it.
        rec.incr("mlkit.nn.epochs", self.epochs as u64);
        let n_batches = n.div_ceil(self.batch_size) as u64;
        rec.incr("mlkit.nn.adam_steps", self.epochs as u64 * n_batches);
        Ok(())
    }

    fn predict_proba(&self, data: &Dataset) -> Result<Vec<f32>> {
        if self.layers.is_empty() {
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
            .map(|row| sigmoid(self.forward(row).1))
            .collect())
    }

    fn name(&self) -> &'static str {
        "NN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![(i % 2) as f32, ((i / 2) % 2) as f32])
            .collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] != r[1] { 1.0 } else { 0.0 })
            .collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn fit_records_epochs_and_steps() {
        let ds = xor_dataset(40);
        let mut nn = MlpClassifier::new()
            .hidden_layers(&[4])
            .epochs(3)
            .batch_size(16);
        let mut rec = obskit::Recorder::new();
        nn.fit(&ds, &mut rec).unwrap();
        assert_eq!(rec.counter("mlkit.nn.epochs"), 3);
        // 40 samples / batch 16 -> 3 batches per epoch; matches the
        // optimiser's own Adam step counter.
        assert_eq!(rec.counter("mlkit.nn.adam_steps"), 9);
        assert_eq!(nn.adam_t, 9);
    }

    #[test]
    fn learns_xor() {
        let ds = xor_dataset(120);
        let mut nn = MlpClassifier::new()
            .hidden_layers(&[16])
            .epochs(300)
            .learning_rate(5e-3);
        nn.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let pred = nn.predict(&ds).unwrap();
        let acc = pred.iter().zip(ds.y()).filter(|(a, b)| a == b).count() as f64 / 120.0;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn not_fitted_error() {
        let ds = xor_dataset(8);
        assert!(matches!(
            MlpClassifier::new().predict_proba(&ds),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn single_class_rejected() {
        let ds = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[0.0, 0.0]).unwrap();
        assert!(matches!(
            MlpClassifier::new().fit(&ds, &mut obskit::Recorder::null()),
            Err(MlError::SingleClass)
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        let ds = xor_dataset(8);
        assert!(MlpClassifier::new()
            .learning_rate(0.0)
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
        assert!(MlpClassifier::new()
            .hidden_layers(&[0])
            .fit(&ds, &mut obskit::Recorder::null())
            .is_err());
    }

    #[test]
    fn deep_network_trains() {
        let ds = xor_dataset(120);
        let mut nn = MlpClassifier::new()
            .hidden_layers(&[16, 8])
            .epochs(300)
            .learning_rate(5e-3);
        nn.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let pred = nn.predict(&ds).unwrap();
        let acc = pred.iter().zip(ds.y()).filter(|(a, b)| a == b).count() as f64 / 120.0;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn probabilities_bounded() {
        let ds = xor_dataset(40);
        let mut nn = MlpClassifier::new().epochs(10);
        nn.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        for p in nn.predict_proba(&ds).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = xor_dataset(60);
        let mut a = MlpClassifier::new().epochs(20).seed(11);
        let mut b = MlpClassifier::new().epochs(20).seed(11);
        a.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        b.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        assert_eq!(a.predict_proba(&ds).unwrap(), b.predict_proba(&ds).unwrap());
    }

    #[test]
    fn feature_mismatch_rejected() {
        let ds = xor_dataset(40);
        let mut nn = MlpClassifier::new().epochs(5);
        nn.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let wrong = Dataset::from_rows(&[vec![0.0]], &[0.0]).unwrap();
        assert!(nn.predict_proba(&wrong).is_err());
    }
}
