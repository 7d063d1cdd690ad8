//! The common binary-classifier interface.

use crate::dataset::Dataset;
use crate::Result;

/// A binary classifier over [`Dataset`]s.
///
/// Implementations predict the probability that each sample belongs to the
/// positive class (`1.0`). Hard predictions threshold that probability at
/// [`Classifier::threshold`] (0.5 by default).
pub trait Classifier {
    /// Fits the model to a training dataset, recording training-loop
    /// metrics (boosting rounds, epochs, split candidates, …) into `rec`.
    /// Models without an interesting training loop record nothing.
    /// Recording never changes the fitted model: fitting with
    /// [`obskit::Recorder::null`] and with a full recorder gives the same
    /// bits, and the instrumentation-equivalence suite
    /// (`tests/obskit_equivalence.rs`) locks that down end to end.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset is empty, single-class (for models
    /// that require both classes), or numerically degenerate.
    fn fit(&mut self, train: &Dataset, rec: &mut obskit::Recorder) -> Result<()>;

    /// Predicts positive-class probabilities for every sample.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MlError::NotFitted`] before [`Classifier::fit`], or a
    /// dimension error when feature counts differ from training.
    fn predict_proba(&self, data: &Dataset) -> Result<Vec<f32>>;

    /// Decision threshold used by [`Classifier::predict`].
    fn threshold(&self) -> f32 {
        0.5
    }

    /// Predicts hard labels (`0.0`/`1.0`) by thresholding
    /// [`Classifier::predict_proba`].
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Classifier::predict_proba`].
    fn predict(&self, data: &Dataset) -> Result<Vec<f32>> {
        let t = self.threshold();
        Ok(self
            .predict_proba(data)?
            .into_iter()
            .map(|p| if p >= t { 1.0 } else { 0.0 })
            .collect())
    }

    /// A short human-readable model name (e.g. `"GBDT"`).
    fn name(&self) -> &'static str;
}

impl<T: Classifier + ?Sized> Classifier for Box<T> {
    fn fit(&mut self, train: &Dataset, rec: &mut obskit::Recorder) -> Result<()> {
        (**self).fit(train, rec)
    }
    fn predict_proba(&self, data: &Dataset) -> Result<Vec<f32>> {
        (**self).predict_proba(data)
    }
    fn threshold(&self) -> f32 {
        (**self).threshold()
    }
    fn predict(&self, data: &Dataset) -> Result<Vec<f32>> {
        (**self).predict(data)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// A constant-probability classifier used to test default methods. Its
    /// fit only counts itself, so a test can see the recorder arrive.
    struct Constant(f32);

    impl Classifier for Constant {
        fn fit(&mut self, _train: &Dataset, rec: &mut obskit::Recorder) -> Result<()> {
            rec.incr("test.fits", 1);
            Ok(())
        }
        fn predict_proba(&self, data: &Dataset) -> Result<Vec<f32>> {
            Ok(vec![self.0; data.len()])
        }
        fn name(&self) -> &'static str {
            "Constant"
        }
    }

    #[test]
    fn default_predict_thresholds_at_half() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[0.0, 1.0]).unwrap();
        assert_eq!(Constant(0.6).predict(&ds).unwrap(), vec![1.0, 1.0]);
        assert_eq!(Constant(0.4).predict(&ds).unwrap(), vec![0.0, 0.0]);
        // Boundary: p == threshold counts as positive.
        assert_eq!(Constant(0.5).predict(&ds).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn trait_is_object_safe() {
        let ds = Dataset::from_rows(&[vec![0.0]], &[0.0]).unwrap();
        let mut boxed: Box<dyn Classifier> = Box::new(Constant(0.9));
        // The boxed fit passes the caller's recorder through.
        let mut rec = obskit::Recorder::new();
        boxed.fit(&ds, &mut rec).unwrap();
        assert_eq!(rec.counter("test.fits"), 1);
        assert_eq!(boxed.predict(&ds).unwrap(), vec![1.0]);
        assert_eq!(boxed.name(), "Constant");
    }
}
