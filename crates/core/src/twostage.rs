//! The TwoStage prediction method (paper §VI-C2, Fig. 9).
//!
//! Stage 1 checks whether a sample's node has ever been seen to error
//! (using history observable at the end of the training window); only
//! samples from such *offender nodes* reach stage 2, where a trained
//! binary classifier decides. Samples filtered out at stage 1 are
//! predicted SBE-free.
//!
//! Benefits, exactly as the paper argues: the stage-2 training set is much
//! smaller (lower overhead), free of the noise of never-erroring nodes,
//! and far better balanced (the ~50:1 raw imbalance becomes a few:1).
//! The cost is that errors on previously clean nodes are always missed —
//! rare, and healed by periodic retraining.

use crate::datasets::DsSplit;
use crate::features::{FeatureExtractor, FeatureSpec};
use crate::samples::{build_samples, in_window, labels, LabeledSample};
use crate::{PredError, Result};
use mlkit::dataset::Dataset;
use mlkit::metrics::ConfusionMatrix;
use mlkit::model::Classifier;
use mlkit::scaler::StandardScaler;
use obskit::{Clock, NullClock, Recorder};
use std::collections::BTreeSet;
use std::time::Duration;
use titan_sim::trace::TraceSet;

/// A fully prepared split: extracted and standardised stage-2 feature
/// datasets plus the bookkeeping to map stage-2 predictions back onto the
/// full test set. Prepare once, then evaluate many classifiers on it.
#[derive(Debug)]
pub struct Prepared {
    /// Standardised stage-2 training dataset.
    pub train: Dataset,
    /// Standardised stage-2 test dataset.
    pub test: Dataset,
    /// Every test sample (stage-1 negatives included), in order.
    pub test_samples: Vec<LabeledSample>,
    /// Indices into `test_samples` that reached stage 2.
    pub stage2_test_idx: Vec<usize>,
    /// All training-window samples (for baselines/diagnostics).
    pub train_samples: Vec<LabeledSample>,
    /// The stage-2 test samples (subset of `test_samples` at
    /// `stage2_test_idx`), kept for feature re-extraction variants.
    pub stage2_test_samples: Vec<LabeledSample>,
    /// The scaler fitted on the stage-2 training features.
    pub scaler: StandardScaler,
    /// Number of offender nodes at the stage-1 cut-off.
    pub n_offenders: usize,
    /// Name of the split this was prepared from.
    pub split_name: String,
}

impl Prepared {
    /// Fraction of test samples that reach stage 2.
    pub fn stage2_fraction(&self) -> f64 {
        if self.test_samples.is_empty() {
            return 0.0;
        }
        self.stage2_test_idx.len() as f64 / self.test_samples.len() as f64
    }
}

/// The outcome of running one classifier through the TwoStage method.
#[derive(Debug, Clone)]
pub struct TwoStageOutcome {
    /// Hard predictions over *all* test samples.
    pub predictions: Vec<f32>,
    /// Positive-class probabilities over all test samples (stage-1
    /// negatives get probability 0).
    pub probabilities: Vec<f32>,
    /// Ground truth for all test samples.
    pub truth: Vec<f32>,
    /// The test samples, aligned with the vectors above.
    pub test_samples: Vec<LabeledSample>,
    /// Time of the classifier `fit` call only, as measured by the
    /// [`Clock`] handed to [`run_classifier_observed`]. Under the
    /// deterministic default ([`NullClock`]) this is always zero; the
    /// `repro` binary injects a real clock to fill the paper's
    /// train-time columns.
    pub train_time: Duration,
    /// Stage-2 training-set size.
    pub n_stage2_train: usize,
    /// Classifier name.
    pub model_name: &'static str,
}

impl TwoStageOutcome {
    /// Confusion matrix of the SBE (positive) class over all test samples.
    ///
    /// # Errors
    ///
    /// Propagates metric-validation errors (never expected here).
    pub fn confusion(&self) -> Result<ConfusionMatrix> {
        Ok(ConfusionMatrix::from_predictions(
            &self.truth,
            &self.predictions,
        )?)
    }
}

/// Prepares a split for stage-2 learning: computes the offender set,
/// filters samples, extracts features, and standardises them.
///
/// # Errors
///
/// Returns [`PredError::InvalidInput`] when the stage-2 training set is
/// empty or single-class, and propagates extraction errors.
pub fn prepare(trace: &TraceSet, split: &DsSplit, spec: &FeatureSpec) -> Result<Prepared> {
    let all = build_samples(trace)?;
    let fx = FeatureExtractor::new(trace, &all)?;
    prepare_with_extractor(&fx, &all, split, spec)
}

/// Like [`prepare`], but reuses an existing extractor and sample list —
/// the fast path when sweeping feature specs or splits over one trace.
///
/// # Errors
///
/// See [`prepare`].
pub fn prepare_with_extractor(
    fx: &FeatureExtractor<'_>,
    all_samples: &[LabeledSample],
    split: &DsSplit,
    spec: &FeatureSpec,
) -> Result<Prepared> {
    prepare_with_extractor_observed(fx, all_samples, split, spec, &mut Recorder::null())
}

/// [`prepare_with_extractor`] that also records stage-1 metrics: offender
/// count, window sizes, the stage-2 survivor counts, and the stage-1
/// filter rate.
///
/// # Errors
///
/// See [`prepare`].
pub fn prepare_with_extractor_observed(
    fx: &FeatureExtractor<'_>,
    all_samples: &[LabeledSample],
    split: &DsSplit,
    spec: &FeatureSpec,
    rec: &mut Recorder,
) -> Result<Prepared> {
    let span = rec.span_start("twostage.prepare");
    let (train_start, train_end) = split.train_window();
    let (test_start, test_end) = split.test_window();
    let train_samples = in_window(all_samples, train_start, train_end);
    let test_samples = in_window(all_samples, test_start, test_end);
    if train_samples.is_empty() || test_samples.is_empty() {
        return Err(PredError::InvalidInput {
            reason: format!(
                "split {} has empty windows (train {} test {})",
                split.name(),
                train_samples.len(),
                test_samples.len()
            ),
        });
    }

    // Stage 1: offender nodes as of the end of the training window.
    let offenders: BTreeSet<u32> = fx
        .history()
        .offender_nodes_before(train_end)
        .into_iter()
        .map(|n| n.0)
        .collect();

    let stage2_train: Vec<LabeledSample> = train_samples
        .iter()
        .filter(|s| offenders.contains(&s.node.0))
        .copied()
        .collect();
    let stage2_test_idx: Vec<usize> = test_samples
        .iter()
        .enumerate()
        .filter(|(_, s)| offenders.contains(&s.node.0))
        .map(|(i, _)| i)
        .collect();
    if stage2_train.is_empty() {
        return Err(PredError::InvalidInput {
            reason: "stage-2 training set is empty (no offender nodes in training window)".into(),
        });
    }

    let train_raw = fx.extract(&stage2_train, spec, rec)?;
    let scaler = StandardScaler::fit(&train_raw)?;
    let train = scaler.transform(&train_raw)?;

    let stage2_test_samples: Vec<LabeledSample> =
        stage2_test_idx.iter().map(|&i| test_samples[i]).collect();
    let test = if stage2_test_samples.is_empty() {
        // Nothing reaches stage 2; produce an empty dataset placeholder by
        // reusing the train schema with zero rows via select.
        train.select(&[])
    } else {
        scaler.transform(&fx.extract(&stage2_test_samples, spec, rec)?)?
    };

    rec.incr("twostage.offender_nodes", offenders.len() as u64);
    rec.incr("twostage.train_samples", train_samples.len() as u64);
    rec.incr("twostage.test_samples", test_samples.len() as u64);
    rec.incr("twostage.stage2_train_samples", train.len() as u64);
    rec.incr("twostage.stage2_test_samples", stage2_test_idx.len() as u64);
    // Stage-1 filter rate: fraction of test samples predicted SBE-free
    // without ever reaching the classifier.
    rec.gauge(
        "twostage.stage1_filter_rate",
        1.0 - stage2_test_idx.len() as f64 / test_samples.len() as f64,
    );
    rec.span_end(span);

    Ok(Prepared {
        train,
        test,
        test_samples,
        stage2_test_idx,
        train_samples,
        stage2_test_samples,
        scaler,
        n_offenders: offenders.len(),
        split_name: split.name().to_string(),
    })
}

/// Runs one classifier on a prepared split.
///
/// # Errors
///
/// Propagates classifier fit/predict errors.
pub fn run_classifier<C: Classifier>(
    prepared: &Prepared,
    classifier: &mut C,
) -> Result<TwoStageOutcome> {
    run_classifier_observed(prepared, classifier, &mut Recorder::null(), &NullClock)
}

/// Like [`run_classifier`], but records stage-2 metrics (training-loop
/// counters via [`Classifier::fit`], a `"twostage.fit"` span,
/// prediction counts) and measures `train_time` on the injected [`Clock`].
///
/// With a null recorder and the [`NullClock`] this is exactly
/// [`run_classifier`]; the instrumentation-equivalence suite holds the
/// two paths to byte-identical predictions.
///
/// # Errors
///
/// Propagates classifier fit/predict errors.
pub fn run_classifier_observed<C: Classifier>(
    prepared: &Prepared,
    classifier: &mut C,
    rec: &mut Recorder,
    clock: &dyn Clock,
) -> Result<TwoStageOutcome> {
    let span = rec.span_start("twostage.fit");
    let t0 = clock.now_nanos();
    classifier.fit(&prepared.train, rec)?;
    let train_time = Duration::from_nanos(clock.now_nanos().saturating_sub(t0));
    rec.span_end(span);

    let n = prepared.test_samples.len();
    let mut predictions = vec![0.0f32; n];
    let mut probabilities = vec![0.0f32; n];
    if !prepared.stage2_test_idx.is_empty() {
        let proba = classifier.predict_proba(&prepared.test)?;
        let thresh = classifier.threshold();
        for (&idx, &p) in prepared.stage2_test_idx.iter().zip(&proba) {
            probabilities[idx] = p;
            predictions[idx] = if p >= thresh { 1.0 } else { 0.0 };
        }
    }
    rec.incr("twostage.predictions", n as u64);
    rec.incr(
        "twostage.stage2_predictions",
        prepared.stage2_test_idx.len() as u64,
    );
    Ok(TwoStageOutcome {
        predictions,
        probabilities,
        truth: labels(&prepared.test_samples),
        test_samples: prepared.test_samples.clone(),
        train_time,
        n_stage2_train: prepared.train.len(),
        model_name: classifier.name(),
    })
}

/// The TwoStage method bundled with a classifier and feature spec — the
/// convenient one-shot API.
#[derive(Debug)]
pub struct TwoStage<C> {
    classifier: C,
    spec: FeatureSpec,
}

impl<C: Classifier> TwoStage<C> {
    /// Creates a TwoStage pipeline.
    pub fn new(classifier: C, spec: FeatureSpec) -> TwoStage<C> {
        TwoStage { classifier, spec }
    }

    /// The feature spec in use.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// Prepares the split, trains the classifier, and evaluates it.
    ///
    /// # Errors
    ///
    /// Propagates preparation and classifier errors.
    pub fn run(&mut self, trace: &TraceSet, split: &DsSplit) -> Result<TwoStageOutcome> {
        let prepared = prepare(trace, split, &self.spec)?;
        run_classifier(&prepared, &mut self.classifier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkit::gbdt::Gbdt;
    use mlkit::linear::LogisticRegression;
    use titan_sim::config::SimConfig;
    use titan_sim::engine::generate;

    fn trace() -> TraceSet {
        // Seed 13: under the in-repo RNG streams (see DESIGN.md "Parallel
        // execution & determinism"), seed 3's DS1 test window holds zero
        // positive samples, making F1 assertions degenerate.
        generate(&SimConfig::tiny(13)).unwrap()
    }

    #[test]
    fn prepare_filters_to_offenders_and_balances() {
        let t = trace();
        let split = DsSplit::ds1(&t).unwrap();
        let p = prepare(&t, &split, &FeatureSpec::all()).unwrap();
        assert!(p.n_offenders > 0);
        assert!(!p.train.is_empty());
        // Stage-2 training imbalance must be far below the raw imbalance.
        let raw_pos = p.train_samples.iter().filter(|s| s.label).count().max(1);
        let raw_ratio = (p.train_samples.len() - raw_pos) as f64 / raw_pos as f64;
        assert!(
            p.train.imbalance_ratio() < raw_ratio,
            "stage2 {} vs raw {raw_ratio}",
            p.train.imbalance_ratio()
        );
        // Stage-2 test subset is a minority of all test samples.
        assert!(p.stage2_fraction() < 0.9);
    }

    #[test]
    fn stage1_negatives_predicted_free() {
        let t = trace();
        let split = DsSplit::ds1(&t).unwrap();
        let p = prepare(&t, &split, &FeatureSpec::all()).unwrap();
        let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2);
        let out = run_classifier(&p, &mut model).unwrap();
        let stage2: BTreeSet<usize> = p.stage2_test_idx.iter().copied().collect();
        for (i, &pred) in out.predictions.iter().enumerate() {
            if !stage2.contains(&i) {
                assert_eq!(pred, 0.0);
                assert_eq!(out.probabilities[i], 0.0);
            }
        }
        assert_eq!(out.model_name, "GBDT");
        // The deterministic default clock measures nothing.
        assert_eq!(out.train_time.as_nanos(), 0);
    }

    #[test]
    fn observed_run_matches_plain_and_records_pipeline_metrics() {
        let t = trace();
        let split = DsSplit::ds1(&t).unwrap();
        let spec = FeatureSpec::all();
        let plain_prep = prepare(&t, &split, &spec).unwrap();
        let plain = run_classifier(
            &plain_prep,
            &mut Gbdt::new().n_trees(20).min_samples_leaf(2),
        )
        .unwrap();

        // A clock that jumps 7ns on every read: proves the fit is
        // bracketed by exactly two reads without touching real time.
        struct TickingClock(std::sync::atomic::AtomicU64);
        impl Clock for TickingClock {
            fn now_nanos(&self) -> u64 {
                self.0.fetch_add(7, std::sync::atomic::Ordering::SeqCst)
            }
        }

        let mut rec = Recorder::new();
        let clock = TickingClock(std::sync::atomic::AtomicU64::new(0));
        let all = build_samples(&t).unwrap();
        let fx = FeatureExtractor::new(&t, &all).unwrap();
        let prep = prepare_with_extractor_observed(&fx, &all, &split, &spec, &mut rec).unwrap();
        let out = run_classifier_observed(
            &prep,
            &mut Gbdt::new().n_trees(20).min_samples_leaf(2),
            &mut rec,
            &clock,
        )
        .unwrap();

        // Instrumentation cannot perturb results.
        assert_eq!(out.predictions, plain.predictions);
        assert_eq!(out.probabilities, plain.probabilities);
        // The injected clock was read exactly twice around fit.
        assert_eq!(out.train_time.as_nanos(), 7);

        // Stage-1 metrics reconcile with the Prepared bookkeeping.
        assert_eq!(
            rec.counter("twostage.offender_nodes"),
            prep.n_offenders as u64
        );
        assert_eq!(
            rec.counter("twostage.stage2_test_samples"),
            prep.stage2_test_idx.len() as u64
        );
        let filter_rate = rec.gauge_value("twostage.stage1_filter_rate").unwrap();
        assert!((filter_rate - (1.0 - prep.stage2_fraction())).abs() < 1e-12);
        // Training-loop counters flow up from the classifier.
        assert_eq!(rec.counter("mlkit.gbdt.boosting_rounds"), 20);
        assert!(rec.span("twostage.fit").unwrap().total_ticks > 0);
        assert!(rec.counter("features.samples_extracted") > 0);
    }

    #[test]
    fn one_shot_api_runs() {
        let t = trace();
        let split = DsSplit::ds1(&t).unwrap();
        let mut ts = TwoStage::new(
            Gbdt::new().n_trees(20).min_samples_leaf(2),
            FeatureSpec::all(),
        );
        let out = ts.run(&t, &split).unwrap();
        let cm = out.confusion().unwrap();
        assert_eq!(cm.total() as usize, out.test_samples.len());
        // The learned model should beat a coin flip on F1 for this seed.
        assert!(cm.f1() > 0.1, "f1 {}", cm.f1());
    }

    #[test]
    fn prepared_reusable_across_classifiers() {
        let t = trace();
        let split = DsSplit::ds1(&t).unwrap();
        let p = prepare(&t, &split, &FeatureSpec::all()).unwrap();
        let mut gbdt = Gbdt::new().n_trees(10).min_samples_leaf(2);
        let mut lr = LogisticRegression::new().epochs(20);
        let a = run_classifier(&p, &mut gbdt).unwrap();
        let b = run_classifier(&p, &mut lr).unwrap();
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.test_samples.len(), b.test_samples.len());
    }

    #[test]
    fn outcome_vectors_aligned() {
        let t = trace();
        let split = DsSplit::ds1(&t).unwrap();
        let mut ts = TwoStage::new(
            Gbdt::new().n_trees(10).min_samples_leaf(2),
            FeatureSpec::all(),
        );
        let out = ts.run(&t, &split).unwrap();
        assert_eq!(out.predictions.len(), out.truth.len());
        assert_eq!(out.probabilities.len(), out.truth.len());
        assert_eq!(out.test_samples.len(), out.truth.len());
        for (&p, &q) in out.predictions.iter().zip(&out.probabilities) {
            assert!(p == 0.0 || p == 1.0);
            assert!((0.0..=1.0).contains(&q));
        }
    }
}
