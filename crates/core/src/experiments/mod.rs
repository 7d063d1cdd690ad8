//! Experiment drivers — one per table and figure of the paper.
//!
//! Every driver returns an [`ExperimentOutput`]: a rendered terminal
//! report plus a machine-readable JSON value, so benches can both print
//! the paper's rows and persist results for EXPERIMENTS.md.
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Fig. 1–8 (characterization) | [`characterization`] |
//! | Table I, Fig. 10, Tables II–VI, Figs. 11–13 | [`prediction`] |

pub mod characterization;
pub mod extensions;
pub mod prediction;

use crate::features::FeatureExtractor;
use crate::samples::{build_samples, LabeledSample};
use crate::Result;
use mlkit::gbdt::Gbdt;
use mlkit::linear::LogisticRegression;
use mlkit::model::Classifier;
use mlkit::nn::MlpClassifier;
use mlkit::svm::SvmRbf;
use serde::Serialize;
use titan_sim::trace::TraceSet;

/// The rendered + structured result of one experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentOutput {
    /// Short id, e.g. `"table1"` or `"fig10"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Terminal rendering (tables, heatmaps).
    pub text: String,
    /// Machine-readable result payload.
    pub json: serde_json::Value,
}

impl std::fmt::Display for ExperimentOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        f.write_str(&self.text)
    }
}

/// The four learned models the paper compares (§VI-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Logistic regression.
    Lr,
    /// Gradient-boosted decision trees — the paper's winner.
    Gbdt,
    /// RBF-kernel SVM.
    Svm,
    /// Multi-layer perceptron.
    Nn,
}

impl ModelKind {
    /// All four models in the paper's presentation order.
    pub fn all() -> [ModelKind; 4] {
        [
            ModelKind::Lr,
            ModelKind::Gbdt,
            ModelKind::Svm,
            ModelKind::Nn,
        ]
    }

    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Lr => "LR",
            ModelKind::Gbdt => "GBDT",
            ModelKind::Svm => "SVM",
            ModelKind::Nn => "NN",
        }
    }

    /// The GBDT with the evaluation's hyper-parameters: the paper's
    /// champion, and the stage-2 model `repro train` ships. It trains
    /// with the default `Exact` engine, so published outputs stay
    /// pinned.
    pub fn gbdt(seed: u64) -> Gbdt {
        Gbdt::new()
            .n_trees(120)
            .max_depth(5)
            .learning_rate(0.1)
            .min_samples_leaf(20)
            .subsample(0.8)
            .pos_weight(2.0)
            .seed(seed)
    }

    /// The logistic regression with the evaluation's hyper-parameters.
    pub fn lr(seed: u64) -> LogisticRegression {
        LogisticRegression::new()
            .learning_rate(0.5)
            .epochs(40)
            .batch_size(256)
            .pos_weight(2.0)
            .seed(seed)
    }

    /// Builds the classifier with the hyper-parameters used throughout
    /// the evaluation (tuned once on DS1, then frozen — mirroring the
    /// paper's methodology).
    pub fn build(&self, seed: u64) -> Box<dyn Classifier> {
        match self {
            ModelKind::Lr => Box::new(ModelKind::lr(seed)),
            ModelKind::Gbdt => Box::new(ModelKind::gbdt(seed)),
            ModelKind::Svm => Box::new(
                SvmRbf::new()
                    .gamma(0.02)
                    .c(5.0)
                    .max_samples(5_000)
                    .max_iters(150)
                    .seed(seed),
            ),
            ModelKind::Nn => Box::new(
                MlpClassifier::new()
                    .hidden_layers(&[64, 32])
                    .epochs(40)
                    .batch_size(128)
                    .learning_rate(1e-3)
                    .pos_weight(2.0)
                    .seed(seed),
            ),
        }
    }
}

/// Shared, reusable experiment context: the trace, its labelled samples,
/// and a feature extractor. Building the extractor once amortises the
/// history index across all drivers.
pub struct Lab<'a> {
    trace: &'a TraceSet,
    samples: Vec<LabeledSample>,
    fx: FeatureExtractor<'a>,
    threads: parkit::Threads,
    clock: &'a dyn obskit::Clock,
}

impl std::fmt::Debug for Lab<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lab")
            .field("trace", &self.trace)
            .field("samples", &self.samples.len())
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl<'a> Lab<'a> {
    /// Builds the context for a trace with the automatic thread policy.
    ///
    /// # Errors
    ///
    /// Propagates sample/extractor construction errors.
    pub fn new(trace: &'a TraceSet) -> Result<Lab<'a>> {
        Lab::with_threads(trace, parkit::Threads::Auto)
    }

    /// Builds the context with an explicit thread policy for the model
    /// grids. Results are identical under any policy; only wall-clock
    /// time changes.
    ///
    /// # Errors
    ///
    /// Propagates sample/extractor construction errors.
    pub fn with_threads(trace: &'a TraceSet, threads: parkit::Threads) -> Result<Lab<'a>> {
        let samples = build_samples(trace)?;
        let fx = FeatureExtractor::new(trace, &samples)?;
        Ok(Lab {
            trace,
            samples,
            fx,
            threads,
            clock: &obskit::NullClock,
        })
    }

    /// Replaces the clock used for wall-time measurements (training
    /// times in tables). The default [`obskit::NullClock`] reports zero,
    /// keeping every experiment output deterministic; benches inject a
    /// real clock when timing columns are wanted.
    #[must_use]
    pub fn with_clock(mut self, clock: &'a dyn obskit::Clock) -> Lab<'a> {
        self.clock = clock;
        self
    }

    /// The clock timing columns are measured with.
    pub fn clock(&self) -> &'a dyn obskit::Clock {
        self.clock
    }

    /// The thread policy experiment grids fan out with.
    pub fn threads(&self) -> parkit::Threads {
        self.threads
    }

    /// The trace under study.
    pub fn trace(&self) -> &'a TraceSet {
        self.trace
    }

    /// The full labelled sample list.
    pub fn samples(&self) -> &[LabeledSample] {
        &self.samples
    }

    /// The shared feature extractor (history index + telemetry engine).
    pub fn extractor(&self) -> &FeatureExtractor<'a> {
        &self.fx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_sim::config::SimConfig;
    use titan_sim::engine::generate;

    #[test]
    fn model_kinds_build_with_right_names() {
        for kind in ModelKind::all() {
            let m = kind.build(1);
            assert_eq!(m.name(), kind.name());
        }
    }

    #[test]
    fn lab_builds() {
        let t = generate(&SimConfig::tiny(3)).unwrap();
        let lab = Lab::new(&t).unwrap();
        assert!(!lab.samples().is_empty());
        assert!(lab.extractor().history().machine_before(u64::MAX) > 0);
    }

    #[test]
    fn lab_clock_defaults_to_null_and_is_injectable() {
        let t = generate(&SimConfig::tiny(3)).unwrap();
        let lab = Lab::new(&t).unwrap();
        assert_eq!(lab.clock().now_nanos(), 0);
        let manual = obskit::ManualClock::new();
        manual.advance(42);
        let lab = lab.with_clock(&manual);
        assert_eq!(lab.clock().now_nanos(), 42);
    }

    #[test]
    fn output_display_includes_id() {
        let out = ExperimentOutput {
            id: "table1".into(),
            title: "demo".into(),
            text: "body\n".into(),
            json: serde_json::json!({}),
        };
        let s = out.to_string();
        assert!(s.contains("table1"));
        assert!(s.contains("body"));
    }
}
