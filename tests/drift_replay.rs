//! Replay determinism of the continual-learning loop.
//!
//! The same observed event stream must produce byte-identical drift
//! verdict logs, retrain points, promoted artifact bytes, and post-swap
//! scores — run to run and across `SBE_THREADS` settings. And with the
//! drift loop effectively disabled, the adaptive driver must be a
//! perfect passthrough of `serve_observed`.

use gpu_error_prediction::{driftd, mlkit, obskit, parkit, sbepred, streamd, titan_sim};

use driftd::adapt::{run_adapt, AdaptConfig, AdaptReport};
use driftd::monitor::MonitorConfig;
use driftd::retrain::RetrainConfig;
use driftd::window::WindowConfig;
use mlkit::gbdt::Gbdt;
use mlkit::model::Classifier;
use obskit::Recorder;
use sbepred::datasets::DsSplit;
use sbepred::features::{FeatureExtractor, FeatureSpec};
use sbepred::samples::build_samples;
use sbepred::twostage::prepare_with_extractor;
use streamd::artifact::{PipelineArtifact, PipelineModel};
use streamd::serve::{serve_observed, NullSink, ServeConfig};
use titan_sim::config::SimConfig;
use titan_sim::trace::TraceSet;

/// Builds the trace plus a deliberately *miscalibrated* champion: the
/// GBDT is fitted on inverted labels, so an honest challenger trained
/// on the live window has headroom to win promotion.
fn fixture(invert_labels: bool) -> (TraceSet, PipelineArtifact) {
    let trace = titan_sim::engine::generate(&SimConfig::tiny(13)).expect("trace");
    let samples = build_samples(&trace).expect("samples");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor");
    let split = DsSplit::ds1(&trace).expect("split");
    let spec = FeatureSpec::no_telemetry();
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec).expect("prepare");

    let train = if invert_labels {
        let y: Vec<f32> = prepared
            .train
            .y()
            .iter()
            .map(|&v| if v > 0.5 { 0.0 } else { 1.0 })
            .collect();
        mlkit::dataset::Dataset::new(prepared.train.x().clone(), y).expect("inverted dataset")
    } else {
        prepared.train.clone()
    };
    let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2).seed(7);
    model.fit(&train, &mut Recorder::null()).expect("fit");

    let offenders: Vec<u32> = fx
        .history()
        .offender_nodes_before(split.train_end_min())
        .into_iter()
        .map(|n| n.0)
        .collect();
    let artifact = PipelineArtifact::new(
        spec,
        offenders,
        prepared.scaler.clone(),
        PipelineModel::Gbdt(model),
        split.train_end_min(),
        split.name(),
    );
    (trace, artifact)
}

/// An aggressive adaptation config: thresholds low enough that the tiny
/// trace's drift signal actually fires, check ticks every hour.
fn aggressive_cfg(from: u64, until: u64, threads: parkit::Threads) -> AdaptConfig {
    AdaptConfig {
        serve: ServeConfig::window(from, until),
        monitor: MonitorConfig {
            baseline_rows: 64,
            min_current: 32,
            min_labeled: 16,
            ece_threshold: 0.05,
            psi_threshold: 0.05,
            ..MonitorConfig::pinned()
        },
        window: WindowConfig {
            capacity: 4096,
            label_horizon_min: 120,
        },
        retrain: RetrainConfig {
            min_labeled: 48,
            min_holdout: 12,
            n_trees: 12,
            max_depth: 3,
            min_samples_leaf: 2,
            threads,
            ..RetrainConfig::pinned()
        },
        check_every_min: 60,
    }
}

fn run(trace: &TraceSet, artifact: &PipelineArtifact, cfg: &AdaptConfig) -> AdaptReport {
    let mut sink = NullSink;
    let mut rec = Recorder::new();
    run_adapt(trace, artifact, cfg, &mut sink, &mut rec).expect("run_adapt")
}

/// The full fingerprint CI and this suite compare: drift log (verdicts,
/// retrain points, promotions, final generation, scores fnv) plus each
/// promoted artifact checksum.
fn fingerprint(report: &AdaptReport) -> (String, Vec<u64>, u64, u32) {
    (
        report.drift_log(),
        report.promotions.iter().map(|p| p.artifact_fnv).collect(),
        report.scores_fnv,
        report.final_generation,
    )
}

/// The adaptation window the firing tests run over: the whole trace
/// after the champion's training cut, so the drift loop sees weeks of
/// post-deployment launches.
fn adapt_window(trace: &TraceSet) -> (u64, u64) {
    let split = DsSplit::ds1(trace).expect("split");
    (split.train_end_min(), trace.config().total_minutes())
}

#[test]
fn adaptation_fires_and_promotes_on_a_miscalibrated_champion() {
    let (trace, artifact) = fixture(true);
    let (from, until) = adapt_window(&trace);
    let cfg = aggressive_cfg(from, until, parkit::Threads::Fixed(2));
    let report = run(&trace, &artifact, &cfg);

    assert!(
        !report.verdicts.is_empty(),
        "the miscalibrated champion must trip the drift monitor \
         (pairs={}, requests={})",
        report.n_pairs,
        report.n_requests
    );
    assert_eq!(
        report.retrains.len(),
        report.verdicts.len(),
        "every verdict runs exactly one retrain attempt"
    );
    assert!(
        report.final_generation >= 1,
        "an honest challenger must beat the inverted champion at least \
         once; drift log:\n{}",
        report.drift_log()
    );
    assert_eq!(report.promotions.len() as u32, report.final_generation);
    // Generations advance strictly, parent-to-child.
    for (i, p) in report.promotions.iter().enumerate() {
        assert_eq!(p.generation, i as u32 + 1);
        assert!(p.train_from_min < p.train_until_min);
    }
    // Scores still cover the whole request universe.
    assert_eq!(report.scored.len() as u64, report.n_requests);
}

#[test]
fn adaptation_replays_byte_identically() {
    let (trace, artifact) = fixture(true);
    let (from, until) = adapt_window(&trace);
    let cfg = aggressive_cfg(from, until, parkit::Threads::Fixed(2));
    let a = fingerprint(&run(&trace, &artifact, &cfg));
    let b = fingerprint(&run(&trace, &artifact, &cfg));
    assert_eq!(a, b, "same stream must replay to identical drift state");

    // CI hook: export the canonical drift log (verdicts, retrain points,
    // promoted-artifact checksums, final scores fnv) for upload.
    if let Ok(path) = std::env::var("DRIFT_LOG_OUT") {
        std::fs::write(&path, &a.0).expect("write drift log");
    }
}

#[test]
fn adaptation_is_thread_invariant() {
    let (trace, artifact) = fixture(true);
    let (from, until) = adapt_window(&trace);
    let reference = fingerprint(&run(
        &trace,
        &artifact,
        &aggressive_cfg(from, until, parkit::Threads::Fixed(1)),
    ));
    assert!(
        reference.3 >= 1,
        "fixture must promote for the invariance check to bite"
    );
    for threads in [parkit::Threads::Fixed(2), parkit::Threads::Fixed(8)] {
        let got = fingerprint(&run(
            &trace,
            &artifact,
            &aggressive_cfg(from, until, threads),
        ));
        assert_eq!(
            reference, got,
            "verdicts, promoted bytes, and scores must not depend on {threads:?}"
        );
    }
}

#[test]
fn quiet_monitor_is_a_byte_exact_passthrough() {
    // A well-trained champion under the pinned (conservative) monitor:
    // the drift loop should never fire, and the adaptive driver's
    // scores must equal plain serve_observed output byte for byte.
    let (trace, artifact) = fixture(false);
    let split = DsSplit::ds1(&trace).expect("split");
    let (from, until) = split.test_window();
    let serve = ServeConfig::window(from, until);
    let cfg = AdaptConfig {
        serve,
        ..AdaptConfig::window(from, until)
    };
    let adaptive = run(&trace, &artifact, &cfg);
    assert_eq!(
        adaptive.final_generation,
        0,
        "pinned thresholds must not fire on an in-distribution stream; \
         drift log:\n{}",
        adaptive.drift_log()
    );

    let mut sink = NullSink;
    let mut rec = Recorder::new();
    let plain =
        serve_observed(&trace, &artifact, &serve, &mut sink, &mut rec).expect("serve_observed");
    assert_eq!(adaptive.scored.len(), plain.scored.len());
    for (a, p) in adaptive.scored.iter().zip(plain.scored.iter()) {
        assert_eq!((a.minute, a.aprun, a.node), (p.minute, p.aprun, p.node));
        assert_eq!(a.probability.to_bits(), p.probability.to_bits());
        assert_eq!(a.predicted, p.predicted);
        assert_eq!(a.stage2, p.stage2);
    }
}
