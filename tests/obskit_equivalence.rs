//! Instrumentation-equivalence suite.
//!
//! The contract of the obskit layer (DESIGN.md "Observability") is that
//! recording is *passive*: running the pipeline with a full recorder, a
//! null recorder, or any thread policy must produce bit-identical
//! predictions, and the metrics themselves must not depend on the thread
//! policy. These tests run the whole instrumented path — trace
//! generation → feature extraction → TwoStage → GBDT training — six
//! ways (null/full recorder × 1/2/8 threads) and demand:
//!
//! * identical predictions and confusion metrics across all six runs,
//! * byte-identical `obskit/1` snapshots across the three full-recorder
//!   runs (merge order is pinned, the span clock is logical),
//! * an untouched (empty) snapshot from the null-recorder runs.

use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::obskit::{NullClock, Recorder};
use gpu_error_prediction::parkit::Threads;
use gpu_error_prediction::sbepred::datasets::DsSplit;
use gpu_error_prediction::sbepred::experiments::Lab;
use gpu_error_prediction::sbepred::features::FeatureSpec;
use gpu_error_prediction::sbepred::twostage::{
    prepare_with_extractor_observed, run_classifier_observed,
};
use gpu_error_prediction::titan_sim::config::SimConfig;
use gpu_error_prediction::titan_sim::engine::generate_full;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The empty snapshot a never-touched recorder serializes to.
const EMPTY_SNAPSHOT: &str =
    r#"{"schema":"obskit/1","ticks":0,"counters":{},"gauges":{},"histograms":{},"spans":{}}"#;

/// One full pipeline pass on the tiny(13) trace under the given thread
/// policy, with every instrumented layer writing into `rec`. Returns the
/// stage-wise predictions and the headline metrics.
fn run_pipeline(threads: Threads, rec: &mut Recorder) -> (Vec<f32>, [f64; 3]) {
    let cfg = SimConfig::tiny(13).with_threads(threads);
    let (trace, _) = generate_full(&cfg, rec).expect("trace generates");
    let lab = Lab::with_threads(&trace, threads).expect("lab builds");
    let split = DsSplit::ds1(&trace).expect("ds1 splits");
    let prepared = prepare_with_extractor_observed(
        lab.extractor(),
        lab.samples(),
        &split,
        &FeatureSpec::all(),
        rec,
    )
    .expect("two-stage prepares");
    // A light GBDT keeps the six passes fast while still exercising the
    // boosting-round/split-candidate instrumentation.
    let mut model = Gbdt::new()
        .n_trees(20)
        .max_depth(4)
        .min_samples_leaf(10)
        .subsample(0.8)
        .pos_weight(2.0)
        .seed(7)
        .threads(threads);
    let out =
        run_classifier_observed(&prepared, &mut model, rec, &NullClock).expect("two-stage runs");
    let cm = out.confusion().expect("confusion computes");
    (out.predictions, [cm.f1(), cm.precision(), cm.recall()])
}

#[test]
fn recording_and_thread_policy_never_change_predictions() {
    // Reference: serial run with a *null* recorder — the untouched path.
    let mut null_rec = Recorder::null();
    let (ref_preds, ref_metrics) = run_pipeline(Threads::Serial, &mut null_rec);
    assert_eq!(
        null_rec.snapshot_json(),
        EMPTY_SNAPSHOT,
        "null recorder must stay empty"
    );
    assert!(
        ref_preds.contains(&1.0),
        "degenerate reference: no positive predictions"
    );

    let mut full_snapshots = Vec::new();
    for n in THREAD_COUNTS {
        // Null-recorder run at n threads.
        let mut rec = Recorder::null();
        let (preds, metrics) = run_pipeline(Threads::Fixed(n), &mut rec);
        assert_eq!(
            preds, ref_preds,
            "null-recorder predictions diverged at {n} threads"
        );
        assert_eq!(
            metrics, ref_metrics,
            "null-recorder metrics diverged at {n} threads"
        );
        assert_eq!(
            rec.snapshot_json(),
            EMPTY_SNAPSHOT,
            "null recorder wrote at {n} threads"
        );

        // Full-recorder run at n threads.
        let mut rec = Recorder::new();
        let (preds, metrics) = run_pipeline(Threads::Fixed(n), &mut rec);
        assert_eq!(
            preds, ref_preds,
            "full-recorder predictions diverged at {n} threads"
        );
        assert_eq!(
            metrics, ref_metrics,
            "full-recorder metrics diverged at {n} threads"
        );
        full_snapshots.push(rec.snapshot_json());
    }

    // The recorded metrics are themselves deterministic: fork/merge in
    // slot order and the logical span clock make every thread policy
    // produce the same snapshot, byte for byte.
    assert_eq!(
        full_snapshots[0], full_snapshots[1],
        "snapshot diverged 1 vs 2 threads"
    );
    assert_eq!(
        full_snapshots[0], full_snapshots[2],
        "snapshot diverged 1 vs 8 threads"
    );
}

#[test]
fn full_recorder_covers_every_pipeline_layer() {
    let mut rec = Recorder::new();
    let (preds, _) = run_pipeline(Threads::Serial, &mut rec);

    // Simulator layer.
    assert!(rec.counter("titan_sim.samples") > 0);
    assert_eq!(
        rec.span("titan_sim.generate").expect("generate span").count,
        1
    );
    // Feature layer: stage-2 train + test extractions both flow through
    // the observed extractor.
    assert!(rec.counter("features.samples_extracted") > 0);
    assert_eq!(rec.span("features.extract").expect("extract span").count, 2);
    // TwoStage layer.
    assert_eq!(rec.counter("twostage.predictions"), preds.len() as u64);
    assert!(rec.counter("twostage.stage2_predictions") <= rec.counter("twostage.predictions"));
    let filter_rate = rec
        .gauge_value("twostage.stage1_filter_rate")
        .expect("filter gauge");
    assert!((0.0..=1.0).contains(&filter_rate));
    // Model layer.
    assert_eq!(rec.counter("mlkit.gbdt.boosting_rounds"), 20);
    assert!(rec.counter("mlkit.tree.split_candidates") > 0);
}
