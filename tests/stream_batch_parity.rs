//! Stream/batch parity: the `streamd` online scoring loop must reproduce
//! the batch TwoStage evaluation bit for bit.
//!
//! One trace, one trained pipeline; the batch path prepares the DS1 split
//! and scores the test window in a single pass, the streaming path
//! replays the trace event by event through `streamd::serve`. Every
//! (aprun, node) in the test window must get a bit-identical probability
//! and the same hard decision — at any thread count and any batching
//! policy — and the streaming obskit metrics snapshot must be
//! byte-identical across thread counts.

use gpu_error_prediction::{mlkit, obskit, parkit, sbepred, streamd, titan_sim};
use mlkit::gbdt::Gbdt;
use sbepred::datasets::DsSplit;
use sbepred::features::{FeatureExtractor, FeatureSpec};
use sbepred::samples::build_samples;
use sbepred::twostage::{prepare_with_extractor, run_classifier};
use std::collections::BTreeMap;
use streamd::artifact::{PipelineArtifact, PipelineModel};
use streamd::serve::{serve, serve_observed, ServeConfig};
use titan_sim::config::SimConfig;
use titan_sim::trace::TraceSet;

/// The batch reference: per (aprun, node) probability and prediction.
type RefMap = BTreeMap<(u32, u32), (f32, f32)>;

/// Trains the pipeline on DS1 of tiny(13) and returns the trace, the
/// shippable artifact, the batch reference map, and the test window.
fn train_reference() -> (TraceSet, PipelineArtifact, RefMap, (u64, u64)) {
    let trace = titan_sim::engine::generate(&SimConfig::tiny(13)).expect("trace");
    let samples = build_samples(&trace).expect("samples");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor");
    let split = DsSplit::ds1(&trace).expect("split");
    let spec = FeatureSpec::all();
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec).expect("prepare");
    // Small but non-trivial model so the test stays fast while still
    // exercising real tree traversal in the streaming path.
    let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2).seed(7);
    let outcome = run_classifier(&prepared, &mut model).expect("fit");
    assert!(
        outcome.probabilities.iter().any(|&p| p > 0.0),
        "degenerate reference: no positive probability in the test window"
    );

    let mut reference = RefMap::new();
    for (i, s) in prepared.test_samples.iter().enumerate() {
        reference.insert(
            (s.aprun.0, s.node.0),
            (outcome.probabilities[i], outcome.predictions[i]),
        );
    }
    assert_eq!(reference.len(), prepared.test_samples.len());

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
    (trace, artifact, reference, split.test_window())
}

/// Asserts one serve run reproduces the batch reference bit for bit.
fn assert_parity(report: &streamd::serve::ServeReport, reference: &RefMap) {
    assert_eq!(
        report.scored.len(),
        reference.len(),
        "stream scored a different sample universe than batch"
    );
    for s in &report.scored {
        let (ref_prob, ref_pred) = reference
            .get(&(s.aprun, s.node))
            .unwrap_or_else(|| panic!("stream scored unknown sample ({}, {})", s.aprun, s.node));
        assert_eq!(
            s.probability.to_bits(),
            ref_prob.to_bits(),
            "probability mismatch at (aprun {}, node {}): stream {} vs batch {}",
            s.aprun,
            s.node,
            s.probability,
            ref_prob
        );
        assert_eq!(
            s.predicted,
            *ref_pred >= 0.5,
            "hard decision mismatch at (aprun {}, node {})",
            s.aprun,
            s.node
        );
    }
}

#[test]
fn stream_matches_batch_bit_for_bit_across_thread_counts() {
    let (trace, artifact, reference, (from, until)) = train_reference();
    let mut snapshots: Vec<String> = Vec::new();
    for threads in [
        parkit::Threads::Serial,
        parkit::Threads::Fixed(1),
        parkit::Threads::Fixed(2),
        parkit::Threads::Fixed(8),
    ] {
        let cfg = ServeConfig {
            threads,
            ..ServeConfig::window(from, until)
        };
        let mut alerts: Vec<streamd::serve::Alert> = Vec::new();
        let mut rec = obskit::Recorder::new();
        let report = serve_observed(&trace, &artifact, &cfg, &mut alerts, &mut rec).expect("serve");
        assert_parity(&report, &reference);
        // Alerts are exactly the predicted-positive stage-2 launches.
        assert_eq!(report.n_alerts as usize, alerts.len());
        assert_eq!(
            alerts.len(),
            report.scored.iter().filter(|s| s.predicted).count()
        );
        snapshots.push(rec.snapshot_json());
    }
    let first = &snapshots[0];
    for (i, snap) in snapshots.iter().enumerate() {
        assert_eq!(
            snap, first,
            "metrics snapshot at thread policy #{i} differs from serial"
        );
    }
}

#[test]
fn compiled_backend_survives_batching_policies_and_round_trip() {
    let (trace, artifact, reference, (from, until)) = train_reference();
    // The compiled stage-2 scorer is rebuilt from the decoded artifact; a
    // shipped model must score identically under every flush policy.
    let shipped =
        PipelineArtifact::from_bytes(&artifact.to_bytes().expect("encode")).expect("decode");
    for (capacity, delay) in [(1, 0), (7, 1), (usize::MAX, u64::MAX)] {
        let cfg = ServeConfig {
            batch_capacity: capacity,
            max_delay_min: delay,
            ..ServeConfig::window(from, until)
        };
        let mut sink = streamd::serve::NullSink;
        let report = serve(&trace, &shipped, &cfg, &mut sink).expect("serve");
        assert_parity(&report, &reference);
    }
}

#[test]
fn batching_policy_never_changes_a_prediction() {
    let (trace, artifact, reference, (from, until)) = train_reference();
    for (capacity, delay) in [(1, 0), (7, 1), (64, 5), (usize::MAX, u64::MAX)] {
        let cfg = ServeConfig {
            batch_capacity: capacity,
            max_delay_min: delay,
            ..ServeConfig::window(from, until)
        };
        let mut sink = streamd::serve::NullSink;
        let report = serve(&trace, &artifact, &cfg, &mut sink).expect("serve");
        assert_parity(&report, &reference);
    }
}

#[test]
fn artifact_round_trip_preserves_parity() {
    let (trace, artifact, reference, (from, until)) = train_reference();
    let shipped =
        PipelineArtifact::from_bytes(&artifact.to_bytes().expect("encode")).expect("decode");
    assert_eq!(shipped.schema_hash(), artifact.schema_hash());
    assert_eq!(shipped.model().threshold(), artifact.model().threshold());
    let cfg = ServeConfig::window(from, until);
    let mut sink = streamd::serve::NullSink;
    let report = serve(&trace, &shipped, &cfg, &mut sink).expect("serve");
    assert_parity(&report, &reference);
}
