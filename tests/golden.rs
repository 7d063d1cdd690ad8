//! Golden regression test: the tiny pipeline's headline numbers are
//! pinned to `results/golden_tiny.json`. Any change to the simulator,
//! feature extraction, or the models that moves these metrics shows up
//! here before it shows up in the paper tables.
//!
//! Two more goldens pin the online paths byte for byte: one
//! `serve_observed` run (`results/golden_serve_tiny.txt`) and one
//! promoting `run_adapt` run (`results/golden_drift_tiny.txt`). Their
//! fixtures are frozen copies of the `stream_batch_parity` and
//! `drift_replay` fixtures, so a refactor of either serving path is
//! checked against the bytes the previous implementation produced.
//!
//! Regenerate after an intentional change with
//! `cargo test --release --test golden -- --ignored regenerate_golden`
//! (or `regenerate_serve_golden` / `regenerate_drift_golden`) and commit
//! the new file alongside the change that explains it.

use gpu_error_prediction::driftd::adapt::{run_adapt, AdaptConfig};
use gpu_error_prediction::driftd::monitor::MonitorConfig;
use gpu_error_prediction::driftd::retrain::RetrainConfig;
use gpu_error_prediction::driftd::window::WindowConfig;
use gpu_error_prediction::mlkit::dataset::Dataset;
use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::mlkit::hash::Fnv1a;
use gpu_error_prediction::mlkit::model::Classifier;
use gpu_error_prediction::mlkit::scaler::StandardScaler;
use gpu_error_prediction::obskit::{NullClock, Recorder};
use gpu_error_prediction::parkit::Threads;
use gpu_error_prediction::sbepred::datasets::DsSplit;
use gpu_error_prediction::sbepred::experiments::{prediction, Lab};
use gpu_error_prediction::sbepred::features::{FeatureExtractor, FeatureSpec};
use gpu_error_prediction::sbepred::samples::build_samples;
use gpu_error_prediction::sbepred::twostage::{
    prepare_with_extractor, prepare_with_extractor_observed, run_classifier,
    run_classifier_observed,
};
use gpu_error_prediction::streamd::artifact::{PipelineArtifact, PipelineModel};
use gpu_error_prediction::streamd::serve::{
    serve_observed, Alert, NullSink, ScoredLaunch, ServeConfig,
};
use gpu_error_prediction::titan_sim::config::SimConfig;
use gpu_error_prediction::titan_sim::engine::{generate, generate_full};
use serde_json::Value;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden_tiny.json");

const GOLDEN_METRICS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/golden_metrics_tiny.json"
);

const GOLDEN_SERVE_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden_serve_tiny.txt");

const GOLDEN_DRIFT_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden_drift_tiny.txt");

/// Cross-platform slack for transcendental libm differences; the metrics
/// themselves are deterministic integer-ratio style quantities.
const TOLERANCE: f64 = 1e-6;

/// Computes the pinned metric set from scratch. Train times are
/// deliberately excluded — they are the one nondeterministic field.
fn compute() -> Value {
    let t = generate(&SimConfig::tiny(13)).expect("trace generates");
    let lab = Lab::new(&t).expect("lab builds");
    let fig10 = prediction::fig10(&lab).expect("fig10 runs");
    let models: Vec<Value> = fig10.json["rows"]
        .as_array()
        .expect("fig10 rows")
        .iter()
        .map(|row| {
            serde_json::json!({
                "model": row["model"].as_str().expect("model name"),
                "f1": row["f1"].as_f64().expect("f1"),
                "precision": row["precision"].as_f64().expect("precision"),
                "recall": row["recall"].as_f64().expect("recall"),
            })
        })
        .collect();
    serde_json::json!({
        "config": "SimConfig::tiny(13)",
        "n_samples": t.samples().len() as u64,
        "total_sbes": t.total_sbes(),
        "total_dbes": t.total_dbes(),
        "positive_rate": t.positive_rate(),
        "n_offender_nodes": t.offender_nodes().len() as u64,
        "ds1_models": models,
    })
}

/// Recursively compares two JSON values, allowing `tol` on numbers.
fn assert_close(path: &str, got: &Value, want: &Value) {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) => {
            let gk: Vec<&String> = g.iter().map(|(k, _)| k).collect();
            let wk: Vec<&String> = w.iter().map(|(k, _)| k).collect();
            assert_eq!(gk, wk, "key set mismatch at {path}");
            for (k, wv) in w.iter() {
                let gv = g.get(k).expect("key present by the check above");
                assert_close(&format!("{path}.{k}"), gv, wv);
            }
        }
        (Value::Array(g), Value::Array(w)) => {
            assert_eq!(g.len(), w.len(), "array length mismatch at {path}");
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                assert_close(&format!("{path}[{i}]"), gv, wv);
            }
        }
        _ => {
            if let (Some(g), Some(w)) = (got.as_f64(), want.as_f64()) {
                assert!(
                    (g - w).abs() <= TOLERANCE,
                    "numeric drift at {path}: got {g}, golden {w} (tol {TOLERANCE})"
                );
            } else {
                assert_eq!(got, want, "value mismatch at {path}");
            }
        }
    }
}

/// Computes the pinned observability snapshot: the tiny(13) trace plus
/// one observed DS1 pass with a light GBDT, recorded serially. Counters,
/// histograms, and span ticks are all logical quantities, so the
/// `obskit/1` snapshot is byte-stable across platforms and thread
/// policies — the comparison below is exact, not tolerance-based.
fn compute_metrics() -> String {
    let mut rec = Recorder::new();
    let cfg = SimConfig::tiny(13).with_threads(Threads::Serial);
    let (trace, _) = generate_full(&cfg, &mut rec).expect("trace generates");
    let lab = Lab::with_threads(&trace, Threads::Serial).expect("lab builds");
    let split = DsSplit::ds1(&trace).expect("ds1 splits");
    let prepared = prepare_with_extractor_observed(
        lab.extractor(),
        lab.samples(),
        &split,
        &FeatureSpec::all(),
        &mut rec,
    )
    .expect("two-stage prepares");
    let mut model = Gbdt::new()
        .n_trees(20)
        .max_depth(4)
        .min_samples_leaf(10)
        .subsample(0.8)
        .pos_weight(2.0)
        .seed(7)
        .threads(Threads::Serial);
    run_classifier_observed(&prepared, &mut model, &mut rec, &NullClock).expect("two-stage runs");
    rec.snapshot_json() + "\n"
}

/// FNV-1a over scored rows in `(minute, aprun, node)` order, folded
/// field by field exactly as the adaptive driver's `scores_fnv`.
fn fold_scores(scored: &[ScoredLaunch]) -> u64 {
    let mut h = Fnv1a::new();
    for s in scored {
        h.update(&s.minute.to_le_bytes());
        h.update(&s.aprun.to_le_bytes());
        h.update(&s.node.to_le_bytes());
        h.update(&s.probability.to_bits().to_le_bytes());
        h.update(&[u8::from(s.predicted), u8::from(s.stage2)]);
    }
    h.finish()
}

/// Wraps a DS1-trained GBDT into the shippable artifact.
fn ds1_artifact(
    fx: &FeatureExtractor<'_>,
    split: &DsSplit,
    spec: FeatureSpec,
    scaler: StandardScaler,
    model: Gbdt,
) -> PipelineArtifact {
    let offenders: Vec<u32> = fx
        .history()
        .offender_nodes_before(split.train_end_min())
        .into_iter()
        .map(|n| n.0)
        .collect();
    PipelineArtifact::new(
        spec,
        offenders,
        scaler,
        PipelineModel::Gbdt(model),
        split.train_end_min(),
        split.name(),
    )
}

/// One `serve_observed` run of the DS1 champion over the DS1 test
/// window of tiny(13) at the default serving config: the fingerprint of
/// every scored row, the alert count, and the obskit snapshot.
fn compute_serve() -> String {
    let trace = generate(&SimConfig::tiny(13)).expect("trace generates");
    let samples = build_samples(&trace).expect("samples");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor");
    let split = DsSplit::ds1(&trace).expect("ds1 splits");
    let spec = FeatureSpec::all();
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec).expect("prepare");
    let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2).seed(7);
    run_classifier(&prepared, &mut model).expect("fit");
    let artifact = ds1_artifact(&fx, &split, spec, prepared.scaler.clone(), model);

    let (from, until) = split.test_window();
    let mut alerts: Vec<Alert> = Vec::new();
    let mut rec = Recorder::new();
    let report = serve_observed(
        &trace,
        &artifact,
        &ServeConfig::window(from, until),
        &mut alerts,
        &mut rec,
    )
    .expect("serve");
    format!(
        "scores_fnv {:#018x}\nn_scored {}\nn_stage2 {}\nn_alerts {}\nsnapshot {}\n",
        fold_scores(&report.scored),
        report.scored.len(),
        report.n_stage2,
        alerts.len(),
        rec.snapshot_json()
    )
}

/// The drift fixture: a no-telemetry DS1 champion fitted on *inverted*
/// labels, replayed over everything after its training cut under
/// thresholds low enough to fire and promote. Records the drift log,
/// every promoted artifact checksum, and the obskit snapshot.
fn compute_drift() -> String {
    let trace = generate(&SimConfig::tiny(13)).expect("trace generates");
    let samples = build_samples(&trace).expect("samples");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor");
    let split = DsSplit::ds1(&trace).expect("ds1 splits");
    let spec = FeatureSpec::no_telemetry();
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec).expect("prepare");
    let inverted: Vec<f32> = prepared
        .train
        .y()
        .iter()
        .map(|&v| if v > 0.5 { 0.0 } else { 1.0 })
        .collect();
    let train = Dataset::new(prepared.train.x().clone(), inverted).expect("inverted dataset");
    let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2).seed(7);
    model.fit(&train).expect("fit");
    let artifact = ds1_artifact(&fx, &split, spec, prepared.scaler.clone(), model);

    let cfg = AdaptConfig {
        serve: ServeConfig::window(split.train_end_min(), trace.config().total_minutes()),
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
            threads: Threads::Fixed(2),
            ..RetrainConfig::pinned()
        },
        check_every_min: 60,
    };
    let mut rec = Recorder::new();
    let report = run_adapt(&trace, &artifact, &cfg, &mut NullSink, &mut rec).expect("run_adapt");
    let promoted: Vec<String> = report
        .promotions
        .iter()
        .map(|p| format!("{:#018x}", p.artifact_fnv))
        .collect();
    format!(
        "{}promoted [{}]\nsnapshot {}\n",
        report.drift_log(),
        promoted.join(", "),
        rec.snapshot_json()
    )
}

#[test]
fn tiny_pipeline_matches_golden() {
    let golden_text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("results/golden_tiny.json is committed; regenerate with the ignored test");
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    let got = compute();
    assert_close("$", &got, &golden);
}

#[test]
fn tiny_metrics_snapshot_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN_METRICS_PATH)
        .expect("results/golden_metrics_tiny.json is committed; regenerate with the ignored test");
    let got = compute_metrics();
    assert_eq!(
        got, golden,
        "obskit snapshot drifted from results/golden_metrics_tiny.json; \
         if the instrumentation change is intentional, regenerate with \
         `cargo test --release --test golden -- --ignored regenerate_golden`"
    );
}

#[test]
fn tiny_serve_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN_SERVE_PATH)
        .expect("results/golden_serve_tiny.txt is committed; regenerate with the ignored test");
    assert_eq!(
        compute_serve(),
        golden,
        "serve output drifted from results/golden_serve_tiny.txt"
    );
}

#[test]
fn tiny_drift_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN_DRIFT_PATH)
        .expect("results/golden_drift_tiny.txt is committed; regenerate with the ignored test");
    assert_eq!(
        compute_drift(),
        golden,
        "adaptive serving drifted from results/golden_drift_tiny.txt"
    );
}

/// Rewrites the golden files from the current pipeline. Run explicitly
/// (`-- --ignored regenerate_golden`) after an intentional metric change.
#[test]
#[ignore = "regenerates the golden files; run on intentional metric changes"]
fn regenerate_golden() {
    let text = serde_json::to_string_pretty(&compute()).expect("serializes");
    std::fs::write(GOLDEN_PATH, text + "\n").expect("golden file writes");
    std::fs::write(GOLDEN_METRICS_PATH, compute_metrics()).expect("metrics golden writes");
}

/// Rewrites `results/golden_serve_tiny.txt` (`-- --ignored regenerate_serve_golden`).
#[test]
#[ignore = "regenerates the serve golden; run on intentional scoring changes"]
fn regenerate_serve_golden() {
    std::fs::write(GOLDEN_SERVE_PATH, compute_serve()).expect("serve golden writes");
}

/// Rewrites `results/golden_drift_tiny.txt` (`-- --ignored regenerate_drift_golden`).
#[test]
#[ignore = "regenerates the drift golden; run on intentional adaptation changes"]
fn regenerate_drift_golden() {
    std::fs::write(GOLDEN_DRIFT_PATH, compute_drift()).expect("drift golden writes");
}
