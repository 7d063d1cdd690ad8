//! Serialisation round-trips: trained models, configurations, and trace
//! records must survive serde (the deployment path: train offline every
//! two weeks, ship the model to the scheduler).

use gpu_error_prediction::mlkit::dataset::Dataset;
use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::mlkit::linear::LogisticRegression;
use gpu_error_prediction::mlkit::model::Classifier;
use gpu_error_prediction::mlkit::scaler::StandardScaler;
use gpu_error_prediction::titan_sim::config::SimConfig;
use gpu_error_prediction::titan_sim::engine::generate;

fn toy_dataset() -> Dataset {
    let rows: Vec<Vec<f32>> = (0..120)
        .map(|i| vec![(i % 10) as f32, ((i * 3) % 7) as f32])
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| if r[0] + r[1] > 8.0 { 1.0 } else { 0.0 })
        .collect();
    Dataset::from_rows(&rows, &y).expect("valid dataset")
}

#[test]
fn gbdt_round_trips_through_json() {
    let ds = toy_dataset();
    let mut model = Gbdt::new().n_trees(20).max_depth(4).min_samples_leaf(2);
    model.fit(&ds, &mut obskit::Recorder::null()).expect("fits");
    let before = model.predict_proba(&ds).expect("predicts");

    let json = serde_json::to_string(&model).expect("serialises");
    let restored: Gbdt = serde_json::from_str(&json).expect("deserialises");
    let after = restored.predict_proba(&ds).expect("predicts");
    assert_eq!(before, after);
}

#[test]
fn logistic_regression_round_trips_through_json() {
    let ds = toy_dataset();
    let mut model = LogisticRegression::new().epochs(30);
    model.fit(&ds, &mut obskit::Recorder::null()).expect("fits");
    let before = model.predict_proba(&ds).expect("predicts");
    let json = serde_json::to_string(&model).expect("serialises");
    let restored: LogisticRegression = serde_json::from_str(&json).expect("deserialises");
    assert_eq!(before, restored.predict_proba(&ds).expect("predicts"));
}

#[test]
fn scaler_round_trips_through_json() {
    let ds = toy_dataset();
    let scaler = StandardScaler::fit(&ds).expect("fits");
    let json = serde_json::to_string(&scaler).expect("serialises");
    let restored: StandardScaler = serde_json::from_str(&json).expect("deserialises");
    assert_eq!(
        scaler.transform(&ds).expect("transforms").x().as_slice(),
        restored.transform(&ds).expect("transforms").x().as_slice()
    );
}

#[test]
fn sim_config_round_trips_and_regenerates_identically() {
    let cfg = SimConfig::tiny(77);
    let json = serde_json::to_string(&cfg).expect("serialises");
    let restored: SimConfig = serde_json::from_str(&json).expect("deserialises");
    assert_eq!(cfg, restored);
    let a = generate(&cfg).expect("generates");
    let b = generate(&restored).expect("generates");
    assert_eq!(a.samples(), b.samples());
}

#[test]
fn trace_samples_serialise() {
    let t = generate(&SimConfig::tiny(7)).expect("generates");
    let json = serde_json::to_string(&t.samples()[..10]).expect("serialises");
    let restored: Vec<gpu_error_prediction::titan_sim::trace::SampleRecord> =
        serde_json::from_str(&json).expect("deserialises");
    assert_eq!(&t.samples()[..10], restored.as_slice());
}

#[test]
fn full_twostage_pipeline_round_trips_through_artifact() {
    use gpu_error_prediction::sbepred::datasets::DsSplit;
    use gpu_error_prediction::sbepred::features::{FeatureExtractor, FeatureSpec};
    use gpu_error_prediction::sbepred::samples::build_samples;
    use gpu_error_prediction::sbepred::twostage::{prepare_with_extractor, run_classifier};
    use gpu_error_prediction::streamd::artifact::{PipelineArtifact, PipelineModel};

    // Train a real TwoStage pipeline end to end.
    let trace = generate(&SimConfig::tiny(13)).expect("generates");
    let samples = build_samples(&trace).expect("samples");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor");
    let split = DsSplit::ds1(&trace).expect("split");
    let spec = FeatureSpec::all();
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec).expect("prepares");
    let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2).seed(7);
    run_classifier(&prepared, &mut model).expect("fits");
    let before = model.predict_proba(&prepared.test).expect("predicts");

    let offenders: Vec<u32> = fx
        .history()
        .offender_nodes_before(split.train_end_min())
        .into_iter()
        .map(|n| n.0)
        .collect();
    let artifact = PipelineArtifact::new(
        spec,
        offenders.clone(),
        prepared.scaler.clone(),
        PipelineModel::Gbdt(model),
        split.train_end_min(),
        split.name(),
    );

    // Every component must survive the versioned envelope byte-for-byte:
    // spec, offender set, scaler transform, and classifier output.
    let restored =
        PipelineArtifact::from_bytes(&artifact.to_bytes().expect("encodes")).expect("decodes");
    assert_eq!(restored.spec(), artifact.spec());
    assert_eq!(restored.offenders(), offenders.as_slice());
    assert_eq!(restored.trained_end_min(), split.train_end_min());
    assert_eq!(restored.split_name(), split.name());
    assert_eq!(
        restored
            .scaler()
            .transform(&prepared.test)
            .expect("transforms")
            .x()
            .as_slice(),
        artifact
            .scaler()
            .transform(&prepared.test)
            .expect("transforms")
            .x()
            .as_slice()
    );
    let after = restored
        .model()
        .predict_proba(&prepared.test)
        .expect("predicts");
    assert_eq!(before, after);
}
