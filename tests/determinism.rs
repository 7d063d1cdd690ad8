//! Cross-crate determinism: the same seed must reproduce the trace, the
//! features, and the trained models bit-for-bit, regardless of thread
//! scheduling in the parallel telemetry sweep.

use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::mlkit::model::Classifier;
use gpu_error_prediction::obskit::Recorder;
use gpu_error_prediction::sbepred::datasets::DsSplit;
use gpu_error_prediction::sbepred::features::{FeatureExtractor, FeatureSpec};
use gpu_error_prediction::sbepred::samples::build_samples;
use gpu_error_prediction::sbepred::twostage::{prepare, run_classifier};
use gpu_error_prediction::titan_sim::config::SimConfig;
use gpu_error_prediction::titan_sim::engine::{generate, SampleTelemetry, TelemetryQueryEngine};
use gpu_error_prediction::titan_sim::telemetry::SeriesKind;
use gpu_error_prediction::titan_sim::topology::NodeId;

#[test]
fn trace_generation_is_reproducible() {
    let a = generate(&SimConfig::tiny(99)).expect("generates");
    let b = generate(&SimConfig::tiny(99)).expect("generates");
    assert_eq!(a.samples(), b.samples());
    assert_eq!(a.node_cum_temp(), b.node_cum_temp());
    assert_eq!(a.node_cum_power(), b.node_cum_power());
    assert_eq!(a.jobs().len(), b.jobs().len());
}

#[test]
fn different_seeds_differ() {
    let a = generate(&SimConfig::tiny(1)).expect("generates");
    let b = generate(&SimConfig::tiny(2)).expect("generates");
    assert_ne!(a.samples(), b.samples());
}

#[test]
fn telemetry_requeries_are_bit_identical() {
    let t = generate(&SimConfig::tiny(5)).expect("generates");
    let engine = TelemetryQueryEngine::new(&t).expect("engine builds");
    let a = engine
        .node_series(NodeId(7), SeriesKind::GpuTemp, 1_000, 2_000)
        .expect("probes");
    let b = engine
        .node_series(NodeId(7), SeriesKind::GpuTemp, 1_000, 2_000)
        .expect("probes");
    assert_eq!(a, b);
    // A second engine over the same trace agrees too.
    let engine2 = TelemetryQueryEngine::new(&t).expect("engine builds");
    let c = engine2
        .node_series(NodeId(7), SeriesKind::GpuTemp, 1_000, 2_000)
        .expect("probes");
    assert_eq!(a, c);
}

/// The query engine resumes each slot from the state of its last window;
/// single-pair calls in stream order (which resume) and in reverse order
/// (which restart) must answer exactly what one bulk call on a fresh
/// engine answers.
#[test]
fn resumed_telemetry_queries_match_one_bulk_query() {
    let t = generate(&SimConfig::tiny(5)).expect("generates");
    let start = |aprun| t.aprun(aprun).expect("valid id").start_min;
    let mut pairs: Vec<_> = t
        .samples()
        .iter()
        .step_by(97)
        .map(|s| (s.aprun, s.node))
        .collect();
    pairs.sort_by_key(|&(aprun, node)| (start(aprun), aprun, node));
    let stats_bits = |st: &SampleTelemetry| {
        let windows = [
            st.run_temp,
            st.run_power,
            st.cpu_temp,
            st.nei_temp,
            st.nei_power,
        ];
        let mut bits = vec![st.aprun.0, st.node.0];
        for w in windows.iter().chain(&st.prev_temp).chain(&st.prev_power) {
            bits.extend([w.mean, w.std, w.diff_mean, w.diff_std].map(f32::to_bits));
        }
        bits
    };
    let series_bits = |(temp, power): &(Vec<f32>, Vec<f32>)| {
        let bits: Vec<u32> = temp.iter().chain(power).map(|x| x.to_bits()).collect();
        (temp.len(), bits)
    };
    let fresh = || TelemetryQueryEngine::new(&t).expect("engine builds");
    let bulk = fresh().query(&pairs).expect("queries");
    let bulk_pre = fresh().query_preseries(&pairs, 60).expect("queries");

    let forward: Vec<usize> = (0..pairs.len()).collect();
    let reverse: Vec<usize> = forward.iter().rev().copied().collect();
    for order in [forward, reverse] {
        let engine = fresh();
        for i in order {
            let one = engine.query(&pairs[i..=i]).expect("queries");
            assert_eq!(stats_bits(&one[0]), stats_bits(&bulk[i]), "query {i}");
            let pre = engine.query_preseries(&pairs[i..=i], 60).expect("queries");
            assert_eq!(
                series_bits(&pre[0]),
                series_bits(&bulk_pre[i]),
                "preseries {i}"
            );
        }
    }
}

#[test]
fn feature_extraction_is_reproducible() {
    let t = generate(&SimConfig::tiny(5)).expect("generates");
    let samples = build_samples(&t).expect("samples build");
    let fx = FeatureExtractor::new(&t, &samples).expect("extractor builds");
    let spec = FeatureSpec::all();
    let a = fx
        .extract(&samples[..50], &spec, &mut Recorder::null())
        .expect("extracts");
    let b = fx
        .extract(&samples[..50], &spec, &mut Recorder::null())
        .expect("extracts");
    assert_eq!(a.x().as_slice(), b.x().as_slice());
}

#[test]
fn stored_sample_averages_match_requeried_telemetry() {
    // The generation pass and the query engine must agree on the run
    // means — proof the procedural regeneration is faithful.
    let t = generate(&SimConfig::tiny(5)).expect("generates");
    let engine = TelemetryQueryEngine::new(&t).expect("engine builds");
    let pairs: Vec<_> = t
        .samples()
        .iter()
        .step_by(37)
        .take(30)
        .map(|s| (s.aprun, s.node))
        .collect();
    let stats = engine.query(&pairs).expect("queries");
    for (st, s) in stats.iter().zip(t.samples().iter().step_by(37).take(30)) {
        assert!(
            (st.run_temp.mean - s.avg_gpu_temp_c).abs() < 0.01,
            "temp {} vs {}",
            st.run_temp.mean,
            s.avg_gpu_temp_c
        );
    }
}

#[test]
fn full_pipeline_is_reproducible() {
    let run = || {
        let t = generate(&SimConfig::tiny(13)).expect("generates");
        let split = DsSplit::ds1(&t).expect("split fits");
        let prepared = prepare(&t, &split, &FeatureSpec::all()).expect("prepares");
        let mut model = Gbdt::new().n_trees(20).min_samples_leaf(5).seed(4);
        let out = run_classifier(&prepared, &mut model).expect("runs");
        (
            out.predictions,
            model.predict_proba(&prepared.test).expect("predicts"),
        )
    };
    let (pred_a, proba_a) = run();
    let (pred_b, proba_b) = run();
    assert_eq!(pred_a, pred_b);
    assert_eq!(proba_a, proba_b);
}
