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
use gpu_error_prediction::titan_sim::trace::TraceSet;

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

/// The query engine resumes each slot from the state of its last window
/// or from the trace's generation checkpoints; single-pair calls in
/// stream order (which resume) and in reverse order (which go back to a
/// checkpoint) must answer exactly what one bulk call answers on an
/// engine over the trace's `serde_json` round trip, which carries no
/// checkpoints and replays from minute 0. So must probes that start on a
/// checkpoint minute or one minute either side of it.
#[test]
fn resumed_telemetry_queries_match_one_bulk_query() {
    let t = generate(&SimConfig::tiny(5)).expect("generates");
    let loaded: TraceSet =
        serde_json::from_str(&serde_json::to_string(&t).expect("serializes")).expect("loads");
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
    let reference = TelemetryQueryEngine::new(&loaded).expect("engine builds");
    let bulk = reference.query(&pairs).expect("queries");
    let bulk_pre = reference.query_preseries(&pairs, 60).expect("queries");

    let forward: Vec<usize> = (0..pairs.len()).collect();
    let reverse: Vec<usize> = forward.iter().rev().copied().collect();
    for order in [forward, reverse] {
        let engine = TelemetryQueryEngine::new(&t).expect("engine builds");
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

    // Eight checkpoints per slot stand at multiples of ⌈horizon / 9⌉.
    let stride = t.config().total_minutes().div_ceil(9);
    let edges: Vec<u64> = (1..=8)
        .flat_map(|i| [i * stride - 1, i * stride, i * stride + 1])
        .collect();
    let node = NodeId(7);
    let probe = |engine: &TelemetryQueryEngine<'_>, lo: u64| {
        let bits = [
            SeriesKind::GpuTemp,
            SeriesKind::GpuPower,
            SeriesKind::CpuTemp,
        ]
        .map(|kind| {
            let xs = engine.node_series(node, kind, lo, lo + 90).expect("probes");
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        });
        bits.concat()
    };
    let expected: Vec<Vec<u32>> = edges
        .iter()
        .map(|&lo| {
            probe(
                &TelemetryQueryEngine::new(&loaded).expect("engine builds"),
                lo,
            )
        })
        .collect();
    let forward: Vec<usize> = (0..edges.len()).collect();
    let reverse: Vec<usize> = forward.iter().rev().copied().collect();
    for order in [forward, reverse] {
        let engine = TelemetryQueryEngine::new(&t).expect("engine builds");
        for i in order {
            assert_eq!(
                probe(&engine, edges[i]),
                expected[i],
                "probe at {}",
                edges[i]
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

/// Generation folds each run's means and each node's cumulative sums
/// while it steps, keeping no per-minute series. They must carry exactly
/// the bits the query engine re-simulates: every sample's means those of
/// its run window, and every node's cumulative sums the sequential f64
/// sum of its series over the whole horizon.
#[test]
fn stored_sample_averages_match_requeried_telemetry() {
    let t = generate(&SimConfig::tiny(5)).expect("generates");
    let engine = TelemetryQueryEngine::new(&t).expect("engine builds");
    let pairs: Vec<_> = t.samples().iter().map(|s| (s.aprun, s.node)).collect();
    let stats = engine.query(&pairs).expect("queries");
    for (st, s) in stats.iter().zip(t.samples()) {
        let pair = (s.aprun, s.node);
        assert_eq!(
            st.run_temp.mean.to_bits(),
            s.avg_gpu_temp_c.to_bits(),
            "temp of {pair:?}"
        );
        assert_eq!(
            st.run_power.mean.to_bits(),
            s.avg_gpu_power_w.to_bits(),
            "power of {pair:?}"
        );
    }

    // A shorter horizon keeps the whole-horizon probes of all 64 nodes
    // to a few seconds in debug builds.
    let mut cfg = SimConfig::tiny(5);
    cfg.days = 5;
    let t = generate(&cfg).expect("generates");
    let engine = TelemetryQueryEngine::new(&t).expect("engine builds");
    let horizon = t.config().total_minutes();
    for node in t.config().topology.nodes() {
        for (kind, cum) in [
            (SeriesKind::GpuTemp, t.node_cum_temp()),
            (SeriesKind::GpuPower, t.node_cum_power()),
        ] {
            let xs = engine.node_series(node, kind, 0, horizon).expect("probes");
            let sum = xs.iter().fold(0.0f64, |acc, &x| acc + f64::from(x));
            assert_eq!(
                cum[node.0 as usize].to_bits(),
                sum.to_bits(),
                "{kind:?} of {node:?}"
            );
        }
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
