//! Batch vs streaming scoring throughput.
//!
//! Both sides score the same DS1 test window of `tiny(13)` with the same
//! trained GBDT pipeline. The batch path is the offline evaluator's
//! scoring tail (feature extraction → scaler → classifier over all test
//! samples at once); the streaming path is the full `streamd` serve loop
//! (event replay, incremental features, bounded batching). The vendored
//! criterion has no throughput reporting, so each side also prints an
//! explicit samples/sec line from a hand-timed pass.

use criterion::{criterion_group, criterion_main, Criterion};
use mlkit::gbdt::Gbdt;
use obskit::Recorder;
use sbepred::datasets::DsSplit;
use sbepred::features::{FeatureExtractor, FeatureSpec};
use sbepred::samples::{build_samples, in_window};
use sbepred::twostage::{prepare_with_extractor, run_classifier};
use streamd::artifact::{PipelineArtifact, PipelineModel};
use streamd::serve::{serve, NullSink, ServeConfig};
use titan_sim::config::SimConfig;
use titan_sim::engine::generate;
use titan_sim::trace::TraceSet;

struct Fixture {
    trace: TraceSet,
    artifact: PipelineArtifact,
    window: (u64, u64),
    n_test: usize,
}

fn fixture() -> Fixture {
    let trace = generate(&SimConfig::tiny(13)).expect("generates");
    let samples = build_samples(&trace).expect("samples build");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor builds");
    let split = DsSplit::ds1(&trace).expect("split");
    let spec = FeatureSpec::all();
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec).expect("prepares");
    let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2).seed(7);
    run_classifier(&prepared, &mut model).expect("fits");
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
    let window = split.test_window();
    let n_test = prepared.test_samples.len();
    Fixture {
        trace,
        artifact,
        window,
        n_test,
    }
}

/// The batch scoring tail: extract every test-window sample, scale, and
/// classify — the offline evaluator's per-scoring-pass cost.
fn batch_score(fx: &FeatureExtractor<'_>, f: &Fixture, test: &[sbepred::samples::LabeledSample]) {
    let spec = *f.artifact.spec();
    let stage2: Vec<_> = test
        .iter()
        .filter(|s| f.artifact.is_offender(s.node.0))
        .copied()
        .collect();
    let raw = fx
        .extract(&stage2, &spec, &mut Recorder::null())
        .expect("extracts");
    let scaled = f.artifact.scaler().transform(&raw).expect("transforms");
    let proba = f.artifact.model().predict_proba(&scaled).expect("predicts");
    std::hint::black_box(proba);
}

fn stream_score(f: &Fixture) {
    let cfg = ServeConfig::window(f.window.0, f.window.1);
    let mut sink = NullSink;
    let report = serve(&f.trace, &f.artifact, &cfg, &mut sink).expect("serves");
    std::hint::black_box(report.scored.len());
}

fn bench_scoring(c: &mut Criterion) {
    let f = fixture();
    let samples = build_samples(&f.trace).expect("samples build");
    let fx = FeatureExtractor::new(&f.trace, &samples).expect("extractor builds");
    let test = in_window(&samples, f.window.0, f.window.1);

    // Hand-timed samples/sec, since vendored criterion cannot report
    // throughput units.
    const REPS: u32 = 5;
    let t0 = std::time::Instant::now();
    for _ in 0..REPS {
        batch_score(&fx, &f, &test);
    }
    let batch_rate = (REPS as usize * f.n_test) as f64 / t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    for _ in 0..REPS {
        stream_score(&f);
    }
    let stream_rate = (REPS as usize * f.n_test) as f64 / t0.elapsed().as_secs_f64();
    eprintln!(
        "scoring throughput over {} test samples: batch {batch_rate:.0} samples/sec, \
         streaming {stream_rate:.0} samples/sec",
        f.n_test
    );

    let mut group = c.benchmark_group("scoring");
    group.sample_size(10);
    group.bench_function("batch_test_window", |b| {
        b.iter(|| batch_score(&fx, &f, &test))
    });
    group.bench_function("streaming_test_window", |b| b.iter(|| stream_score(&f)));
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
