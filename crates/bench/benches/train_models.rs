//! Model-training cost (the paper's Table III) and prediction throughput.
//!
//! The paper reports mean training times of 4.81 s (LR), 40.53 s (GBDT),
//! 20.01 min (NN), and 1.04 h (SVM) on an Intel E5-4627v2. Absolute
//! values are hardware- and scale-bound; the *ordering*
//! LR < GBDT < NN < SVM is the reproducible claim, and `repro table3`
//! reports it at full experiment scale. These benches measure the same
//! models on a stage-2-sized slice so Criterion can track regressions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlkit::dataset::Dataset;
use mlkit::gbdt::Gbdt;
use mlkit::linear::LogisticRegression;
use mlkit::model::Classifier;
use mlkit::nn::MlpClassifier;
use mlkit::svm::SvmRbf;
use sbepred::datasets::DsSplit;
use sbepred::features::FeatureSpec;
use sbepred::twostage::prepare;
use titan_sim::config::SimConfig;

/// Builds a stage-2 training dataset from the tiny trace, truncated to at
/// most `cap` samples.
fn stage2_dataset(cap: usize) -> Dataset {
    let trace = titan_sim::engine::generate(&SimConfig::tiny(3)).expect("trace generates");
    let split = DsSplit::ds1(&trace).expect("split fits");
    let prepared = prepare(&trace, &split, &FeatureSpec::all()).expect("prepare succeeds");
    let n = prepared.train.len().min(cap);
    let idx: Vec<usize> = (0..n).collect();
    prepared.train.select(&idx)
}

fn bench_training(c: &mut Criterion) {
    let ds = stage2_dataset(4_000);
    let mut group = c.benchmark_group("train");
    group.sample_size(10);

    group.bench_function("lr", |b| {
        b.iter_batched(
            || {
                LogisticRegression::new()
                    .learning_rate(0.5)
                    .epochs(40)
                    .batch_size(256)
            },
            |mut m| m.fit(&ds, &mut obskit::Recorder::null()).expect("lr fits"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("gbdt", |b| {
        b.iter_batched(
            || Gbdt::new().n_trees(60).max_depth(5).min_samples_leaf(10),
            |mut m| {
                m.fit(&ds, &mut obskit::Recorder::null())
                    .expect("gbdt fits")
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("nn", |b| {
        b.iter_batched(
            || MlpClassifier::new().hidden_layers(&[64, 32]).epochs(10),
            |mut m| m.fit(&ds, &mut obskit::Recorder::null()).expect("nn fits"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("svm", |b| {
        b.iter_batched(
            || {
                SvmRbf::new()
                    .gamma(0.02)
                    .c(5.0)
                    .max_samples(800)
                    .max_iters(40)
            },
            |mut m| m.fit(&ds, &mut obskit::Recorder::null()).expect("svm fits"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let ds = stage2_dataset(4_000);
    let mut gbdt = Gbdt::new().n_trees(60).max_depth(5).min_samples_leaf(10);
    gbdt.fit(&ds, &mut obskit::Recorder::null())
        .expect("gbdt fits");
    let mut lr = LogisticRegression::new().epochs(20);
    lr.fit(&ds, &mut obskit::Recorder::null()).expect("lr fits");

    let mut group = c.benchmark_group("predict");
    group.bench_function("gbdt_proba", |b| {
        b.iter(|| {
            gbdt.predict_proba(std::hint::black_box(&ds))
                .expect("predicts")
        })
    });
    group.bench_function("lr_proba", |b| {
        b.iter(|| {
            lr.predict_proba(std::hint::black_box(&ds))
                .expect("predicts")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_prediction);
criterion_main!(benches);
