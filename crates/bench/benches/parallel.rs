//! Serial-vs-parallel benchmark pairs for every parkit wiring site.
//!
//! Each pair runs the same workload at `Threads::Serial` and at
//! `Threads::Fixed(4)`; the ratio of the reported times is the speedup.
//! The outputs are bit-identical by construction (see
//! `tests/parallel_equivalence.rs`), so the pairs measure pure
//! scheduling overhead vs fan-out win.
//!
//! The observed ratio is bounded by `std::thread::available_parallelism`:
//! on a ≥4-core host the GBDT-train and trace-generate pairs show the
//! fan-out win; on a single-core host the pairs instead bound the
//! oversubscription overhead (and `Threads::Auto` — the library default —
//! resolves to 1 there, so real runs never pay it).

use criterion::{criterion_group, criterion_main, Criterion};
use mlkit::crossval::cross_validate;
use mlkit::dataset::Dataset;
use mlkit::gbdt::Gbdt;
use mlkit::model::Classifier;
use obskit::Recorder;
use parkit::Threads;
use sbepred::tuning::threshold_sweep;
use titan_sim::config::SimConfig;
use titan_sim::engine::generate;

const PAR: Threads = Threads::Fixed(4);

/// A deterministic learnable dataset, large enough to clear every parkit
/// work-size gate (rows × features and the row-pass minimum).
fn synthetic_dataset(n: usize, d: usize) -> Dataset {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| (((i * 31 + j * 17) % 97) as f32) / 97.0)
                .collect()
        })
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| if r[0] + r[1] > r[2] + 0.5 { 1.0 } else { 0.0 })
        .collect();
    Dataset::from_rows(&rows, &y).expect("dataset builds")
}

fn bench_gbdt_train(c: &mut Criterion) {
    let train = synthetic_dataset(6_000, 40);
    let mut group = c.benchmark_group("par_gbdt_train");
    group.sample_size(10);
    for (id, threads) in [("serial", Threads::Serial), ("threads4", PAR)] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut model = Gbdt::new()
                    .n_trees(20)
                    .max_depth(5)
                    .min_samples_leaf(5)
                    .seed(3)
                    .threads(threads);
                model
                    .fit(std::hint::black_box(&train), &mut Recorder::null())
                    .expect("fits");
                model
            })
        });
    }
    group.finish();
}

fn bench_trace_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_trace_generate");
    group.sample_size(10);
    for (id, threads) in [("serial", Threads::Serial), ("threads4", PAR)] {
        let cfg = SimConfig::tiny(3).with_threads(threads);
        group.bench_function(id, |b| {
            b.iter(|| generate(std::hint::black_box(&cfg)).expect("generates"))
        });
    }
    group.finish();
}

fn bench_crossval(c: &mut Criterion) {
    let ds = synthetic_dataset(4_000, 20);
    let mut group = c.benchmark_group("par_crossval");
    group.sample_size(10);
    for (id, threads) in [("serial", Threads::Serial), ("threads4", PAR)] {
        group.bench_function(id, |b| {
            b.iter(|| {
                cross_validate(
                    std::hint::black_box(&ds),
                    4,
                    7,
                    threads,
                    &mut Recorder::null(),
                    || {
                        Gbdt::new()
                            .n_trees(8)
                            .max_depth(4)
                            .min_samples_leaf(5)
                            .seed(3)
                    },
                )
                .expect("cv runs")
            })
        });
    }
    group.finish();
}

fn bench_threshold_sweep(c: &mut Criterion) {
    // Many distinct scores → many tie groups, well past the sweep's
    // serial-inline gate.
    let n = 200_000usize;
    let truth: Vec<f32> = (0..n)
        .map(|i| if i % 11 == 0 { 1.0 } else { 0.0 })
        .collect();
    let scores: Vec<f32> = (0..n)
        .map(|i| ((i * 2_654_435_761) % n) as f32 / n as f32)
        .collect();
    let mut group = c.benchmark_group("par_threshold_sweep");
    group.sample_size(10);
    for (id, threads) in [("serial", Threads::Serial), ("threads4", PAR)] {
        group.bench_function(id, |b| {
            b.iter(|| {
                threshold_sweep(
                    std::hint::black_box(&truth),
                    std::hint::black_box(&scores),
                    threads,
                    &mut Recorder::null(),
                )
                .expect("sweeps")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gbdt_train,
    bench_trace_generate,
    bench_crossval,
    bench_threshold_sweep
);
criterion_main!(benches);
