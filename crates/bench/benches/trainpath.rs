//! Training-engine throughput — the trainpath trajectory.
//!
//! Times `Gbdt::fit` on the production-sized workload (the same shape
//! the fastpath bench scores: 12k rows x 64 features, 150 trees of
//! depth 10) under all three `TrainMode` engines:
//!
//! * `Reference` — the pre-engine per-feature split finder, kept
//!   verbatim as the baseline every speedup is measured against;
//! * `Exact` — gathered single-pass histogram build, bit-identical to
//!   `Reference` (the default training path);
//! * `Fast` — sibling subtraction + row-block parallelism.
//!
//! Each engine is timed serial and parallel (`Threads::Auto`), each as
//! the best of three full fits; the throughput unit is row-visits/sec
//! (`rows x trees / elapsed`), which is invariant across engines on a
//! fixed workload. Results go to
//! `BENCH_train.json` at the workspace root, the report
//! `repro check-bench` gates on in CI. Parity is asserted before
//! anything is timed: a fast wrong answer is not a result.

use criterion::{criterion_group, criterion_main, Criterion};
use mlkit::dataset::Dataset;
use mlkit::gbdt::Gbdt;
use mlkit::hist::TrainMode;
use mlkit::model::Classifier;
use parkit::Threads;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use sbe_bench::{BenchReport, Metric};

/// Same workload shape as the fastpath bench fixture, so the two
/// trajectories (training cost, inference cost) describe one model.
const TRAIN_ROWS: usize = 12_000;
const N_FEATURES: usize = 64;
const N_TREES: usize = 150;
const MAX_DEPTH: usize = 10;
const N_BINS: usize = 64;
const SEED: u64 = 7;
/// Floors on serial-over-reference speedups. The sibling-subtraction
/// engine clears ~2x by construction (it builds half the histograms and
/// derives the rest); the exact engine must simply never lose to the
/// reference path it replaced as the default.
const MIN_FAST_SPEEDUP: f64 = 2.0;
const MIN_EXACT_SPEEDUP: f64 = 1.0;

/// Full-scale fits timed per (engine, policy); the report keeps the
/// fastest, so one descheduled fit on a shared host does not set a rate.
const FITS_PER_RATE: usize = 3;

/// Smaller configuration for the Criterion curves: full-scale fits are
/// hand-timed for the report; Criterion's repeated sampling runs on a
/// workload it can afford.
const CURVE_ROWS: usize = 4_000;
const CURVE_TREES: usize = 40;
const CURVE_DEPTH: usize = 6;

fn synthetic_train(rows: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(13);
    let x: Vec<Vec<f32>> = (0..rows)
        .map(|_| {
            (0..N_FEATURES)
                .map(|_| rng.gen::<f32>() * 4.0 - 2.0)
                .collect()
        })
        .collect();
    let y: Vec<f32> = x
        .iter()
        .map(|r| {
            if r.iter().take(8).sum::<f32>() > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Dataset::from_rows(&x, &y).expect("train dataset")
}

fn fit(train: &Dataset, trees: usize, depth: usize, mode: TrainMode, threads: Threads) -> Gbdt {
    let mut model = Gbdt::new()
        .n_trees(trees)
        .max_depth(depth)
        .min_samples_leaf(1)
        .n_bins(N_BINS)
        .seed(SEED)
        .threads(threads)
        .train_mode(mode);
    model
        .fit(train, &mut obskit::Recorder::null())
        .expect("gbdt fits");
    model
}

/// Bit-for-bit / split-level parity gate before any timing: `Exact`
/// must reproduce `Reference` exactly; `Fast` must stay within
/// rounding of it (its summation trees differ, so bit identity is not
/// contractual at this scale — see the trainpath differential suite).
fn assert_parity(train: &Dataset, probe: &Dataset) {
    let score = |mode: TrainMode| -> Vec<f32> {
        let model = fit(train, CURVE_TREES, CURVE_DEPTH, mode, Threads::Serial);
        model.predict_proba(probe).expect("predicts")
    };
    let reference = score(TrainMode::Reference);
    let exact = score(TrainMode::Exact);
    for (i, (a, b)) in reference.iter().zip(&exact).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "exact-engine parity violation at row {i}: reference {a} vs exact {b}"
        );
    }
    let fast = score(TrainMode::Fast);
    for (i, (a, b)) in reference.iter().zip(&fast).enumerate() {
        assert!(
            (a - b).abs() <= 1e-3,
            "fast-engine drift at row {i}: reference {a} vs fast {b}"
        );
    }
}

/// Hand-times [`FITS_PER_RATE`] full-scale fits and returns the
/// fastest one's row-visits/sec.
fn train_rate(train: &Dataset, mode: TrainMode, threads: Threads) -> f64 {
    let best_s = (0..FITS_PER_RATE)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(fit(train, N_TREES, MAX_DEPTH, mode, threads));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (TRAIN_ROWS * N_TREES) as f64 / best_s.max(1e-9)
}

fn bench_trainpath(c: &mut Criterion) {
    let full = synthetic_train(TRAIN_ROWS);
    let curve = synthetic_train(CURVE_ROWS);
    let probe = synthetic_train(1_000);
    assert_parity(&curve, &probe);

    let rates = |mode| {
        (
            train_rate(&full, mode, Threads::Serial),
            train_rate(&full, mode, Threads::Auto),
        )
    };
    let reference = rates(TrainMode::Reference);
    let exact = rates(TrainMode::Exact);
    let fast = rates(TrainMode::Fast);
    let rvps = "rows.trees/s";
    BenchReport::new(
        "train",
        &[
            ("rows", TRAIN_ROWS as u64),
            ("n_features", N_FEATURES as u64),
            ("n_trees", N_TREES as u64),
            ("max_depth", MAX_DEPTH as u64),
            ("n_bins", N_BINS as u64),
        ],
        vec![
            Metric::higher("reference_serial_rps", rvps, reference.0),
            Metric::higher("reference_parallel_rps", rvps, reference.1),
            Metric::higher("exact_serial_rps", rvps, exact.0),
            Metric::higher("exact_parallel_rps", rvps, exact.1),
            Metric::higher("fast_serial_rps", rvps, fast.0),
            Metric::higher("fast_parallel_rps", rvps, fast.1),
            // Serial over serial: the like-for-like engine speedups.
            Metric::higher("fast_speedup", "ratio", fast.0 / reference.0).limit(MIN_FAST_SPEEDUP),
            Metric::higher("exact_speedup", "ratio", exact.0 / reference.0)
                .limit(MIN_EXACT_SPEEDUP),
            // Parallel over serial per engine: above 1 only where
            // parallel training pays for its threads on the measuring host.
            Metric::higher(
                "reference_parallel_over_serial",
                "ratio",
                reference.1 / reference.0,
            ),
            Metric::higher("exact_parallel_over_serial", "ratio", exact.1 / exact.0),
            Metric::higher("fast_parallel_over_serial", "ratio", fast.1 / fast.0),
        ],
    )
    .write();

    let mut group = c.benchmark_group("trainpath");
    group.sample_size(10);
    for (name, mode) in [
        ("reference_serial", TrainMode::Reference),
        ("exact_serial", TrainMode::Exact),
        ("fast_serial", TrainMode::Fast),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                fit(
                    std::hint::black_box(&curve),
                    CURVE_TREES,
                    CURVE_DEPTH,
                    mode,
                    Threads::Serial,
                )
            })
        });
    }
    group.bench_function("fast_parallel", |b| {
        b.iter(|| {
            fit(
                std::hint::black_box(&curve),
                CURVE_TREES,
                CURVE_DEPTH,
                TrainMode::Fast,
                Threads::Auto,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_trainpath);
criterion_main!(benches);
