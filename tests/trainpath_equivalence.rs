//! Training-engine differential suite.
//!
//! The histogram training engine (`mlkit::hist`, DESIGN.md "Training
//! fastpath") ships three split finders behind `TrainMode`:
//!
//! * `Reference` — the pre-engine per-feature path, kept verbatim;
//! * `Exact` — gathered single-pass build, contractually
//!   **bit-identical** to `Reference` (it is the default, and the
//!   pinned goldens train through it);
//! * `Fast` — sibling subtraction + row-block parallelism, which
//!   changes floating-point summation trees and is therefore locked by
//!   split identity on randomized ensembles plus quality parity.
//!
//! These tests pin all three relationships and the thread-invariance
//! contract (`SBE_THREADS` must never change a single output bit) for
//! both new engines.

use gpu_error_prediction::mlkit::dataset::Dataset;
use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::mlkit::hist::TrainMode;
use gpu_error_prediction::mlkit::metrics::{roc_auc, ConfusionMatrix};
use gpu_error_prediction::mlkit::model::Classifier;
use gpu_error_prediction::parkit::Threads;

/// Deterministic, learnable dataset with enough rows × features to
/// cross the parallel gates in both engines.
fn synthetic_dataset(n: usize, d: usize, salt: usize) -> Dataset {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| (((i * 31 + j * 17 + salt * 13) % 193) as f32) / 193.0)
                .collect()
        })
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| {
            if r[0] + r[1] + 0.5 * r[2] > r[3] + 0.9 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Dataset::from_rows(&rows, &y).expect("dataset builds")
}

fn fit_predict(
    train: &Dataset,
    test: &Dataset,
    mode: TrainMode,
    threads: Threads,
    cfg: &(usize, usize, f64, f64, u64),
) -> Vec<f32> {
    let (n_trees, max_depth, subsample, colsample, seed) = *cfg;
    let mut model = Gbdt::new()
        .n_trees(n_trees)
        .max_depth(max_depth)
        .min_samples_leaf(5)
        .subsample(subsample)
        .colsample(colsample)
        .seed(seed)
        .threads(threads)
        .train_mode(mode);
    model
        .fit(train, &mut obskit::Recorder::null())
        .expect("gbdt fits");
    model.predict_proba(test).expect("gbdt predicts")
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Randomized ensembles: the `Exact` engine must reproduce the
/// `Reference` engine bit for bit — same splits, same leaves, same
/// probabilities — across subsampling, column sampling, and depth.
#[test]
fn exact_engine_bit_identical_to_reference() {
    let train = synthetic_dataset(1_500, 24, 0);
    let test = synthetic_dataset(500, 24, 1);
    let configs: [(usize, usize, f64, f64, u64); 4] = [
        (20, 4, 1.0, 1.0, 7),
        (15, 6, 0.8, 1.0, 13),
        (15, 5, 1.0, 0.5, 42),
        (12, 7, 0.7, 0.6, 99),
    ];
    for cfg in &configs {
        let reference = fit_predict(&train, &test, TrainMode::Reference, Threads::Serial, cfg);
        let exact = fit_predict(&train, &test, TrainMode::Exact, Threads::Serial, cfg);
        assert_eq!(
            bits(&reference),
            bits(&exact),
            "exact diverged from reference under {cfg:?}"
        );
    }
}

/// `Fast` changes floating-point summation order (sibling subtraction,
/// row-block merges), so bit identity with `Exact` is not contractual —
/// but on these randomized ensembles no gain comparison sits within
/// rounding of a tie, so the chosen splits (and hence the trees, whose
/// leaves are computed from exact index-order sums in every mode) come
/// out identical. A tie flip would be a real finding, not noise.
#[test]
fn fast_engine_split_identical_on_randomized_ensembles() {
    let train = synthetic_dataset(1_500, 24, 2);
    let test = synthetic_dataset(500, 24, 3);
    let configs: [(usize, usize, f64, f64, u64); 4] = [
        (20, 4, 1.0, 1.0, 7),
        (15, 6, 0.8, 1.0, 13),
        (15, 5, 1.0, 0.5, 42),
        (12, 7, 0.7, 0.6, 99),
    ];
    for cfg in &configs {
        let exact = fit_predict(&train, &test, TrainMode::Exact, Threads::Serial, cfg);
        let fast = fit_predict(&train, &test, TrainMode::Fast, Threads::Serial, cfg);
        assert_eq!(
            bits(&exact),
            bits(&fast),
            "fast chose different splits under {cfg:?}"
        );
    }
}

/// Quality-parity backstop on a production-shaped workload: even if a
/// future change legitimately flips a within-rounding tie, `Fast` must
/// stay a drop-in replacement for `Exact` in AUC and F1.
#[test]
fn fast_engine_quality_parity() {
    let train = synthetic_dataset(4_000, 32, 4);
    let test = synthetic_dataset(1_200, 32, 5);
    let cfg = (40usize, 6usize, 0.8f64, 0.8f64, 7u64);
    let classify = |mode: TrainMode| {
        let probs = fit_predict(&train, &test, mode, Threads::Serial, &cfg);
        let pred: Vec<f32> = probs
            .iter()
            .map(|&p| if p >= 0.5 { 1.0 } else { 0.0 })
            .collect();
        let auc = roc_auc(test.y(), &probs).expect("auc computes");
        let f1 = ConfusionMatrix::from_predictions(test.y(), &pred)
            .expect("confusion computes")
            .f1();
        (auc, f1)
    };
    let (auc_e, f1_e) = classify(TrainMode::Exact);
    let (auc_f, f1_f) = classify(TrainMode::Fast);
    assert!(auc_e > 0.9, "exact engine should learn this task: {auc_e}");
    assert!(
        (auc_e - auc_f).abs() < 0.01,
        "AUC drifted: exact {auc_e} vs fast {auc_f}"
    );
    assert!(
        (f1_e - f1_f).abs() < 0.02,
        "F1 drifted: exact {f1_e} vs fast {f1_f}"
    );
}

/// Both engines must be bit-identical across thread policies: `Exact`
/// because feature-group fan-out never touches a per-bin accumulation
/// order, `Fast` because row blocks are cut by position, not by worker.
#[test]
fn both_engines_thread_count_invariant() {
    let train = synthetic_dataset(1_800, 24, 6);
    let test = synthetic_dataset(400, 24, 7);
    let cfg = (15usize, 6usize, 0.8f64, 0.7f64, 21u64);
    for mode in [TrainMode::Exact, TrainMode::Fast] {
        let reference = fit_predict(&train, &test, mode, Threads::Serial, &cfg);
        assert!(
            reference.iter().any(|&p| p > 0.5) && reference.iter().any(|&p| p < 0.5),
            "degenerate reference predictions"
        );
        for n in [1usize, 2, 8] {
            let probs = fit_predict(&train, &test, mode, Threads::Fixed(n), &cfg);
            assert_eq!(
                bits(&reference),
                bits(&probs),
                "{mode:?} diverged at {n} threads"
            );
        }
    }
}
