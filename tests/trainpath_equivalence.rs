//! Training-engine differential suite.
//!
//! The histogram training engine (`mlkit::hist`, DESIGN.md "Training
//! fastpath") ships two split finders behind `TrainMode`:
//!
//! * `Reference` — the pre-engine per-feature path, kept verbatim as
//!   the oracle;
//! * `Exact` — gathered single-pass build, contractually
//!   **bit-identical** to `Reference` (it is the default, and the
//!   pinned goldens train through it).
//!
//! These tests pin that relationship and the thread-invariance
//! contract (`SBE_THREADS` must never change a single output bit) for
//! both engines.

use gpu_error_prediction::mlkit::dataset::Dataset;
use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::mlkit::hist::TrainMode;
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

/// Both engines must be bit-identical across thread policies:
/// `Reference` because its per-feature fan-out reduces candidates in
/// feature-list order, `Exact` because feature-group fan-out never
/// touches a per-bin accumulation order. The root node (2,400
/// subsampled rows × 17 sampled features) is above the parallel grain,
/// so both fan-outs really run at 2 and 8 threads.
#[test]
fn both_engines_thread_count_invariant() {
    let train = synthetic_dataset(3_000, 24, 6);
    let test = synthetic_dataset(400, 24, 7);
    let cfg = (15usize, 6usize, 0.8f64, 0.7f64, 21u64);
    for mode in [TrainMode::Reference, TrainMode::Exact] {
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
