//! Differential suite: compiled inference must be *bit-identical* to the
//! interpreted path, for any fitted model.
//!
//! Proptest generates random dataset shapes and hyper-parameters, the
//! test derives the data deterministically from a generated seed, fits a
//! GBDT (and an LR), compiles it, and compares probabilities bit for bit
//! on the training rows plus out-of-range query rows — through the
//! zero-alloc `FeatureFrame` batch API, a one-row frame per row, and
//! after a `PipelineArtifact` save/load round-trip. Any divergence (a
//! reordered accumulation, a mis-flattened node, a tie broken the other
//! way) fails with the generated inputs printed.

use gpu_error_prediction::mlkit::dataset::Dataset;
use gpu_error_prediction::mlkit::fastpath::FeatureFrame;
use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::mlkit::linear::LogisticRegression;
use gpu_error_prediction::mlkit::model::Classifier;
use gpu_error_prediction::mlkit::scaler::StandardScaler;
use gpu_error_prediction::sbepred::features::FeatureSpec;
use gpu_error_prediction::streamd::artifact::{CompiledScorer, PipelineArtifact, PipelineModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random rows in `[-scale, scale)` from a proptest seed.
fn gen_rows(rng: &mut StdRng, n: usize, d: usize, scale: f32) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..d)
                .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                .collect()
        })
        .collect()
}

/// Labels from the row contents, with the first two rows forced to
/// opposite classes so fitting never sees a single-class dataset.
fn labels(rows: &[Vec<f32>]) -> Vec<f32> {
    let mut y: Vec<f32> = rows
        .iter()
        .map(|r| {
            if r.iter().sum::<f32>() > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    y[0] = 0.0;
    y[1] = 1.0;
    y
}

/// Scores `rows[i]` alone, as a one-row frame (the kernel's lane tail).
fn one_row(rows: &[Vec<f32>], i: usize, score: impl Fn(&FeatureFrame, &mut [f32])) -> f32 {
    let frame = FeatureFrame::from_rows(&rows[i..=i]).expect("one-row frame");
    let mut out = [0.0f32];
    score(&frame, &mut out);
    out[0]
}

/// Compares compiled vs interpreted on every row of `rows`, through the
/// batch frame API and a one-row frame per row. Returns the first
/// mismatch's description, `None` when bit-identical.
fn gbdt_mismatch(model: &Gbdt, rows: &[Vec<f32>]) -> Option<String> {
    let ds = Dataset::from_rows(rows, &vec![0.0; rows.len()]).expect("dataset");
    let interpreted = model.predict_proba(&ds).expect("interpreted predict");
    let compiled = model.compile().expect("compile");
    let frame = FeatureFrame::from_rows(rows).expect("frame");
    let mut out = vec![0.0f32; rows.len()];
    compiled
        .predict_proba_into(&frame, &mut out)
        .expect("compiled predict");
    for (i, (a, b)) in interpreted.iter().zip(&out).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Some(format!(
                "batch mismatch at row {i}: interpreted {a} vs compiled {b}"
            ));
        }
        let single = one_row(rows, i, |f, o| {
            compiled.predict_proba_into(f, o).expect("compiled predict")
        });
        if single.to_bits() != a.to_bits() {
            return Some(format!(
                "one-row frame mismatch at row {i}: interpreted {a} vs compiled {single}"
            ));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gbdt_compiled_is_bit_identical(
        d in 2usize..6,
        n in 30usize..90,
        n_trees in 1usize..12,
        max_depth in 1usize..6,
        n_bins in 2usize..32,
        learning_rate in 0.05f32..0.5,
        subsample in 0.5f64..1.0,
        colsample in 0.5f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = gen_rows(&mut rng, n, d, 10.0);
        let y = labels(&rows);
        let ds = Dataset::from_rows(&rows, &y).expect("dataset");
        let mut model = Gbdt::new()
            .n_trees(n_trees)
            .max_depth(max_depth)
            .min_samples_leaf(1 + (seed % 5) as usize)
            .n_bins(n_bins)
            .learning_rate(learning_rate)
            .subsample(subsample)
            .colsample(colsample)
            .seed(seed);
        model.fit(&ds, &mut obskit::Recorder::null()).expect("fit");
        if let Some(msg) = gbdt_mismatch(&model, &rows) {
            prop_assert!(false, "{msg}");
        }
        // Out-of-distribution queries — wider range than training, so
        // traversal crosses every learned threshold from both sides.
        let queries = gen_rows(&mut rng, 8, d, 25.0);
        if let Some(msg) = gbdt_mismatch(&model, &queries) {
            prop_assert!(false, "on queries: {msg}");
        }
    }

    #[test]
    fn gbdt_parity_survives_artifact_round_trip(
        d in 2usize..6,
        n in 30usize..90,
        n_trees in 1usize..10,
        max_depth in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = gen_rows(&mut rng, n, d, 10.0);
        let y = labels(&rows);
        let ds = Dataset::from_rows(&rows, &y).expect("dataset");
        let scaler = StandardScaler::fit(&ds).expect("scaler");
        let mut model = Gbdt::new()
            .n_trees(n_trees)
            .max_depth(max_depth)
            .min_samples_leaf(2)
            .seed(seed);
        model.fit(&ds, &mut obskit::Recorder::null()).expect("fit");
        let artifact = PipelineArtifact::new(
            FeatureSpec::only_hist(),
            vec![1, 2, 3],
            scaler,
            PipelineModel::Gbdt(model),
            500,
            "DS1",
        );
        let shipped = PipelineArtifact::from_bytes(&artifact.to_bytes().expect("encode"))
            .expect("decode");
        let compiled = shipped.compile().expect("compile decoded");
        prop_assert!(matches!(compiled, CompiledScorer::Gbdt(_)));
        let interpreted = shipped.model().predict_proba(&ds).expect("predict");
        let frame = FeatureFrame::from_rows(&rows).expect("frame");
        let mut out = vec![0.0f32; rows.len()];
        compiled
            .predict_proba_into(&frame, &mut out)
            .expect("compiled predict");
        for (i, (a, b)) in interpreted.iter().zip(&out).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "round-trip mismatch at row {i}: interpreted {a} vs compiled {b}"
            );
        }
    }

    #[test]
    fn logistic_compiled_is_bit_identical(
        d in 2usize..6,
        n in 30usize..90,
        epochs in 5usize..40,
        lr in 0.01f32..0.5,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = gen_rows(&mut rng, n, d, 2.0);
        let y = labels(&rows);
        let ds = Dataset::from_rows(&rows, &y).expect("dataset");
        let mut model = LogisticRegression::new()
            .epochs(epochs)
            .learning_rate(lr)
            .seed(seed);
        model.fit(&ds, &mut obskit::Recorder::null()).expect("fit");
        let compiled = model.compile().expect("compile");
        let interpreted = model.predict_proba(&ds).expect("predict");
        let frame = FeatureFrame::from_rows(&rows).expect("frame");
        let mut out = vec![0.0f32; rows.len()];
        compiled
            .predict_proba_into(&frame, &mut out)
            .expect("compiled predict");
        for (i, (a, b)) in interpreted.iter().zip(&out).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "LR mismatch at row {i}: interpreted {a} vs compiled {b}"
            );
            let single = one_row(&rows, i, |f, o| {
                compiled.predict_proba_into(f, o).expect("compiled predict")
            });
            prop_assert!(
                single.to_bits() == a.to_bits(),
                "LR one-row frame mismatch at row {i}: interpreted {a} vs compiled {single}"
            );
        }
    }
}
