//! Cross-validation utilities: stratified k-fold splitting and scoring.

use crate::dataset::Dataset;
use crate::metrics::ConfusionMatrix;
use crate::model::Classifier;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Index pairs for one fold: `(train_indices, test_indices)`.
pub type FoldIndices = (Vec<usize>, Vec<usize>);

/// Produces stratified k-fold index splits: every fold's class ratio
/// approximates the dataset's.
///
/// # Errors
///
/// Returns [`MlError::InvalidParameter`] when `k < 2` or `k` exceeds the
/// minority class size, and [`MlError::SingleClass`] when a class is
/// absent.
pub fn stratified_k_fold(ds: &Dataset, k: usize, seed: u64) -> Result<Vec<FoldIndices>> {
    if k < 2 {
        return Err(MlError::InvalidParameter {
            name: "k",
            reason: format!("need k >= 2, got {k}"),
        });
    }
    let (mut pos, mut neg) = ds.class_indices();
    if pos.is_empty() || neg.is_empty() {
        return Err(MlError::SingleClass);
    }
    if k > pos.len() || k > neg.len() {
        return Err(MlError::InvalidParameter {
            name: "k",
            reason: format!(
                "k = {k} exceeds a class size ({} positives, {} negatives)",
                pos.len(),
                neg.len()
            ),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);

    // Round-robin both classes over the folds.
    let mut fold_members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &p) in pos.iter().enumerate() {
        fold_members[i % k].push(p);
    }
    for (i, &n) in neg.iter().enumerate() {
        fold_members[i % k].push(n);
    }

    let mut out = Vec::with_capacity(k);
    for f in 0..k {
        let test: Vec<usize> = fold_members[f].clone();
        let mut train: Vec<usize> = Vec::with_capacity(ds.len() - test.len());
        for (g, members) in fold_members.iter().enumerate() {
            if g != f {
                train.extend_from_slice(members);
            }
        }
        train.shuffle(&mut rng);
        out.push((train, test));
    }
    Ok(out)
}

/// Per-fold results of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CrossValScores {
    /// Confusion matrix per fold.
    pub folds: Vec<ConfusionMatrix>,
}

impl CrossValScores {
    /// Mean F1 over folds.
    pub fn mean_f1(&self) -> f64 {
        if self.folds.is_empty() {
            return 0.0;
        }
        self.folds.iter().map(|cm| cm.f1()).sum::<f64>() / self.folds.len() as f64
    }
}

/// Runs stratified k-fold cross-validation with a classifier factory (a
/// fresh model per fold), fanning the folds out across worker threads.
/// Folds are independent (each gets a fresh model from `factory` and
/// deterministic index splits), and the per-fold confusion matrices come
/// back in fold order, so any thread policy — including
/// [`parkit::Threads::Serial`] — produces identical scores.
///
/// Each fold trains against its own [`obskit::Recorder::fork`] under a
/// `"mlkit.cv.fold"` span, and the per-fold recorders are merged back into
/// `rec` in fold order — so the merged metrics are byte-identical under
/// any thread policy as well.
///
/// # Errors
///
/// Propagates split and classifier errors; on multiple fold failures the
/// error of the lowest-numbered fold is returned, matching a serial run.
pub fn cross_validate<C, F>(
    ds: &Dataset,
    k: usize,
    seed: u64,
    threads: parkit::Threads,
    rec: &mut obskit::Recorder,
    factory: F,
) -> Result<CrossValScores>
where
    C: Classifier,
    F: Fn() -> C + Sync,
{
    let folds = stratified_k_fold(ds, k, seed)?;
    let parent = &*rec;
    let out = parkit::try_par_map(threads, &folds, |(train_idx, test_idx)| {
        let mut fold_rec = parent.fork();
        let span = fold_rec.span_start("mlkit.cv.fold");
        let cm = run_fold(ds, train_idx, test_idx, &factory, &mut fold_rec);
        fold_rec.span_end(span);
        cm.map(|cm| (cm, fold_rec))
    })?;
    let mut scores = Vec::with_capacity(out.len());
    for (cm, fold_rec) in out {
        rec.incr("mlkit.cv.folds", 1);
        rec.merge(fold_rec);
        scores.push(cm);
    }
    Ok(CrossValScores { folds: scores })
}

/// Trains and scores one fold, recording training-loop metrics.
fn run_fold<C: Classifier>(
    ds: &Dataset,
    train_idx: &[usize],
    test_idx: &[usize],
    factory: &impl Fn() -> C,
    rec: &mut obskit::Recorder,
) -> Result<ConfusionMatrix> {
    let train = ds.select(train_idx);
    let test = ds.select(test_idx);
    let mut model = factory();
    model.fit(&train, rec)?;
    let pred = model.predict(&test)?;
    ConfusionMatrix::from_predictions(test.y(), &pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::Gbdt;
    use crate::linear::LogisticRegression;

    fn dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![(i % 20) as f32 / 20.0, ((i * 13) % 7) as f32])
            .collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn folds_partition_the_dataset() {
        let ds = dataset(103);
        let folds = stratified_k_fold(&ds, 5, 1).unwrap();
        assert_eq!(folds.len(), 5);
        let mut seen = vec![0u32; ds.len()];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), ds.len());
            for &i in test {
                seen[i] += 1;
            }
            // Train and test are disjoint.
            let test_set: std::collections::BTreeSet<_> = test.iter().collect();
            assert!(train.iter().all(|i| !test_set.contains(i)));
        }
        // Every sample appears in exactly one test fold.
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn folds_are_stratified() {
        let ds = dataset(200);
        let overall = ds.n_positive() as f64 / ds.len() as f64;
        let folds = stratified_k_fold(&ds, 4, 2).unwrap();
        for (_, test) in folds {
            let sub = ds.select(&test);
            let rate = sub.n_positive() as f64 / sub.len() as f64;
            assert!(
                (rate - overall).abs() < 0.1,
                "fold rate {rate} vs overall {overall}"
            );
        }
    }

    #[test]
    fn invalid_k_rejected() {
        let ds = dataset(40);
        assert!(stratified_k_fold(&ds, 1, 0).is_err());
        assert!(stratified_k_fold(&ds, 1_000, 0).is_err());
        let single = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[0.0, 0.0]).unwrap();
        assert!(stratified_k_fold(&single, 2, 0).is_err());
    }

    #[test]
    fn cross_validation_scores_a_learnable_problem() {
        let ds = dataset(200);
        let scores = cross_validate(
            &ds,
            4,
            3,
            parkit::Threads::Serial,
            &mut obskit::Recorder::null(),
            || LogisticRegression::new().learning_rate(1.0).epochs(150),
        )
        .unwrap();
        assert_eq!(scores.folds.len(), 4);
        assert!(scores.mean_f1() > 0.8, "mean f1 {}", scores.mean_f1());
        let scored: u64 = scores.folds.iter().map(|cm| cm.total()).sum();
        assert_eq!(scored as usize, ds.len());
        // The per-fold F1 spread (population standard deviation) stays small.
        let f1s: Vec<f64> = scores.folds.iter().map(|cm| cm.f1()).collect();
        let mean = f1s.iter().sum::<f64>() / f1s.len() as f64;
        let var = f1s.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / f1s.len() as f64;
        assert!(var.sqrt() < 0.3, "f1 std {}", var.sqrt());
    }

    #[test]
    fn gbdt_cross_validates_too() {
        let ds = dataset(160);
        let scores = cross_validate(
            &ds,
            4,
            5,
            parkit::Threads::Serial,
            &mut obskit::Recorder::null(),
            || Gbdt::new().n_trees(15).min_samples_leaf(2),
        )
        .unwrap();
        assert!(scores.mean_f1() > 0.85, "mean f1 {}", scores.mean_f1());
    }

    #[test]
    fn observed_cv_matches_plain_and_is_thread_invariant() {
        let ds = dataset(160);
        let factory = || {
            Gbdt::new()
                .n_trees(6)
                .max_depth(3)
                .min_samples_leaf(2)
                .seed(7)
        };
        let plain = cross_validate(
            &ds,
            4,
            5,
            parkit::Threads::Serial,
            &mut obskit::Recorder::null(),
            factory,
        )
        .unwrap();

        let mut rec_serial = obskit::Recorder::new();
        let serial =
            cross_validate(&ds, 4, 5, parkit::Threads::Serial, &mut rec_serial, factory).unwrap();
        let mut rec_par = obskit::Recorder::new();
        let par =
            cross_validate(&ds, 4, 5, parkit::Threads::Fixed(4), &mut rec_par, factory).unwrap();

        assert_eq!(serial.folds, plain.folds);
        assert_eq!(par.folds, plain.folds);
        // Metrics merged in fold order: byte-identical snapshots.
        assert_eq!(rec_serial.snapshot_json(), rec_par.snapshot_json());
        assert_eq!(rec_serial.counter("mlkit.cv.folds"), 4);
        assert_eq!(rec_serial.counter("mlkit.gbdt.boosting_rounds"), 24);
        let span = rec_serial.span("mlkit.cv.fold").unwrap();
        assert_eq!(span.count, 4);
        assert!(span.total_ticks > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset(100);
        let a = stratified_k_fold(&ds, 5, 9).unwrap();
        let b = stratified_k_fold(&ds, 5, 9).unwrap();
        assert_eq!(a, b);
    }
}
