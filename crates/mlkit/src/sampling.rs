//! Class-imbalance mitigation strategies.
//!
//! The paper (§VI-B) surveys the standard remedies before proposing its
//! TwoStage filter: over-sampling the minority class (synthetically, as in
//! SMOTE), and under-sampling the majority class (randomly, or guided by
//! k-means clustering). All three are implemented here so the TwoStage
//! approach can be compared against them in ablation benches.

use crate::dataset::Dataset;
use crate::kmeans::kmeans;
use crate::matrix::Matrix;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Randomly under-samples the majority (negative) class until the
/// negative:positive ratio is at most `max_ratio`.
///
/// # Errors
///
/// Returns [`MlError::InvalidParameter`] for a non-positive ratio and
/// [`MlError::SingleClass`] when a class is absent.
pub fn random_undersample(ds: &Dataset, max_ratio: f64, seed: u64) -> Result<Dataset> {
    if max_ratio <= 0.0 {
        return Err(MlError::InvalidParameter {
            name: "max_ratio",
            reason: format!("must be positive, got {max_ratio}"),
        });
    }
    let (pos, mut neg) = ds.class_indices();
    if pos.is_empty() || neg.is_empty() {
        return Err(MlError::SingleClass);
    }
    let keep_neg = ((pos.len() as f64 * max_ratio).round() as usize).clamp(1, neg.len());
    let mut rng = StdRng::seed_from_u64(seed);
    neg.shuffle(&mut rng);
    neg.truncate(keep_neg);
    let mut idx = pos;
    idx.extend_from_slice(&neg);
    idx.shuffle(&mut rng);
    Ok(ds.select(&idx))
}

/// Randomly over-samples the minority (positive) class *with replacement*
/// until the negative:positive ratio is at most `max_ratio`.
///
/// # Errors
///
/// Same conditions as [`random_undersample`].
pub fn random_oversample(ds: &Dataset, max_ratio: f64, seed: u64) -> Result<Dataset> {
    if max_ratio <= 0.0 {
        return Err(MlError::InvalidParameter {
            name: "max_ratio",
            reason: format!("must be positive, got {max_ratio}"),
        });
    }
    let (pos, neg) = ds.class_indices();
    if pos.is_empty() || neg.is_empty() {
        return Err(MlError::SingleClass);
    }
    let want_pos = ((neg.len() as f64 / max_ratio).ceil() as usize).max(pos.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = neg;
    idx.extend_from_slice(&pos);
    for _ in pos.len()..want_pos {
        idx.push(pos[rng.gen_range(0..pos.len())]);
    }
    idx.shuffle(&mut rng);
    Ok(ds.select(&idx))
}

/// SMOTE: synthetic minority over-sampling (Chawla et al., the paper's
/// reference \[18\]).
///
/// For each synthetic sample, a random minority point is interpolated
/// toward one of its `k` nearest minority neighbours at a random fraction.
/// Generates enough synthetic positives to bring the negative:positive
/// ratio down to `max_ratio`.
///
/// # Errors
///
/// Returns [`MlError::SingleClass`] when a class is absent,
/// [`MlError::InvalidParameter`] for bad `k`/`max_ratio`, and
/// [`MlError::NanInput`] when the distance between two minority rows is
/// NaN (a NaN feature, or infinities of one sign in the same column).
pub fn smote(ds: &Dataset, max_ratio: f64, k: usize, seed: u64) -> Result<Dataset> {
    if max_ratio <= 0.0 {
        return Err(MlError::InvalidParameter {
            name: "max_ratio",
            reason: format!("must be positive, got {max_ratio}"),
        });
    }
    if k == 0 {
        return Err(MlError::InvalidParameter {
            name: "k",
            reason: "must be > 0".into(),
        });
    }
    let (pos, neg) = ds.class_indices();
    if pos.is_empty() || neg.is_empty() {
        return Err(MlError::SingleClass);
    }
    let want_pos = (neg.len() as f64 / max_ratio).ceil() as usize;
    let n_synth = want_pos.saturating_sub(pos.len());
    if n_synth == 0 {
        return Ok(ds.clone());
    }

    // Pre-compute k nearest minority neighbours for each minority point.
    let k_eff = k.min(pos.len().saturating_sub(1)).max(1);
    let mut neighbours: Vec<Vec<usize>> = Vec::with_capacity(pos.len());
    for (a, &ia) in pos.iter().enumerate() {
        let mut d: Vec<(f32, usize)> = pos
            .iter()
            .enumerate()
            .filter(|&(b2, _)| b2 != a)
            .map(|(b2, &ib)| (crate::matrix::sq_dist(ds.x().row(ia), ds.x().row(ib)), b2))
            .collect();
        if d.iter().any(|(dist, _)| dist.is_nan()) {
            return Err(MlError::NanInput { name: "ds" });
        }
        d.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
        neighbours.push(d.into_iter().take(k_eff).map(|(_, b2)| b2).collect());
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let d = ds.n_features();
    let mut synth = Matrix::zeros(n_synth, d);
    for s in 0..n_synth {
        let a = rng.gen_range(0..pos.len());
        let nb_list = &neighbours[a];
        let b = if nb_list.is_empty() {
            a
        } else {
            nb_list[rng.gen_range(0..nb_list.len())]
        };
        let frac: f32 = rng.gen();
        let ra = ds.x().row(pos[a]);
        let rb = ds.x().row(pos[b]);
        let srow = synth.row_mut(s);
        for j in 0..d {
            srow[j] = ra[j] + frac * (rb[j] - ra[j]);
        }
    }
    let synth_ds =
        Dataset::new(synth, vec![1.0; n_synth])?.with_feature_names(ds.feature_names().to_vec())?;
    let mut out = ds.concat(&synth_ds)?;
    // Shuffle so downstream mini-batch training sees mixed classes.
    let mut idx: Vec<usize> = (0..out.len()).collect();
    idx.shuffle(&mut rng);
    out = out.select(&idx);
    Ok(out)
}

/// K-means-guided under-sampling (the paper's reference \[20\]): clusters the
/// majority class into `want_neg` clusters and keeps one representative
/// (the sample closest to each centroid), preserving the majority class's
/// diversity better than random dropping.
///
/// # Errors
///
/// Returns [`MlError::SingleClass`] when a class is absent and
/// [`MlError::InvalidParameter`] for a non-positive ratio.
pub fn kmeans_undersample(ds: &Dataset, max_ratio: f64, seed: u64) -> Result<Dataset> {
    if max_ratio <= 0.0 {
        return Err(MlError::InvalidParameter {
            name: "max_ratio",
            reason: format!("must be positive, got {max_ratio}"),
        });
    }
    let (pos, neg) = ds.class_indices();
    if pos.is_empty() || neg.is_empty() {
        return Err(MlError::SingleClass);
    }
    let want_neg = ((pos.len() as f64 * max_ratio).round() as usize).clamp(1, neg.len());
    if want_neg == neg.len() {
        return Ok(ds.clone());
    }
    let neg_x = ds.x().select_rows(&neg);
    let fit = kmeans(&neg_x, want_neg, 30, seed)?;
    // Pick the member closest to each centroid.
    let mut reps: Vec<usize> = Vec::with_capacity(want_neg);
    for c in 0..want_neg {
        let mut best: Option<(f32, usize)> = None;
        for (local, &global) in neg.iter().enumerate() {
            if fit.assignments[local] != c {
                continue;
            }
            let dd = crate::matrix::sq_dist(neg_x.row(local), fit.centroids.row(c));
            if best.is_none_or(|(bd, _)| dd < bd) {
                best = Some((dd, global));
            }
        }
        if let Some((_, g)) = best {
            reps.push(g);
        }
    }
    let mut idx = pos;
    idx.extend_from_slice(&reps);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    idx.shuffle(&mut rng);
    Ok(ds.select(&idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5 positives and 50 negatives.
    fn imbalanced() -> Dataset {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..5 {
            rows.push(vec![10.0 + i as f32 * 0.1, 10.0]);
            y.push(1.0);
        }
        for i in 0..50 {
            rows.push(vec![(i % 10) as f32, (i / 10) as f32]);
            y.push(0.0);
        }
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn undersample_hits_target_ratio() {
        let ds = imbalanced();
        let out = random_undersample(&ds, 2.0, 1).unwrap();
        assert_eq!(out.n_positive(), 5);
        assert_eq!(out.n_negative(), 10);
    }

    #[test]
    fn undersample_never_drops_positives() {
        let ds = imbalanced();
        let out = random_undersample(&ds, 0.5, 1).unwrap();
        assert_eq!(out.n_positive(), 5);
        assert!(out.n_negative() <= 3);
    }

    #[test]
    fn oversample_hits_target_ratio() {
        let ds = imbalanced();
        let out = random_oversample(&ds, 2.0, 1).unwrap();
        assert_eq!(out.n_negative(), 50);
        assert!(out.n_positive() >= 25);
    }

    #[test]
    fn smote_rejects_a_nan_minority_feature() {
        let ds = imbalanced();
        let mut rows: Vec<Vec<f32>> = ds.x().rows_iter().map(<[f32]>::to_vec).collect();
        rows[2][1] = f32::NAN;
        let with_nan = Dataset::from_rows(&rows, ds.y()).unwrap();
        assert!(matches!(
            smote(&with_nan, 2.0, 3, 1),
            Err(MlError::NanInput { name: "ds" })
        ));
        // Neighbours are searched among positives only, so a NaN in a
        // negative row does not stop SMOTE.
        let mut rows: Vec<Vec<f32>> = ds.x().rows_iter().map(<[f32]>::to_vec).collect();
        rows[20][0] = f32::NAN;
        let neg_nan = Dataset::from_rows(&rows, ds.y()).unwrap();
        assert_eq!(
            smote(&neg_nan, 2.0, 3, 1).unwrap().n_positive(),
            smote(&ds, 2.0, 3, 1).unwrap().n_positive()
        );
    }

    #[test]
    fn smote_generates_interpolated_positives() {
        let ds = imbalanced();
        let out = smote(&ds, 2.0, 3, 1).unwrap();
        assert_eq!(out.n_negative(), 50);
        assert!(out.n_positive() >= 25);
        // Synthetic positives lie within the convex hull of the originals:
        // x0 in [10.0, 10.4], x1 == 10.0.
        for (i, row) in out.x().rows_iter().enumerate() {
            if out.y()[i] == 1.0 {
                assert!((10.0..=10.4).contains(&row[0]), "x0 {}", row[0]);
                assert!((row[1] - 10.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn smote_noop_when_ratio_met() {
        let ds = imbalanced();
        let out = smote(&ds, 100.0, 3, 1).unwrap();
        assert_eq!(out.len(), ds.len());
    }

    #[test]
    fn kmeans_undersample_hits_target_and_keeps_positives() {
        let ds = imbalanced();
        let out = kmeans_undersample(&ds, 2.0, 1).unwrap();
        assert_eq!(out.n_positive(), 5);
        assert!(out.n_negative() <= 10);
        assert!(out.n_negative() >= 5); // most clusters non-empty
    }

    #[test]
    fn all_reject_single_class() {
        let ds = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[0.0, 0.0]).unwrap();
        assert!(random_undersample(&ds, 1.0, 1).is_err());
        assert!(random_oversample(&ds, 1.0, 1).is_err());
        assert!(smote(&ds, 1.0, 3, 1).is_err());
        assert!(kmeans_undersample(&ds, 1.0, 1).is_err());
    }

    #[test]
    fn all_reject_bad_ratio() {
        let ds = imbalanced();
        assert!(random_undersample(&ds, 0.0, 1).is_err());
        assert!(random_oversample(&ds, -1.0, 1).is_err());
        assert!(smote(&ds, 0.0, 3, 1).is_err());
        assert!(kmeans_undersample(&ds, 0.0, 1).is_err());
    }

    #[test]
    fn smote_rejects_zero_k() {
        let ds = imbalanced();
        assert!(smote(&ds, 2.0, 0, 1).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = imbalanced();
        let a = random_undersample(&ds, 2.0, 9).unwrap();
        let b = random_undersample(&ds, 2.0, 9).unwrap();
        assert_eq!(a.y(), b.y());
        assert_eq!(a.x().as_slice(), b.x().as_slice());
    }
}
