//! Binary-classification evaluation metrics.
//!
//! The paper evaluates with precision, recall, and the F1 score (their
//! Eqs. 2–4), reported separately for the SBE (positive) and non-SBE
//! (negative) classes. [`ConfusionMatrix`] captures all of those.

use crate::{MlError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 2×2 confusion matrix for binary classification.
///
/// # Example
///
/// ```
/// use mlkit::metrics::ConfusionMatrix;
///
/// let truth = [1.0, 1.0, 0.0, 0.0, 1.0];
/// let pred  = [1.0, 0.0, 0.0, 1.0, 1.0];
/// let cm = ConfusionMatrix::from_predictions(&truth, &pred)?;
/// assert_eq!(cm.tp(), 2);
/// assert_eq!(cm.fn_(), 1);
/// assert!((cm.precision() - 2.0 / 3.0).abs() < 1e-9);
/// # Ok::<(), mlkit::MlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    tp: u64,
    fp: u64,
    tn: u64,
    fn_: u64,
}

impl ConfusionMatrix {
    /// Builds a confusion matrix from ground-truth and predicted labels
    /// (`0.0`/`1.0` each).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when lengths differ and
    /// [`MlError::InvalidParameter`] for non-binary values.
    pub fn from_predictions(truth: &[f32], pred: &[f32]) -> Result<ConfusionMatrix> {
        if truth.len() != pred.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} predictions", truth.len()),
                found: format!("{} predictions", pred.len()),
            });
        }
        let mut cm = ConfusionMatrix::default();
        for (&t, &p) in truth.iter().zip(pred) {
            if (t != 0.0 && t != 1.0) || (p != 0.0 && p != 1.0) {
                return Err(MlError::InvalidParameter {
                    name: "labels",
                    reason: format!("labels must be 0.0 or 1.0, found truth={t} pred={p}"),
                });
            }
            match (t == 1.0, p == 1.0) {
                (true, true) => cm.tp += 1,
                (true, false) => cm.fn_ += 1,
                (false, true) => cm.fp += 1,
                (false, false) => cm.tn += 1,
            }
        }
        Ok(cm)
    }

    /// True positives.
    pub fn tp(&self) -> u64 {
        self.tp
    }

    /// False positives.
    pub fn fp(&self) -> u64 {
        self.fp
    }

    /// True negatives.
    pub fn tn(&self) -> u64 {
        self.tn
    }

    /// False negatives.
    pub fn fn_(&self) -> u64 {
        self.fn_
    }

    /// Total number of samples counted.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Precision of the positive class: `TP / (TP + FP)`.
    /// Returns 0.0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall of the positive class: `TP / (TP + FN)`.
    /// Returns 0.0 when there are no positive ground-truth samples.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 score: the harmonic mean of precision and recall (paper Eq. 4).
    /// Returns 0.0 when precision + recall is zero.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Precision of the *negative* class: `TN / (TN + FN)`.
    pub fn precision_negative(&self) -> f64 {
        ratio(self.tn, self.tn + self.fn_)
    }

    /// Recall of the *negative* class: `TN / (TN + FP)`.
    pub fn recall_negative(&self) -> f64 {
        ratio(self.tn, self.tn + self.fp)
    }

    /// Overall accuracy: `(TP + TN) / total`.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// Merges the counts of another confusion matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={} | precision={:.3} recall={:.3} f1={:.3}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.precision(),
            self.recall(),
            self.f1()
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A compact (precision, recall, F1) triple for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Prf {
    /// Positive-class precision.
    pub precision: f64,
    /// Positive-class recall.
    pub recall: f64,
    /// Positive-class F1 score.
    pub f1: f64,
}

impl From<ConfusionMatrix> for Prf {
    fn from(cm: ConfusionMatrix) -> Prf {
        Prf {
            precision: cm.precision(),
            recall: cm.recall(),
            f1: cm.f1(),
        }
    }
}

impl fmt::Display for Prf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P={:.3} R={:.3} F1={:.3}",
            self.precision, self.recall, self.f1
        )
    }
}

/// Area under the ROC curve computed by the rank statistic
/// (equivalent to the Mann–Whitney U estimator). Ties get average rank.
///
/// # Errors
///
/// Returns [`MlError::DimensionMismatch`] when lengths differ,
/// [`MlError::NanInput`] when a score is NaN, or
/// [`MlError::SingleClass`] when only one class is present.
pub fn roc_auc(truth: &[f32], scores: &[f32]) -> Result<f64> {
    if truth.len() != scores.len() {
        return Err(MlError::DimensionMismatch {
            expected: format!("{} scores", truth.len()),
            found: format!("{} scores", scores.len()),
        });
    }
    if scores.iter().any(|s| s.is_nan()) {
        return Err(MlError::NanInput { name: "scores" });
    }
    let n_pos = truth.iter().filter(|&&t| t == 1.0).count();
    let n_neg = truth.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return Err(MlError::SingleClass);
    }
    // Rank all scores (average rank for ties), then apply the U statistic.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = truth
        .iter()
        .zip(&ranks)
        .filter(|(&t, _)| t == 1.0)
        .map(|(_, &r)| r)
        .sum();
    let u = rank_sum_pos - (n_pos as f64) * (n_pos as f64 + 1.0) / 2.0;
    Ok(u / (n_pos as f64 * n_neg as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let y = [1.0, 0.0, 1.0, 0.0];
        let cm = ConfusionMatrix::from_predictions(&y, &y).unwrap();
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.accuracy(), 1.0);
    }

    #[test]
    fn all_wrong_prediction() {
        let truth = [1.0, 0.0];
        let pred = [0.0, 1.0];
        let cm = ConfusionMatrix::from_predictions(&truth, &pred).unwrap();
        assert_eq!(cm.f1(), 0.0);
        assert_eq!(cm.accuracy(), 0.0);
    }

    #[test]
    fn negative_class_metrics() {
        // truth:  1 1 0 0 0 ; pred: 1 0 0 0 1
        let truth = [1.0, 1.0, 0.0, 0.0, 0.0];
        let pred = [1.0, 0.0, 0.0, 0.0, 1.0];
        let cm = ConfusionMatrix::from_predictions(&truth, &pred).unwrap();
        // negatives: tn=2, fn=1, fp=1
        assert!((cm.precision_negative() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall_negative() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_metrics_are_zero_not_nan() {
        let truth = [0.0, 0.0];
        let pred = [0.0, 0.0];
        let cm = ConfusionMatrix::from_predictions(&truth, &pred).unwrap();
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn rejects_non_binary() {
        assert!(ConfusionMatrix::from_predictions(&[0.5], &[1.0]).is_err());
        assert!(ConfusionMatrix::from_predictions(&[1.0], &[2.0]).is_err());
    }

    #[test]
    fn rejects_length_mismatch() {
        assert!(ConfusionMatrix::from_predictions(&[1.0], &[1.0, 0.0]).is_err());
    }

    #[test]
    fn merge_adds_counts() {
        let a = ConfusionMatrix::from_predictions(&[1.0, 0.0], &[1.0, 0.0]).unwrap();
        let mut b = ConfusionMatrix::from_predictions(&[1.0], &[0.0]).unwrap();
        b.merge(&a);
        assert_eq!(b.tp(), 1);
        assert_eq!(b.tn(), 1);
        assert_eq!(b.fn_(), 1);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        // precision 1.0, recall 0.5 -> f1 = 2/3
        let truth = [1.0, 1.0, 0.0];
        let pred = [1.0, 0.0, 0.0];
        let cm = ConfusionMatrix::from_predictions(&truth, &pred).unwrap();
        assert!((cm.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn auc_perfect_and_random() {
        let truth = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(roc_auc(&truth, &[0.1, 0.2, 0.8, 0.9]).unwrap(), 1.0);
        assert_eq!(roc_auc(&truth, &[0.9, 0.8, 0.2, 0.1]).unwrap(), 0.0);
        // All-tied scores give AUC 0.5.
        assert!((roc_auc(&truth, &[0.5, 0.5, 0.5, 0.5]).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_rejects_a_nan_score() {
        assert_eq!(
            roc_auc(&[0.0, 1.0, 0.0, 1.0], &[0.1, f32::NAN, 0.3, 0.9]),
            Err(MlError::NanInput { name: "scores" })
        );
    }

    #[test]
    fn auc_requires_both_classes() {
        assert!(matches!(
            roc_auc(&[1.0, 1.0], &[0.3, 0.4]),
            Err(MlError::SingleClass)
        ));
    }

    #[test]
    fn prf_from_confusion() {
        let truth = [1.0, 1.0, 0.0];
        let pred = [1.0, 0.0, 0.0];
        let prf = Prf::from(ConfusionMatrix::from_predictions(&truth, &pred).unwrap());
        assert_eq!(prf.precision, 1.0);
        assert_eq!(prf.recall, 0.5);
    }
}
