//! Feature scaling: standardisation (z-score).
//!
//! LR, SVM, and NN training are all sensitive to feature scale; the
//! prediction pipeline standardises features using statistics computed on
//! the *training* split only.

use crate::dataset::Dataset;
use crate::matrix::Matrix;
use crate::{MlError, Result};
use serde::{Deserialize, Serialize};

/// Z-score standardiser: `(x - mean) / std` per feature.
///
/// Constant features (std = 0) are mapped to 0 rather than NaN.
///
/// # Example
///
/// ```
/// use mlkit::dataset::Dataset;
/// use mlkit::scaler::StandardScaler;
///
/// let train = Dataset::from_rows(&[vec![0.0], vec![2.0]], &[0.0, 1.0])?;
/// let scaler = StandardScaler::fit(&train)?;
/// let scaled = scaler.transform(&train)?;
/// assert_eq!(scaled.x().col(0), vec![-1.0, 1.0]);
/// # Ok::<(), mlkit::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl StandardScaler {
    /// Computes per-feature means and standard deviations on `train`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] when `train` has no samples.
    pub fn fit(train: &Dataset) -> Result<StandardScaler> {
        if train.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let n = train.len() as f64;
        let d = train.n_features();
        let mut means = vec![0.0f64; d];
        let mut sq = vec![0.0f64; d];
        for row in train.x().rows_iter() {
            for (j, &v) in row.iter().enumerate() {
                means[j] += v as f64;
                sq[j] += (v as f64) * (v as f64);
            }
        }
        for j in 0..d {
            means[j] /= n;
            sq[j] = (sq[j] / n - means[j] * means[j]).max(0.0).sqrt();
        }
        Ok(StandardScaler {
            means: means.iter().map(|&m| m as f32).collect(),
            stds: sq.iter().map(|&s| s as f32).collect(),
        })
    }

    /// Per-feature means observed at fit time.
    pub fn means(&self) -> &[f32] {
        &self.means
    }

    /// Per-feature standard deviations observed at fit time.
    pub fn stds(&self) -> &[f32] {
        &self.stds
    }

    /// Applies the learned transform to a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when feature counts differ.
    pub fn transform(&self, data: &Dataset) -> Result<Dataset> {
        if data.n_features() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} features", self.means.len()),
                found: format!("{} features", data.n_features()),
            });
        }
        let mut out = Matrix::zeros(data.len(), data.n_features());
        for (i, row) in data.x().rows_iter().enumerate() {
            self.transform_row(out.row_mut(i), row)?;
        }
        Dataset::new(out, data.y().to_vec())?.with_feature_names(data.feature_names().to_vec())
    }

    /// Applies the learned transform to one feature row, writing into
    /// `out`. This is the per-element kernel [`StandardScaler::transform`]
    /// uses, exposed so streaming scorers standardise single rows with
    /// bit-identical arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when either slice length
    /// differs from the fitted feature count.
    pub fn transform_row(&self, out: &mut [f32], row: &[f32]) -> Result<()> {
        if row.len() != self.means.len() || out.len() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                // detlint: allow(D007) reason=cold dimension-mismatch error path; never taken on a validated hot path
                expected: format!("{} features", self.means.len()),
                // detlint: allow(D007) reason=cold dimension-mismatch error path; never taken on a validated hot path
                found: format!("{} in / {} out", row.len(), out.len()),
            });
        }
        // Lockstep iterators: lengths are equal by the check above, so
        // the zip is exhaustive and index-free (no panic sites on the
        // serving hot path).
        for (((o, &v), &m), &s) in out
            .iter_mut()
            .zip(row.iter())
            .zip(self.means.iter())
            .zip(self.stds.iter())
        {
            *o = if s > 0.0 { (v - m) / s } else { 0.0 };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(rows: &[Vec<f32>]) -> Dataset {
        let y = vec![0.0; rows.len()];
        Dataset::from_rows(rows, &y).unwrap()
    }

    #[test]
    fn standard_scaler_zero_mean_unit_std() {
        let train = ds(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]);
        let sc = StandardScaler::fit(&train).unwrap();
        let t = sc.transform(&train).unwrap();
        for j in 0..2 {
            let col = t.x().col(j);
            let m: f32 = col.iter().sum::<f32>() / col.len() as f32;
            assert!(m.abs() < 1e-6);
            let var: f32 = col.iter().map(|v| v * v).sum::<f32>() / col.len() as f32;
            assert!((var - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn standard_scaler_constant_feature_is_zero() {
        let train = ds(&[vec![7.0], vec![7.0]]);
        let sc = StandardScaler::fit(&train).unwrap();
        let t = sc.transform(&train).unwrap();
        assert_eq!(t.x().col(0), vec![0.0, 0.0]);
    }

    #[test]
    fn standard_scaler_applies_train_stats_to_test() {
        let train = ds(&[vec![0.0], vec![2.0]]);
        let test = ds(&[vec![4.0]]);
        let sc = StandardScaler::fit(&train).unwrap();
        let t = sc.transform(&test).unwrap();
        // mean 1, std 1 -> (4-1)/1 = 3
        assert_eq!(t.x().get(0, 0), 3.0);
    }

    #[test]
    fn scaler_rejects_feature_mismatch() {
        let train = ds(&[vec![0.0], vec![2.0]]);
        let sc = StandardScaler::fit(&train).unwrap();
        let wrong = ds(&[vec![1.0, 2.0]]);
        assert!(sc.transform(&wrong).is_err());
    }

    #[test]
    fn fit_empty_fails() {
        let empty = Dataset::from_rows(&[vec![1.0]], &[0.0])
            .unwrap()
            .select(&[]);
        assert!(StandardScaler::fit(&empty).is_err());
    }
}
