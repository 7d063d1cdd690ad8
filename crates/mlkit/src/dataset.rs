//! Labelled datasets for binary classification.

use crate::matrix::Matrix;
use crate::{MlError, Result};
use serde::{Deserialize, Serialize};

/// A labelled dataset: an `n × d` feature matrix plus `n` binary labels
/// (`0.0` or `1.0`), and optional feature names.
///
/// # Example
///
/// ```
/// use mlkit::dataset::Dataset;
///
/// let ds = Dataset::from_rows(
///     &[vec![1.0, 2.0], vec![3.0, 4.0]],
///     &[0.0, 1.0],
/// )?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.n_features(), 2);
/// assert_eq!(ds.n_positive(), 1);
/// # Ok::<(), mlkit::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    x: Matrix,
    y: Vec<f32>,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Creates a dataset from a feature matrix and labels.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `x.nrows() != y.len()`,
    /// and [`MlError::InvalidParameter`] when any label is not `0.0`/`1.0`.
    pub fn new(x: Matrix, y: Vec<f32>) -> Result<Dataset> {
        if x.nrows() != y.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} labels", x.nrows()),
                found: format!("{} labels", y.len()),
            });
        }
        if let Some(bad) = y.iter().find(|&&v| v != 0.0 && v != 1.0) {
            return Err(MlError::InvalidParameter {
                name: "y",
                reason: format!("labels must be 0.0 or 1.0, found {bad}"),
            });
        }
        let n_features = x.ncols();
        Ok(Dataset {
            x,
            y,
            feature_names: (0..n_features).map(|i| format!("f{i}")).collect(),
        })
    }

    /// Convenience constructor from row vectors.
    ///
    /// # Errors
    ///
    /// Propagates matrix-construction and label-validation errors.
    pub fn from_rows(rows: &[Vec<f32>], y: &[f32]) -> Result<Dataset> {
        Dataset::new(Matrix::from_rows(rows)?, y.to_vec())
    }

    /// Replaces the auto-generated feature names.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the number of names does
    /// not match the number of features.
    pub fn with_feature_names<S: Into<String>>(
        mut self,
        names: impl IntoIterator<Item = S>,
    ) -> Result<Dataset> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        if names.len() != self.x.ncols() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} names", self.x.ncols()),
                found: format!("{} names", names.len()),
            });
        }
        self.feature_names = names;
        Ok(self)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features (columns).
    pub fn n_features(&self) -> usize {
        self.x.ncols()
    }

    /// The feature matrix.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The label vector.
    pub fn y(&self) -> &[f32] {
        &self.y
    }

    /// The feature names (defaults to `f0..fN`).
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of positive (`1.0`) samples.
    pub fn n_positive(&self) -> usize {
        self.y.iter().filter(|&&v| v == 1.0).count()
    }

    /// Number of negative (`0.0`) samples.
    pub fn n_negative(&self) -> usize {
        self.len() - self.n_positive()
    }

    /// Ratio of negative to positive samples; `f64::INFINITY` when there are
    /// no positives.
    pub fn imbalance_ratio(&self) -> f64 {
        let p = self.n_positive();
        if p == 0 {
            f64::INFINITY
        } else {
            self.n_negative() as f64 / p as f64
        }
    }

    /// Selects a subset of samples by index into a new dataset.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            feature_names: self.feature_names.clone(),
        }
    }

    /// Returns indices of positive and negative samples.
    pub fn class_indices(&self) -> (Vec<usize>, Vec<usize>) {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for (i, &v) in self.y.iter().enumerate() {
            if v == 1.0 {
                pos.push(i);
            } else {
                neg.push(i);
            }
        }
        (pos, neg)
    }

    /// Concatenates two datasets with identical feature counts.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when feature counts differ.
    pub fn concat(&self, other: &Dataset) -> Result<Dataset> {
        Ok(Dataset {
            x: self.x.vstack(&other.x)?,
            y: self.y.iter().chain(other.y.iter()).copied().collect(),
            feature_names: self.feature_names.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::from_rows(
            &[
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![2.0, 2.0],
                vec![3.0, 1.0],
            ],
            &[0.0, 1.0, 0.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates_labels() {
        let bad = Dataset::from_rows(&[vec![1.0]], &[0.5]);
        assert!(matches!(bad, Err(MlError::InvalidParameter { .. })));
    }

    #[test]
    fn constructor_validates_lengths() {
        let x = Matrix::zeros(2, 1);
        assert!(matches!(
            Dataset::new(x, vec![0.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn class_counts() {
        let ds = toy();
        assert_eq!(ds.n_positive(), 2);
        assert_eq!(ds.n_negative(), 2);
        assert_eq!(ds.imbalance_ratio(), 1.0);
    }

    #[test]
    fn imbalance_infinite_without_positives() {
        let ds = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[0.0, 0.0]).unwrap();
        assert!(ds.imbalance_ratio().is_infinite());
    }

    #[test]
    fn select_preserves_pairs() {
        let ds = toy();
        let s = ds.select(&[3, 0]);
        assert_eq!(s.y(), &[1.0, 0.0]);
        assert_eq!(s.x().row(0), &[3.0, 1.0]);
    }

    #[test]
    fn concat_appends() {
        let ds = toy();
        let all = ds.concat(&ds).unwrap();
        assert_eq!(all.len(), 8);
        assert_eq!(all.n_positive(), 4);
    }

    #[test]
    fn feature_name_count_checked() {
        assert!(toy().with_feature_names(["only-one"]).is_err());
    }
}
