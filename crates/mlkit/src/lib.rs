//! `mlkit` — a small, self-contained machine-learning library.
//!
//! This crate is the ML substrate for the DSN 2018 GPU-error-prediction
//! reproduction. It provides, from scratch and with no external ML
//! dependencies:
//!
//! * a row-major [`Matrix`](matrix::Matrix) and a labelled
//!   [`Dataset`](dataset::Dataset),
//! * binary classifiers behind the common [`Classifier`](model::Classifier)
//!   trait: [`LogisticRegression`](linear::LogisticRegression),
//!   [`Gbdt`](gbdt::Gbdt) (gradient-boosted decision trees),
//!   [`SvmRbf`](svm::SvmRbf) (SMO with an RBF kernel), and
//!   [`MlpClassifier`](nn::MlpClassifier), each trained by one
//!   [`fit`](model::Classifier::fit) that records its training loop into
//!   an [`obskit::Recorder`],
//! * evaluation [`metrics`] (precision, recall, F1, confusion matrices),
//! * stratified [`crossval`]idation,
//! * class-imbalance [`sampling`] utilities (random over/under-sampling,
//!   SMOTE, k-means-based under-sampling),
//! * descriptive [`stats`] (Spearman/Pearson correlation, percentiles,
//!   histograms, empirical CDFs),
//! * a standardising [`scaler`] and [`kmeans`] clustering.
//!
//! # Example
//!
//! ```
//! use mlkit::dataset::Dataset;
//! use mlkit::linear::LogisticRegression;
//! use mlkit::model::Classifier;
//!
//! // Tiny linearly separable problem: y = 1 iff x0 + x1 > 1.
//! let x = vec![
//!     vec![0.0, 0.0], vec![0.2, 0.1], vec![0.9, 0.8], vec![1.0, 1.0],
//!     vec![0.1, 0.3], vec![0.8, 0.9], vec![0.0, 0.4], vec![1.2, 0.7],
//! ];
//! let y = vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0];
//! let ds = Dataset::from_rows(&x, &y)?;
//! let mut model = LogisticRegression::new().learning_rate(1.0).epochs(300);
//! model.fit(&ds, &mut obskit::Recorder::null())?;
//! let yhat = model.predict(&ds)?;
//! assert_eq!(yhat, vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
//! # Ok::<(), mlkit::MlError>(())
//! ```

pub mod artifact;
pub mod crossval;
pub mod dataset;
pub mod fastpath;
pub mod gbdt;
pub mod hash;
pub mod hist;
pub mod kmeans;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod nn;
pub mod sampling;
pub mod scaler;
pub mod stats;
pub mod svm;
pub mod tree;

mod error;

pub use error::MlError;

/// Crate-wide `Result` alias using [`MlError`].
pub type Result<T> = std::result::Result<T, MlError>;
