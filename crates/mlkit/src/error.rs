use std::fmt;

/// Errors produced by `mlkit` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlError {
    /// Matrix/vector dimensions do not agree for the requested operation.
    DimensionMismatch {
        /// What was expected (e.g. "4 columns").
        expected: String,
        /// What was found.
        found: String,
    },
    /// A dataset is empty or otherwise unusable for the requested operation.
    EmptyDataset,
    /// The model has not been fitted yet.
    NotFitted,
    /// An invalid hyper-parameter value was supplied.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// Training data contained only a single class where two are required.
    SingleClass,
    /// A numeric operation produced a non-finite value.
    NumericalError(String),
    /// An input that must be ordered (sorted, ranked or compared)
    /// contains a NaN, which has no place in that order.
    NanInput {
        /// Name of the offending input.
        name: &'static str,
    },
    /// A model artifact is structurally damaged: truncated, wrong magic,
    /// bad checksum, or an undecodable payload.
    ArtifactCorrupt {
        /// What was damaged.
        reason: String,
    },
    /// A model artifact was written by an incompatible format version.
    ArtifactVersionMismatch {
        /// Version found in the artifact header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A model artifact declares a different kind than the caller expects
    /// (e.g. loading a forecast model as a classifier pipeline).
    ArtifactKindMismatch {
        /// Kind the caller expected.
        expected: String,
        /// Kind found in the artifact header.
        found: String,
    },
    /// A model artifact's feature schema does not match the schema the
    /// running code would produce — scoring it would silently misalign
    /// features.
    ArtifactSchemaMismatch {
        /// Schema hash the running code expects.
        expected: u64,
        /// Schema hash found in the artifact header.
        found: u64,
    },
    /// A model artifact's lineage header is inconsistent with the
    /// succession chain it claims membership in: wrong parent checksum,
    /// a generation regression, or an inverted training window.
    ArtifactLineage {
        /// What broke the succession invariant.
        reason: String,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            MlError::EmptyDataset => write!(f, "dataset is empty"),
            MlError::NotFitted => write!(f, "model has not been fitted"),
            MlError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            MlError::SingleClass => {
                write!(f, "training data contains a single class; two are required")
            }
            MlError::NumericalError(msg) => write!(f, "numerical error: {msg}"),
            MlError::NanInput { name } => write!(f, "input `{name}` contains NaN"),
            MlError::ArtifactCorrupt { reason } => {
                write!(f, "artifact corrupt: {reason}")
            }
            MlError::ArtifactVersionMismatch { found, supported } => {
                write!(
                    f,
                    "artifact format version {found} not supported (this build reads version {supported})"
                )
            }
            MlError::ArtifactKindMismatch { expected, found } => {
                write!(
                    f,
                    "artifact kind mismatch: expected `{expected}`, found `{found}`"
                )
            }
            MlError::ArtifactSchemaMismatch { expected, found } => {
                write!(
                    f,
                    "artifact feature-schema mismatch: expected {expected:#018x}, found {found:#018x}"
                )
            }
            MlError::ArtifactLineage { reason } => {
                write!(f, "artifact lineage invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = MlError::DimensionMismatch {
            expected: "3 columns".into(),
            found: "2 columns".into(),
        };
        let s = e.to_string();
        assert!(s.contains("expected 3 columns"));
        assert!(s.starts_with("dimension mismatch"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlError>();
    }
}
