//! The shipped TwoStage pipeline artifact.
//!
//! An artifact bundles everything a scoring daemon needs and nothing it
//! must recompute: the [`FeatureSpec`] the model was trained under, the
//! frozen stage-1 offender-node set, the train-window
//! [`StandardScaler`], and the fitted stage-2 classifier. It serialises
//! through the versioned [`mlkit::artifact`] envelope; the envelope's
//! schema hash is the FNV-1a fingerprint of the spec's *ordered feature
//! names*, so an artifact trained by a build whose feature schema has
//! since drifted is rejected at load time instead of silently misaligning
//! columns.

use crate::{Result, StreamError};
use mlkit::artifact::{Envelope, Lineage};
use mlkit::dataset::Dataset;
use mlkit::fastpath::{CompiledGbdt, CompiledLinear, FeatureFrame};
use mlkit::gbdt::Gbdt;
use mlkit::hash::fnv1a64;
use mlkit::linear::LogisticRegression;
use mlkit::model::Classifier;
use mlkit::scaler::StandardScaler;
use sbepred::features::FeatureSpec;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The artifact kind tag for TwoStage pipelines.
pub const PIPELINE_KIND: &str = "sbepred/twostage";

/// The stage-2 classifier inside an artifact: the serialisable subset of
/// the workspace's model zoo (the paper's deployment-relevant models).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PipelineModel {
    /// Gradient-boosted decision trees — the paper's best model.
    Gbdt(Gbdt),
    /// Logistic regression.
    Logistic(LogisticRegression),
}

impl PipelineModel {
    /// The wrapped classifier's display name.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineModel::Gbdt(m) => m.name(),
            PipelineModel::Logistic(m) => m.name(),
        }
    }

    /// The wrapped classifier's decision threshold.
    pub fn threshold(&self) -> f32 {
        match self {
            PipelineModel::Gbdt(m) => m.threshold(),
            PipelineModel::Logistic(m) => m.threshold(),
        }
    }

    /// Positive-class probabilities for `data`.
    ///
    /// # Errors
    ///
    /// Propagates the classifier's predict errors (not fitted, dimension
    /// mismatch).
    pub fn predict_proba(&self, data: &Dataset) -> Result<Vec<f32>> {
        let p = match self {
            PipelineModel::Gbdt(m) => m.predict_proba(data)?,
            PipelineModel::Logistic(m) => m.predict_proba(data)?,
        };
        Ok(p)
    }

    /// Flattens the wrapped classifier into a [`CompiledScorer`].
    ///
    /// Compilation is a load/serve-time derivation: the artifact wire
    /// format stays the interpreted model, so shipped artifacts are
    /// unaffected and the compiled form can never drift from the model
    /// it was derived from.
    ///
    /// # Errors
    ///
    /// Returns [`mlkit::MlError::NotFitted`] (via [`StreamError::Ml`])
    /// for an unfitted model.
    pub fn compile(&self) -> Result<CompiledScorer> {
        let s = match self {
            PipelineModel::Gbdt(m) => CompiledScorer::Gbdt(Box::new(m.compile()?)),
            PipelineModel::Logistic(m) => CompiledScorer::Logistic(m.compile()?),
        };
        Ok(s)
    }
}

/// The branch-free counterpart of [`PipelineModel`]: flat node arrays
/// (GBDT) or a bare weight vector (LR), scoring a reusable
/// [`FeatureFrame`] without allocating. Probabilities are bit-identical
/// to [`PipelineModel::predict_proba`] on the same rows.
#[derive(Debug, Clone)]
pub enum CompiledScorer {
    /// Flattened gradient-boosted trees (boxed: the node arrays make
    /// this variant much larger than the LR one).
    Gbdt(Box<CompiledGbdt>),
    /// Compiled logistic regression.
    Logistic(CompiledLinear),
}

impl CompiledScorer {
    /// Scores every row of `frame` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`mlkit::MlError::DimensionMismatch`] (via
    /// [`StreamError::Ml`]) on frame-width or output-length mismatch.
    pub fn predict_proba_into(&self, frame: &FeatureFrame, out: &mut [f32]) -> Result<()> {
        match self {
            CompiledScorer::Gbdt(m) => m.predict_proba_into(frame, out)?,
            CompiledScorer::Logistic(m) => m.predict_proba_into(frame, out)?,
        }
        Ok(())
    }
}

/// The FNV-1a fingerprint of a spec's ordered feature names — the value
/// stored in the envelope's schema-hash field.
pub fn feature_schema_hash(spec: &FeatureSpec) -> u64 {
    let mut joined = String::new();
    for name in spec.feature_names() {
        joined.push_str(&name);
        joined.push('\n');
    }
    fnv1a64(joined.as_bytes())
}

/// A trained, shippable TwoStage pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineArtifact {
    spec: FeatureSpec,
    /// Sorted ascending; stage-1 membership is a binary search.
    offenders: Vec<u32>,
    scaler: StandardScaler,
    model: PipelineModel,
    trained_end_min: u64,
    split_name: String,
}

impl PipelineArtifact {
    /// Bundles a trained pipeline. `offenders` is the stage-1 offender
    /// node set frozen at `trained_end_min` (sorted and deduplicated
    /// here).
    pub fn new(
        spec: FeatureSpec,
        mut offenders: Vec<u32>,
        scaler: StandardScaler,
        model: PipelineModel,
        trained_end_min: u64,
        split_name: impl Into<String>,
    ) -> PipelineArtifact {
        offenders.sort_unstable();
        offenders.dedup();
        PipelineArtifact {
            spec,
            offenders,
            scaler,
            model,
            trained_end_min,
            split_name: split_name.into(),
        }
    }

    /// The feature spec the model was trained under.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// The frozen stage-1 offender node set, sorted ascending.
    pub fn offenders(&self) -> &[u32] {
        &self.offenders
    }

    /// Whether stage 1 passes `node` to the classifier.
    pub fn is_offender(&self, node: u32) -> bool {
        self.offenders.binary_search(&node).is_ok()
    }

    /// The train-window feature standardiser.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// The fitted stage-2 classifier.
    pub fn model(&self) -> &PipelineModel {
        &self.model
    }

    /// Compiles the stage-2 classifier for the serve fastpath; see
    /// [`PipelineModel::compile`].
    ///
    /// # Errors
    ///
    /// See [`PipelineModel::compile`].
    pub fn compile(&self) -> Result<CompiledScorer> {
        self.model.compile()
    }

    /// The minute observable history was frozen at for stage 1.
    pub fn trained_end_min(&self) -> u64 {
        self.trained_end_min
    }

    /// The split the pipeline was trained on (`DS1`…).
    pub fn split_name(&self) -> &str {
        &self.split_name
    }

    /// The artifact's feature-schema fingerprint under the *running*
    /// code's [`FeatureSpec::feature_names`].
    pub fn schema_hash(&self) -> u64 {
        feature_schema_hash(&self.spec)
    }

    /// Serialises to envelope bytes with root lineage (a from-scratch
    /// artifact, not a promoted challenger).
    ///
    /// # Errors
    ///
    /// Propagates payload-encoding and envelope errors.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        self.to_bytes_with_lineage(Lineage::root())
    }

    /// Serialises to envelope bytes carrying the given lineage header —
    /// the continual-learning loop's path, recording which champion the
    /// artifact was promoted over and what window it was trained on.
    ///
    /// # Errors
    ///
    /// Propagates payload-encoding and envelope errors.
    pub fn to_bytes_with_lineage(&self, lineage: Lineage) -> Result<Vec<u8>> {
        let payload = serde_json::to_string(self)
            .map_err(|e| StreamError::Payload {
                reason: e.to_string(),
            })?
            .into_bytes();
        let env = Envelope::with_lineage(PIPELINE_KIND, self.schema_hash(), lineage, payload);
        Ok(env.encode()?)
    }

    /// Parses envelope bytes back into an artifact, verifying magic,
    /// format version, checksum, kind, and feature-schema hash. The
    /// lineage header is discarded; use
    /// [`PipelineArtifact::from_bytes_with_lineage`] when succession
    /// matters.
    ///
    /// # Errors
    ///
    /// * [`mlkit::MlError::ArtifactCorrupt`] / `ArtifactVersionMismatch`
    ///   (via [`StreamError::Ml`]) — envelope damage;
    /// * [`mlkit::MlError::ArtifactKindMismatch`] — not a TwoStage
    ///   pipeline;
    /// * [`StreamError::Payload`] — undecodable payload;
    /// * [`mlkit::MlError::ArtifactSchemaMismatch`] — the stored schema
    ///   hash disagrees with what the running code derives from the
    ///   decoded spec (stale artifact or tampered header).
    pub fn from_bytes(bytes: &[u8]) -> Result<PipelineArtifact> {
        Ok(PipelineArtifact::from_bytes_with_lineage(bytes)?.0)
    }

    /// Parses envelope bytes into an artifact plus its lineage header.
    ///
    /// # Errors
    ///
    /// See [`PipelineArtifact::from_bytes`]; additionally
    /// [`mlkit::MlError::ArtifactLineage`] for an inverted training
    /// window.
    pub fn from_bytes_with_lineage(bytes: &[u8]) -> Result<(PipelineArtifact, Lineage)> {
        let env = Envelope::decode(bytes)?;
        if env.kind != PIPELINE_KIND {
            return Err(mlkit::MlError::ArtifactKindMismatch {
                expected: PIPELINE_KIND.to_string(),
                found: env.kind,
            }
            .into());
        }
        let text = std::str::from_utf8(&env.payload).map_err(|e| StreamError::Payload {
            reason: format!("payload is not UTF-8: {e}"),
        })?;
        let mut art: PipelineArtifact =
            serde_json::from_str(text).map_err(|e| StreamError::Payload {
                reason: e.to_string(),
            })?;
        let expected = art.schema_hash();
        if env.schema_hash != expected {
            return Err(mlkit::MlError::ArtifactSchemaMismatch {
                expected,
                found: env.schema_hash,
            }
            .into());
        }
        // Stage-1 membership relies on sortedness; do not trust the wire.
        art.offenders.sort_unstable();
        art.offenders.dedup();
        Ok((art, env.lineage))
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// See [`PipelineArtifact::to_bytes`]; plus [`StreamError::Io`].
    pub fn save(&self, path: &Path) -> Result<()> {
        let bytes = self.to_bytes()?;
        std::fs::write(path, bytes).map_err(|e| StreamError::Io {
            path: path.display().to_string(),
            source: e,
        })
    }

    /// Reads an artifact from `path`.
    ///
    /// # Errors
    ///
    /// See [`PipelineArtifact::from_bytes`]; plus [`StreamError::Io`].
    pub fn load(path: &Path) -> Result<PipelineArtifact> {
        let bytes = std::fs::read(path).map_err(|e| StreamError::Io {
            path: path.display().to_string(),
            source: e,
        })?;
        PipelineArtifact::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_artifact() -> PipelineArtifact {
        let rows = vec![
            vec![0.0f32, 1.0],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.9, 0.1],
        ];
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let ds = Dataset::from_rows(&rows, &y).unwrap();
        let scaler = StandardScaler::fit(&ds).unwrap();
        let scaled = scaler.transform(&ds).unwrap();
        let mut lr = LogisticRegression::new().epochs(50);
        lr.fit(&scaled, &mut obskit::Recorder::null()).unwrap();
        // A 2-feature toy spec: app group off, only location would not
        // give 2 columns — the spec is metadata here, not used to score.
        PipelineArtifact::new(
            FeatureSpec::only_hist(),
            vec![7, 3, 7, 1],
            scaler,
            PipelineModel::Logistic(lr),
            1_000,
            "DS1",
        )
    }

    #[test]
    fn offenders_sorted_and_deduped() {
        let art = toy_artifact();
        assert_eq!(art.offenders(), &[1, 3, 7]);
        assert!(art.is_offender(3));
        assert!(!art.is_offender(4));
    }

    #[test]
    fn bytes_round_trip() {
        let art = toy_artifact();
        let bytes = art.to_bytes().unwrap();
        let back = PipelineArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.offenders(), art.offenders());
        assert_eq!(back.trained_end_min(), art.trained_end_min());
        assert_eq!(back.split_name(), art.split_name());
        assert_eq!(back.spec(), art.spec());
        assert_eq!(back.schema_hash(), art.schema_hash());
        assert_eq!(back.model().name(), "LR");
    }

    #[test]
    fn lineage_round_trips_through_pipeline_bytes() {
        let art = toy_artifact();
        let lin = Lineage::child_of(0x5555_aaaa_5555_aaaa, 2, 1_000, 3_000);
        let bytes = art.to_bytes_with_lineage(lin).unwrap();
        let (back, got) = PipelineArtifact::from_bytes_with_lineage(&bytes).unwrap();
        assert_eq!(got, lin);
        assert_eq!(back.offenders(), art.offenders());
        // The plain decoder accepts the same bytes and drops the header.
        assert!(PipelineArtifact::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn root_lineage_by_default() {
        let art = toy_artifact();
        let (_, lin) = PipelineArtifact::from_bytes_with_lineage(&art.to_bytes().unwrap()).unwrap();
        assert_eq!(lin, Lineage::root());
    }

    #[test]
    fn schema_hash_tracks_feature_names() {
        assert_ne!(
            feature_schema_hash(&FeatureSpec::all()),
            feature_schema_hash(&FeatureSpec::only_hist())
        );
        assert_eq!(
            feature_schema_hash(&FeatureSpec::all()),
            feature_schema_hash(&FeatureSpec::cur_prev_nei())
        );
    }

    #[test]
    fn file_round_trip() {
        let art = toy_artifact();
        let path = std::env::temp_dir().join(format!(
            "streamd-artifact-test-{}.sbemodel",
            std::process::id()
        ));
        art.save(&path).unwrap();
        let back = PipelineArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.offenders(), art.offenders());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = PipelineArtifact::load(Path::new("/nonexistent/nope.sbemodel")).unwrap_err();
        assert!(matches!(err, StreamError::Io { .. }));
    }
}
