//! Artifact corruption suite: every way a shipped model file can be
//! damaged must surface as a *typed* error — never a panic, never a
//! silently misloaded pipeline.

use mlkit::artifact::{Envelope, FORMAT_VERSION};
use mlkit::dataset::Dataset;
use mlkit::linear::LogisticRegression;
use mlkit::model::Classifier;
use mlkit::scaler::StandardScaler;
use mlkit::MlError;
use sbepred::features::FeatureSpec;
use streamd::artifact::{feature_schema_hash, PipelineArtifact, PipelineModel, PIPELINE_KIND};
use streamd::StreamError;

fn shipped_bytes() -> Vec<u8> {
    let rows = vec![
        vec![0.0f32, 1.0],
        vec![1.0, 0.0],
        vec![0.5, 0.5],
        vec![0.9, 0.1],
    ];
    let y = vec![0.0, 1.0, 0.0, 1.0];
    let ds = Dataset::from_rows(&rows, &y).expect("dataset");
    let scaler = StandardScaler::fit(&ds).expect("scaler");
    let scaled = scaler.transform(&ds).expect("transform");
    let mut lr = LogisticRegression::new().epochs(50);
    lr.fit(&scaled, &mut obskit::Recorder::null()).expect("fit");
    PipelineArtifact::new(
        FeatureSpec::all(),
        vec![3, 7],
        scaler,
        PipelineModel::Logistic(lr),
        1_000,
        "DS1",
    )
    .to_bytes()
    .expect("encode")
}

#[test]
fn every_truncation_is_a_typed_error_not_a_panic() {
    let bytes = shipped_bytes();
    for len in 0..bytes.len() {
        let err = PipelineArtifact::from_bytes(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes decoded successfully"));
        // Any truncation surfaces through the envelope layer (corrupt /
        // checksum) — before that, possibly as a version stub; all typed.
        assert!(
            matches!(err, StreamError::Ml(_)),
            "truncation to {len} gave unexpected error class: {err}"
        );
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = shipped_bytes();
    bytes[0] ^= 0xff;
    let err = PipelineArtifact::from_bytes(&bytes).expect_err("must reject");
    assert!(
        matches!(err, StreamError::Ml(MlError::ArtifactCorrupt { .. })),
        "got {err}"
    );
}

#[test]
fn future_format_version_is_rejected() {
    let mut bytes = shipped_bytes();
    // Version field sits right after the 8-byte magic.
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let err = PipelineArtifact::from_bytes(&bytes).expect_err("must reject");
    match err {
        StreamError::Ml(MlError::ArtifactVersionMismatch { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected version mismatch, got {other}"),
    }
}

#[test]
fn stale_schema_hash_is_rejected() {
    let mut bytes = shipped_bytes();
    // Schema-hash field follows magic + version; flipping a bit simulates
    // an artifact whose feature schema drifted from the running build.
    bytes[12] ^= 0x01;
    let err = PipelineArtifact::from_bytes(&bytes).expect_err("must reject");
    assert!(
        matches!(err, StreamError::Ml(MlError::ArtifactSchemaMismatch { .. })),
        "got {err}"
    );
}

#[test]
fn payload_bit_flip_fails_the_checksum() {
    let mut bytes = shipped_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let err = PipelineArtifact::from_bytes(&bytes).expect_err("must reject");
    assert!(
        matches!(err, StreamError::Ml(MlError::ArtifactCorrupt { .. })),
        "got {err}"
    );
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = shipped_bytes();
    bytes.extend_from_slice(b"extra");
    let err = PipelineArtifact::from_bytes(&bytes).expect_err("must reject");
    assert!(
        matches!(err, StreamError::Ml(MlError::ArtifactCorrupt { .. })),
        "got {err}"
    );
}

#[test]
fn foreign_artifact_kind_is_rejected() {
    let payload = b"{}".to_vec();
    let bytes = Envelope::new("tscast/forecaster", 0, payload)
        .encode()
        .expect("encode");
    let err = PipelineArtifact::from_bytes(&bytes).expect_err("must reject");
    match err {
        StreamError::Ml(MlError::ArtifactKindMismatch { expected, found }) => {
            assert_eq!(expected, PIPELINE_KIND);
            assert_eq!(found, "tscast/forecaster");
        }
        other => panic!("expected kind mismatch, got {other}"),
    }
}

#[test]
fn valid_envelope_with_undecodable_payload_is_a_payload_error() {
    let hash = feature_schema_hash(&FeatureSpec::all());
    let bytes = Envelope::new(PIPELINE_KIND, hash, b"not json at all".to_vec())
        .encode()
        .expect("encode");
    let err = PipelineArtifact::from_bytes(&bytes).expect_err("must reject");
    assert!(matches!(err, StreamError::Payload { .. }), "got {err}");
}
