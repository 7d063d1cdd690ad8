//! Shared fixture: fast synthetic artifacts for daemon tests.
//!
//! Training a real artifact from a simulated trace takes seconds; the
//! daemon suites only need *an* artifact whose scores are
//! deterministic, so this fits a small GBDT on seeded random rows
//! under the no-telemetry spec (the spec network artifacts ship with,
//! since telemetry does not travel on the wire). The crate's own unit
//! tests include this file too.

use mlkit::dataset::Dataset;
use mlkit::gbdt::Gbdt;
use mlkit::model::Classifier;
use mlkit::scaler::StandardScaler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbepred::features::FeatureSpec;
use streamd::artifact::{PipelineArtifact, PipelineModel};

/// A deterministic synthetic pipeline artifact: no-telemetry spec,
/// 160 seeded random rows, GBDT(12 trees, depth 3). Even node ids are
/// the frozen offender set, so roughly half of all scored rows take
/// the stage-2 path.
pub fn synthetic_artifact() -> PipelineArtifact {
    fitted_artifact(42, 5, 0, "synthetic")
}

/// [`synthetic_artifact`]'s recipe over the rows `rows_seed` draws,
/// with a GBDT seeded `model_seed`: a differently seeded call is a
/// champion's successor with the same schema and offenders.
pub fn fitted_artifact(
    rows_seed: u64,
    model_seed: u64,
    trained_end_min: u64,
    name: &str,
) -> PipelineArtifact {
    let spec = FeatureSpec::no_telemetry();
    let n = spec.n_features();
    let mut rng = StdRng::seed_from_u64(rows_seed);
    let rows: Vec<Vec<f32>> = (0..160)
        .map(|_| (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| {
            if r.iter().sum::<f32>() > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let data = Dataset::from_rows(&rows, &y).expect("fixture dataset");
    let scaler = StandardScaler::fit(&data).expect("fixture scaler");
    let scaled = scaler.transform(&data).expect("fixture transform");
    let mut model = Gbdt::new()
        .n_trees(12)
        .max_depth(3)
        .min_samples_leaf(2)
        .seed(model_seed);
    model
        .fit(&scaled, &mut obskit::Recorder::null())
        .expect("fixture fit");
    let offenders: Vec<u32> = (0..64).step_by(2).collect();
    PipelineArtifact::new(
        spec,
        offenders,
        scaler,
        PipelineModel::Gbdt(model),
        trained_end_min,
        name,
    )
}
