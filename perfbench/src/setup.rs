//! Shared set-up: generate a seeded trace and train the DS1 champion the
//! way `repro train` does, timing each public call from outside.

use mlkit::gbdt::Gbdt;
use mlkit::hist::TrainMode;
use obskit::{Clock, Recorder};
use sbepred::datasets::DsSplit;
use sbepred::features::{FeatureExtractor, FeatureSpec};
use sbepred::samples::build_samples;
use sbepred::twostage::{prepare_with_extractor, run_classifier_observed};
use std::collections::BTreeMap;
use std::time::Instant;
use streamd::artifact::{PipelineArtifact, PipelineModel};
use titan_sim::config::SimConfig;
use titan_sim::trace::TraceSet;

pub type BoxResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Wall time for the one library call that takes a clock
/// (`run_classifier_observed` measures its `fit` with it).
pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Seconds spent in each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `titan_sim::engine::generate`.
    pub generate_s: f64,
    /// `build_samples` + `FeatureExtractor::new` + `prepare_with_extractor`.
    pub prepare_s: f64,
    /// The champion's `Gbdt::fit`.
    pub fit_s: f64,
    /// Training throughput: training rows × trees per second of fit.
    pub fit_rate: f64,
    /// Wall time of the whole set-up.
    pub total_s: f64,
}

/// The `repro train` GBDT: 120 trees of depth 5.
pub const N_TREES: usize = 120;

/// Batch TwoStage result per `(aprun, node)` of the test window:
/// probability and hard decision.
pub type Reference = BTreeMap<(u32, u32), (f32, bool)>;

/// A trained champion and the trace it was trained on.
pub struct Champion {
    pub trace: TraceSet,
    pub artifact: PipelineArtifact,
    /// DS1 `[train_end, test_end)`.
    pub test_window: (u64, u64),
    /// The batch `run_classifier` scores of the test window.
    pub reference: Reference,
    pub times: SetupTimes,
}

/// The benchmark's topology: the 1,600-node scaled machine, `days` long.
pub fn sim_config(seed: u64, days: u32) -> SimConfig {
    SimConfig {
        days,
        ..SimConfig::scaled(seed)
    }
}

/// Generates the trace and fits a DS1 champion on `spec` with the
/// `repro train` hyper-parameters, seeded by `seed`.
pub fn train(seed: u64, days: u32, spec: FeatureSpec) -> BoxResult<Champion> {
    let start = Instant::now();
    let trace = titan_sim::engine::generate(&sim_config(seed, days))?;
    let generate_s = start.elapsed().as_secs_f64();

    let t = Instant::now();
    let samples = build_samples(&trace)?;
    let fx = FeatureExtractor::new(&trace, &samples)?;
    let split = DsSplit::ds1(&trace)?;
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec)?;
    let prepare_s = t.elapsed().as_secs_f64();

    let mut model = Gbdt::new()
        .n_trees(N_TREES)
        .max_depth(5)
        .learning_rate(0.1)
        .min_samples_leaf(20)
        .subsample(0.8)
        .pos_weight(2.0)
        .seed(seed)
        .train_mode(TrainMode::Exact);
    let outcome = run_classifier_observed(
        &prepared,
        &mut model,
        &mut Recorder::null(),
        &WallClock::new(),
    )?;
    let fit_s = outcome.train_time.as_secs_f64();

    let mut reference = Reference::new();
    for (i, s) in outcome.test_samples.iter().enumerate() {
        reference.insert(
            (s.aprun.0, s.node.0),
            (outcome.probabilities[i], outcome.predictions[i] >= 0.5),
        );
    }
    let offenders: Vec<u32> = fx
        .history()
        .offender_nodes_before(split.train_end_min())
        .into_iter()
        .map(|n| n.0)
        .collect();
    let artifact = PipelineArtifact::new(
        spec,
        offenders,
        prepared.scaler.clone(),
        PipelineModel::Gbdt(model),
        split.train_end_min(),
        split.name(),
    );
    let fit_rate = (prepared.train.len() * N_TREES) as f64 / fit_s;
    drop(prepared);
    drop(fx);
    drop(samples);
    Ok(Champion {
        test_window: split.test_window(),
        trace,
        artifact,
        reference,
        times: SetupTimes {
            generate_s,
            prepare_s,
            fit_s,
            fit_rate,
            total_s: start.elapsed().as_secs_f64(),
        },
    })
}

/// The seed of input `i` of a run seeded with `seed` (a splitmix64
/// step, so neighbouring run seeds give unrelated inputs).
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sets up `k` independent inputs of one run: a trace and champion per
/// sub-seed. Returns them with the median set-up times.
pub fn train_set(
    seed: u64,
    days: u32,
    spec: FeatureSpec,
    k: usize,
) -> BoxResult<(Vec<Champion>, SetupTimes)> {
    let mut champions = Vec::with_capacity(k);
    for i in 0..k.max(1) {
        champions.push(train(sub_seed(seed, i), days, spec)?);
    }
    let all: Vec<SetupTimes> = champions.iter().map(|c| c.times).collect();
    let med =
        |f: fn(&SetupTimes) -> f64| crate::stats::median(&all.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        generate_s: med(|t| t.generate_s),
        prepare_s: med(|t| t.prepare_s),
        fit_s: med(|t| t.fit_s),
        fit_rate: med(|t| t.fit_rate),
        total_s: med(|t| t.total_s),
    };
    Ok((champions, times))
}
