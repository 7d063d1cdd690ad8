//! End-to-end integration: trace generation → characterization →
//! TwoStage learning, asserting the calibration properties DESIGN.md §5
//! promises and the model behaviours the paper reports.

use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::mlkit::linear::LogisticRegression;
use gpu_error_prediction::obskit::Recorder;
use gpu_error_prediction::sbepred::baselines::{evaluate_scheme, BasicScheme};
use gpu_error_prediction::sbepred::datasets::DsSplit;
use gpu_error_prediction::sbepred::experiments::{characterization, prediction, Lab};
use gpu_error_prediction::sbepred::features::FeatureSpec;
use gpu_error_prediction::sbepred::history::SbeHistory;
use gpu_error_prediction::sbepred::samples::{build_samples, in_window};
use gpu_error_prediction::sbepred::twostage::{prepare, run_classifier};
use gpu_error_prediction::titan_sim::config::SimConfig;
use gpu_error_prediction::titan_sim::engine::{generate, generate_full};
use gpu_error_prediction::titan_sim::trace::TraceSet;

// Seed choice: the statistical assertions below (DESIGN.md §5 calibration
// properties) need the DS1 test window to contain SBE-positive samples.
// Under the in-repo RNG streams (vendor/rand, xoshiro256++ — see
// DESIGN.md "Parallel execution & determinism"), seed 3 yields a tiny
// trace whose final 2-day test window happens to hold zero positives,
// making recall/F1 degenerate (0/0). Seed 13 produces a well-populated
// window (20+ positives) while keeping the positive rate in the
// realistic minority band asserted by `positive_rate_is_a_small_minority`.
fn trace() -> TraceSet {
    generate(&SimConfig::tiny(13)).expect("trace generates")
}

#[test]
fn positive_rate_is_a_small_minority() {
    let t = trace();
    let rate = t.positive_rate();
    assert!(rate > 0.001, "positive rate {rate} too low to learn from");
    assert!(rate < 0.2, "positive rate {rate} too high to be realistic");
}

#[test]
fn offender_nodes_are_a_small_subset_dominated_by_weak_gpus() {
    let (t, faults) =
        generate_full(&SimConfig::tiny(3), &mut Recorder::null()).expect("trace generates");
    let offenders = t.offender_nodes();
    let n = t.config().topology.n_nodes() as usize;
    assert!(
        offenders.len() * 3 < n,
        "{} of {n} nodes offend",
        offenders.len()
    );
    // Most offenders are ground-truth weak GPUs.
    let weak_offenders = offenders
        .iter()
        .filter(|&&node| faults.is_weak(node).expect("valid node"))
        .count();
    assert!(
        weak_offenders * 2 >= offenders.len(),
        "{weak_offenders} of {} offenders are weak",
        offenders.len()
    );
}

#[test]
fn error_concentration_on_few_apps() {
    let t = trace();
    let lab = Lab::new(&t).expect("lab builds");
    let out = characterization::fig3(&lab).expect("fig3 runs");
    let top20 = out.json["top20_share"].as_f64().expect("share present");
    assert!(top20 > 0.7, "top-20% apps hold only {top20}");
}

#[test]
fn affected_periods_are_hotter_and_hungrier() {
    let t = trace();
    let lab = Lab::new(&t).expect("lab builds");
    let t6 = characterization::fig6(&lab).expect("fig6 runs");
    assert!(t6.json["shift"].as_f64().expect("shift") > 0.5);
    let t7 = characterization::fig7(&lab).expect("fig7 runs");
    assert!(t7.json["shift"].as_f64().expect("shift") > 3.0);
}

#[test]
fn cumulative_temperature_does_not_predict_offenders() {
    let t = trace();
    let lab = Lab::new(&t).expect("lab builds");
    let out = characterization::fig5(&lab).expect("fig5 runs");
    let rho = out.json["spearman_temp_vs_offenders"]
        .as_f64()
        .expect("rho present");
    assert!(
        rho.abs() < 0.6,
        "spatial temperature correlation {rho} too strong"
    );
}

#[test]
fn basic_a_high_recall_low_precision() {
    let t = trace();
    let samples = build_samples(&t).expect("samples build");
    let history = SbeHistory::build(&t).expect("history builds");
    let split = DsSplit::ds1(&t).expect("split fits");
    let (ts, te) = split.test_window();
    let test = in_window(&samples, ts, te);
    let cm = evaluate_scheme(BasicScheme::A, &history, &split, &test).expect("evaluates");
    assert!(cm.recall() > 0.5, "Basic A recall {}", cm.recall());
    assert!(cm.precision() < 0.8, "Basic A precision {}", cm.precision());
}

#[test]
fn twostage_gbdt_beats_basic_a_on_f1() {
    let t = trace();
    let samples = build_samples(&t).expect("samples build");
    let history = SbeHistory::build(&t).expect("history builds");
    let split = DsSplit::ds1(&t).expect("split fits");
    let (ts, te) = split.test_window();
    let test = in_window(&samples, ts, te);
    let basic = evaluate_scheme(BasicScheme::A, &history, &split, &test).expect("evaluates");

    let prepared = prepare(&t, &split, &FeatureSpec::all()).expect("prepares");
    let mut model = Gbdt::new()
        .n_trees(60)
        .max_depth(5)
        .min_samples_leaf(5)
        .pos_weight(2.0);
    let out = run_classifier(&prepared, &mut model).expect("runs");
    let cm = out.confusion().unwrap();
    assert!(
        cm.f1() > basic.f1(),
        "GBDT F1 {} did not beat Basic A {}",
        cm.f1(),
        basic.f1()
    );
}

#[test]
fn stage2_reduces_training_volume_and_imbalance() {
    let t = trace();
    let split = DsSplit::ds1(&t).expect("split fits");
    let prepared = prepare(&t, &split, &FeatureSpec::all()).expect("prepares");
    assert!(prepared.train.len() * 2 < prepared.train_samples.len());
    assert!(prepared.train.imbalance_ratio() < 25.0);
    // The stage-2 test subset is exactly the offender-node samples.
    assert_eq!(
        prepared.stage2_test_idx.len(),
        prepared.stage2_test_samples.len()
    );
}

#[test]
fn models_share_the_prepared_split() {
    let t = trace();
    let split = DsSplit::ds1(&t).expect("split fits");
    let prepared = prepare(&t, &split, &FeatureSpec::all()).expect("prepares");
    let mut gbdt = Gbdt::new().n_trees(30).min_samples_leaf(5);
    let mut lr = LogisticRegression::new().epochs(30);
    let a = run_classifier(&prepared, &mut gbdt).expect("gbdt runs");
    let b = run_classifier(&prepared, &mut lr).expect("lr runs");
    assert_eq!(a.truth, b.truth);
    // GBDT probabilities must differ from LR's (distinct models).
    assert_ne!(a.probabilities, b.probabilities);
}

#[test]
fn all_experiment_drivers_run_on_tiny_trace() {
    let t = trace();
    let lab = Lab::new(&t).expect("lab builds");
    characterization::fig1(&lab).expect("fig1");
    characterization::fig2(&lab).expect("fig2");
    characterization::fig4(&lab).expect("fig4");
    characterization::fig8(&lab).expect("fig8");
    prediction::table1(&lab).expect("table1");
    prediction::table4(&lab).expect("table4");
    prediction::table5(&lab).expect("table5");
    prediction::fig13(&lab).expect("fig13");
}
