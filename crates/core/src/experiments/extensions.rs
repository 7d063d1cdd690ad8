//! Extension experiments beyond the paper's printed tables:
//!
//! * [`ext_forecast`] — the paper's "second approach" (§VI-A, §VIII):
//!   run-time temperature/power features are *forecast* with AR models
//!   instead of measured, so the predictor can run before execution; the
//!   paper reports the two approaches "achieve similar results".
//! * [`ext_imbalance`] — the §VI-B survey turned into an ablation: the
//!   TwoStage filter vs single-stage training with random under-sampling,
//!   SMOTE, and k-means-guided under-sampling.
//! * [`ext_retrain`] — the paper's operational mode (§VI-A): periodic
//!   retraining every two weeks across the trace, showing prediction
//!   quality stays stable under workload/fault drift.
//! * [`ext_oracle`] — the paper's §VII-D1 check: even an oracle that
//!   picks the best model *per cabinet* barely improves on
//!   GBDT-everywhere.
//! * [`ext_importance`] — GBDT split-count feature importances, the
//!   "model interpretation" the paper alludes to.

use super::{ExperimentOutput, Lab, ModelKind};
use crate::datasets::DsSplit;
use crate::features::FeatureSpec;
use crate::forecast::{apply_forecast_tp, forecast_run_stats};
use crate::report::Table;
use crate::samples::{in_window, labels, LabeledSample};
use crate::twostage::{prepare_with_extractor, run_classifier_observed};
use crate::PredError;
use crate::Result;
use mlkit::dataset::Dataset;
use mlkit::metrics::ConfusionMatrix;
use mlkit::model::Classifier;
use mlkit::sampling::{kmeans_undersample, random_undersample, smote};
use mlkit::scaler::StandardScaler;
use serde_json::json;

const MODEL_SEED: u64 = 7;

/// Known-features vs forecast-features prediction on DS1 (TwoStage+GBDT).
///
/// # Errors
///
/// Propagates pipeline and forecasting errors.
pub fn ext_forecast(lab: &Lab<'_>) -> Result<ExperimentOutput> {
    let split = DsSplit::ds1(lab.trace())?;
    let spec = FeatureSpec::all();
    let prepared = prepare_with_extractor(lab.extractor(), lab.samples(), &split, &spec)?;

    let mut model = ModelKind::Gbdt.build(MODEL_SEED);
    let known = run_classifier_observed(
        &prepared,
        &mut model,
        &mut obskit::Recorder::null(),
        lab.clock(),
    )?;
    let cm_known = known.confusion()?;

    // Re-extract raw stage-2 test features, substitute forecasts for the
    // run-window T/P statistics, and reuse the *same* trained model.
    let raw_test = lab.extractor().extract(
        &prepared.stage2_test_samples,
        &spec,
        &mut obskit::Recorder::null(),
    )?;
    let forecasts = forecast_run_stats(
        lab.extractor().query_engine(),
        &prepared.stage2_test_samples,
    )?;
    let swapped = apply_forecast_tp(&raw_test, &spec, &forecasts)?;
    let scaled = prepared.scaler.transform(&swapped)?;
    let proba = model.predict_proba(&scaled)?;

    let n = prepared.test_samples.len();
    let mut predictions = vec![0.0f32; n];
    for (&idx, &p) in prepared.stage2_test_idx.iter().zip(&proba) {
        predictions[idx] = if p >= model.threshold() { 1.0 } else { 0.0 };
    }
    let truth = labels(&prepared.test_samples);
    let cm_forecast = ConfusionMatrix::from_predictions(&truth, &predictions)?;

    let mut table = Table::new(["Features", "Precision", "Recall", "F1"]);
    for (name, cm) in [
        ("Measured (approach 1)", cm_known),
        ("Forecast (approach 2)", cm_forecast),
    ] {
        table.push_row([
            name.to_string(),
            format!("{:.3}", cm.precision()),
            format!("{:.3}", cm.recall()),
            format!("{:.3}", cm.f1()),
        ]);
    }
    let gap = (cm_known.f1() - cm_forecast.f1()).abs();
    let mut text = table.render();
    text.push_str(&format!(
        "\nF1 gap between measured and AR-forecast features: {gap:.3}\n\
         (paper: the two approaches achieve similar results)\n"
    ));
    Ok(ExperimentOutput {
        id: "ext_forecast".into(),
        title: "Measured vs time-series-forecast run features".into(),
        text,
        json: json!({
            "measured_f1": cm_known.f1(),
            "forecast_f1": cm_forecast.f1(),
            "gap": gap,
        }),
    })
}

/// Trains a single-stage GBDT on a (resampled) training dataset and
/// evaluates over the full test set.
fn single_stage(
    train: &Dataset,
    test: &Dataset,
    truth: &[f32],
    clock: &dyn obskit::Clock,
) -> Result<(ConfusionMatrix, std::time::Duration)> {
    // A lighter GBDT than the TwoStage configuration: the raw variant
    // trains on every sample of the window.
    let mut model = mlkit::gbdt::Gbdt::new()
        .n_trees(60)
        .max_depth(5)
        .min_samples_leaf(20)
        .subsample(0.8)
        .pos_weight(2.0)
        .seed(MODEL_SEED);
    let t0 = clock.now_nanos();
    model.fit(train, &mut obskit::Recorder::null())?;
    let dt = std::time::Duration::from_nanos(clock.now_nanos().saturating_sub(t0));
    let pred = model.predict(test)?;
    Ok((ConfusionMatrix::from_predictions(truth, &pred)?, dt))
}

/// Imbalance-mitigation ablation: TwoStage vs single-stage with raw data,
/// random under-sampling, SMOTE, and k-means under-sampling.
///
/// Uses a shorter training window than DS1 so that the single-stage
/// variants (which must featurise *every* node's samples) stay tractable.
///
/// # Errors
///
/// Propagates pipeline and sampling errors.
pub fn ext_imbalance(lab: &Lab<'_>) -> Result<ExperimentOutput> {
    let days = lab.trace().config().days as u64;
    // Single-stage variants must featurise and fit *every* node's
    // samples, so the window is deliberately shorter than DS1.
    let train_days = (days / 10).max(5);
    let test_days = (days / 21).max(2);
    let start = days.saturating_sub(train_days + test_days + 1) / 2;
    let split = DsSplit::from_days("IMB", lab.trace(), start, train_days, test_days)?;
    let spec = FeatureSpec::all();

    // Full (single-stage) datasets.
    let (ts, te) = split.train_window();
    let (vs, ve) = split.test_window();
    let train_samples: Vec<LabeledSample> = in_window(lab.samples(), ts, te);
    let test_samples: Vec<LabeledSample> = in_window(lab.samples(), vs, ve);
    let train_raw =
        lab.extractor()
            .extract(&train_samples, &spec, &mut obskit::Recorder::null())?;
    let scaler = StandardScaler::fit(&train_raw)?;
    let train_full = scaler.transform(&train_raw)?;
    let test_full = scaler.transform(&lab.extractor().extract(
        &test_samples,
        &spec,
        &mut obskit::Recorder::null(),
    )?)?;
    let truth = labels(&test_samples);

    let mut table = Table::new([
        "Strategy",
        "Precision",
        "Recall",
        "F1",
        "Train size",
        "Fit time",
    ]);
    let mut rows = Vec::new();
    let record = |name: &str,
                  cm: ConfusionMatrix,
                  n_train: usize,
                  dt: std::time::Duration,
                  table: &mut Table,
                  rows: &mut Vec<serde_json::Value>| {
        table.push_row([
            name.to_string(),
            format!("{:.3}", cm.precision()),
            format!("{:.3}", cm.recall()),
            format!("{:.3}", cm.f1()),
            format!("{n_train}"),
            format!("{dt:.2?}"),
        ]);
        rows.push(json!({
            "strategy": name, "precision": cm.precision(),
            "recall": cm.recall(), "f1": cm.f1(),
            "train_size": n_train, "fit_time_s": dt.as_secs_f64(),
        }));
    };

    // Raw single-stage (50:1-style imbalance).
    let (cm, dt) = single_stage(&train_full, &test_full, &truth, lab.clock())?;
    record(
        "Single-stage raw",
        cm,
        train_full.len(),
        dt,
        &mut table,
        &mut rows,
    );

    // Resampled variants target the TwoStage-like 2:1 ratio.
    let under = random_undersample(&train_full, 2.0, MODEL_SEED)?;
    let (cm, dt) = single_stage(&under, &test_full, &truth, lab.clock())?;
    record(
        "Random under-sampling",
        cm,
        under.len(),
        dt,
        &mut table,
        &mut rows,
    );

    let sm = smote(&train_full, 2.0, 5, MODEL_SEED)?;
    let (cm, dt) = single_stage(&sm, &test_full, &truth, lab.clock())?;
    record(
        "SMOTE over-sampling",
        cm,
        sm.len(),
        dt,
        &mut table,
        &mut rows,
    );

    // K-means clustering of the majority class is O(n * k * d); shrink
    // the negative pool first so the ablation stays tractable.
    let n_pos = train_full.n_positive().max(1);
    let km_input = if train_full.n_negative() > 5_000 {
        random_undersample(&train_full, 5_000.0 / n_pos as f64, MODEL_SEED ^ 1)?
    } else {
        train_full.clone()
    };
    let km = kmeans_undersample(&km_input, 2.0, MODEL_SEED)?;
    let (cm, dt) = single_stage(&km, &test_full, &truth, lab.clock())?;
    record(
        "K-means under-sampling",
        cm,
        km.len(),
        dt,
        &mut table,
        &mut rows,
    );

    // TwoStage on the same split.
    let prepared = prepare_with_extractor(lab.extractor(), lab.samples(), &split, &spec)?;
    let out = run_classifier_observed(
        &prepared,
        &mut ModelKind::Gbdt.build(MODEL_SEED),
        &mut obskit::Recorder::null(),
        lab.clock(),
    )?;
    record(
        "TwoStage (paper)",
        out.confusion()?,
        prepared.train.len(),
        out.train_time,
        &mut table,
        &mut rows,
    );

    Ok(ExperimentOutput {
        id: "ext_imbalance".into(),
        title: "Imbalance mitigation: TwoStage vs resampling strategies".into(),
        text: table.render(),
        json: json!({ "rows": rows, "split_train_days": train_days }),
    })
}

/// Periodic retraining: slide a (train, test) window across the trace,
/// retraining TwoStage+GBDT for each step — the paper's every-two-weeks
/// operational cadence.
///
/// # Errors
///
/// Propagates pipeline errors (windows with no offender nodes are
/// skipped).
pub fn ext_retrain(lab: &Lab<'_>) -> Result<ExperimentOutput> {
    let days = lab.trace().config().days as u64;
    let train_days = (days / 5).max(5);
    let test_days = (days / 21).max(2);
    let step = test_days.max(1);
    let spec = FeatureSpec::all();
    let mut table = Table::new([
        "Window",
        "Train days",
        "Test days",
        "F1",
        "Precision",
        "Recall",
    ]);
    let mut rows = Vec::new();
    let mut start = 0u64;
    let mut f1s = Vec::new();
    while start + train_days + test_days <= days {
        let split = DsSplit::from_days(
            format!("W{}", start),
            lab.trace(),
            start,
            train_days,
            test_days,
        )?;
        match prepare_with_extractor(lab.extractor(), lab.samples(), &split, &spec) {
            Ok(prepared) => {
                let out = run_classifier_observed(
                    &prepared,
                    &mut ModelKind::Gbdt.build(MODEL_SEED),
                    &mut obskit::Recorder::null(),
                    lab.clock(),
                )?;
                let cm = out.confusion()?;
                table.push_row([
                    format!("day {start}..{}", start + train_days + test_days),
                    format!("{train_days}"),
                    format!("{test_days}"),
                    format!("{:.3}", cm.f1()),
                    format!("{:.3}", cm.precision()),
                    format!("{:.3}", cm.recall()),
                ]);
                rows.push(json!({
                    "start_day": start, "f1": cm.f1(),
                    "precision": cm.precision(), "recall": cm.recall(),
                }));
                f1s.push(cm.f1());
            }
            Err(_) => {
                // No offender nodes yet in this early window; skip.
            }
        }
        start += step;
    }
    let mean_f1 = if f1s.is_empty() {
        0.0
    } else {
        f1s.iter().sum::<f64>() / f1s.len() as f64
    };
    let min_f1 = f1s.iter().copied().fold(f64::INFINITY, f64::min);
    let mut text = table.render();
    text.push_str(&format!(
        "\nmean F1 across {} retraining windows: {mean_f1:.3} (min {min_f1:.3})\n",
        f1s.len()
    ));
    Ok(ExperimentOutput {
        id: "ext_retrain".into(),
        title: "Periodic retraining across the trace".into(),
        text,
        json: json!({ "rows": rows, "mean_f1": mean_f1 }),
    })
}

/// Oracle model selection per cabinet (paper §VII-D1): run all four
/// models on DS1, let an oracle pick the best per cabinet, and compare
/// the oracle's overall F1 to GBDT-everywhere. The paper finds the gain
/// is only ~0.01 — GBDT is near-optimal machine-wide.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn ext_oracle(lab: &Lab<'_>) -> Result<ExperimentOutput> {
    let split = DsSplit::ds1(lab.trace())?;
    let prepared =
        prepare_with_extractor(lab.extractor(), lab.samples(), &split, &FeatureSpec::all())?;
    let topo = &lab.trace().config().topology;
    let n_cab = topo.n_cabinets() as usize;

    // Run every model once; keep predictions.
    let mut outcomes = Vec::new();
    for kind in ModelKind::all() {
        let out = run_classifier_observed(
            &prepared,
            &mut kind.build(MODEL_SEED),
            &mut obskit::Recorder::null(),
            lab.clock(),
        )?;
        outcomes.push((kind, out));
    }
    let truth = &outcomes[0].1.truth;
    let cabinets: Vec<usize> = prepared
        .test_samples
        .iter()
        .map(|s| topo.cabinet_index(s.node).map(|c| c as usize))
        .collect::<std::result::Result<_, _>>()?;

    // Per-cabinet F1 per model.
    let per_cabinet_f1 = |pred: &[f32]| -> Result<Vec<f64>> {
        let mut cms = vec![ConfusionMatrix::default(); n_cab];
        for (i, &cab) in cabinets.iter().enumerate() {
            let one = ConfusionMatrix::from_predictions(&truth[i..=i], &pred[i..=i])?;
            cms[cab].merge(&one);
        }
        Ok(cms.iter().map(|cm| cm.f1()).collect())
    };
    let f1s: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|(_, out)| per_cabinet_f1(&out.predictions))
        .collect::<Result<_>>()?;

    // Oracle: per cabinet pick the best model; stitch its predictions.
    let mut best_model = vec![0usize; n_cab];
    for cab in 0..n_cab {
        let mut best = 0;
        for (m, f) in f1s.iter().enumerate() {
            if f[cab] > f1s[best][cab] {
                best = m;
            }
        }
        best_model[cab] = best;
    }
    let oracle_pred: Vec<f32> = (0..truth.len())
        .map(|i| outcomes[best_model[cabinets[i]]].1.predictions[i])
        .collect();
    let oracle_cm = ConfusionMatrix::from_predictions(truth, &oracle_pred)?;
    let gbdt_idx = outcomes
        .iter()
        .position(|(k, _)| *k == ModelKind::Gbdt)
        .ok_or_else(|| PredError::InvalidInput {
            reason: "ModelKind::all() does not include Gbdt".into(),
        })?;
    let gbdt_cm = outcomes[gbdt_idx].1.confusion()?;
    let gain = oracle_cm.f1() - gbdt_cm.f1();

    let non_gbdt_cabinets = best_model
        .iter()
        .enumerate()
        .filter(|&(cab, &m)| m != gbdt_idx && f1s[m][cab] > f1s[gbdt_idx][cab])
        .count();
    let text = format!(
        "GBDT everywhere:        F1 = {:.3}\n\
         oracle (best/cabinet):  F1 = {:.3}\n\
         oracle gain: {gain:+.3}   (paper: +0.01 on DS1)\n\
         cabinets where another model strictly beats GBDT: {} of {}\n",
        gbdt_cm.f1(),
        oracle_cm.f1(),
        non_gbdt_cabinets,
        n_cab,
    );
    Ok(ExperimentOutput {
        id: "ext_oracle".into(),
        title: "Oracle per-cabinet model selection vs GBDT everywhere".into(),
        text,
        json: json!({
            "gbdt_f1": gbdt_cm.f1(),
            "oracle_f1": oracle_cm.f1(),
            "gain": gain,
            "non_gbdt_cabinets": non_gbdt_cabinets,
        }),
    })
}

/// GBDT feature importances (split counts) on DS1 — which features the
/// winning model actually uses.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn ext_importance(lab: &Lab<'_>) -> Result<ExperimentOutput> {
    let split = DsSplit::ds1(lab.trace())?;
    let spec = FeatureSpec::all();
    let prepared = prepare_with_extractor(lab.extractor(), lab.samples(), &split, &spec)?;
    let mut model = ModelKind::gbdt(MODEL_SEED);
    model.fit(&prepared.train, &mut obskit::Recorder::null())?;
    let importances = model
        .feature_importances()
        .ok_or_else(|| PredError::InvalidInput {
            reason: "model has no feature importances despite a successful fit".into(),
        })?;
    let names = prepared.train.feature_names();
    let mut ranked: Vec<(String, u32)> = names
        .iter()
        .cloned()
        .zip(importances.iter().copied())
        .collect();
    ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let total: u32 = ranked.iter().map(|r| r.1).sum();

    let mut table = Table::new(["Rank", "Feature", "Splits", "Share"]);
    for (rank, (name, count)) in ranked.iter().take(15).enumerate() {
        table.push_row([
            format!("{}", rank + 1),
            name.clone(),
            format!("{count}"),
            format!("{:.1}%", 100.0 * *count as f64 / total.max(1) as f64),
        ]);
    }
    let rows: Vec<serde_json::Value> = ranked
        .iter()
        .map(|(n, c)| json!({ "feature": n, "splits": c }))
        .collect();
    Ok(ExperimentOutput {
        id: "ext_importance".into(),
        title: "GBDT feature importances (split counts, DS1)".into(),
        text: table.render(),
        json: json!({ "rows": rows, "total_splits": total }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_sim::config::SimConfig;
    use titan_sim::engine::generate;
    use titan_sim::trace::TraceSet;

    fn trace() -> TraceSet {
        // Seed 13: under the in-repo RNG streams (see DESIGN.md "Parallel
        // execution & determinism"), seed 3's retrain windows can end up
        // single-class, which the GBDT rightly refuses to train on.
        generate(&SimConfig::tiny(13)).unwrap()
    }

    #[test]
    fn forecast_extension_runs_and_stays_close() {
        let t = trace();
        let lab = Lab::new(&t).unwrap();
        let out = ext_forecast(&lab).unwrap();
        let gap = out.json["gap"].as_f64().unwrap();
        assert!(gap < 0.5, "forecast gap {gap}");
    }

    #[test]
    fn imbalance_extension_produces_five_rows() {
        let t = trace();
        let lab = Lab::new(&t).unwrap();
        let out = ext_imbalance(&lab).unwrap();
        assert_eq!(out.json["rows"].as_array().unwrap().len(), 5);
    }

    #[test]
    fn oracle_extension_gain_is_nonnegative_and_small() {
        let t = trace();
        let lab = Lab::new(&t).unwrap();
        let out = ext_oracle(&lab).unwrap();
        let gain = out.json["gain"].as_f64().unwrap();
        // F1 is not additive over cabinets, so the stitched oracle can in
        // principle dip slightly below GBDT-everywhere; it must stay close.
        assert!(gain > -0.1, "oracle far below GBDT: {gain}");
        assert!(gain < 0.5, "oracle gain suspiciously large: {gain}");
    }

    #[test]
    fn importance_extension_ranks_features() {
        let t = trace();
        let lab = Lab::new(&t).unwrap();
        let out = ext_importance(&lab).unwrap();
        assert!(out.json["total_splits"].as_u64().unwrap() > 0);
        let rows = out.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), FeatureSpec::all().feature_names().len());
    }

    #[test]
    fn retrain_extension_covers_multiple_windows() {
        let t = trace();
        let lab = Lab::new(&t).unwrap();
        let out = ext_retrain(&lab).unwrap();
        assert!(out.json["rows"].as_array().unwrap().len() >= 2);
    }
}
