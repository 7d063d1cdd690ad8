//! Forecast-driven features — the paper's "second approach" (§VI-A,
//! §VIII).
//!
//! Some features — the GPU temperature/power statistics *during* the
//! target run — are not known before the run starts. The paper's first
//! approach predicts at run end (all features exact); the second forecasts
//! those features with time-series models and feeds the forecasts into the
//! trained classifier, enabling prediction *before* execution.
//!
//! [`forecast_run_stats`] fits an AR(p) model (Yule-Walker) to the
//! pre-run telemetry of each sample and rolls it forward over the run
//! duration; [`apply_forecast_tp`] swaps the forecast statistics into an
//! extracted feature dataset so the same trained model can consume them.

use crate::features::FeatureSpec;
use crate::samples::LabeledSample;
use crate::{PredError, Result};
use mlkit::dataset::Dataset;
use mlkit::matrix::Matrix;
use titan_sim::engine::TelemetryQueryEngine;
use titan_sim::telemetry::{window_stats, WindowStats};
use tscast::ar::fit_best_order;
use tscast::smooth::Ewma;
use tscast::Forecaster;

/// How far before the run start telemetry is observed for forecasting.
pub const FORECAST_LOOKBACK_MIN: u64 = 120;

/// Maximum AR order tried per series.
const MAX_AR_ORDER: usize = 8;

/// Forecast [`WindowStats`] of one series over `horizon` future steps,
/// given its observed history: AR(p) with AIC order selection, falling
/// back to EWMA for short or degenerate histories.
///
/// The forecast mean path gives `mean`/`diff_*`; the reported `std` blends
/// the path's spread with the AR innovation standard deviation (a pure
/// mean path would understate run variability).
pub fn forecast_series_stats(history: &[f32], horizon: usize) -> WindowStats {
    if history.is_empty() || horizon == 0 {
        return WindowStats::default();
    }
    let hist: Vec<f64> = history.iter().map(|&v| v as f64).collect();
    let (path, innovation_std) = match fit_best_order(&hist, MAX_AR_ORDER) {
        Ok(model) => {
            // Guarded: `history` was checked non-empty at entry.
            let flat = hist.last().copied().unwrap_or_default();
            let path = model
                .forecast(&hist, horizon)
                .unwrap_or_else(|_| vec![flat; horizon]);
            (path, model.innovation_variance().max(0.0).sqrt())
        }
        Err(_) => {
            // Constant/short history: flat EWMA forecast, no innovations.
            let level = Ewma::new(0.3)
                .and_then(|e| e.forecast(&hist, horizon))
                .unwrap_or_else(|_| vec![hist[0]; horizon]);
            (level, 0.0)
        }
    };
    let path_f32: Vec<f32> = path.iter().map(|&v| v as f32).collect();
    let mut stats = window_stats(&path_f32);
    // Blend in innovation noise so std is not artificially collapsed.
    let blended = ((stats.std as f64).powi(2) + innovation_std.powi(2)).sqrt();
    stats.std = blended as f32;
    stats.diff_std = ((stats.diff_std as f64).powi(2) + innovation_std.powi(2)).sqrt() as f32;
    stats
}

/// Per-sample forecast statistics for GPU temperature and power.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunForecast {
    /// Forecast temperature statistics over the run window.
    pub temp: WindowStats,
    /// Forecast power statistics over the run window.
    pub power: WindowStats,
}

/// Forecasts run-window temperature/power statistics for every sample.
///
/// # Errors
///
/// Propagates telemetry query errors.
pub fn forecast_run_stats(
    engine: &TelemetryQueryEngine<'_>,
    samples: &[LabeledSample],
) -> Result<Vec<RunForecast>> {
    let pairs: Vec<_> = samples.iter().map(|s| (s.aprun, s.node)).collect();
    let pre = engine.query_preseries(&pairs, FORECAST_LOOKBACK_MIN)?;
    Ok(samples
        .iter()
        .zip(pre)
        .map(|(s, (temp_hist, power_hist))| {
            let horizon = s.runtime_min() as usize;
            RunForecast {
                temp: forecast_series_stats(&temp_hist, horizon),
                power: forecast_series_stats(&power_hist, horizon),
            }
        })
        .collect())
}

/// Replaces the `run_temp_*` / `run_power_*` columns of an extracted
/// (unscaled) dataset with forecast values. The dataset must have been
/// extracted with a spec whose `tp_cur` is enabled.
///
/// # Errors
///
/// Returns [`PredError::InvalidInput`] when the dataset does not contain
/// the current-run T/P columns or lengths disagree.
pub fn apply_forecast_tp(
    dataset: &Dataset,
    spec: &FeatureSpec,
    forecasts: &[RunForecast],
) -> Result<Dataset> {
    if !spec.tp_cur {
        return Err(PredError::InvalidInput {
            reason: "feature spec has no current-run temperature/power columns".into(),
        });
    }
    if forecasts.len() != dataset.len() {
        return Err(PredError::InvalidInput {
            reason: format!(
                "{} forecasts for {} samples",
                forecasts.len(),
                dataset.len()
            ),
        });
    }
    let names = dataset.feature_names();
    let col = |name: &str| -> Result<usize> {
        names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| PredError::InvalidInput {
                reason: format!("feature `{name}` missing from dataset"),
            })
    };
    let temp_base = col("run_temp_mean")?;
    let power_base = col("run_power_mean")?;

    let mut x = Matrix::zeros(dataset.len(), dataset.n_features());
    for (i, row) in dataset.x().rows_iter().enumerate() {
        let out = x.row_mut(i);
        out.copy_from_slice(row);
        let f = &forecasts[i];
        for (offset, (tv, pv)) in [
            (f.temp.mean, f.power.mean),
            (f.temp.std, f.power.std),
            (f.temp.diff_mean, f.power.diff_mean),
            (f.temp.diff_std, f.power.diff_std),
        ]
        .iter()
        .enumerate()
        {
            out[temp_base + offset] = *tv;
            out[power_base + offset] = *pv;
        }
    }
    Ok(Dataset::new(x, dataset.y().to_vec())?.with_feature_names(names.to_vec())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureExtractor;
    use crate::samples::build_samples;
    use titan_sim::config::SimConfig;
    use titan_sim::engine::generate;

    #[test]
    fn forecast_tracks_level_of_stationary_series() {
        // History hovering around 50 with small wiggle.
        let hist: Vec<f32> = (0..120)
            .map(|t| 50.0 + ((t * 7) % 5) as f32 * 0.2 - 0.4)
            .collect();
        let stats = forecast_series_stats(&hist, 60);
        assert!((stats.mean - 50.0).abs() < 1.5, "mean {}", stats.mean);
        assert!(stats.std >= 0.0);
    }

    #[test]
    fn forecast_empty_or_zero_horizon_defaults() {
        assert_eq!(forecast_series_stats(&[], 10), WindowStats::default());
        assert_eq!(forecast_series_stats(&[1.0], 0), WindowStats::default());
    }

    #[test]
    fn forecast_constant_history_is_flat() {
        let stats = forecast_series_stats(&[42.0; 60], 30);
        assert!((stats.mean - 42.0).abs() < 1e-3);
        assert_eq!(stats.diff_mean, 0.0);
    }

    #[test]
    fn end_to_end_forecast_substitution() {
        let trace = generate(&SimConfig::tiny(3)).unwrap();
        let samples = build_samples(&trace).unwrap();
        let fx = FeatureExtractor::new(&trace, &samples).unwrap();
        let spec = FeatureSpec::all();
        let subset: Vec<_> = samples
            .iter()
            .filter(|s| s.start_min > 200)
            .take(10)
            .copied()
            .collect();
        let ds = fx
            .extract(&subset, &spec, &mut obskit::Recorder::null())
            .unwrap();
        let forecasts = forecast_run_stats(fx.query_engine(), &subset).unwrap();
        let swapped = apply_forecast_tp(&ds, &spec, &forecasts).unwrap();
        assert_eq!(swapped.len(), ds.len());
        // The run_temp_mean column changed to the forecast value...
        let idx = ds
            .feature_names()
            .iter()
            .position(|n| n == "run_temp_mean")
            .unwrap();
        for (i, f) in forecasts.iter().enumerate() {
            assert_eq!(swapped.x().get(i, idx), f.temp.mean);
        }
        // ...and forecast means are physically sensible temperatures.
        for f in &forecasts {
            assert!((15.0..90.0).contains(&f.temp.mean), "temp {}", f.temp.mean);
        }
        // Non-TP columns are untouched.
        let app_idx = ds
            .feature_names()
            .iter()
            .position(|n| n == "app_id")
            .unwrap();
        for i in 0..ds.len() {
            assert_eq!(swapped.x().get(i, app_idx), ds.x().get(i, app_idx));
        }
    }

    #[test]
    fn apply_forecast_validates() {
        let trace = generate(&SimConfig::tiny(3)).unwrap();
        let samples = build_samples(&trace).unwrap();
        let fx = FeatureExtractor::new(&trace, &samples).unwrap();
        let spec = FeatureSpec::only_hist();
        let ds = fx
            .extract(&samples[..4], &spec, &mut obskit::Recorder::null())
            .unwrap();
        let err = apply_forecast_tp(&ds, &spec, &[RunForecast::default(); 4]);
        assert!(err.is_err());
        let spec_all = FeatureSpec::all();
        let ds = fx
            .extract(&samples[..4], &spec_all, &mut obskit::Recorder::null())
            .unwrap();
        let err = apply_forecast_tp(&ds, &spec_all, &[RunForecast::default(); 3]);
        assert!(err.is_err());
    }
}
