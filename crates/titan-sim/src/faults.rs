//! The single-bit-error (SBE) fault process.
//!
//! GPU soft errors in the field are not uniformly random: the paper finds
//! that a small set of "offender" cards accounts for most errors, that
//! memory-heavy long-running applications see more errors, and that SBEs
//! correlate with elevated temperature — without a hard threshold. This
//! module implements a generative model with exactly those properties:
//!
//! * each GPU draws a latent *susceptibility*; a small weak subset draws
//!   from a heavy-tailed lognormal, the rest are orders of magnitude
//!   lower (but non-zero — previously clean nodes can still error),
//! * the SBE count of an (aprun, node) pair is Poisson with intensity
//!   `susceptibility × base_rate × app intensity × memory utilisation ×
//!   GPU core-hours × exp(beta (T − T0)) × daily flux`,
//! * the daily flux is a lognormal day-level multiplier with a slow
//!   upward trend, producing bursty error days and non-stationarity late
//!   in the trace.

use crate::apps::AppProfile;
use crate::config::{SimConfig, MINUTES_PER_DAY};
use crate::rng::stream_rng;
use crate::topology::NodeId;
use crate::{Result, SimError};
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Poisson};
use serde::{Deserialize, Serialize};

/// The instantiated fault model: per-node susceptibilities and the daily
/// flux series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    susceptibility: Vec<f64>,
    weak: Vec<bool>,
    /// First day (inclusive) each node's weakness is active.
    active_from_day: Vec<u32>,
    /// Last day (exclusive) each node's weakness is active.
    active_until_day: Vec<u32>,
    daily_flux: Vec<f64>,
    base_rate: f64,
    temp_beta: f64,
    t0_c: f64,
    burst_per_hour: f64,
}

impl FaultModel {
    /// Draws susceptibilities and the daily flux from the configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn generate(cfg: &SimConfig) -> Result<FaultModel> {
        cfg.validate()?;
        let f = &cfg.fault;
        let n = cfg.topology.n_nodes() as usize;
        let mut rng = stream_rng(cfg.seed, "faults");
        // Median-1 lognormal for weak GPUs.
        let weak_dist = LogNormal::new(f.weak_susceptibility_mu, f.weak_susceptibility_sigma)?;
        let mut susceptibility = Vec::with_capacity(n);
        let mut weak = Vec::with_capacity(n);
        let mut active_from_day = Vec::with_capacity(n);
        let mut active_until_day = Vec::with_capacity(n);
        for _ in 0..n {
            let is_weak = rng.gen::<f64>() < f.weak_gpu_fraction;
            let s = if is_weak {
                weak_dist.sample(&mut rng)
            } else {
                f.healthy_relative_susceptibility * rng.gen::<f64>()
            };
            susceptibility.push(s);
            weak.push(is_weak);
            // Card churn: some weak GPUs only start erring mid-trace
            // (ageing onset), some get repaired/replaced mid-trace.
            let (mut from, mut until) = (0u32, cfg.days);
            if is_weak {
                if rng.gen::<f64>() < f.weak_onset_fraction {
                    from = rng.gen_range(0..cfg.days.max(1));
                }
                if rng.gen::<f64>() < f.weak_repair_fraction {
                    let earliest = from.saturating_add(1).min(cfg.days);
                    until = rng.gen_range(earliest..=cfg.days);
                }
            }
            active_from_day.push(from);
            active_until_day.push(until);
        }
        // Daily flux: lognormal with unit mean, ramped by the trend.
        let sigma = f.daily_flux_sigma;
        let flux_dist = LogNormal::new(-sigma * sigma / 2.0, sigma)?;
        let days = cfg.days as usize;
        let daily_flux = (0..days)
            .map(|d| {
                let ramp = 1.0 + f.flux_trend * d as f64 / days.max(1) as f64;
                flux_dist.sample(&mut rng) * ramp
            })
            .collect();
        Ok(FaultModel {
            susceptibility,
            weak,
            active_from_day,
            active_until_day,
            daily_flux,
            base_rate: f.base_rate,
            temp_beta: f.temp_beta,
            t0_c: f.t0_c,
            burst_per_hour: f.burst_per_hour,
        })
    }

    /// Latent susceptibility of a node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for out-of-range nodes.
    pub fn susceptibility(&self, node: NodeId) -> Result<f64> {
        self.susceptibility
            .get(node.0 as usize)
            .copied()
            .ok_or(SimError::UnknownEntity {
                kind: "node",
                id: node.0 as u64,
            })
    }

    /// Ground-truth weak flag (used only by validation tests — a real
    /// operator never observes this).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for out-of-range nodes.
    pub fn is_weak(&self, node: NodeId) -> Result<bool> {
        self.weak
            .get(node.0 as usize)
            .copied()
            .ok_or(SimError::UnknownEntity {
                kind: "node",
                id: node.0 as u64,
            })
    }

    /// Number of weak GPUs.
    pub fn n_weak(&self) -> usize {
        self.weak.iter().filter(|&&w| w).count()
    }

    /// The day-level flux multiplier.
    pub fn daily_flux(&self) -> &[f64] {
        &self.daily_flux
    }

    /// Poisson intensity for one (aprun, node) pair.
    ///
    /// `avg_temp_c` is the node's mean GPU temperature during the run;
    /// `runtime_min` the aprun duration on this node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for out-of-range nodes.
    pub fn intensity(
        &self,
        node: NodeId,
        app: &AppProfile,
        runtime_min: u64,
        start_min: u64,
        avg_temp_c: f64,
    ) -> Result<f64> {
        let mut susc = self.susceptibility(node)?;
        let day = (start_min / MINUTES_PER_DAY) as usize;
        // Outside a weak card's active window it behaves near-healthy.
        let idx = node.0 as usize;
        if (day as u32) < self.active_from_day[idx] || (day as u32) >= self.active_until_day[idx] {
            susc *= 0.02;
        }
        let flux = self
            .daily_flux
            .get(day.min(self.daily_flux.len().saturating_sub(1)))
            .copied()
            .unwrap_or(1.0);
        // Utilisation dependencies are sub-linear: real SBE rates grow
        // with activity but errors also strike less-active runs, which is
        // what keeps the paper's temperature/power shift moderate
        // (≈ +3 °C / +15 W rather than a hard threshold).
        let active_hours = runtime_min as f64 / 60.0 * (0.35 + 0.65 * app.core_util);
        let mem_factor = app.mem_util.max(0.0).sqrt();
        let temp_factor = (self.temp_beta * (avg_temp_c - self.t0_c)).exp();
        Ok(self.base_rate
            * susc
            * app.sbe_intensity
            * mem_factor
            * active_hours
            * temp_factor
            * flux)
    }

    /// Samples an SBE count from a Poisson with the given intensity.
    ///
    /// Intensities are clamped to `1e6` to keep sampling finite.
    pub fn sample_count(&self, intensity: f64, rng: &mut StdRng) -> u32 {
        if intensity <= 0.0 {
            return 0;
        }
        let lambda = intensity.min(1e6);
        match Poisson::new(lambda) {
            Ok(d) => d.sample(rng) as u32,
            Err(_) => 0,
        }
    }

    /// Samples the SBE count of one (aprun, node) pair: a Poisson number
    /// of error *occurrences* with the given intensity, plus — when at
    /// least one occurs — a burst magnitude proportional to the run's GPU
    /// exposure (`burst_per_hour × exposure_hours`). Faulty cells tend to
    /// be struck repeatedly, which is what makes field SBE counts scale
    /// with core-hours (paper Fig. 4).
    pub fn sample_count_with_burst(
        &self,
        intensity: f64,
        exposure_hours: f64,
        rng: &mut StdRng,
    ) -> u32 {
        let occurrences = self.sample_count(intensity, rng);
        if occurrences == 0 || self.burst_per_hour == 0.0 {
            return occurrences;
        }
        let magnitude = (self.burst_per_hour * exposure_hours.max(0.0)).min(1e6);
        occurrences + self.sample_count(magnitude, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppCatalog;
    use crate::config::SimConfig;
    use rand::SeedableRng;

    fn model() -> (SimConfig, FaultModel) {
        let cfg = SimConfig::tiny(21);
        let fm = FaultModel::generate(&cfg).unwrap();
        (cfg, fm)
    }

    fn some_app(cfg: &SimConfig) -> AppProfile {
        let catalog = AppCatalog::generate(&cfg.workload, cfg.seed, cfg.days).unwrap();
        let app = catalog
            .iter()
            .find(|(_, p)| p.is_error_prone())
            .map(|(_, p)| p.clone())
            .expect("catalogue has an error-prone app");
        app
    }

    #[test]
    fn weak_fraction_approximate() {
        let cfg = SimConfig::scaled(3);
        let fm = FaultModel::generate(&cfg).unwrap();
        let frac = fm.n_weak() as f64 / cfg.topology.n_nodes() as f64;
        let expect = cfg.fault.weak_gpu_fraction;
        assert!(
            (frac - expect).abs() < 0.02,
            "weak fraction {frac} vs configured {expect}"
        );
    }

    #[test]
    fn weak_nodes_much_more_susceptible() {
        let (cfg, fm) = model();
        let mut weak_min = f64::INFINITY;
        let mut healthy_max: f64 = 0.0;
        for node in cfg.topology.nodes() {
            let s = fm.susceptibility(node).unwrap();
            if fm.is_weak(node).unwrap() {
                weak_min = weak_min.min(s);
            } else {
                healthy_max = healthy_max.max(s);
            }
        }
        // Healthy cap is 0.4% of the weak median by construction.
        assert!(healthy_max < 0.01);
        assert!(weak_min > healthy_max || weak_min == f64::INFINITY);
    }

    #[test]
    fn intensity_increases_with_temperature() {
        let (cfg, fm) = model();
        let app = some_app(&cfg);
        let node = NodeId(0);
        let cold = fm.intensity(node, &app, 120, 0, 35.0).unwrap();
        let hot = fm.intensity(node, &app, 120, 0, 55.0).unwrap();
        assert!(hot > cold);
        // Ratio must equal exp(beta * 20) for the configured beta.
        let beta = cfg.fault.temp_beta;
        assert!((hot / cold.max(1e-300) - (beta * 20.0).exp()).abs() < 1e-6);
    }

    #[test]
    fn intensity_scales_linearly_with_runtime() {
        let (cfg, fm) = model();
        let app = some_app(&cfg);
        let node = NodeId(1);
        let short = fm.intensity(node, &app, 60, 0, 45.0).unwrap();
        let long = fm.intensity(node, &app, 240, 0, 45.0).unwrap();
        if short > 0.0 {
            assert!((long / short - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn flux_has_unit_scale_and_trend() {
        let cfg = SimConfig::scaled(5);
        let fm = FaultModel::generate(&cfg).unwrap();
        let flux = fm.daily_flux();
        assert_eq!(flux.len(), cfg.days as usize);
        let first_half: f64 = flux[..flux.len() / 2].iter().sum::<f64>() / (flux.len() / 2) as f64;
        let second_half: f64 =
            flux[flux.len() / 2..].iter().sum::<f64>() / (flux.len() - flux.len() / 2) as f64;
        // Trend pushes the later mean up.
        assert!(second_half > first_half * 0.9);
        assert!(flux.iter().all(|&f| f > 0.0));
    }

    #[test]
    fn sample_count_zero_for_zero_intensity() {
        let (_, fm) = model();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(fm.sample_count(0.0, &mut rng), 0);
        assert_eq!(fm.sample_count(-1.0, &mut rng), 0);
    }

    #[test]
    fn sample_count_mean_close_to_intensity() {
        let (_, fm) = model();
        let mut rng = StdRng::seed_from_u64(2);
        let lambda = 3.0;
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| fm.sample_count(lambda, &mut rng) as u64)
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn unknown_node_rejected() {
        let (cfg, fm) = model();
        let bad = NodeId(cfg.topology.n_nodes());
        assert!(fm.susceptibility(bad).is_err());
        assert!(fm.is_weak(bad).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig::tiny(9);
        let a = FaultModel::generate(&cfg).unwrap();
        let b = FaultModel::generate(&cfg).unwrap();
        assert_eq!(a, b);
    }
}
