//! Deterministic random-number utilities.
//!
//! Every stochastic component of the simulator derives its randomness from
//! the global seed plus a *stream label*, so that independent subsystems
//! (workload generation, per-slot telemetry noise, fault sampling) can be
//! re-simulated in isolation and in any order without perturbing each
//! other. This is what makes on-demand telemetry regeneration
//! (`engine::TelemetryQueryEngine`) bit-identical to the generation pass.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 step — used to derive well-mixed child seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a child seed from a parent seed and a stream label.
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    let mut state = parent ^ 0x517c_c1b7_2722_0a95;
    for b in label.bytes() {
        state ^= b as u64;
        splitmix64(&mut state);
    }
    splitmix64(&mut state)
}

/// Derives a child seed from a parent seed, a stream label, and an index
/// (e.g. a slot or node id).
pub fn derive_seed_indexed(parent: u64, label: &str, index: u64) -> u64 {
    let mut state = derive_seed(parent, label) ^ index.rotate_left(17);
    splitmix64(&mut state);
    splitmix64(&mut state)
}

/// Creates a seeded [`StdRng`] for the given stream.
pub fn stream_rng(parent: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(parent, label))
}

/// Creates a seeded [`StdRng`] for the given indexed stream.
pub fn stream_rng_indexed(parent: u64, label: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed_indexed(parent, label, index))
}

/// A tiny, fast xorshift generator for per-minute telemetry noise, where
/// `StdRng`'s setup cost per stream would dominate.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Approximately standard-normal sample (sum of 4 uniforms, rescaled).
    /// Cheap and adequate for telemetry noise; not for tail-sensitive use.
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        let s = self.next_f64() + self.next_f64() + self.next_f64() + self.next_f64();
        (s - 2.0) * (3.0f64).sqrt()
    }
}

/// A discretised Ornstein-Uhlenbeck process:
/// `x' = x + theta (mu - x) dt + sigma sqrt(dt) N(0,1)` with `dt = 1`.
///
/// Used for temperature and power noise that is correlated across
/// consecutive minutes (real telemetry is smooth, not white).
#[derive(Debug, Clone)]
pub struct OuProcess {
    theta: f64,
    mu: f64,
    sigma: f64,
    value: f64,
}

impl OuProcess {
    /// Creates an OU process starting at its mean.
    ///
    /// `theta` is the mean-reversion rate per step, `mu` the mean, and
    /// `sigma` the per-step noise scale. Values are clamped into sane
    /// ranges (`theta` into `[0, 1]`, `sigma >= 0`).
    pub fn new(theta: f64, mu: f64, sigma: f64) -> OuProcess {
        OuProcess {
            theta: theta.clamp(0.0, 1.0),
            mu,
            sigma: sigma.max(0.0),
            value: mu,
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Moves the process to `value`, as a restored snapshot does.
    pub(crate) fn set_value(&mut self, value: f64) {
        self.value = value;
    }

    /// Advances one step using `rng` for the innovation; returns the new
    /// value.
    #[inline]
    pub fn step(&mut self, rng: &mut XorShift64) -> f64 {
        self.value += self.theta * (self.mu - self.value) + self.sigma * rng.next_gaussian();
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_label_sensitive() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
        assert_ne!(
            derive_seed_indexed(1, "slot", 0),
            derive_seed_indexed(1, "slot", 1)
        );
    }

    #[test]
    fn xorshift_uniform_range_and_mean() {
        let mut rng = XorShift64::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn xorshift_gaussian_moments() {
        let mut rng = XorShift64::new(11);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let v = rng.next_gaussian();
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn zero_seed_remapped() {
        let mut rng = XorShift64::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn ou_reverts_to_mean() {
        let mut rng = XorShift64::new(5);
        let mut ou = OuProcess::new(0.2, 10.0, 0.0);
        // Kick it away from the mean, then let it relax noiselessly.
        ou.value = 50.0;
        for _ in 0..100 {
            ou.step(&mut rng);
        }
        assert!((ou.value() - 10.0).abs() < 0.1);
    }

    #[test]
    fn ou_stationary_variance_close_to_theory() {
        // Var = sigma^2 / (2 theta - theta^2) for the exact discretisation;
        // for small theta ~ sigma^2 / (2 theta).
        let mut rng = XorShift64::new(13);
        let (theta, sigma) = (0.1, 0.5);
        let mut ou = OuProcess::new(theta, 0.0, sigma);
        let mut sq = 0.0;
        let n = 200_000;
        for _ in 0..n {
            let v = ou.step(&mut rng);
            sq += v * v;
        }
        let var = sq / n as f64;
        let theory = sigma * sigma / (2.0 * theta - theta * theta);
        assert!(
            (var - theory).abs() / theory < 0.1,
            "var {var} vs theory {theory}"
        );
    }

    #[test]
    fn stream_rngs_reproducible() {
        use rand::RngCore;
        let mut a = stream_rng_indexed(7, "telemetry", 3);
        let mut b = stream_rng_indexed(7, "telemetry", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
