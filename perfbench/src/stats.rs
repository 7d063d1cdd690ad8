//! The benchmark's own arithmetic: percentiles, the fleet ladder rule,
//! the per-layer time ledger and metric-name checks. Everything here is
//! pure and unit-tested.

use std::time::Instant;

/// A nearest-rank percentile together with the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly above the rank: how well the tail is supported.
    pub beyond: usize,
}

/// Nearest-rank percentile `pct` (1..=100) of `samples`: the smallest
/// sample with at least `pct`% of all samples at or below it. `None`
/// for an empty sample or a percentage outside 1..=100.
pub fn percentile(samples: &[f64], pct: u32) -> Option<Percentile> {
    if samples.is_empty() || !(1..=100).contains(&pct) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Integer ceiling of pct * n / 100, so 99% of 1000 is rank 990.
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// ACK p99 a rung may reach and still count as sustained.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// Answered frames a rung needs, so that at least ten lie beyond p99.
pub const MIN_ANSWERED: usize = 1_000;
/// Growth of the sent-but-unACKed backlog across a rung (in frames)
/// that still counts as steady: both connections' in-flight windows.
pub const BACKLOG_SLACK: f64 = 128.0;

/// What one ladder rung measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, events per second.
    pub rate: f64,
    /// Frames ACKed before the deadline.
    pub answered: usize,
    /// ACK latency p99 over the answered frames.
    pub p99_ms: Option<f64>,
    /// Frames refused, unanswered at the deadline, or answered wrongly.
    pub failed: u64,
    /// Mean backlog over the rung's last quarter minus its first.
    pub backlog_growth: f64,
}

impl Rung {
    /// The ladder rule: latency limit met, no failed frame, enough
    /// answered frames, and no growing backlog.
    pub fn sustained(&self) -> bool {
        self.failed == 0
            && self.answered >= MIN_ANSWERED
            && self.p99_ms.is_some_and(|p| p <= LATENCY_LIMIT_MS)
            && self.backlog_growth <= BACKLOG_SLACK
    }
}

/// The highest rung rate that meets the ladder rule.
pub fn sustained_rate(rungs: &[Rung]) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.sustained())
        .map(|r| r.rate)
        .max_by(f64::total_cmp)
}

/// Backlog growth across a rung from evenly spaced backlog samples: the
/// mean of the last quarter minus the mean of the first quarter.
pub fn backlog_growth(samples: &[f64]) -> f64 {
    let q = samples.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&samples[samples.len() - q..]) - mean(&samples[..q])
}

/// Wall time of a traced phase split into named layer times. The
/// residual is the wall time no layer claims; a negative residual means
/// two layers overlap, which the traced runs refuse.
#[derive(Debug)]
pub struct Ledger {
    start: Instant,
    layers: Vec<(&'static str, f64)>,
}

impl Ledger {
    pub fn start() -> Ledger {
        Ledger {
            start: Instant::now(),
            layers: Vec::new(),
        }
    }

    /// Adds `secs` to layer `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => self.layers.push((name, secs)),
        }
    }

    /// Time `f` and book it to layer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    pub fn get(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Closes the ledger: the wall time so far and its residual.
    pub fn close(&self) -> Result<(f64, f64), String> {
        residual(self.start.elapsed().as_secs_f64(), &self.layers)
    }
}

/// `wall` minus the layer times. Errors when the layers claim more than
/// the wall time (beyond rounding): a layer was counted twice.
pub fn residual(wall: f64, layers: &[(&'static str, f64)]) -> Result<(f64, f64), String> {
    let claimed: f64 = layers.iter().map(|(_, s)| s).sum();
    let rest = wall - claimed;
    if rest < -1e-9 * wall.max(1.0) {
        return Err(format!(
            "layer times ({claimed:.6} s) exceed the traced wall time ({wall:.6} s)"
        ));
    }
    Ok((wall, rest.max(0.0)))
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!((p99.n, p99.beyond), (1000, 10));
        let p50 = percentile(&xs, 50).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        assert_eq!(percentile(&xs, 100).unwrap().value, 1000.0);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99), Some(p99));
        // Tiny samples: the rank rounds up and never falls off the end.
        assert_eq!(percentile(&[7.0], 99).unwrap().value, 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50).unwrap().value, 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50).unwrap().value, 2.0);
        assert!(percentile(&[], 50).is_none());
        assert!(percentile(&xs, 0).is_none());
        assert!(percentile(&xs, 101).is_none());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn rung(rate: f64, p99: f64, failed: u64, growth: f64) -> Rung {
        Rung {
            rate,
            answered: 5_000,
            p99_ms: Some(p99),
            failed,
            backlog_growth: growth,
        }
    }

    #[test]
    fn ladder_rule_checks_latency_failures_and_backlog() {
        assert!(rung(1.0, LATENCY_LIMIT_MS, 0, 0.0).sustained());
        assert!(!rung(1.0, LATENCY_LIMIT_MS + 0.01, 0, 0.0).sustained());
        assert!(!rung(1.0, 1.0, 1, 0.0).sustained());
        assert!(rung(1.0, 1.0, 0, BACKLOG_SLACK).sustained());
        assert!(!rung(1.0, 1.0, 0, BACKLOG_SLACK + 1.0).sustained());
        let thin = Rung {
            answered: MIN_ANSWERED - 1,
            ..rung(1.0, 1.0, 0, 0.0)
        };
        assert!(!thin.sustained());
        let no_latency = Rung {
            p99_ms: None,
            ..rung(1.0, 1.0, 0, 0.0)
        };
        assert!(!no_latency.sustained());
        // The highest passing rung wins, even above a failing one.
        let ladder = [
            rung(10.0, 1.0, 0, 0.0),
            rung(20.0, 50.0, 0, 0.0),
            rung(30.0, 2.0, 0, 0.0),
            rung(40.0, 2.0, 3, 0.0),
        ];
        assert_eq!(sustained_rate(&ladder), Some(30.0));
        assert_eq!(sustained_rate(&ladder[1..2]), None);
    }

    #[test]
    fn backlog_growth_compares_quarters() {
        let steady = [5.0, 7.0, 5.0, 6.0, 7.0, 5.0, 6.0, 5.0];
        assert!(backlog_growth(&steady).abs() <= 1.0);
        let growing: Vec<f64> = (0..8).map(|i| 100.0 * f64::from(i)).collect();
        assert_eq!(backlog_growth(&growing), 600.0);
        assert_eq!(backlog_growth(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn residual_sums_back_to_wall_time() {
        let layers = [("a", 1.25), ("b", 0.5), ("c", 0.125)];
        let (wall, rest) = residual(2.0, &layers).unwrap();
        let claimed: f64 = layers.iter().map(|(_, s)| s).sum();
        assert_eq!(claimed + rest, wall);
        assert_eq!(rest, 0.125);
        assert!(residual(1.0, &layers).is_err());
        let mut ledger = Ledger::start();
        ledger.add("x", 0.0);
        ledger.time("y", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        ledger.add("x", 0.0);
        let (wall, rest) = ledger.close().unwrap();
        assert!(ledger.get("y") >= 0.002);
        assert!((ledger.get("x") + ledger.get("y") + rest - wall).abs() < 1e-12);
    }

    #[test]
    fn metric_names_and_units() {
        for ok in [
            "samples_per_s",
            "sbed.session_us.p99",
            "a",
            "9-x",
            "ack_p50_ms.low",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "rows.trees/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
