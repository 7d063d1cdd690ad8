//! `sbe-bench` — benchmark and reproduction harness.
//!
//! The `repro` binary regenerates every table and figure of the paper
//! (see `repro --help`); the Criterion benches under `benches/` measure
//! model training/prediction cost (Table III) and pipeline throughput.

use sbepred::experiments::ExperimentOutput;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// Schema tag of [`FastpathReport`] / `BENCH_fastpath.json`.
pub const FASTPATH_SCHEMA: &str = "sbe-bench/fastpath/2";

/// One interpreted-vs-compiled throughput comparison.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FastpathSection {
    /// Predictions per second through the interpreted path.
    pub interpreted_pps: f64,
    /// Predictions per second through the compiled fastpath.
    pub compiled_pps: f64,
    /// `compiled_pps / interpreted_pps`.
    pub speedup: f64,
}

impl FastpathSection {
    /// Builds a section from raw rates, deriving the speedup.
    #[must_use]
    pub fn from_rates(interpreted_pps: f64, compiled_pps: f64) -> FastpathSection {
        FastpathSection {
            interpreted_pps,
            compiled_pps,
            speedup: compiled_pps / interpreted_pps.max(f64::MIN_POSITIVE),
        }
    }
}

/// Workload shape the fastpath bench measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FastpathWorkload {
    /// Rows in the batch-scoring buffer.
    pub batch_rows: usize,
    /// Feature columns per row.
    pub n_features: usize,
    /// Trees in the measured GBDT ensemble.
    pub n_trees: usize,
    /// Depth limit the measured ensemble was grown to.
    pub max_depth: usize,
}

/// Machine-readable fastpath benchmark report — the `BENCH_fastpath.json`
/// artifact CI emits and `repro check-bench` gates on.
///
/// The report compares the interpreted tree-walking scorer (the
/// oracle) against the compiled struct-of-arrays fastpath (the only
/// serving scorer) on the same fitted model, for raw batch scoring.
/// End-to-end stream cost is measured by the repository benchmark's
/// `replay` workload instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FastpathReport {
    /// Always [`FASTPATH_SCHEMA`].
    pub schema: String,
    /// Shape of the measured workload.
    pub workload: FastpathWorkload,
    /// Raw batch scoring, model inference only.
    pub batch: FastpathSection,
}

impl FastpathReport {
    /// Enforces the batch speedup floor on the report.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the schema tag is wrong,
    /// a rate is non-finite or non-positive, or the speedup falls below
    /// its floor.
    pub fn check(&self, min_batch_speedup: f64) -> Result<(), String> {
        if self.schema != FASTPATH_SCHEMA {
            return Err(format!(
                "unexpected schema `{}` (want `{FASTPATH_SCHEMA}`)",
                self.schema
            ));
        }
        let s = &self.batch;
        let healthy = |r: f64| r.is_finite() && r > 0.0;
        if !healthy(s.interpreted_pps) || !healthy(s.compiled_pps) {
            return Err(format!(
                "batch: degenerate rates (interpreted {} pps, compiled {} pps)",
                s.interpreted_pps, s.compiled_pps
            ));
        }
        if s.speedup < min_batch_speedup {
            return Err(format!(
                "batch speedup {:.2}x below floor {min_batch_speedup:.2}x",
                s.speedup
            ));
        }
        Ok(())
    }
}

/// Schema tag of [`TrainReport`] / `BENCH_train.json`.
pub const TRAIN_SCHEMA: &str = "sbe-bench/train/1";

/// Serial and parallel training throughput for one engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainEngineRates {
    /// Rows processed per second (`rows × trees / wall time`) with a
    /// serial thread policy.
    pub serial_rps: f64,
    /// Rows per second with the parallel (`Auto`) policy.
    pub parallel_rps: f64,
}

/// Workload shape the training bench measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainWorkload {
    /// Training rows.
    pub rows: usize,
    /// Feature columns per row.
    pub n_features: usize,
    /// Boosting rounds.
    pub n_trees: usize,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// Quantile bins per feature.
    pub n_bins: usize,
}

/// Machine-readable training benchmark report — the `BENCH_train.json`
/// artifact CI emits and `repro check-bench` gates on.
///
/// `reference` is the pre-histogram-engine per-feature trainer
/// (`TrainMode::Reference`), the fixed baseline every floor is measured
/// against. `exact` is the default single-pass engine (bit-identical
/// trees); `fast` adds sibling subtraction and row-block parallelism
/// (split-identical, locked by the differential suite).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Always [`TRAIN_SCHEMA`].
    pub schema: String,
    /// Shape of the measured workload.
    pub workload: TrainWorkload,
    /// `TrainMode::Reference` throughput (the pre-PR trainer).
    pub reference: TrainEngineRates,
    /// `TrainMode::Exact` throughput.
    pub exact: TrainEngineRates,
    /// `TrainMode::Fast` throughput.
    pub fast: TrainEngineRates,
    /// `fast.serial_rps / reference.serial_rps` — the headline
    /// like-for-like (serial vs serial) engine speedup.
    pub fast_speedup: f64,
    /// `exact.serial_rps / reference.serial_rps`.
    pub exact_speedup: f64,
}

impl TrainReport {
    /// Builds a report from raw rates, deriving the speedups.
    #[must_use]
    pub fn from_rates(
        workload: TrainWorkload,
        reference: TrainEngineRates,
        exact: TrainEngineRates,
        fast: TrainEngineRates,
    ) -> TrainReport {
        let base = reference.serial_rps.max(f64::MIN_POSITIVE);
        TrainReport {
            schema: TRAIN_SCHEMA.into(),
            workload,
            reference,
            exact,
            fast,
            fast_speedup: fast.serial_rps / base,
            exact_speedup: exact.serial_rps / base,
        }
    }

    /// Enforces throughput floors on the report.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the schema tag is wrong, a
    /// rate is non-finite or non-positive, or a speedup falls below its
    /// floor.
    pub fn check(&self, min_fast_speedup: f64, min_exact_speedup: f64) -> Result<(), String> {
        if self.schema != TRAIN_SCHEMA {
            return Err(format!(
                "unexpected schema `{}` (want `{TRAIN_SCHEMA}`)",
                self.schema
            ));
        }
        let healthy = |r: f64| r.is_finite() && r > 0.0;
        for (name, e) in [
            ("reference", &self.reference),
            ("exact", &self.exact),
            ("fast", &self.fast),
        ] {
            if !healthy(e.serial_rps) || !healthy(e.parallel_rps) {
                return Err(format!(
                    "{name}: degenerate rates (serial {} rows/s, parallel {} rows/s)",
                    e.serial_rps, e.parallel_rps
                ));
            }
        }
        if self.fast_speedup < min_fast_speedup {
            return Err(format!(
                "fast-engine speedup {:.2}x below floor {min_fast_speedup:.2}x",
                self.fast_speedup
            ));
        }
        if self.exact_speedup < min_exact_speedup {
            return Err(format!(
                "exact-engine speedup {:.2}x below floor {min_exact_speedup:.2}x",
                self.exact_speedup
            ));
        }
        Ok(())
    }
}

/// Schema tag of [`SbedReport`] / `BENCH_sbed.json`.
pub const SBED_SCHEMA: &str = "sbe-bench/sbed/1";

/// Workload shape the sbed saturation bench measured.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SbedWorkload {
    /// Concurrent fleet connections.
    pub conns: usize,
    /// Nodes in the serving topology.
    pub n_nodes: u32,
    /// Requests per pass (events + the FINISH frame).
    pub requests: u64,
    /// Simulated minutes per pass.
    pub minutes: u64,
}

/// Saturation throughput at one scoring-worker count.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SbedWorkerRate {
    /// `ServeConfig::threads = Fixed(workers)` scoring workers.
    pub workers: usize,
    /// End-to-end requests per second through the loopback daemon.
    pub requests_per_sec: f64,
}

/// Fleet-side request latency percentiles (send → admission ACK).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SbedLatency {
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

/// Machine-readable sbed saturation report — the `BENCH_sbed.json`
/// artifact CI emits and `repro check-bench` gates on.
///
/// The daemon sequences all scoring through one engine thread, so the
/// scaling column is a *no-collapse* gate, not a speedup claim: adding
/// scoring workers must never crater end-to-end throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SbedReport {
    /// Always [`SBED_SCHEMA`].
    pub schema: String,
    /// Shape of the measured workload.
    pub workload: SbedWorkload,
    /// Requests/sec at each measured worker count.
    pub rates: Vec<SbedWorkerRate>,
    /// Best multi-worker rate divided by the single-worker rate.
    pub scaling: f64,
    /// Fleet-side latency percentiles (from the run with the most
    /// workers).
    pub latency: SbedLatency,
}

impl SbedReport {
    /// Builds a report from raw rates, deriving the scaling ratio
    /// (best multi-worker rate over the single-worker rate; 1.0 when
    /// only one worker count was measured).
    #[must_use]
    pub fn from_rates(
        workload: SbedWorkload,
        rates: Vec<SbedWorkerRate>,
        latency: SbedLatency,
    ) -> SbedReport {
        let base = rates
            .iter()
            .find(|r| r.workers == 1)
            .or(rates.first())
            .map_or(f64::MIN_POSITIVE, |r| r.requests_per_sec)
            .max(f64::MIN_POSITIVE);
        let best_multi = rates
            .iter()
            .filter(|r| r.workers > 1)
            .map(|r| r.requests_per_sec)
            .fold(f64::NAN, f64::max);
        let scaling = if best_multi.is_nan() {
            1.0
        } else {
            best_multi / base
        };
        SbedReport {
            schema: SBED_SCHEMA.into(),
            workload,
            rates,
            scaling,
            latency,
        }
    }

    /// Enforces throughput floors on the report.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the schema tag is wrong,
    /// the report is empty, a rate is non-finite/non-positive or below
    /// `min_rps`, the scaling ratio falls below `min_scale`, or the
    /// latency percentiles are inconsistent.
    pub fn check(&self, min_rps: f64, min_scale: f64) -> Result<(), String> {
        if self.schema != SBED_SCHEMA {
            return Err(format!(
                "unexpected schema `{}` (want `{SBED_SCHEMA}`)",
                self.schema
            ));
        }
        if self.rates.is_empty() {
            return Err("no worker rates measured".into());
        }
        for r in &self.rates {
            if !r.requests_per_sec.is_finite() || r.requests_per_sec <= 0.0 {
                return Err(format!(
                    "degenerate rate at {} workers: {} req/s",
                    r.workers, r.requests_per_sec
                ));
            }
            if r.requests_per_sec < min_rps {
                return Err(format!(
                    "{:.0} req/s at {} workers below floor {min_rps:.0} req/s",
                    r.requests_per_sec, r.workers
                ));
            }
        }
        if self.scaling < min_scale {
            return Err(format!(
                "worker scaling {:.2}x below floor {min_scale:.2}x",
                self.scaling
            ));
        }
        if self.latency.p99_ns < self.latency.p50_ns {
            return Err(format!(
                "inconsistent latency percentiles: p99 {} ns < p50 {} ns",
                self.latency.p99_ns, self.latency.p50_ns
            ));
        }
        Ok(())
    }
}

/// Schema tag for the continual-learning overhead report.
pub const DRIFT_SCHEMA: &str = "sbe-bench/drift/1";

/// Workload shape the drift bench measured.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DriftWorkload {
    /// Stream events replayed per pass.
    pub events: u64,
    /// Score requests issued per pass.
    pub requests: u64,
    /// Labeled (score, outcome) pairs the monitor folded.
    pub pairs: u64,
    /// Hot swaps committed during the adaptive pass.
    pub swaps: u64,
}

/// Machine-readable continual-learning overhead report — the
/// `BENCH_drift.json` artifact CI emits and `repro check-bench` gates
/// on.
///
/// Two numbers matter: the drift monitor must ride the streaming path
/// nearly for free (`adapt_ratio` = adaptive events/sec over plain
/// serve events/sec), and the hot swap must pause the stream for no
/// longer than an ordinary batch flush.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftReport {
    /// Always [`DRIFT_SCHEMA`].
    pub schema: String,
    /// Shape of the measured workload.
    pub workload: DriftWorkload,
    /// Plain `serve_observed` replay, events per second.
    pub plain_eps: f64,
    /// Adaptive `run_adapt` replay (monitor + window riding along, no
    /// verdict fired), events per second.
    pub adapt_eps: f64,
    /// `adapt_eps / plain_eps` — the monitor's streaming overhead.
    pub adapt_ratio: f64,
    /// Worst observed artifact-swap pause (prepare + flush + commit),
    /// nanoseconds.
    pub swap_pause_ns: u64,
}

impl DriftReport {
    /// Builds a report from raw throughputs, deriving the overhead
    /// ratio.
    #[must_use]
    pub fn from_rates(
        workload: DriftWorkload,
        plain_eps: f64,
        adapt_eps: f64,
        swap_pause_ns: u64,
    ) -> DriftReport {
        DriftReport {
            schema: DRIFT_SCHEMA.into(),
            workload,
            plain_eps,
            adapt_eps,
            adapt_ratio: adapt_eps / plain_eps.max(f64::MIN_POSITIVE),
            swap_pause_ns,
        }
    }

    /// Enforces the overhead floors on the report.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the schema tag is wrong, a
    /// throughput is non-finite/non-positive, the monitor overhead
    /// pushes `adapt_ratio` below `min_ratio`, or the swap pause
    /// exceeds `max_swap_pause_ns`.
    pub fn check(&self, min_ratio: f64, max_swap_pause_ns: u64) -> Result<(), String> {
        if self.schema != DRIFT_SCHEMA {
            return Err(format!(
                "unexpected schema `{}` (want `{DRIFT_SCHEMA}`)",
                self.schema
            ));
        }
        for (name, v) in [("plain_eps", self.plain_eps), ("adapt_eps", self.adapt_eps)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("degenerate {name}: {v}"));
            }
        }
        if self.adapt_ratio < min_ratio {
            return Err(format!(
                "adaptive replay retains {:.2}x of plain serve throughput, \
                 below floor {min_ratio:.2}x",
                self.adapt_ratio
            ));
        }
        if self.swap_pause_ns > max_swap_pause_ns {
            return Err(format!(
                "swap pause {} ns exceeds ceiling {max_swap_pause_ns} ns",
                self.swap_pause_ns
            ));
        }
        Ok(())
    }
}

/// The workspace's only real [`obskit::Clock`]: nanoseconds since the
/// clock's construction, backed by [`std::time::Instant`].
///
/// It lives here — not in `obskit` — because the bench crate is the one
/// place detlint permits wall-clock reads (rule D002). Library code takes
/// `&dyn Clock` and defaults to [`obskit::NullClock`]; the `repro` binary
/// injects a `WallClock` when real train-time columns are wanted.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Creates a clock whose origin is "now".
    #[must_use]
    pub fn new() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl obskit::Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Writes an experiment's JSON payload next to the printed report.
///
/// # Errors
///
/// Returns an `std::io::Error` when the directory cannot be created or
/// the file cannot be written.
pub fn persist_json(dir: &Path, out: &ExperimentOutput) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", out.id));
    let payload = serde_json::json!({
        "id": out.id,
        "title": out.title,
        "result": out.json,
    });
    std::fs::write(path, serde_json::to_string_pretty(&payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        use obskit::Clock;
        let c = WallClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    fn report(batch: f64) -> FastpathReport {
        FastpathReport {
            schema: FASTPATH_SCHEMA.into(),
            workload: FastpathWorkload {
                batch_rows: 4096,
                n_features: 80,
                n_trees: 120,
                max_depth: 8,
            },
            batch: FastpathSection::from_rates(1_000.0, 1_000.0 * batch),
        }
    }

    #[test]
    fn fastpath_report_passes_at_or_above_floor() {
        assert!(report(5.0).check(5.0).is_ok());
        assert!(report(8.0).check(5.0).is_ok());
    }

    #[test]
    fn fastpath_report_fails_below_floor() {
        let err = report(4.9).check(5.0).unwrap_err();
        assert!(err.contains("batch speedup"), "{err}");
    }

    #[test]
    fn fastpath_report_rejects_wrong_schema_and_degenerate_rates() {
        let mut r = report(5.0);
        r.schema = "sbe-bench/fastpath/1".into();
        assert!(r.check(1.0).unwrap_err().contains("schema"));
        let mut r = report(5.0);
        r.batch.interpreted_pps = 0.0;
        assert!(r.check(0.0).unwrap_err().contains("degenerate"));
        let mut r = report(5.0);
        r.batch.compiled_pps = f64::NAN;
        assert!(r.check(0.0).unwrap_err().contains("degenerate"));
    }

    #[test]
    fn fastpath_report_round_trips_through_json() {
        let r = report(6.0);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: FastpathReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, FASTPATH_SCHEMA);
        assert_eq!(back.batch.speedup.to_bits(), r.batch.speedup.to_bits());
        assert_eq!(back.workload.n_trees, 120);
    }

    fn train_report(exact: f64, fast: f64) -> TrainReport {
        let base = 100_000.0;
        TrainReport::from_rates(
            TrainWorkload {
                rows: 12_000,
                n_features: 64,
                n_trees: 150,
                max_depth: 10,
                n_bins: 64,
            },
            TrainEngineRates {
                serial_rps: base,
                parallel_rps: base * 2.0,
            },
            TrainEngineRates {
                serial_rps: base * exact,
                parallel_rps: base * exact * 2.0,
            },
            TrainEngineRates {
                serial_rps: base * fast,
                parallel_rps: base * fast * 2.0,
            },
        )
    }

    #[test]
    fn train_report_passes_at_or_above_floor() {
        assert!(train_report(1.2, 2.0).check(2.0, 1.0).is_ok());
        assert!(train_report(1.5, 3.5).check(2.0, 1.0).is_ok());
    }

    #[test]
    fn train_report_fails_below_floor() {
        let err = train_report(1.2, 1.9).check(2.0, 1.0).unwrap_err();
        assert!(err.contains("fast-engine speedup"), "{err}");
        let err = train_report(0.8, 2.5).check(2.0, 1.0).unwrap_err();
        assert!(err.contains("exact-engine speedup"), "{err}");
    }

    #[test]
    fn train_report_rejects_wrong_schema_and_degenerate_rates() {
        let mut r = train_report(1.2, 2.5);
        r.schema = "sbe-bench/train/0".into();
        assert!(r.check(0.0, 0.0).unwrap_err().contains("schema"));
        let mut r = train_report(1.2, 2.5);
        r.fast.parallel_rps = f64::NAN;
        assert!(r.check(0.0, 0.0).unwrap_err().contains("degenerate"));
        let mut r = train_report(1.2, 2.5);
        r.reference.serial_rps = 0.0;
        assert!(r.check(0.0, 0.0).unwrap_err().contains("degenerate"));
    }

    #[test]
    fn train_report_round_trips_through_json() {
        let r = train_report(1.3, 2.8);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: TrainReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, TRAIN_SCHEMA);
        assert_eq!(back.fast_speedup.to_bits(), r.fast_speedup.to_bits());
        assert_eq!(back.workload.n_trees, 150);
    }

    fn sbed_report(rps: f64, scale: f64) -> SbedReport {
        SbedReport::from_rates(
            SbedWorkload {
                conns: 64,
                n_nodes: 1_600,
                requests: 6_121,
                minutes: 120,
            },
            vec![
                SbedWorkerRate {
                    workers: 1,
                    requests_per_sec: rps,
                },
                SbedWorkerRate {
                    workers: 2,
                    requests_per_sec: rps * scale,
                },
                SbedWorkerRate {
                    workers: 8,
                    requests_per_sec: rps * scale * 0.9,
                },
            ],
            SbedLatency {
                p50_ns: 40_000,
                p99_ns: 900_000,
            },
        )
    }

    #[test]
    fn sbed_report_passes_at_or_above_floor() {
        assert!(sbed_report(5_000.0, 1.1).check(1_000.0, 0.5).is_ok());
        let r = sbed_report(5_000.0, 1.1);
        assert!((r.scaling - 1.1).abs() < 1e-9, "scaling {}", r.scaling);
    }

    #[test]
    fn sbed_report_fails_below_floor() {
        let err = sbed_report(900.0, 1.0).check(1_000.0, 0.5).unwrap_err();
        assert!(err.contains("below floor"), "{err}");
        let err = sbed_report(5_000.0, 0.4).check(1_000.0, 0.5).unwrap_err();
        assert!(err.contains("scaling"), "{err}");
    }

    #[test]
    fn sbed_report_rejects_wrong_schema_and_degenerate_shapes() {
        let mut r = sbed_report(5_000.0, 1.0);
        r.schema = "sbe-bench/sbed/0".into();
        assert!(r.check(0.0, 0.0).unwrap_err().contains("schema"));
        let mut r = sbed_report(5_000.0, 1.0);
        r.rates.clear();
        assert!(r.check(0.0, 0.0).unwrap_err().contains("no worker rates"));
        let mut r = sbed_report(5_000.0, 1.0);
        r.rates[1].requests_per_sec = f64::NAN;
        assert!(r.check(0.0, 0.0).unwrap_err().contains("degenerate"));
        let mut r = sbed_report(5_000.0, 1.0);
        r.latency = SbedLatency {
            p50_ns: 10,
            p99_ns: 5,
        };
        assert!(r.check(0.0, 0.0).unwrap_err().contains("percentiles"));
    }

    #[test]
    fn sbed_report_round_trips_through_json() {
        let r = sbed_report(7_500.0, 1.2);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: SbedReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, SBED_SCHEMA);
        assert_eq!(back.scaling.to_bits(), r.scaling.to_bits());
        assert_eq!(back.rates.len(), 3);
        assert_eq!(back.latency.p99_ns, 900_000);
    }

    fn drift_report(ratio: f64, pause_ns: u64) -> DriftReport {
        DriftReport::from_rates(
            DriftWorkload {
                events: 10_000,
                requests: 2_500,
                pairs: 400,
                swaps: 1,
            },
            20_000.0,
            20_000.0 * ratio,
            pause_ns,
        )
    }

    #[test]
    fn drift_report_passes_at_or_above_floor() {
        assert!(drift_report(0.9, 1_000_000).check(0.5, 250_000_000).is_ok());
        assert!(drift_report(0.5, 250_000_000)
            .check(0.5, 250_000_000)
            .is_ok());
    }

    #[test]
    fn drift_report_fails_below_floor() {
        let err = drift_report(0.4, 1_000)
            .check(0.5, 250_000_000)
            .unwrap_err();
        assert!(err.contains("throughput"), "{err}");
        let err = drift_report(0.9, 300_000_000)
            .check(0.5, 250_000_000)
            .unwrap_err();
        assert!(err.contains("swap pause"), "{err}");
    }

    #[test]
    fn drift_report_rejects_wrong_schema_and_degenerate_rates() {
        let mut r = drift_report(0.9, 1_000);
        r.schema = "nope".into();
        assert!(r.check(0.0, u64::MAX).unwrap_err().contains("schema"));
        let mut r = drift_report(0.9, 1_000);
        r.adapt_eps = f64::NAN;
        assert!(r.check(0.0, u64::MAX).unwrap_err().contains("adapt_eps"));
        let mut r = drift_report(0.9, 1_000);
        r.plain_eps = 0.0;
        assert!(r.check(0.0, u64::MAX).unwrap_err().contains("plain_eps"));
    }

    #[test]
    fn drift_report_round_trips_through_json() {
        let r = drift_report(0.8, 42_000);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: DriftReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, DRIFT_SCHEMA);
        assert_eq!(back.adapt_ratio.to_bits(), r.adapt_ratio.to_bits());
        assert_eq!(back.swap_pause_ns, 42_000);
        assert_eq!(back.workload.swaps, 1);
    }

    #[test]
    fn persist_writes_file() {
        let dir = std::env::temp_dir().join("sbe-bench-test");
        let out = ExperimentOutput {
            id: "unit".into(),
            title: "t".into(),
            text: String::new(),
            json: serde_json::json!({"x": 1}),
        };
        persist_json(&dir, &out).unwrap();
        let s = std::fs::read_to_string(dir.join("unit.json")).unwrap();
        assert!(s.contains("\"x\": 1"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
