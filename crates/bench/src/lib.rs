//! `sbe-bench` — benchmark and reproduction harness.
//!
//! The `repro` binary regenerates every table and figure of the paper
//! (see `repro --help`); the Criterion benches under `benches/` measure
//! model training/prediction cost (Table III) and pipeline throughput.
//! The trajectory benches (`fastpath`, `trainpath`, `sbed`, `drift`)
//! each write one [`BenchReport`], which `repro check-bench` gates on.

use sbepred::experiments::ExperimentOutput;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Schema tag of every bench report (`BENCH_<bench>.json`).
pub const REPORT_SCHEMA: &str = "sbe-bench/report/1";

/// Which way a metric improves, and so which side its limit bounds.
///
/// The variants are spelled the way the report's JSON spells them.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// A larger value is better; the limit is a floor.
    higher,
    /// A smaller value is better; the limit is a ceiling.
    lower,
}

/// One measured number of a bench report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    /// Name, unique within its report.
    pub name: String,
    /// Unit of `value`, e.g. `req/s`, `ms` or `ratio`.
    pub unit: String,
    /// The measurement: a rate, a ratio or a duration, so finite and
    /// positive whenever something was measured.
    pub value: f64,
    /// Which way `value` improves.
    pub better: Better,
    /// The gate: a floor when `better` is `higher`, a ceiling when it is
    /// `lower`; `None` records the number without gating it.
    pub limit: Option<f64>,
}

impl Metric {
    /// A metric where a larger value is better, not gated.
    #[must_use]
    pub fn higher(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            better: Better::higher,
            limit: None,
        }
    }

    /// A metric where a smaller value is better, not gated.
    #[must_use]
    pub fn lower(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            better: Better::lower,
            ..Metric::higher(name, unit, value)
        }
    }

    /// Gates the metric on `limit`, a floor or a ceiling per `better`.
    #[must_use]
    pub fn limit(self, limit: f64) -> Metric {
        Metric {
            limit: Some(limit),
            ..self
        }
    }
}

/// The machine-readable report every trajectory bench writes to
/// `BENCH_<bench>.json` and `repro check-bench` gates on: a flat metric
/// list a reader can check without knowing which bench produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`REPORT_SCHEMA`].
    pub schema: String,
    /// The bench that wrote the report; names its file.
    pub bench: String,
    /// Shape of the measured workload, including the measuring host's
    /// `host_cpus`.
    pub workload: BTreeMap<String, u64>,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// Builds a report for `bench`, adding `host_cpus` (the host's
    /// available parallelism) to the workload.
    #[must_use]
    pub fn new(bench: &str, workload: &[(&str, u64)], metrics: Vec<Metric>) -> BenchReport {
        let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        BenchReport {
            schema: REPORT_SCHEMA.into(),
            bench: bench.into(),
            workload: workload
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .chain([("host_cpus".to_string(), host_cpus)])
                .collect(),
            metrics,
        }
    }

    /// Checks the report: the schema tag, unique metric names, a finite
    /// positive value for every metric, at least one limit, and every
    /// limit held.
    ///
    /// # Errors
    ///
    /// Returns every failure found, `; `-separated.
    pub fn check(&self) -> Result<(), String> {
        if self.schema != REPORT_SCHEMA {
            return Err(format!(
                "unexpected schema `{}` (want `{REPORT_SCHEMA}`)",
                self.schema
            ));
        }
        let mut failures = Vec::new();
        let mut names = BTreeSet::new();
        for m in &self.metrics {
            if !names.insert(m.name.as_str()) {
                failures.push(format!("duplicate metric `{}`", m.name));
            }
            if !(m.value.is_finite() && m.value > 0.0) {
                failures.push(format!("{}: degenerate value {}", m.name, m.value));
                continue;
            }
            if let Some(limit) = m.limit {
                let (held, side) = match m.better {
                    Better::higher => (m.value >= limit, "below floor"),
                    Better::lower => (m.value <= limit, "above ceiling"),
                };
                if !held {
                    failures.push(format!("{} {} {} {side} {limit}", m.name, m.value, m.unit));
                }
            }
        }
        if self.metrics.iter().all(|m| m.limit.is_none()) {
            failures.push("no metric carries a limit".into());
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }

    /// Writes the report to `BENCH_<bench>.json` at the workspace root
    /// and prints it.
    ///
    /// # Panics
    ///
    /// When the file cannot be written: a bench that measured but did
    /// not publish must fail, or a gate would read an older report.
    pub fn write(&self) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the workspace root");
        let path = root.join(format!("BENCH_{}.json", self.bench));
        let json = serde_json::to_string_pretty(self).expect("a report serialises");
        if let Err(e) = std::fs::write(&path, json + "\n") {
            panic!("could not write {}: {e}", path.display());
        }
        eprint!("{self}");
        eprintln!("report written to {}", path.display());
    }
}

impl std::fmt::Display for BenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape: Vec<String> = self
            .workload
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        writeln!(f, "{} bench ({}):", self.bench, shape.join(", "))?;
        for m in &self.metrics {
            write!(f, "  {:<24} {:>14.3} {}", m.name, m.value, m.unit)?;
            match (m.better, m.limit) {
                (Better::higher, Some(l)) => writeln!(f, " (floor {l})")?,
                (Better::lower, Some(l)) => writeln!(f, " (ceiling {l})")?,
                (_, None) => writeln!(f)?,
            }
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

    /// A passing report with a floor, a ceiling and an ungated metric.
    fn report() -> BenchReport {
        BenchReport::new(
            "unit",
            &[("rows", 12_000)],
            vec![
                Metric::higher("speedup", "ratio", 3.0).limit(2.0),
                Metric::lower("pause_ms", "ms", 0.5).limit(250.0),
                Metric::higher("rate", "req/s", 7_500.0),
            ],
        )
    }

    #[test]
    fn check_passes_inside_and_at_every_limit() {
        let r = report();
        assert_eq!(r.check(), Ok(()));
        assert!(r.workload.contains_key("host_cpus"));
        let mut r = report();
        r.metrics[0].value = 2.0;
        r.metrics[1].value = 250.0;
        assert_eq!(r.check(), Ok(()));
    }

    #[test]
    fn check_fails_every_broken_report() {
        type Breaker = fn(&mut BenchReport);
        let cases: [(&str, Breaker, &str); 14] = [
            ("unknown schema", |r| r.schema = "nope".into(), "schema"),
            (
                "old fastpath schema",
                |r| r.schema = "sbe-bench/fastpath/2".into(),
                "schema",
            ),
            (
                "old train schema",
                |r| r.schema = "sbe-bench/train/1".into(),
                "schema",
            ),
            (
                "old sbed schema",
                |r| r.schema = "sbe-bench/sbed/1".into(),
                "schema",
            ),
            (
                "old drift schema",
                |r| r.schema = "sbe-bench/drift/1".into(),
                "schema",
            ),
            ("below floor", |r| r.metrics[0].value = 1.99, "below floor"),
            (
                "above ceiling",
                |r| r.metrics[1].value = 250.5,
                "above ceiling",
            ),
            ("NaN", |r| r.metrics[2].value = f64::NAN, "degenerate"),
            (
                "infinite",
                |r| r.metrics[2].value = f64::INFINITY,
                "degenerate",
            ),
            ("zero", |r| r.metrics[2].value = 0.0, "degenerate"),
            ("negative", |r| r.metrics[0].value = -3.0, "degenerate"),
            (
                "no limited metric",
                |r| r.metrics.iter_mut().for_each(|m| m.limit = None),
                "no metric carries a limit",
            ),
            (
                "p99 below p50",
                |r| {
                    r.metrics
                        .push(Metric::higher("p99_over_p50", "ratio", 0.9).limit(1.0))
                },
                "p99_over_p50",
            ),
            (
                "duplicate name",
                |r| r.metrics.push(Metric::higher("rate", "req/s", 1.0)),
                "duplicate",
            ),
        ];
        for (what, break_it, needle) in cases {
            let mut r = report();
            break_it(&mut r);
            let err = r.check().expect_err(what);
            assert!(err.contains(needle), "{what}: {err}");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("\"better\": \"lower\""), "{json}");
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, REPORT_SCHEMA);
        assert_eq!(back.bench, "unit");
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.metrics.len(), r.metrics.len());
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!((&a.name, &a.unit, a.better), (&b.name, &b.unit, b.better));
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.limit.map(f64::to_bits), b.limit.map(f64::to_bits));
        }
        assert_eq!(back.check(), Ok(()));
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
