//! Metric registry, per-run outcome, and the result lines.
//!
//! Every metric `BENCHMARK.json` names is registered here with its unit;
//! a unit test holds the two lists equal, and every run checks its own
//! output against the file before printing.

use crate::host::HostWindow;
use crate::setup::SetupTimes;
use crate::stats::{valid_name, valid_unit, Rung};
use serde_json::Value;

/// The manifest this benchmark is run under.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 2] = ["replay", "fleet"];

/// End-to-end metrics of untraced runs, every workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("samples_per_cpu_s", "samples/cpu.s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of traced runs, every workload. A layer a workload
/// does not run reads 0 and is listed in the report with the reason.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("titan_sim.generate_s", "s"),
    ("titan_sim.telemetry_query_s", "s"),
    ("titan_sim.telemetry_queries", "count"),
    ("titan_sim.slots_per_query", "slots"),
    ("titan_sim.event_stream_s", "s"),
    ("sbepred.prepare_s", "s"),
    ("mlkit.fit_s", "s"),
    ("mlkit.fit_rows_trees_per_s", "rows.trees/s"),
    ("streamd.step_s", "s"),
    ("streamd.flush_s", "s"),
    ("streamd.flushes", "count"),
    ("streamd.rows_per_flush", "rows"),
    ("streamd.flush_other_s", "s"),
    ("streamd.stage2_share", "fraction"),
    ("parkit.serial_ratio", "ratio"),
    ("sbed.session_us.p50", "us"),
    ("sbed.session_us.p99", "us"),
    ("sbed.session_s", "s"),
    ("sbed.codec_us", "us"),
    ("sbed.transport_ms.p50", "ms"),
    ("sbed.transport_ms.p99", "ms"),
    ("sbed.overloads", "count"),
    ("sbed.retransmits", "count"),
    ("sbed.useful_share", "fraction"),
    ("sbed.open_launches.max", "count"),
    ("sbed.scores_wait_ms.p50", "ms"),
    ("sbed.gen_late_ms.max", "ms"),
    ("driftd.plain_s", "s"),
    ("driftd.sidecar_s", "s"),
    ("driftd.checks_s", "s"),
    ("driftd.verdicts", "count"),
    ("driftd.retrains", "count"),
    ("driftd.promotions", "count"),
    ("driftd.swap_pause_us", "us"),
    ("obskit.enabled_ratio", "ratio"),
    ("residual_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Figures printed in the report line but not gated: wall-clock
/// throughput, the adaptive path's throughput, the fleet ladder's
/// latencies and capacity, and the failure share.
pub const REPORTED: [(&str, &str); 8] = [
    ("samples_per_s", "samples/s"),
    ("adapt.samples_per_s", "samples/s"),
    ("ack_p50_ms.low", "ms"),
    ("ack_p99_ms.low", "ms"),
    ("ack_p50_ms.high", "ms"),
    ("ack_p99_ms.high", "ms"),
    ("sustained_eps", "events/s"),
    ("failed_share", "fraction"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(REPORTED.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    values: Vec<(&'static str, f64)>,
    absent: Vec<(&'static str, String)>,
    context: Vec<(String, f64)>,
    tags: Vec<(String, String)>,
    /// Work items attempted (scored samples or frames).
    pub attempted: u64,
    /// Work items refused, unanswered or wrong.
    pub failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    /// Records a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unregistered metric {name}");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records a figure of context (sample counts, sizes) for the report.
    pub fn context(&mut self, name: impl Into<String>, value: f64) {
        self.context.push((name.into(), value));
    }

    /// Records a textual fact (a fingerprint) for the report.
    pub fn tag(&mut self, name: impl Into<String>, value: String) {
        self.tags.push((name.into(), value));
    }

    /// Counts `n` wrong items: the correctness gate fails.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            self.failures.push(format!("{why} ({n})"));
        }
    }

    /// Counts `n` items refused or unanswered at the deadline: failed,
    /// though every answer that did arrive may still be correct.
    pub fn unanswered(&mut self, n: u64) {
        self.failed += n;
        self.context("unanswered", n as f64);
    }

    /// Records one fleet ladder rung in the report.
    pub fn rung(&mut self, name: &str, r: &Rung) {
        self.context(format!("rung.{name}.rate_eps"), r.rate);
        self.context(format!("rung.{name}.answered"), r.answered as f64);
        self.context(format!("rung.{name}.p99_ms"), r.p99_ms.unwrap_or(0.0));
        self.context(format!("rung.{name}.failed"), r.failed as f64);
        self.context(format!("rung.{name}.backlog_growth"), r.backlog_growth);
        self.context(
            format!("rung.{name}.sustained"),
            f64::from(u8::from(r.sustained())),
        );
    }

    /// Whether the correctness gate passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Marks every per-layer metric under these layer prefixes that was
    /// not measured as absent, with `why`.
    pub fn absent_layers(&mut self, prefixes: &[&str], why: &str) {
        for (name, _) in PER_LAYER {
            let hit = prefixes.iter().any(|p| name.starts_with(&format!("{p}.")));
            if hit && self.get(name).is_none() {
                self.absent.push((name, why.to_string()));
            }
        }
    }

    /// Records the set-up layers.
    pub fn setup_layers(&mut self, t: &SetupTimes) {
        self.set("titan_sim.generate_s", t.generate_s);
        self.set("sbepred.prepare_s", t.prepare_s);
        self.set("mlkit.fit_s", t.fit_s);
        self.set("mlkit.fit_rows_trees_per_s", t.fit_rate);
    }

    /// The metrics a run of this mode prints, in registry order. Errors
    /// on a registered metric the workload neither measured nor
    /// declared absent.
    pub fn metrics(&self, traced: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let registry: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        registry
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) => Ok((name, unit, v)),
                None if self.absent.iter().any(|(n, _)| *n == name) => Ok((name, unit, 0.0)),
                None => Err(format!("workload did not report metric `{name}`")),
            })
            .collect()
    }

    /// The report line: every measured figure with its unit, the absent
    /// layers with their reasons, context, failures and host window.
    pub fn report_json(
        &self,
        workload: &str,
        seed: u64,
        traced: bool,
        host: &HostWindow,
    ) -> String {
        let mut fields = vec![
            format!("\"workload\": {}", quote(workload)),
            format!("\"seed\": {seed}"),
            format!("\"trace\": {traced}"),
            format!("\"host\": {}", host.to_json()),
        ];
        let measured: Vec<String> = self
            .values
            .iter()
            .map(|(n, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    num(*v),
                    quote(unit_of(n).unwrap_or("?"))
                )
            })
            .collect();
        fields.push(format!("\"measured\": {{{}}}", measured.join(", ")));
        let absent: Vec<String> = self
            .absent
            .iter()
            .map(|(n, why)| format!("{}: {}", quote(n), quote(why)))
            .collect();
        fields.push(format!("\"not_measured\": {{{}}}", absent.join(", ")));
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(n, v)| format!("{}: {}", quote(n), num(*v)))
            .collect();
        fields.push(format!("\"context\": {{{}}}", context.join(", ")));
        let tags: Vec<String> = self
            .tags
            .iter()
            .map(|(n, v)| format!("{}: {}", quote(n), quote(v)))
            .collect();
        fields.push(format!("\"tags\": {{{}}}", tags.join(", ")));
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        fields.push(format!("\"failures\": [{}]", failures.join(", ")));
        format!("{{{}}}", fields.join(", "))
    }
}

/// The result line: the last line a run prints.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(n),
                num(*v),
                quote(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (never expected) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `(name, unit)` pairs of one metric list of the manifest.
pub fn manifest_metrics(key: &str) -> Result<Vec<(String, String)>, String> {
    let v: Value = serde_json::from_str(MANIFEST).map_err(|e| e.to_string())?;
    let list = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let unit = m.get("unit").and_then(Value::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("a `{key}` entry lacks a name or unit")),
            }
        })
        .collect()
}

/// Checks a run's metrics against the manifest: every metric it names
/// for this mode is present, with its unit, under a valid name.
pub fn check_against_manifest(
    traced: bool,
    metrics: &[(&'static str, &'static str, f64)],
) -> Result<(), String> {
    let key = if traced { "per_layer" } else { "end_to_end" };
    for (name, unit) in manifest_metrics(key)? {
        if !valid_name(&name) || !valid_unit(&unit) {
            return Err(format!(
                "invalid metric `{name}` [{unit}] in BENCHMARK.json"
            ));
        }
        match metrics.iter().find(|(n, _, _)| *n == name) {
            Some((_, u, _)) if *u == unit => {}
            Some((_, u, _)) => {
                return Err(format!(
                    "metric `{name}` printed in {u}, BENCHMARK.json says {unit}"
                ))
            }
            None => return Err(format!("metric `{name}` of BENCHMARK.json was not printed")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = list
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn manifest_lists_exactly_the_registered_metrics() {
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let mut from_file = manifest_metrics(key).unwrap();
            from_file.sort();
            assert_eq!(from_file, registry(list), "{key}");
        }
        let v: Value = serde_json::from_str(MANIFEST).unwrap();
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn registered_names_and_units_are_valid_and_unique() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (n, u) in &all {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
        }
        for (i, (n, _)) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[i + 1..].iter().all(|(m, _)| m != n),
                "duplicate {n}"
            );
        }
    }

    #[test]
    fn manifest_check_catches_missing_and_mislabelled_metrics() {
        let mut out = Outcome::default();
        for (n, _) in END_TO_END {
            out.set(n, 1.5);
        }
        let printed = out.metrics(false).unwrap();
        assert!(check_against_manifest(false, &printed).is_ok());
        let missing: Vec<_> = printed[1..].to_vec();
        assert!(check_against_manifest(false, &missing).is_err());
        let mut relabelled = printed.clone();
        relabelled[0].1 = "furlongs";
        assert!(check_against_manifest(false, &relabelled).is_err());
        // A layer neither measured nor declared absent is an error.
        assert!(out.metrics(true).is_err());
        out.absent_layers(
            &[
                "titan_sim",
                "sbepred",
                "mlkit",
                "streamd",
                "parkit",
                "sbed",
                "driftd",
                "obskit",
            ],
            "test",
        );
        out.set("residual_s", 0.25);
        out.set("trace_overhead", 1.5);
        let traced = out.metrics(true).unwrap();
        assert!(check_against_manifest(true, &traced).is_ok());
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let line = result_json(true, 10, 0, &[("samples_per_s", "samples/s", 1234.5678)]);
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("samples_per_s").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1234.5678));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("samples/s"));
        assert_eq!(quote("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
