//! Locks the committed `BENCH_*.json` reports: each parses as one
//! `sbe-bench/report/1` report named after its file, is well-formed, and
//! carries exactly the limits its bench gates on. A report keeps every
//! gate as data, so this is the check that makes a dropped or lowered
//! limit show up in review.
//!
//! Values are not compared with their limits: `repro check-bench` does
//! that on freshly written reports, and the outcome depends on the
//! measuring host.

use sbe_bench::{BenchReport, Better, REPORT_SCHEMA};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Every gated metric: (bench, metric, direction, limit).
const LIMITS: [(&str, &str, Better, f64); 10] = [
    ("fastpath", "batch_speedup", Better::higher, 3.0),
    ("train", "fast_speedup", Better::higher, 2.0),
    ("train", "exact_speedup", Better::higher, 1.0),
    ("sbed", "rps_1_workers", Better::higher, 500.0),
    ("sbed", "rps_2_workers", Better::higher, 500.0),
    ("sbed", "rps_8_workers", Better::higher, 500.0),
    ("sbed", "scaling", Better::higher, 0.8),
    ("sbed", "p99_over_p50", Better::higher, 1.0),
    ("drift", "adapt_ratio", Better::higher, 0.4),
    ("drift", "swap_pause_ms", Better::lower, 250.0),
];

#[test]
fn committed_reports_are_well_formed_and_carry_their_limits() {
    for bench in ["fastpath", "train", "sbed", "drift"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("BENCH_{bench}.json"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report: BenchReport =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(report.schema, REPORT_SCHEMA, "{bench}");
        assert_eq!(report.bench, bench);
        assert!(report.workload.contains_key("host_cpus"), "{bench}");

        let mut names = BTreeSet::new();
        for m in &report.metrics {
            assert!(
                names.insert(&m.name),
                "{bench}: duplicate metric {}",
                m.name
            );
            assert!(m.value.is_finite(), "{bench}: {} = {}", m.name, m.value);
        }

        let limits: BTreeMap<&str, (Better, f64)> = report
            .metrics
            .iter()
            .filter_map(|m| Some((m.name.as_str(), (m.better, m.limit?))))
            .collect();
        let want: BTreeMap<&str, (Better, f64)> = LIMITS
            .iter()
            .filter(|l| l.0 == bench)
            .map(|&(_, name, better, limit)| (name, (better, limit)))
            .collect();
        assert_eq!(limits, want, "{bench}");
    }
}
