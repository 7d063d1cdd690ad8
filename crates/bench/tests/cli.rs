//! The `repro` front end: what its flag reader refuses, and the files
//! the deployment loop writes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs `repro` and expects it to print the usage text and exit 1.
fn assert_usage_error(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
    assert!(
        stderr(&out).contains("usage: repro"),
        "{args:?} printed no usage: {}",
        stderr(&out)
    );
}

/// Runs `repro` and expects it to succeed.
fn run_ok(args: &[&str]) {
    let out = repro(args);
    assert!(out.status.success(), "{args:?} failed: {}", stderr(&out));
}

/// A fresh directory for one test's files.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("repro_cli_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn flags_nothing_passes_and_malformed_flags_are_usage_errors() {
    let removed: [[&str; 3]; 12] = [
        ["train", "--train-mode", "fast"],
        ["serve", "--batch", "8"],
        ["serve", "--delay", "2"],
        ["serve-net", "--batch", "8"],
        ["serve-net", "--delay", "2"],
        ["serve-net", "--queue-cap", "16"],
        ["serve-net", "--conn-window", "8"],
        ["fleet", "--window", "8"],
        ["fleet", "--failure-conns", "1"],
        ["fleet", "--corrupt-every", "3"],
        ["adapt", "--check-every", "60"],
        ["adapt", "--threads", "2"],
    ];
    for args in removed {
        assert_usage_error(&args);
    }
    // An unknown flag, a flag without its value, a value that does not
    // parse, and an argument a subcommand does not take.
    assert_usage_error(&["--config", "tiny", "--bogus", "table1"]);
    assert_usage_error(&["--config", "tiny", "table1", "--seed"]);
    assert_usage_error(&["--config", "tiny", "--seed", "x", "table1"]);
    assert_usage_error(&["check-bench", "BENCH_sbed.json"]);

    // A usage error stops the command before it does any work.
    let dir = scratch("usage");
    let out = dir.join("trace.json");
    let out_arg = out.to_str().expect("utf-8 path");
    assert_usage_error(&["save-trace", "--seed", "x", "--out", out_arg]);
    assert!(!out.exists(), "a refused save-trace wrote its output");
}

#[test]
fn help_exits_zero_and_an_unknown_experiment_exits_one() {
    let help = repro(&["--help"]);
    assert!(help.status.success(), "{}", stderr(&help));
    let text = stderr(&help);
    assert!(text.contains("usage: repro"), "{text}");
    assert!(text.contains("ext_importance"), "{text}");
    assert!(
        text.contains("groups: characterization prediction extensions all"),
        "{text}"
    );

    let unknown = repro(&["--config", "tiny", "table99"]);
    assert_eq!(unknown.status.code(), Some(1));
    assert!(
        stderr(&unknown).contains("unknown experiment `table99`"),
        "{}",
        stderr(&unknown)
    );
}

#[test]
fn deployment_loop_writes_trace_artifact_alerts_and_metrics() {
    let dir = scratch("loop");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (trace, model) = (path("trace.json"), path("model.sbemodel"));
    let (alerts, metrics) = (path("out/alerts.json"), path("out/metrics.json"));

    run_ok(&[
        "save-trace",
        "--config",
        "tiny",
        "--seed",
        "13",
        "--out",
        &trace,
    ]);
    run_ok(&[
        "train", "--trace", &trace, "--split", "ds1", "--model", "gbdt", "--seed", "7", "--out",
        &model,
    ]);
    run_ok(&[
        "serve",
        "--model",
        &model,
        "--trace",
        &trace,
        "--alerts-out",
        &alerts,
        "--metrics-out",
        &metrics,
    ]);

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let loaded: titan_sim::trace::TraceSet = serde_json::from_str(&text).expect("trace parses");
    assert!(!loaded.samples().is_empty());

    let artifact =
        streamd::artifact::PipelineArtifact::load(Path::new(&model)).expect("artifact loads");
    assert_eq!(artifact.model().name(), "GBDT");

    let text = std::fs::read_to_string(&alerts).expect("alerts written");
    let alerts: Vec<serde_json::Value> = serde_json::from_str(&text).expect("alerts parse");
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let snapshot: serde_json::Value = serde_json::from_str(&text).expect("metrics parse");
    assert_eq!(snapshot["schema"], "obskit/1");
    assert!(!alerts.is_empty());
    assert_eq!(
        snapshot["counters"]["streamd.alerts"].as_u64(),
        Some(alerts.len() as u64),
        "the alert log and the metrics snapshot disagree"
    );
    std::fs::remove_dir_all(&dir).ok();
}
