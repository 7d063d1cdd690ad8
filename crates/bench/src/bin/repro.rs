//! Regenerates the paper's tables and figures from a synthetic trace,
//! and drives the streaming inference subsystem.
//!
//! Usage:
//!
//! ```text
//! repro [--config scaled|tiny|titan] [--seed N] [--out DIR]
//!       [--metrics-out FILE] <experiment>...
//! repro save-trace [--config C] [--seed N] --out FILE
//! repro train [--config C] [--seed N | --trace PATH] [--split ds1|ds2|ds3]
//!       [--model gbdt|lr] [--train-mode reference|exact|fast]
//!       [--features all|no-telemetry] --out ARTIFACT
//! repro serve --model ARTIFACT --trace PATH [--alerts-out FILE]
//!       [--metrics-out FILE] [--batch N] [--delay N] [--from M] [--until M]
//!       [--threads N]
//! repro serve-net --model ARTIFACT [--listen ADDR] [--topology tiny|scaled|titan]
//!       [--from M] [--until M] [--batch N] [--delay N] [--threads N]
//!       [--queue-cap N] [--conn-window N] [--record LOG]
//! repro fleet --addr ADDR [--conns N] [--nodes N] [--minutes N] [--rate N]
//!       [--sbe-rate N] [--seed N] [--window N] [--failure-conns N]
//!       [--corrupt-every N] [--metrics-out FILE]
//! repro adapt --model ARTIFACT --trace PATH [--from M] [--until M]
//!       [--check-every N] [--threads N] [--verdicts-out FILE] [--metrics-out FILE]
//! repro check-bench --file BENCH_<bench>.json [--file BENCH_<bench>.json ...]
//! ```
//!
//! `--metrics-out FILE` records pipeline observability metrics (trace
//! generation counts, feature-extraction and TwoStage counters, GBDT
//! training-loop progress) and writes the stable `obskit/1` JSON snapshot
//! to `FILE`. The snapshot is deterministic for a given config/seed.
//!
//! `<experiment>` is one or more of: `fig1 fig2 fig3 fig4 fig5 fig6 fig7
//! fig8 table1 fig10 table2 table3 fig11 table4 fig12 fig13 table5 table6`,
//! or the groups `characterization`, `prediction`, `all`.
//!
//! The `save-trace` / `train` / `serve` subcommands form the deployment
//! loop: persist a generated trace, train and ship a versioned TwoStage
//! pipeline artifact, then replay the trace through `streamd`'s online
//! scoring loop. `--trace PATH` accepts either a trace JSON file or a
//! directory containing `trace.json`. `serve` scores through the
//! flattened fastpath tables, which `train` checks bit for bit against
//! the interpreted trees before it ships an artifact. `train
//! --train-mode fast` fits the GBDT through the histogram engine's
//! sibling-subtraction path (`exact`, the default, is bit-identical to
//! the original trainer). `check-bench` reads the reports that `cargo
//! bench -p sbe-bench --bench fastpath|trainpath|sbed|drift` writes at
//! the workspace root (`BENCH_fastpath.json`, `BENCH_train.json`,
//! `BENCH_sbed.json`, `BENCH_drift.json`, all schema
//! `sbe-bench/report/1`) and fails if a metric breaks the floor or
//! ceiling its bench recorded: the CI guard on every performance
//! trajectory.
//!
//! `serve-net` / `fleet` are the network pair: `serve-net` binds the
//! `sbed` TCP scoring daemon on `--listen` (printing the bound address,
//! so `--listen 127.0.0.1:0` works for scripting) and serves the
//! length-prefixed wire protocol until a client FINISH frame arrives;
//! `fleet` drives such a daemon with the seeded mock fleet and prints
//! the outcome. `serve-net --record LOG` appends every admitted frame
//! to `LOG` and, after the run, replays it through a fresh in-process
//! session as a determinism self-check — the replayed response
//! checksum, report, and metrics snapshot must be byte-identical to
//! the live run. `--threads` falls back to the `SBE_THREADS`
//! environment variable when unset (the CI parity matrix's knob).

use sbe_bench::{persist_json, BenchReport, WallClock, REPORT_SCHEMA};
use sbepred::experiments::{
    characterization as ch, extensions as ext, prediction as pr, ExperimentOutput, Lab, ModelKind,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use titan_sim::config::SimConfig;
use titan_sim::trace::TraceSet;

const CHARACTERIZATION: [&str; 8] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
];
const PREDICTION: [&str; 10] = [
    "table1", "fig10", "table2", "table3", "fig11", "table4", "fig12", "fig13", "table5", "table6",
];
const EXTENSIONS: [&str; 5] = [
    "ext_forecast",
    "ext_imbalance",
    "ext_retrain",
    "ext_oracle",
    "ext_importance",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--config scaled|tiny|titan] [--seed N] [--out DIR] \
         [--metrics-out FILE] <experiment>...\n\
         repro save-trace [--config C] [--seed N] --out FILE\n\
         repro train [--config C] [--seed N | --trace PATH] [--split ds1|ds2|ds3] \
         [--model gbdt|lr] [--train-mode reference|exact|fast] \
         [--features all|no-telemetry] --out ARTIFACT\n\
         repro serve --model ARTIFACT --trace PATH [--alerts-out FILE] \
         [--metrics-out FILE] [--batch N] [--delay N] [--from M] [--until M] [--threads N]\n\
         repro serve-net --model ARTIFACT [--listen ADDR] [--topology tiny|scaled|titan] \
         [--from M] [--until M] [--batch N] [--delay N] [--threads N] \
         [--queue-cap N] [--conn-window N] [--record LOG]\n\
         repro fleet --addr ADDR [--conns N] [--nodes N] [--minutes N] [--rate N] \
         [--sbe-rate N] [--seed N] [--window N] [--failure-conns N] [--corrupt-every N] \
         [--metrics-out FILE]\n\
         repro adapt --model ARTIFACT --trace PATH [--from M] [--until M] \
         [--check-every N] [--threads N] [--verdicts-out FILE] [--metrics-out FILE]\n\
         repro check-bench --file BENCH_<bench>.json [--file BENCH_<bench>.json ...]\n\
         experiments: {} {} {} | groups: characterization prediction extensions all",
        CHARACTERIZATION.join(" "),
        PREDICTION.join(" "),
        EXTENSIONS.join(" ")
    );
    ExitCode::FAILURE
}

/// Builds the named simulator config.
fn build_config(config: &str, seed: u64) -> Option<SimConfig> {
    match config {
        "scaled" => Some(SimConfig::scaled(seed)),
        "tiny" => Some(SimConfig::tiny(seed)),
        "titan" => Some(SimConfig::titan_scale(seed)),
        other => {
            eprintln!("unknown config `{other}`");
            None
        }
    }
}

/// Generates a trace into `rec`, narrating progress to stderr.
fn generate_trace(cfg: &SimConfig, seed: u64, rec: &mut obskit::Recorder) -> Option<TraceSet> {
    eprintln!(
        "generating trace: {} nodes, {} days, seed {seed}...",
        cfg.topology.n_nodes(),
        cfg.days
    );
    let t0 = std::time::Instant::now();
    match titan_sim::engine::generate_full(cfg, rec) {
        Ok((t, _)) => {
            eprintln!(
                "trace ready in {:.1?}: {} apruns, {} samples, positive rate {:.4}",
                t0.elapsed(),
                t.apruns().len(),
                t.samples().len(),
                t.positive_rate()
            );
            Some(t)
        }
        Err(e) => {
            eprintln!("trace generation failed: {e}");
            None
        }
    }
}

/// Loads a persisted trace from a JSON file or a directory holding
/// `trace.json`.
fn load_trace(path: &Path) -> Option<TraceSet> {
    let file = if path.is_dir() {
        path.join("trace.json")
    } else {
        path.to_path_buf()
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read trace `{}`: {e}", file.display());
            return None;
        }
    };
    match serde_json::from_str(&text) {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("could not parse trace `{}`: {e}", file.display());
            None
        }
    }
}

/// `repro save-trace`: generate a trace and persist it as JSON.
fn cmd_save_trace(args: &[String]) -> ExitCode {
    let mut config = "tiny".to_string();
    let mut seed = 42u64;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => match it.next() {
                Some(v) => config = v.clone(),
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(out) = out else {
        eprintln!("save-trace requires --out FILE");
        return ExitCode::FAILURE;
    };
    let Some(cfg) = build_config(&config, seed) else {
        return ExitCode::FAILURE;
    };
    let Some(trace) = generate_trace(&cfg, seed, &mut obskit::Recorder::null()) else {
        return ExitCode::FAILURE;
    };
    let json = match serde_json::to_string(&trace) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("could not serialise trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).ok();
        }
    }
    match std::fs::write(&out, json) {
        Ok(()) => {
            eprintln!(
                "trace written to {} ({} apruns, {} samples)",
                out.display(),
                trace.apruns().len(),
                trace.samples().len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write `{}`: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// `repro train`: fit a TwoStage pipeline on a split and ship it as a
/// versioned artifact.
fn cmd_train(args: &[String]) -> ExitCode {
    let mut config = "tiny".to_string();
    let mut seed = 42u64;
    let mut trace_path: Option<PathBuf> = None;
    let mut split_name = "ds1".to_string();
    let mut model_name = "gbdt".to_string();
    let mut train_mode = mlkit::hist::TrainMode::Exact;
    let mut features = "all".to_string();
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => match it.next() {
                Some(v) => config = v.clone(),
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--trace" => match it.next() {
                Some(v) => trace_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--split" => match it.next() {
                Some(v) => split_name = v.clone(),
                None => return usage(),
            },
            "--model" => match it.next() {
                Some(v) => model_name = v.clone(),
                None => return usage(),
            },
            "--train-mode" => match it.next().and_then(|v| parse_train_mode(v)) {
                Some(v) => train_mode = v,
                None => return usage(),
            },
            "--features" => match it.next() {
                Some(v) => features = v.clone(),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(out) = out else {
        eprintln!("train requires --out ARTIFACT");
        return ExitCode::FAILURE;
    };
    let trace = match &trace_path {
        Some(p) => load_trace(p),
        None => build_config(&config, seed)
            .and_then(|cfg| generate_trace(&cfg, seed, &mut obskit::Recorder::null())),
    };
    let Some(trace) = trace else {
        return ExitCode::FAILURE;
    };
    match train_artifact(
        &trace,
        &split_name,
        &model_name,
        seed,
        train_mode,
        &features,
    ) {
        Ok((artifact, f1)) => {
            eprintln!(
                "trained {} on {}: test F1 {f1:.3}, {} offender nodes",
                artifact.model().name(),
                artifact.split_name(),
                artifact.offenders().len()
            );
            match artifact.save(&out) {
                Ok(()) => {
                    eprintln!("artifact written to {}", out.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("could not write artifact: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("training failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a `--train-mode` value into the GBDT training engine.
fn parse_train_mode(v: &str) -> Option<mlkit::hist::TrainMode> {
    match v {
        "reference" => Some(mlkit::hist::TrainMode::Reference),
        "exact" => Some(mlkit::hist::TrainMode::Exact),
        "fast" => Some(mlkit::hist::TrainMode::Fast),
        _ => None,
    }
}

/// Fits the requested classifier on the split and bundles the pipeline.
fn train_artifact(
    trace: &TraceSet,
    split_name: &str,
    model_name: &str,
    seed: u64,
    train_mode: mlkit::hist::TrainMode,
    features: &str,
) -> Result<(streamd::artifact::PipelineArtifact, f64), Box<dyn std::error::Error>> {
    use sbepred::datasets::DsSplit;
    use sbepred::features::{FeatureExtractor, FeatureSpec};
    use sbepred::twostage::{prepare_with_extractor, run_classifier};
    use streamd::artifact::{PipelineArtifact, PipelineModel};

    let split = match split_name {
        "ds1" => DsSplit::ds1(trace)?,
        "ds2" => DsSplit::ds2(trace)?,
        "ds3" => DsSplit::ds3(trace)?,
        other => return Err(format!("unknown split `{other}` (ds1|ds2|ds3)").into()),
    };
    // `no-telemetry` ships an artifact scorable from the wire protocol
    // alone (the network path carries no per-node telemetry stream);
    // `all` matches the paper's full feature set for trace replay.
    let spec = match features {
        "all" => FeatureSpec::all(),
        "no-telemetry" => FeatureSpec::no_telemetry(),
        other => return Err(format!("unknown feature set `{other}` (all|no-telemetry)").into()),
    };
    let samples = sbepred::samples::build_samples(trace)?;
    let fx = FeatureExtractor::new(trace, &samples)?;
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec)?;
    // The concrete model types (not `ModelKind`'s boxed trait objects):
    // the artifact serialises the fitted model itself. Hyper-parameters
    // mirror `ModelKind::build`.
    let (model, outcome) = match model_name {
        "gbdt" => {
            let mut m = mlkit::gbdt::Gbdt::new()
                .n_trees(120)
                .max_depth(5)
                .learning_rate(0.1)
                .min_samples_leaf(20)
                .subsample(0.8)
                .pos_weight(2.0)
                .seed(seed)
                .train_mode(train_mode);
            let out = run_classifier(&prepared, &mut m)?;
            (PipelineModel::Gbdt(m), out)
        }
        "lr" => {
            let mut m = mlkit::linear::LogisticRegression::new()
                .learning_rate(0.5)
                .epochs(40)
                .batch_size(256)
                .pos_weight(2.0)
                .seed(seed);
            let out = run_classifier(&prepared, &mut m)?;
            (PipelineModel::Logistic(m), out)
        }
        other => return Err(format!("unknown model `{other}` (gbdt|lr)").into()),
    };
    let f1 = outcome.confusion()?.f1();
    let offenders: Vec<u32> = fx
        .history()
        .offender_nodes_before(split.train_end_min())
        .into_iter()
        .map(|n| n.0)
        .collect();
    let artifact = PipelineArtifact::new(
        spec,
        offenders,
        prepared.scaler.clone(),
        model,
        split.train_end_min(),
        split.name(),
    );
    compiled_self_check(&artifact, &prepared.test)?;
    Ok((artifact, f1))
}

/// Verifies the compiled fastpath scorer reproduces the interpreted
/// model bit for bit on the held-out test split before the artifact
/// ships. A mismatch means the flattening is broken for this specific
/// fitted ensemble — refuse to ship it.
fn compiled_self_check(
    artifact: &streamd::artifact::PipelineArtifact,
    test: &mlkit::dataset::Dataset,
) -> Result<(), Box<dyn std::error::Error>> {
    use mlkit::fastpath::FeatureFrame;

    let compiled = artifact.compile()?;
    let interpreted = artifact.model().predict_proba(test)?;
    let rows: Vec<Vec<f32>> = (0..test.len()).map(|i| test.x().row(i).to_vec()).collect();
    let frame = FeatureFrame::from_rows(&rows)?;
    let mut out = vec![0.0f32; rows.len()];
    compiled.predict_proba_into(&frame, &mut out)?;
    for (i, (a, b)) in interpreted.iter().zip(&out).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "compiled self-check failed at test row {i}: interpreted {a} vs compiled {b}"
            )
            .into());
        }
    }
    eprintln!(
        "compiled self-check: {} test rows bit-identical to the interpreted path",
        rows.len()
    );
    Ok(())
}

/// `repro serve`: replay a trace through the streaming scoring loop.
fn cmd_serve(args: &[String]) -> ExitCode {
    use streamd::serve::{serve_observed, ServeConfig};

    let mut model_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut alerts_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut batch = 64usize;
    let mut delay = 5u64;
    let mut from: Option<u64> = None;
    let mut until: Option<u64> = None;
    let mut threads = parkit::Threads::Auto;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => match it.next() {
                Some(v) => model_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--trace" => match it.next() {
                Some(v) => trace_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--alerts-out" => match it.next() {
                Some(v) => alerts_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(v) => metrics_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => batch = v,
                None => return usage(),
            },
            "--delay" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => delay = v,
                None => return usage(),
            },
            "--from" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => from = Some(v),
                None => return usage(),
            },
            "--until" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => until = Some(v),
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = parkit::Threads::Fixed(v),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(model_path), Some(trace_path)) = (model_path, trace_path) else {
        eprintln!("serve requires --model ARTIFACT and --trace PATH");
        return ExitCode::FAILURE;
    };
    let artifact = match streamd::artifact::PipelineArtifact::load(&model_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("could not load artifact `{}`: {e}", model_path.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "artifact: {} trained on {} up to minute {}, {} offender nodes, schema {:#018x}",
        artifact.model().name(),
        artifact.split_name(),
        artifact.trained_end_min(),
        artifact.offenders().len(),
        artifact.schema_hash()
    );
    let Some(trace) = load_trace(&trace_path) else {
        return ExitCode::FAILURE;
    };
    let score_from = from.unwrap_or_else(|| artifact.trained_end_min());
    let score_until = until.unwrap_or_else(|| trace.config().total_minutes());
    let cfg = ServeConfig {
        batch_capacity: batch,
        max_delay_min: delay,
        score_from_min: score_from,
        score_until_min: score_until,
        threads,
    };
    let mut rec = if metrics_out.is_some() {
        obskit::Recorder::new()
    } else {
        obskit::Recorder::null()
    };
    let mut alerts: Vec<streamd::serve::Alert> = Vec::new();
    let t0 = std::time::Instant::now();
    let report = match serve_observed(&trace, &artifact, &cfg, &mut alerts, &mut rec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = t0.elapsed();
    let rate = report.scored.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "served window [{score_from}, {score_until}): {} events, {} launches, \
         {} requests ({} stage-2) in {} batches; {} alerts",
        report.n_events,
        report.n_launches,
        report.n_requests,
        report.n_stage2,
        report.n_batches,
        report.n_alerts
    );
    eprintln!(
        "scored {} launch-nodes in {elapsed:.1?} ({rate:.0} samples/sec)",
        report.scored.len()
    );
    let mut failures = 0;
    if let Some(path) = &alerts_out {
        match serde_json::to_string(&alerts) {
            Ok(json) => {
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir).ok();
                    }
                }
                match std::fs::write(path, json) {
                    Ok(()) => eprintln!("alert log written to {}", path.display()),
                    Err(e) => {
                        eprintln!("could not write alert log: {e}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("could not serialise alerts: {e}");
                failures += 1;
            }
        }
    }
    if let Some(path) = &metrics_out {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).ok();
            }
        }
        match std::fs::write(path, rec.snapshot_json()) {
            Ok(()) => eprintln!("metrics snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("could not write metrics snapshot: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `repro adapt`: continual-learning serve — replay a trace through the
/// drift-monitored scoring loop, retraining and hot-swapping champions
/// on pinned rules, and print the deterministic drift log (verdicts,
/// retrain points, promoted artifact checksums, final scores
/// fingerprint) to stdout. CI byte-compares that log across
/// `SBE_THREADS` settings.
fn cmd_adapt(args: &[String]) -> ExitCode {
    use driftd::adapt::{run_adapt, AdaptConfig};

    let mut model_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut verdicts_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut from: Option<u64> = None;
    let mut until: Option<u64> = None;
    let mut check_every: Option<u64> = None;
    let mut threads = default_threads();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => match it.next() {
                Some(v) => model_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--trace" => match it.next() {
                Some(v) => trace_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--verdicts-out" => match it.next() {
                Some(v) => verdicts_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(v) => metrics_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--from" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => from = Some(v),
                None => return usage(),
            },
            "--until" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => until = Some(v),
                None => return usage(),
            },
            "--check-every" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => check_every = Some(v),
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = parkit::Threads::Fixed(v),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(model_path), Some(trace_path)) = (model_path, trace_path) else {
        eprintln!("adapt requires --model ARTIFACT and --trace PATH");
        return ExitCode::FAILURE;
    };
    let artifact = match streamd::artifact::PipelineArtifact::load(&model_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("could not load artifact `{}`: {e}", model_path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(trace) = load_trace(&trace_path) else {
        return ExitCode::FAILURE;
    };
    let score_from = from.unwrap_or_else(|| artifact.trained_end_min());
    let score_until = until.unwrap_or_else(|| trace.config().total_minutes());
    let mut cfg = AdaptConfig::window(score_from, score_until);
    cfg.serve.threads = threads;
    cfg.retrain.threads = threads;
    if let Some(every) = check_every {
        cfg.check_every_min = every;
    }
    let mut rec = if metrics_out.is_some() {
        obskit::Recorder::new()
    } else {
        obskit::Recorder::null()
    };
    let mut alerts: Vec<streamd::serve::Alert> = Vec::new();
    let t0 = std::time::Instant::now();
    let report = match run_adapt(&trace, &artifact, &cfg, &mut alerts, &mut rec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("adapt failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = t0.elapsed();
    eprintln!(
        "adapted window [{score_from}, {score_until}): {} events, {} requests \
         ({} stage-2), {} labeled pairs, {} verdicts, {} retrains, {} promotions, \
         final generation {} in {elapsed:.1?}",
        report.n_events,
        report.n_requests,
        report.n_stage2,
        report.n_pairs,
        report.verdicts.len(),
        report.retrains.len(),
        report.promotions.len(),
        report.final_generation
    );
    let log = report.drift_log();
    print!("{log}");
    let mut failures = 0;
    if let Some(path) = &verdicts_out {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).ok();
            }
        }
        match std::fs::write(path, &log) {
            Ok(()) => eprintln!("drift log written to {}", path.display()),
            Err(e) => {
                eprintln!("could not write drift log: {e}");
                failures += 1;
            }
        }
    }
    if let Some(path) = &metrics_out {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).ok();
            }
        }
        match std::fs::write(path, rec.snapshot_json()) {
            Ok(()) => eprintln!("metrics snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("could not write metrics snapshot: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses a `--topology` value into a node universe.
fn parse_topology(v: &str) -> Option<titan_sim::topology::Topology> {
    use titan_sim::topology::Topology;
    let built = match v {
        "tiny" => Topology::tiny(),
        "scaled" => Topology::scaled(),
        "titan" => Topology::titan(),
        other => {
            eprintln!("unknown topology `{other}` (tiny|scaled|titan)");
            return None;
        }
    };
    match built {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("could not build topology `{v}`: {e}");
            None
        }
    }
}

/// Thread-count default for the network pair: `--threads` wins, then
/// the `SBE_THREADS` environment variable (the CI parity matrix's
/// knob), then auto.
fn default_threads() -> parkit::Threads {
    match std::env::var("SBE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(n) if n > 0 => parkit::Threads::Fixed(n),
        _ => parkit::Threads::Auto,
    }
}

/// `repro serve-net`: bind the sbed TCP scoring daemon and serve until
/// a client FINISH frame arrives.
fn cmd_serve_net(args: &[String]) -> ExitCode {
    use sbed::daemon::{Daemon, DaemonConfig};
    use std::sync::Arc;
    use streamd::serve::ServeConfig;

    let mut model_path: Option<PathBuf> = None;
    let mut listen = "127.0.0.1:7811".to_string();
    let mut topology_name = "tiny".to_string();
    let mut batch = 64usize;
    let mut delay = 5u64;
    let mut from: Option<u64> = None;
    let mut until: Option<u64> = None;
    let mut threads = default_threads();
    let mut queue_cap = 1024usize;
    let mut conn_window = 64usize;
    let mut record: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => match it.next() {
                Some(v) => model_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--listen" => match it.next() {
                Some(v) => listen = v.clone(),
                None => return usage(),
            },
            "--topology" => match it.next() {
                Some(v) => topology_name = v.clone(),
                None => return usage(),
            },
            "--batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => batch = v,
                None => return usage(),
            },
            "--delay" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => delay = v,
                None => return usage(),
            },
            "--from" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => from = Some(v),
                None => return usage(),
            },
            "--until" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => until = Some(v),
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = parkit::Threads::Fixed(v),
                None => return usage(),
            },
            "--queue-cap" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => queue_cap = v,
                None => return usage(),
            },
            "--conn-window" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => conn_window = v,
                None => return usage(),
            },
            "--record" => match it.next() {
                Some(v) => record = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(model_path) = model_path else {
        eprintln!("serve-net requires --model ARTIFACT");
        return ExitCode::FAILURE;
    };
    let artifact = match streamd::artifact::PipelineArtifact::load(&model_path) {
        Ok(a) => Arc::new(a),
        Err(e) => {
            eprintln!("could not load artifact `{}`: {e}", model_path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(topology) = parse_topology(&topology_name) else {
        return ExitCode::FAILURE;
    };
    let score_from = from.unwrap_or_else(|| artifact.trained_end_min());
    let score_until = until.unwrap_or(score_from + 1440);
    let serve_cfg = ServeConfig {
        batch_capacity: batch,
        max_delay_min: delay,
        score_from_min: score_from,
        score_until_min: score_until,
        threads,
    };
    let mut cfg = DaemonConfig::new(&listen, serve_cfg, topology);
    cfg.queue_capacity = queue_cap;
    cfg.conn_window = conn_window;
    cfg.record_log = record.clone();
    let daemon = match Daemon::spawn(Arc::clone(&artifact), cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("could not start daemon on `{listen}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The bound address goes to stdout so scripts can capture it even
    // with `--listen 127.0.0.1:0`.
    println!("listening {}", daemon.addr());
    eprintln!(
        "sbed: {} on {} ({} nodes), window [{score_from}, {score_until}), \
         {threads:?} threads",
        artifact.model().name(),
        daemon.addr(),
        topology.n_nodes(),
    );
    let report = match daemon.join() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("daemon failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "served {} events over {} connections: {} requests ({} stage-2), {} batches, \
         {} alerts; {} rejected, {} overloads, {} transport errors",
        report.report.n_events,
        report.n_connections,
        report.report.n_requests,
        report.report.n_stage2,
        report.report.n_batches,
        report.report.n_alerts,
        report.n_rejected,
        report.n_overloads,
        report.n_transport_errors,
    );
    // Grep-able determinism anchor: the CI parity matrix compares this
    // line across SBE_THREADS values.
    println!("response_fnv {:#018x}", report.response_fnv);
    let Some(log_path) = record else {
        return ExitCode::SUCCESS;
    };
    // Replay self-check: re-feed the recorded admission sequence through
    // a fresh in-process session; every determinism surface must match
    // the live run byte for byte.
    match sbed::replay::replay_log_file(&log_path, &artifact, &serve_cfg, topology) {
        Ok(replayed) => {
            let fnv_ok = replayed.response_fnv == report.response_fnv;
            let report_ok = replayed.report == report.report;
            let snapshot_ok = replayed.snapshot == report.snapshot;
            if fnv_ok && report_ok && snapshot_ok {
                eprintln!(
                    "replay self-check: PASS ({} frames, response checksum, report, and \
                     metrics snapshot all byte-identical)",
                    replayed.n_frames
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "replay self-check: FAIL (checksum match: {fnv_ok}, report match: \
                     {report_ok}, snapshot match: {snapshot_ok})"
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!(
                "replay self-check: FAIL: could not replay `{}`: {e}",
                log_path.display()
            );
            ExitCode::FAILURE
        }
    }
}

/// `repro fleet`: drive a running sbed daemon with the seeded mock
/// fleet and print the outcome.
fn cmd_fleet(args: &[String]) -> ExitCode {
    use sbed::client::{run_fleet, Connection, FleetConfig};
    use sbed::fleet::{synth_events, SynthConfig};
    use std::net::SocketAddr;

    let mut addr: Option<SocketAddr> = None;
    let mut conns = 8usize;
    let mut nodes = 64u32;
    let mut minutes = 30u64;
    let mut rate = 4u32;
    let mut sbe_rate = 2u32;
    let mut seed = 42u64;
    let mut window = 32usize;
    let mut failure_conns = 0usize;
    let mut corrupt_every = 0u64;
    let mut metrics_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => addr = Some(v),
                None => return usage(),
            },
            "--conns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => conns = v,
                None => return usage(),
            },
            "--nodes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => nodes = v,
                None => return usage(),
            },
            "--minutes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => minutes = v,
                None => return usage(),
            },
            "--rate" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => rate = v,
                None => return usage(),
            },
            "--sbe-rate" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => sbe_rate = v,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--window" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => window = v,
                None => return usage(),
            },
            "--failure-conns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => failure_conns = v,
                None => return usage(),
            },
            "--corrupt-every" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => corrupt_every = v,
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(v) => metrics_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("fleet requires --addr HOST:PORT");
        return ExitCode::FAILURE;
    };
    let synth = SynthConfig {
        seed,
        n_nodes: nodes,
        minutes,
        launches_per_min: rate,
        max_nodes_per_launch: 8,
        n_apps: 12,
        sbe_per_min: sbe_rate,
    };
    let events = synth_events(&synth);
    let fleet_cfg = FleetConfig {
        conns,
        window,
        failure_conns,
        corrupt_every,
    };
    eprintln!(
        "fleet: {} events over {} nodes / {} minutes -> {addr} ({} connections, \
         window {}, {} failure connections)",
        events.len(),
        nodes,
        minutes,
        conns,
        window,
        failure_conns,
    );
    // Wait for the daemon to come up — serve-net typically starts in a
    // sibling process an instant before us.
    let mut up = false;
    for _ in 0..40 {
        if Connection::connect(addr).is_ok() {
            up = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
    if !up {
        eprintln!("no daemon reachable at {addr} after 10s");
        return ExitCode::FAILURE;
    }
    let clock = WallClock::new();
    let t0 = std::time::Instant::now();
    let outcome = match run_fleet(addr, &events, &fleet_cfg, &clock) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = t0.elapsed();
    let n_requests = events.len() as u64 + 1; // + FINISH
    let rps = n_requests as f64 / elapsed.as_secs_f64().max(1e-9);
    let overload_retries: u64 = outcome.stats.iter().map(|s| s.overload_retries).sum();
    let corruption_retries: u64 = outcome.stats.iter().map(|s| s.corruption_retries).sum();
    let mut latencies: Vec<u64> = outcome
        .stats
        .iter()
        .flat_map(|s| s.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    eprintln!(
        "fleet done in {elapsed:.1?}: {} acks, {} score responses ({rps:.0} req/s); \
         {overload_retries} overload retries, {corruption_retries} corruption retries",
        outcome.n_acks,
        outcome.scores.len(),
    );
    eprintln!(
        "latency: p50 {:.3} ms, p99 {:.3} ms",
        pct(0.50) as f64 / 1e6,
        pct(0.99) as f64 / 1e6
    );
    eprintln!(
        "report: {} events, {} requests ({} stage-2), {} batches, {} alerts, \
         snapshot fnv {:#018x}",
        outcome.report.n_events,
        outcome.report.n_requests,
        outcome.report.n_stage2,
        outcome.report.n_batches,
        outcome.report.n_alerts,
        outcome.report.snapshot_fnv,
    );
    if let Some(path) = &metrics_out {
        let mut rec = obskit::Recorder::new();
        outcome.observe(&mut rec);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).ok();
            }
        }
        match std::fs::write(path, rec.snapshot_json()) {
            Ok(()) => eprintln!("metrics snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("could not write metrics snapshot: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `repro check-bench`: gate CI on the performance trajectories.
///
/// Reads one or more bench reports (`--file`, repeatable) and checks
/// each with [`BenchReport::check`]: the `sbe-bench/report/1` schema,
/// a finite positive value for every metric, and every floor and
/// ceiling the bench recorded. A missing or unreadable file is a hard
/// failure, and all files are checked before the verdict so one run
/// surfaces every regression.
fn cmd_check_bench(args: &[String]) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--file" => match it.next() {
                Some(v) => files.push(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if files.is_empty() {
        eprintln!("check-bench requires at least one --file BENCH_<bench>.json");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for file in &files {
        let outcome = std::fs::read_to_string(file)
            .map_err(|e| format!("could not read: {e}"))
            .and_then(|text| {
                serde_json::from_str::<BenchReport>(&text)
                    .map_err(|e| format!("not a `{REPORT_SCHEMA}` report: {e}"))
            })
            .and_then(|report| {
                eprint!("{report}");
                report.check()
            });
        match outcome {
            Ok(()) => eprintln!("check-bench: PASS `{}`", file.display()),
            Err(e) => {
                eprintln!("check-bench: FAIL `{}`: {e}", file.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let all_args: Vec<String> = std::env::args().skip(1).collect();
    match all_args.first().map(String::as_str) {
        Some("save-trace") => return cmd_save_trace(&all_args[1..]),
        Some("train") => return cmd_train(&all_args[1..]),
        Some("serve") => return cmd_serve(&all_args[1..]),
        Some("adapt") => return cmd_adapt(&all_args[1..]),
        Some("serve-net") => return cmd_serve_net(&all_args[1..]),
        Some("fleet") => return cmd_fleet(&all_args[1..]),
        Some("check-bench") => return cmd_check_bench(&all_args[1..]),
        _ => {}
    }

    let mut config = "scaled".to_string();
    let mut seed = 42u64;
    let mut out_dir: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();

    let mut args = all_args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => match args.next() {
                Some(v) => config = v,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(v) => out_dir = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--metrics-out" => match args.next() {
                Some(v) => metrics_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        return usage();
    }

    // Expand groups.
    let mut ids: Vec<&str> = Vec::new();
    for w in &wanted {
        match w.as_str() {
            "all" => {
                ids.extend(CHARACTERIZATION);
                ids.extend(PREDICTION);
                ids.extend(EXTENSIONS);
            }
            "characterization" => ids.extend(CHARACTERIZATION),
            "prediction" => ids.extend(PREDICTION),
            "extensions" => ids.extend(EXTENSIONS),
            other
                if CHARACTERIZATION.contains(&other)
                    || PREDICTION.contains(&other)
                    || EXTENSIONS.contains(&other) =>
            {
                ids.push(Box::leak(other.to_string().into_boxed_str()))
            }
            other => {
                eprintln!("unknown experiment `{other}`");
                return usage();
            }
        }
    }
    ids.dedup();

    let Some(cfg) = build_config(&config, seed) else {
        return usage();
    };
    // A full recorder only when metrics were requested; the null recorder
    // path is a single branch per event.
    let mut rec = if metrics_out.is_some() {
        obskit::Recorder::new()
    } else {
        obskit::Recorder::null()
    };
    let Some(trace) = generate_trace(&cfg, seed, &mut rec) else {
        return ExitCode::FAILURE;
    };
    // The bench crate owns the workspace's only wall clock; injecting it
    // restores real train-time columns in the tables.
    let wall = WallClock::new();
    let lab = match Lab::new(&trace) {
        Ok(l) => l.with_clock(&wall),
        Err(e) => {
            eprintln!("lab construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0;
    let emit = |out: ExperimentOutput| {
        println!("{out}");
        if let Some(dir) = &out_dir {
            if let Err(e) = persist_json(dir, &out) {
                eprintln!("warning: could not persist {}: {e}", out.id);
            }
        }
    };

    // table2 and table3 come from one pass; cache when both requested.
    let mut t2t3: Option<(ExperimentOutput, ExperimentOutput)> = None;
    for id in ids {
        let started = std::time::Instant::now();
        let result: sbepred::Result<ExperimentOutput> = match id {
            "fig1" => ch::fig1(&lab),
            "fig2" => ch::fig2(&lab),
            "fig3" => ch::fig3(&lab),
            "fig4" => ch::fig4(&lab),
            "fig5" => ch::fig5(&lab),
            "fig6" => ch::fig6(&lab),
            "fig7" => ch::fig7(&lab),
            "fig8" => ch::fig8(&lab),
            "table1" => pr::table1(&lab),
            "fig10" => pr::fig10(&lab),
            "table2" | "table3" => {
                if t2t3.is_none() {
                    match pr::table2_table3(&lab) {
                        Ok(pair) => t2t3 = Some(pair),
                        Err(e) => {
                            eprintln!("{id} failed: {e}");
                            failures += 1;
                            continue;
                        }
                    }
                }
                let (t2, t3) = t2t3.clone().expect("cached above");
                Ok(if id == "table2" { t2 } else { t3 })
            }
            "fig11" => pr::fig11(&lab),
            "table4" => pr::table4(&lab),
            "fig12" => pr::fig12(&lab),
            "fig13" => pr::fig13(&lab),
            "table5" => pr::table5(&lab),
            "table6" => pr::table6(&lab),
            "ext_forecast" => ext::ext_forecast(&lab),
            "ext_imbalance" => ext::ext_imbalance(&lab),
            "ext_retrain" => ext::ext_retrain(&lab),
            "ext_oracle" => ext::ext_oracle(&lab),
            "ext_importance" => ext::ext_importance(&lab),
            other => {
                eprintln!("unknown experiment `{other}`");
                failures += 1;
                continue;
            }
        };
        match result {
            Ok(out) => {
                emit(out);
                eprintln!("[{id} done in {:.1?}]\n", started.elapsed());
            }
            Err(e) => {
                eprintln!("{id} failed: {e}");
                failures += 1;
            }
        }
    }
    if let Some(path) = &metrics_out {
        // One observed DS1 GBDT pass exercises the whole instrumented
        // pipeline (features -> TwoStage -> GBDT training loop) so the
        // snapshot covers every layer, not just trace generation.
        let mut observed_pass = || -> sbepred::Result<()> {
            let split = sbepred::datasets::DsSplit::ds1(lab.trace())?;
            let spec = sbepred::features::FeatureSpec::all();
            let prepared = sbepred::twostage::prepare_with_extractor_observed(
                lab.extractor(),
                lab.samples(),
                &split,
                &spec,
                &mut rec,
            )?;
            let mut model = ModelKind::Gbdt.build(seed);
            sbepred::twostage::run_classifier_observed(
                &prepared,
                &mut model,
                &mut rec,
                lab.clock(),
            )?;
            Ok(())
        };
        if let Err(e) = observed_pass() {
            eprintln!("metrics pass failed: {e}");
            failures += 1;
        } else {
            eprint!("{}", sbepred::report::MetricsReport::from_recorder(&rec));
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).ok();
                }
            }
            match std::fs::write(path, rec.snapshot_json()) {
                Ok(()) => eprintln!("metrics snapshot written to {}", path.display()),
                Err(e) => {
                    eprintln!("could not write metrics snapshot: {e}");
                    failures += 1;
                }
            }
        }
    }

    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
