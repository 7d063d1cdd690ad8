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
//!       [--model gbdt|lr] [--features all|no-telemetry] --out ARTIFACT
//! repro serve --model ARTIFACT --trace PATH [--alerts-out FILE]
//!       [--metrics-out FILE] [--from M] [--until M]
//! repro serve-net --model ARTIFACT [--listen ADDR] [--topology tiny|scaled|titan]
//!       [--from M] [--until M] [--record LOG]
//! repro fleet --addr ADDR [--conns N] [--nodes N] [--minutes N] [--rate N]
//!       [--sbe-rate N] [--seed N] [--metrics-out FILE]
//! repro adapt --model ARTIFACT --trace PATH [--from M] [--until M]
//!       [--verdicts-out FILE] [--metrics-out FILE]
//! repro check-bench --file BENCH_<bench>.json [--file BENCH_<bench>.json ...]
//! ```
//!
//! Every flag takes one value. An unknown flag, a flag without its
//! value, or a value that does not parse prints the usage text and exits
//! 1. A flag given twice keeps its last value, except `check-bench
//! --file`, which checks every file it names.
//!
//! `--metrics-out FILE` records pipeline observability metrics (trace
//! generation counts, feature-extraction and TwoStage counters, GBDT
//! training-loop progress) and writes the stable `obskit/1` JSON snapshot
//! to `FILE`. The snapshot is deterministic for a given config/seed.
//!
//! `<experiment>` is one or more of: `fig1 fig2 fig3 fig4 fig5 fig6 fig7
//! fig8` (group `characterization`), `table1 fig10 table2 table3 fig11
//! table4 fig12 fig13 table5 table6` (group `prediction`), and
//! `ext_forecast ext_imbalance ext_retrain ext_oracle ext_importance`
//! (group `extensions`), or a group name, or `all`.
//!
//! The `save-trace` / `train` / `serve` subcommands form the deployment
//! loop: persist a generated trace, train and ship a versioned TwoStage
//! pipeline artifact, then replay the trace through `streamd`'s online
//! scoring loop. `--trace PATH` accepts either a trace JSON file or a
//! directory containing `trace.json`. `train` fits the evaluation's GBDT
//! or LR (`ModelKind::gbdt` / `ModelKind::lr`), and `serve` scores
//! through the flattened fastpath arrays, which `train` checks bit for
//! bit against the interpreted model before it ships an artifact.
//! `serve`, `serve-net` and `adapt` batch with `ServeConfig::window`'s
//! policy. `check-bench` reads the reports that `cargo bench -p
//! sbe-bench --bench fastpath|trainpath|sbed|drift` writes at the
//! workspace root (`BENCH_fastpath.json`, `BENCH_train.json`,
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
//! the live run. No command takes a thread count: `SBE_THREADS` sets
//! the workers of training, retraining and telemetry queries, and each
//! serving batch is assembled and scored on the calling thread.

use sbe_bench::{persist_json, BenchReport, WallClock, REPORT_SCHEMA};
use sbepred::experiments::{
    characterization as ch, extensions as ext, prediction as pr, ExperimentOutput, Lab, ModelKind,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;
use streamd::artifact::PipelineArtifact;
use titan_sim::config::SimConfig;
use titan_sim::trace::TraceSet;

/// A paper experiment's driver.
type Driver = fn(&Lab<'_>) -> sbepred::Result<ExperimentOutput>;

/// Every experiment: its id, its group and its driver, in the order
/// `all` runs them.
const EXPERIMENTS: [(&str, &str, Driver); 23] = [
    ("fig1", "characterization", ch::fig1),
    ("fig2", "characterization", ch::fig2),
    ("fig3", "characterization", ch::fig3),
    ("fig4", "characterization", ch::fig4),
    ("fig5", "characterization", ch::fig5),
    ("fig6", "characterization", ch::fig6),
    ("fig7", "characterization", ch::fig7),
    ("fig8", "characterization", ch::fig8),
    ("table1", "prediction", pr::table1),
    ("fig10", "prediction", pr::fig10),
    ("table2", "prediction", |lab| {
        Ok(tables_2_and_3(lab)?.0.clone())
    }),
    ("table3", "prediction", |lab| {
        Ok(tables_2_and_3(lab)?.1.clone())
    }),
    ("fig11", "prediction", pr::fig11),
    ("table4", "prediction", pr::table4),
    ("fig12", "prediction", pr::fig12),
    ("fig13", "prediction", pr::fig13),
    ("table5", "prediction", pr::table5),
    ("table6", "prediction", pr::table6),
    ("ext_forecast", "extensions", ext::ext_forecast),
    ("ext_imbalance", "extensions", ext::ext_imbalance),
    ("ext_retrain", "extensions", ext::ext_retrain),
    ("ext_oracle", "extensions", ext::ext_oracle),
    ("ext_importance", "extensions", ext::ext_importance),
];

/// Tables II and III come from one pass, which the first of them to run
/// keeps for the other.
fn tables_2_and_3(lab: &Lab<'_>) -> sbepred::Result<&'static (ExperimentOutput, ExperimentOutput)> {
    static PAIR: std::sync::OnceLock<(ExperimentOutput, ExperimentOutput)> =
        std::sync::OnceLock::new();
    if let Some(pair) = PAIR.get() {
        return Ok(pair);
    }
    let pair = pr::table2_table3(lab)?;
    Ok(PAIR.get_or_init(|| pair))
}

/// A subcommand's body.
type Command = fn(&Flags) -> Run;

/// Each subcommand: its name, the flags it reads, and its body. Any
/// other first argument runs the paper's experiments.
const COMMANDS: [(&str, &str, Command); 7] = [
    ("save-trace", "--config --seed --out", cmd_save_trace),
    (
        "train",
        "--config --seed --trace --split --model --features --out",
        cmd_train,
    ),
    (
        "serve",
        "--model --trace --alerts-out --metrics-out --from --until",
        cmd_serve,
    ),
    (
        "serve-net",
        "--model --listen --topology --from --until --record",
        cmd_serve_net,
    ),
    (
        "fleet",
        "--addr --conns --nodes --minutes --rate --sbe-rate --seed --metrics-out",
        cmd_fleet,
    ),
    (
        "adapt",
        "--model --trace --from --until --verdicts-out --metrics-out",
        cmd_adapt,
    ),
    ("check-bench", "--file", cmd_check_bench),
];

/// The flags the experiments read.
const EXPERIMENT_FLAGS: &str = "--config --seed --out --metrics-out";

fn usage() -> ExitCode {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    let mut groups: Vec<&str> = EXPERIMENTS.iter().map(|e| e.1).collect();
    groups.dedup();
    eprintln!(
        "usage: repro [--config scaled|tiny|titan] [--seed N] [--out DIR] \
         [--metrics-out FILE] <experiment>...\n\
         repro save-trace [--config C] [--seed N] --out FILE\n\
         repro train [--config C] [--seed N | --trace PATH] [--split ds1|ds2|ds3] \
         [--model gbdt|lr] [--features all|no-telemetry] --out ARTIFACT\n\
         repro serve --model ARTIFACT --trace PATH [--alerts-out FILE] \
         [--metrics-out FILE] [--from M] [--until M]\n\
         repro serve-net --model ARTIFACT [--listen ADDR] [--topology tiny|scaled|titan] \
         [--from M] [--until M] [--record LOG]\n\
         repro fleet --addr ADDR [--conns N] [--nodes N] [--minutes N] [--rate N] \
         [--sbe-rate N] [--seed N] [--metrics-out FILE]\n\
         repro adapt --model ARTIFACT --trace PATH [--from M] [--until M] \
         [--verdicts-out FILE] [--metrics-out FILE]\n\
         repro check-bench --file BENCH_<bench>.json [--file BENCH_<bench>.json ...]\n\
         experiments: {} | groups: {} all",
        ids.join(" "),
        groups.join(" ")
    );
    ExitCode::FAILURE
}

/// Why a command stopped early: a usage error prints the usage text,
/// and a failure has already said what failed.
enum Exit {
    Usage,
    Failure,
}

/// What a command returns.
type Run = Result<(), Exit>;

/// Says what failed and fails the command.
fn fail(message: impl std::fmt::Display) -> Exit {
    eprintln!("{message}");
    Exit::Failure
}

/// One command's arguments: each flag with its value, in the order
/// given, and the arguments that are not flags.
struct Flags {
    pairs: Vec<(String, String)>,
    rest: Vec<String>,
}

impl Flags {
    /// Reads `args`: every flag in `known` (space-separated) takes the
    /// next argument as its value, any other argument that starts with
    /// `-` is an unknown flag, and the rest are kept in order.
    fn read(args: &[String], known: &str) -> Result<Flags, Exit> {
        let mut flags = Flags {
            pairs: Vec::new(),
            rest: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if known.split(' ').any(|k| k == arg) {
                let Some(value) = it.next() else {
                    eprintln!("{arg} needs a value");
                    return Err(Exit::Usage);
                };
                flags.pairs.push((arg.clone(), value.clone()));
            } else if arg.starts_with('-') {
                eprintln!("unknown flag `{arg}`");
                return Err(Exit::Usage);
            } else {
                flags.rest.push(arg.clone());
            }
        }
        Ok(flags)
    }

    /// The last value given for `flag`, parsed; `None` if it was not
    /// given.
    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Exit> {
        let Some((_, value)) = self.pairs.iter().rev().find(|(f, _)| f == flag) else {
            return Ok(None);
        };
        match value.parse() {
            Ok(v) => Ok(Some(v)),
            Err(_) => {
                eprintln!("bad value `{value}` for {flag}");
                Err(Exit::Usage)
            }
        }
    }

    /// The last value given for `flag`, parsed, or `default`.
    fn or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, Exit> {
        Ok(self.get(flag)?.unwrap_or(default))
    }

    /// The value of a flag `command` cannot run without.
    fn required<T: FromStr>(&self, command: &str, flag: &str) -> Result<T, Exit> {
        self.get(flag)?
            .ok_or_else(|| fail(format!("{command} requires {flag}")))
    }

    /// Every value given for `flag`, in order.
    fn all(&self, flag: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

/// Writes `bytes` to `path`, creating its directory first, and says so.
fn write_out(path: &Path, what: &str, bytes: impl AsRef<[u8]>) -> Run {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(path, bytes)
        .map_err(|e| fail(format!("could not write {what} `{}`: {e}", path.display())))?;
    eprintln!("{what} written to {}", path.display());
    Ok(())
}

/// A full recorder when its snapshot will be written, else the null
/// recorder, whose path is a single branch per event.
fn recorder(wanted: bool) -> obskit::Recorder {
    if wanted {
        obskit::Recorder::new()
    } else {
        obskit::Recorder::null()
    }
}

/// Builds the named simulator config.
fn build_config(config: &str, seed: u64) -> Result<SimConfig, Exit> {
    match config {
        "scaled" => Ok(SimConfig::scaled(seed)),
        "tiny" => Ok(SimConfig::tiny(seed)),
        "titan" => Ok(SimConfig::titan_scale(seed)),
        other => {
            eprintln!("unknown config `{other}`");
            Err(Exit::Usage)
        }
    }
}

/// Generates a trace into `rec`, narrating progress to stderr.
fn generate_trace(
    cfg: &SimConfig,
    seed: u64,
    rec: &mut obskit::Recorder,
) -> Result<TraceSet, Exit> {
    eprintln!(
        "generating trace: {} nodes, {} days, seed {seed}...",
        cfg.topology.n_nodes(),
        cfg.days
    );
    let t0 = Instant::now();
    let (t, _) = titan_sim::engine::generate_full(cfg, rec)
        .map_err(|e| fail(format!("trace generation failed: {e}")))?;
    eprintln!(
        "trace ready in {:.1?}: {} apruns, {} samples, positive rate {:.4}",
        t0.elapsed(),
        t.apruns().len(),
        t.samples().len(),
        t.positive_rate()
    );
    Ok(t)
}

/// Loads a persisted trace from a JSON file or a directory holding
/// `trace.json`.
fn load_trace(path: &Path) -> Result<TraceSet, Exit> {
    let file = if path.is_dir() {
        path.join("trace.json")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| fail(format!("could not read trace `{}`: {e}", file.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| fail(format!("could not parse trace `{}`: {e}", file.display())))
}

/// Loads a pipeline artifact.
fn load_artifact(path: &Path) -> Result<PipelineArtifact, Exit> {
    PipelineArtifact::load(path)
        .map_err(|e| fail(format!("could not load artifact `{}`: {e}", path.display())))
}

/// `repro <experiment>...`: regenerate the paper's tables and figures.
fn cmd_experiments(flags: &Flags) -> Run {
    let config: String = flags.or("--config", "scaled".into())?;
    let seed: u64 = flags.or("--seed", 42)?;
    let out_dir: Option<PathBuf> = flags.get("--out")?;
    let metrics_out: Option<PathBuf> = flags.get("--metrics-out")?;
    if flags.rest.is_empty() {
        return Err(Exit::Usage);
    }
    let mut picked: Vec<&(&str, &str, Driver)> = Vec::new();
    for wanted in &flags.rest {
        let before = picked.len();
        picked.extend(
            EXPERIMENTS
                .iter()
                .filter(|e| wanted == "all" || wanted == e.0 || wanted == e.1),
        );
        if picked.len() == before {
            eprintln!("unknown experiment `{wanted}`");
            return Err(Exit::Usage);
        }
    }
    picked.dedup_by_key(|e| e.0);

    let cfg = build_config(&config, seed)?;
    let mut rec = recorder(metrics_out.is_some());
    let trace = generate_trace(&cfg, seed, &mut rec)?;
    // The bench crate owns the workspace's only wall clock; injecting it
    // restores real train-time columns in the tables.
    let wall = WallClock::new();
    let lab = Lab::new(&trace)
        .map_err(|e| fail(format!("lab construction failed: {e}")))?
        .with_clock(&wall);

    let mut failed = false;
    for &(id, _, driver) in picked {
        let started = Instant::now();
        match driver(&lab) {
            Ok(out) => {
                println!("{out}");
                if let Some(dir) = &out_dir {
                    if let Err(e) = persist_json(dir, &out) {
                        eprintln!("warning: could not persist {id}: {e}");
                    }
                }
                eprintln!("[{id} done in {:.1?}]\n", started.elapsed());
            }
            Err(e) => {
                eprintln!("{id} failed: {e}");
                failed = true;
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
        match observed_pass() {
            Ok(()) => {
                eprint!("{}", sbepred::report::MetricsReport::from_recorder(&rec));
                write_out(path, "metrics snapshot", rec.snapshot_json())?;
            }
            Err(e) => {
                eprintln!("metrics pass failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        Err(Exit::Failure)
    } else {
        Ok(())
    }
}

/// `repro save-trace`: generate a trace and persist it as JSON.
fn cmd_save_trace(flags: &Flags) -> Run {
    let config: String = flags.or("--config", "tiny".into())?;
    let seed: u64 = flags.or("--seed", 42)?;
    let out: PathBuf = flags.required("save-trace", "--out")?;
    let cfg = build_config(&config, seed)?;
    let trace = generate_trace(&cfg, seed, &mut obskit::Recorder::null())?;
    let json = serde_json::to_string(&trace)
        .map_err(|e| fail(format!("could not serialise trace: {e}")))?;
    write_out(&out, "trace", json)
}

/// `repro train`: fit a TwoStage pipeline on a split and ship it as a
/// versioned artifact.
fn cmd_train(flags: &Flags) -> Run {
    let config: String = flags.or("--config", "tiny".into())?;
    let seed: u64 = flags.or("--seed", 42)?;
    let trace_path: Option<PathBuf> = flags.get("--trace")?;
    let split: String = flags.or("--split", "ds1".into())?;
    let model: String = flags.or("--model", "gbdt".into())?;
    let features: String = flags.or("--features", "all".into())?;
    let out: PathBuf = flags.required("train", "--out")?;
    let trace = match &trace_path {
        Some(p) => load_trace(p)?,
        None => generate_trace(
            &build_config(&config, seed)?,
            seed,
            &mut obskit::Recorder::null(),
        )?,
    };
    let (artifact, f1) = train_artifact(&trace, &split, &model, seed, &features)
        .map_err(|e| fail(format!("training failed: {e}")))?;
    eprintln!(
        "trained {} on {}: test F1 {f1:.3}, {} offender nodes",
        artifact.model().name(),
        artifact.split_name(),
        artifact.offenders().len()
    );
    let bytes = artifact
        .to_bytes()
        .map_err(|e| fail(format!("could not encode artifact: {e}")))?;
    write_out(&out, "artifact", bytes)
}

/// Fits the requested classifier on the split and bundles the pipeline.
fn train_artifact(
    trace: &TraceSet,
    split_name: &str,
    model_name: &str,
    seed: u64,
    features: &str,
) -> Result<(PipelineArtifact, f64), Box<dyn std::error::Error>> {
    use sbepred::datasets::DsSplit;
    use sbepred::features::{FeatureExtractor, FeatureSpec};
    use sbepred::twostage::{prepare_with_extractor, run_classifier};
    use streamd::artifact::PipelineModel;

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
    // The concrete model types (not `ModelKind::build`'s boxed trait
    // objects): the artifact serialises the fitted model itself.
    let (model, outcome) = match model_name {
        "gbdt" => {
            let mut m = ModelKind::gbdt(seed);
            let out = run_classifier(&prepared, &mut m)?;
            (PipelineModel::Gbdt(m), out)
        }
        "lr" => {
            let mut m = ModelKind::lr(seed);
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
    artifact: &PipelineArtifact,
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
fn cmd_serve(flags: &Flags) -> Run {
    use streamd::serve::{serve_observed, ServeConfig};

    let model_path: PathBuf = flags.required("serve", "--model")?;
    let trace_path: PathBuf = flags.required("serve", "--trace")?;
    let alerts_out: Option<PathBuf> = flags.get("--alerts-out")?;
    let metrics_out: Option<PathBuf> = flags.get("--metrics-out")?;
    let from: Option<u64> = flags.get("--from")?;
    let until: Option<u64> = flags.get("--until")?;
    let artifact = load_artifact(&model_path)?;
    eprintln!(
        "artifact: {} trained on {} up to minute {}, {} offender nodes, schema {:#018x}",
        artifact.model().name(),
        artifact.split_name(),
        artifact.trained_end_min(),
        artifact.offenders().len(),
        artifact.schema_hash()
    );
    let trace = load_trace(&trace_path)?;
    let score_from = from.unwrap_or_else(|| artifact.trained_end_min());
    let score_until = until.unwrap_or_else(|| trace.config().total_minutes());
    let cfg = ServeConfig::window(score_from, score_until);
    let mut rec = recorder(metrics_out.is_some());
    let mut alerts: Vec<streamd::serve::Alert> = Vec::new();
    let t0 = Instant::now();
    let report = serve_observed(&trace, &artifact, &cfg, &mut alerts, &mut rec)
        .map_err(|e| fail(format!("serve failed: {e}")))?;
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
    if let Some(path) = &alerts_out {
        let json = serde_json::to_string(&alerts)
            .map_err(|e| fail(format!("could not serialise alerts: {e}")))?;
        write_out(path, "alert log", json)?;
    }
    if let Some(path) = &metrics_out {
        write_out(path, "metrics snapshot", rec.snapshot_json())?;
    }
    Ok(())
}

/// `repro adapt`: continual-learning serve — replay a trace through the
/// drift-monitored scoring loop, retraining and hot-swapping champions
/// on pinned rules, and print the deterministic drift log (verdicts,
/// retrain points, promoted artifact checksums, final scores
/// fingerprint) to stdout. CI byte-compares that log across
/// `SBE_THREADS` settings.
fn cmd_adapt(flags: &Flags) -> Run {
    use driftd::adapt::{run_adapt, AdaptConfig};

    let model_path: PathBuf = flags.required("adapt", "--model")?;
    let trace_path: PathBuf = flags.required("adapt", "--trace")?;
    let from: Option<u64> = flags.get("--from")?;
    let until: Option<u64> = flags.get("--until")?;
    let verdicts_out: Option<PathBuf> = flags.get("--verdicts-out")?;
    let metrics_out: Option<PathBuf> = flags.get("--metrics-out")?;
    let artifact = load_artifact(&model_path)?;
    let trace = load_trace(&trace_path)?;
    let score_from = from.unwrap_or_else(|| artifact.trained_end_min());
    let score_until = until.unwrap_or_else(|| trace.config().total_minutes());
    let cfg = AdaptConfig::window(score_from, score_until);
    let mut rec = recorder(metrics_out.is_some());
    let mut alerts: Vec<streamd::serve::Alert> = Vec::new();
    let t0 = Instant::now();
    let report = run_adapt(&trace, &artifact, &cfg, &mut alerts, &mut rec)
        .map_err(|e| fail(format!("adapt failed: {e}")))?;
    eprintln!(
        "adapted window [{score_from}, {score_until}): {} events, {} requests \
         ({} stage-2), {} labeled pairs, {} verdicts, {} retrains, {} promotions, \
         final generation {} in {:.1?}",
        report.n_events,
        report.n_requests,
        report.n_stage2,
        report.n_pairs,
        report.verdicts.len(),
        report.retrains.len(),
        report.promotions.len(),
        report.final_generation,
        t0.elapsed()
    );
    let log = report.drift_log();
    print!("{log}");
    if let Some(path) = &verdicts_out {
        write_out(path, "drift log", &log)?;
    }
    if let Some(path) = &metrics_out {
        write_out(path, "metrics snapshot", rec.snapshot_json())?;
    }
    Ok(())
}

/// Parses a `--topology` value into a node universe.
fn parse_topology(v: &str) -> Result<titan_sim::topology::Topology, Exit> {
    use titan_sim::topology::Topology;
    let built = match v {
        "tiny" => Topology::tiny(),
        "scaled" => Topology::scaled(),
        "titan" => Topology::titan(),
        other => {
            return Err(fail(format!(
                "unknown topology `{other}` (tiny|scaled|titan)"
            )))
        }
    };
    built.map_err(|e| fail(format!("could not build topology `{v}`: {e}")))
}

/// `repro serve-net`: bind the sbed TCP scoring daemon and serve until
/// a client FINISH frame arrives.
fn cmd_serve_net(flags: &Flags) -> Run {
    use sbed::daemon::{Daemon, DaemonConfig};
    use std::sync::Arc;
    use streamd::serve::ServeConfig;

    let model_path: PathBuf = flags.required("serve-net", "--model")?;
    let listen: String = flags.or("--listen", "127.0.0.1:7811".into())?;
    let topology_name: String = flags.or("--topology", "tiny".into())?;
    let from: Option<u64> = flags.get("--from")?;
    let until: Option<u64> = flags.get("--until")?;
    let record: Option<PathBuf> = flags.get("--record")?;
    let artifact = Arc::new(load_artifact(&model_path)?);
    let topology = parse_topology(&topology_name)?;
    let score_from = from.unwrap_or_else(|| artifact.trained_end_min());
    let score_until = until.unwrap_or(score_from + 1440);
    let serve_cfg = ServeConfig::window(score_from, score_until);
    let mut cfg = DaemonConfig::new(&listen, serve_cfg, topology);
    cfg.record_log = record.clone();
    let daemon = Daemon::spawn(Arc::clone(&artifact), cfg)
        .map_err(|e| fail(format!("could not start daemon on `{listen}`: {e}")))?;
    // The bound address goes to stdout so scripts can capture it even
    // with `--listen 127.0.0.1:0`.
    println!("listening {}", daemon.addr());
    eprintln!(
        "sbed: {} on {} ({} nodes), window [{score_from}, {score_until})",
        artifact.model().name(),
        daemon.addr(),
        topology.n_nodes(),
    );
    let report = daemon
        .join()
        .map_err(|e| fail(format!("daemon failed: {e}")))?;
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
        return Ok(());
    };
    // Replay self-check: re-feed the recorded admission sequence through
    // a fresh in-process session; every determinism surface must match
    // the live run byte for byte.
    let replayed = sbed::replay::replay_log_file(&log_path, &artifact, &serve_cfg, topology)
        .map_err(|e| {
            fail(format!(
                "replay self-check: FAIL: could not replay `{}`: {e}",
                log_path.display()
            ))
        })?;
    let fnv_ok = replayed.response_fnv == report.response_fnv;
    let report_ok = replayed.report == report.report;
    let snapshot_ok = replayed.snapshot == report.snapshot;
    if !(fnv_ok && report_ok && snapshot_ok) {
        return Err(fail(format!(
            "replay self-check: FAIL (checksum match: {fnv_ok}, report match: \
             {report_ok}, snapshot match: {snapshot_ok})"
        )));
    }
    eprintln!(
        "replay self-check: PASS ({} frames, response checksum, report, and \
         metrics snapshot all byte-identical)",
        replayed.n_frames
    );
    Ok(())
}

/// `repro fleet`: drive a running sbed daemon with the seeded mock
/// fleet and print the outcome.
fn cmd_fleet(flags: &Flags) -> Run {
    use sbed::client::{run_fleet, Connection, FleetConfig};
    use sbed::fleet::{synth_events, SynthConfig};
    use std::net::SocketAddr;

    let addr: SocketAddr = flags.required("fleet", "--addr")?;
    let conns: usize = flags.or("--conns", 8)?;
    let nodes: u32 = flags.or("--nodes", 64)?;
    let minutes: u64 = flags.or("--minutes", 30)?;
    let rate: u32 = flags.or("--rate", 4)?;
    let sbe_rate: u32 = flags.or("--sbe-rate", 2)?;
    let seed: u64 = flags.or("--seed", 42)?;
    let metrics_out: Option<PathBuf> = flags.get("--metrics-out")?;
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
    let fleet_cfg = FleetConfig::healthy(conns);
    eprintln!(
        "fleet: {} events over {nodes} nodes / {minutes} minutes -> {addr} \
         ({conns} connections, window {})",
        events.len(),
        fleet_cfg.window,
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
        return Err(fail(format!("no daemon reachable at {addr} after 10s")));
    }
    let clock = WallClock::new();
    let t0 = Instant::now();
    let outcome = run_fleet(addr, &events, &fleet_cfg, &clock)
        .map_err(|e| fail(format!("fleet run failed: {e}")))?;
    let elapsed = t0.elapsed();
    let n_requests = events.len() as u64 + 1; // + FINISH
    let rps = n_requests as f64 / elapsed.as_secs_f64().max(1e-9);
    let overload_retries: u64 = outcome.stats.iter().map(|s| s.overload_retries).sum();
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
         {overload_retries} overload retries",
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
        write_out(path, "metrics snapshot", rec.snapshot_json())?;
    }
    Ok(())
}

/// `repro check-bench`: gate CI on the performance trajectories.
///
/// Reads one or more bench reports (`--file`, repeatable) and checks
/// each with [`BenchReport::check`]: the `sbe-bench/report/1` schema,
/// a finite positive value for every metric, and every floor and
/// ceiling the bench recorded. A missing or unreadable file is a hard
/// failure, and all files are checked before the verdict so one run
/// surfaces every regression.
fn cmd_check_bench(flags: &Flags) -> Run {
    let files = flags.all("--file");
    if files.is_empty() {
        return Err(fail(
            "check-bench requires at least one --file BENCH_<bench>.json",
        ));
    }
    let mut failed = false;
    for file in files {
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
            Ok(()) => eprintln!("check-bench: PASS `{file}`"),
            Err(e) => {
                eprintln!("check-bench: FAIL `{file}`: {e}");
                failed = true;
            }
        }
    }
    if failed {
        Err(Exit::Failure)
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = COMMANDS
        .iter()
        .find(|c| args.first().is_some_and(|a| a == c.0));
    let run = match command {
        Some(&(name, known, body)) => {
            Flags::read(&args[1..], known).and_then(|flags| match flags.rest.first() {
                Some(extra) => {
                    eprintln!("{name} takes no argument `{extra}`");
                    Err(Exit::Usage)
                }
                None => body(&flags),
            })
        }
        None if args.iter().any(|a| a == "--help" || a == "-h") => {
            usage();
            return ExitCode::SUCCESS;
        }
        None => Flags::read(&args, EXPERIMENT_FLAGS).and_then(|flags| cmd_experiments(&flags)),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(Exit::Usage) => usage(),
        Err(Exit::Failure) => ExitCode::FAILURE,
    }
}
