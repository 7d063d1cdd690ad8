//! Continual-learning overhead — what the drift monitor costs on the
//! streaming path, and how long a hot swap stalls the stream.
//!
//! Two measurements feed `BENCH_drift.json` at the workspace root,
//! gated by `repro check-bench`:
//!
//! * **Monitor overhead** — the same trace replayed through plain
//!   `serve_observed` and through `run_adapt` with the pinned
//!   (quiet) monitor config; the adaptive pass does everything the
//!   plain pass does plus PSI/calibration folding and window
//!   bookkeeping, so the events/sec ratio is the monitor's true
//!   streaming cost. Passivity is asserted before anything is timed:
//!   both passes must score identically, byte for byte.
//!
//! * **Swap pause** — a `StepScorer` is replayed to the middle of the
//!   trace with a batch pending, then `swap_artifact` (flush the
//!   outgoing generation's batch, commit the exchange) is timed; the
//!   worst observed pause across reps is reported. `prepare_swap`
//!   (validation + fastpath compilation) runs off the boundary by
//!   design and stays off the clock.

use criterion::{criterion_group, criterion_main, Criterion};
use driftd::adapt::{run_adapt, AdaptConfig};
use driftd::monitor::{DriftMonitor, MonitorConfig};
use mlkit::gbdt::Gbdt;
use mlkit::model::Classifier;
use sbe_bench::{BenchReport, Metric};
use sbepred::datasets::DsSplit;
use sbepred::features::{FeatureExtractor, FeatureSpec};
use sbepred::samples::build_samples;
use sbepred::twostage::prepare_with_extractor;
use std::sync::Arc;
use streamd::artifact::{PipelineArtifact, PipelineModel};
use streamd::serve::{serve_observed, LaunchFacts, NullSink, ServeConfig, StepScorer};
use titan_sim::config::SimConfig;
use titan_sim::trace::TraceSet;

const REPS: u32 = 3;
/// The monitor and window ride the streaming path, so the adaptive
/// replay must retain at least 40% of plain serve throughput end to end.
const MIN_ADAPT_RATIO: f64 = 0.4;
/// A hot swap (flush one pending batch, exchange an `Arc`) must never
/// pause the stream longer than a generous quarter second, even on a
/// noisy shared runner.
const MAX_SWAP_PAUSE_MS: f64 = 250.0;

fn fixture() -> (TraceSet, PipelineArtifact, (u64, u64)) {
    let trace = titan_sim::engine::generate(&SimConfig::tiny(13)).expect("trace");
    let samples = build_samples(&trace).expect("samples");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor");
    let split = DsSplit::ds1(&trace).expect("split");
    let spec = FeatureSpec::no_telemetry();
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec).expect("prepare");
    let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2).seed(7);
    model
        .fit(&prepared.train, &mut obskit::Recorder::null())
        .expect("fit");
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
        PipelineModel::Gbdt(model),
        split.train_end_min(),
        split.name(),
    );
    let window = (split.train_end_min(), trace.config().total_minutes());
    (trace, artifact, window)
}

fn plain_pass(trace: &TraceSet, artifact: &PipelineArtifact, cfg: &ServeConfig) -> Vec<u64> {
    let mut sink = NullSink;
    let mut rec = obskit::Recorder::null();
    let report = serve_observed(trace, artifact, cfg, &mut sink, &mut rec).expect("serve");
    report
        .scored
        .iter()
        .map(|s| u64::from(s.probability.to_bits()) ^ (s.minute << 32))
        .collect()
}

/// Replays the stream to `stall_min` with scoring live, then times one
/// `swap_artifact` call — the only work that happens *on* the swap
/// boundary.
fn measure_swap_pause(
    trace: &TraceSet,
    artifact: &PipelineArtifact,
    cfg: &ServeConfig,
    stall_min: u64,
) -> u64 {
    let topology = trace.config().topology;
    let mut step = StepScorer::new(artifact, cfg, topology, Some(trace)).expect("scorer");
    let mut sink = NullSink;
    let mut rec = obskit::Recorder::null();
    let mut scored = Vec::new();
    let catalog = trace.catalog();
    let stream = titan_sim::events::EventStream::new(trace).expect("stream");
    for event in stream {
        match event {
            titan_sim::events::TraceEvent::Tick { minute } => {
                if minute >= stall_min {
                    break;
                }
                step.step_tick(minute, &mut scored, &mut sink, &mut rec)
                    .expect("tick");
            }
            titan_sim::events::TraceEvent::Launch { minute, aprun } => {
                let run = trace.aprun(aprun).expect("aprun");
                let profile = catalog.profile(run.app_id).expect("profile");
                step.step_launch(
                    &LaunchFacts {
                        minute,
                        aprun: aprun.0,
                        app: run.app_id.0,
                        runtime_min: run.runtime_min(),
                        core_util: profile.core_util,
                        mem_util: profile.mem_util,
                        nodes: &run.nodes,
                    },
                    &mut scored,
                    &mut sink,
                    &mut rec,
                )
                .expect("launch");
            }
            titan_sim::events::TraceEvent::SbeVisible {
                minute,
                node,
                app,
                count,
                ..
            } => {
                step.step_sbe(minute, node, app, count, &mut rec)
                    .expect("sbe");
            }
        }
    }
    // Validation and fastpath compilation run off the boundary.
    let prepared = step
        .prepare_swap(Arc::new(artifact.clone()), step.generation() + 1)
        .expect("prepare");
    let t0 = std::time::Instant::now();
    step.swap_artifact(stall_min, prepared, &mut scored, &mut sink, &mut rec)
        .expect("swap");
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn bench_drift(c: &mut Criterion) {
    let (trace, artifact, (from, until)) = fixture();
    let serve_cfg = ServeConfig::window(from, until);
    let adapt_cfg = AdaptConfig {
        serve: serve_cfg,
        ..AdaptConfig::window(from, until)
    };
    let adapt_pass = |trace: &TraceSet, artifact: &PipelineArtifact| {
        let mut sink = NullSink;
        let mut rec = obskit::Recorder::null();
        run_adapt(trace, artifact, &adapt_cfg, &mut sink, &mut rec).expect("adapt")
    };

    // Passivity gate: the monitored pass must score byte-identically to
    // the plain pass before any timing is published.
    let plain_scores = plain_pass(&trace, &artifact, &serve_cfg);
    let probe = adapt_pass(&trace, &artifact);
    assert_eq!(probe.final_generation, 0, "quiet monitor must not fire");
    let adapt_scores: Vec<u64> = probe
        .scored
        .iter()
        .map(|s| u64::from(s.probability.to_bits()) ^ (s.minute << 32))
        .collect();
    assert_eq!(plain_scores, adapt_scores, "monitored pass changed scores");

    // Throughputs: fastest of REPS (min-time capability estimator).
    let n_events = probe.n_events;
    let mut best_plain = f64::INFINITY;
    let mut best_adapt = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        std::hint::black_box(plain_pass(&trace, &artifact, &serve_cfg));
        best_plain = best_plain.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        std::hint::black_box(adapt_pass(&trace, &artifact));
        best_adapt = best_adapt.min(t0.elapsed().as_secs_f64());
    }
    let plain_eps = n_events as f64 / best_plain.max(1e-9);
    let adapt_eps = n_events as f64 / best_adapt.max(1e-9);

    // Swap pause: worst of REPS mid-stream swaps.
    let stall_min = from + (until - from) / 2;
    let swap_pause_ns = (0..REPS)
        .map(|_| measure_swap_pause(&trace, &artifact, &serve_cfg, stall_min))
        .max()
        .unwrap_or(0);

    BenchReport::new(
        "drift",
        &[
            ("events", n_events),
            ("requests", probe.n_requests),
            ("pairs", probe.n_pairs),
            ("swaps", u64::from(REPS)),
        ],
        vec![
            Metric::higher("plain_eps", "events/s", plain_eps),
            Metric::higher("adapt_eps", "events/s", adapt_eps),
            Metric::higher("adapt_ratio", "ratio", adapt_eps / plain_eps).limit(MIN_ADAPT_RATIO),
            Metric::lower("swap_pause_ms", "ms", swap_pause_ns as f64 / 1e6)
                .limit(MAX_SWAP_PAUSE_MS),
        ],
    )
    .write();

    let mut group = c.benchmark_group("drift");
    group.sample_size(10);
    group.bench_function("monitor_fold", |b| {
        // The D006-D008 hot path in isolation: fold one armed row.
        let n = 16;
        let mut monitor = DriftMonitor::new(
            n,
            MonitorConfig {
                baseline_rows: 32,
                ..MonitorConfig::pinned()
            },
        )
        .expect("monitor");
        let rows: Vec<Vec<f32>> = (0..64)
            .map(|i| {
                (0..n)
                    .map(|j| ((i * 31 + j * 7) % 100) as f32 / 50.0)
                    .collect()
            })
            .collect();
        for r in &rows {
            monitor.observe_row(r);
        }
        assert!(monitor.armed());
        let mut i = 0usize;
        b.iter(|| {
            monitor.observe_row(std::hint::black_box(&rows[i % rows.len()]));
            i = i.wrapping_add(1);
        })
    });
    group.bench_function("adapt_replay", |b| {
        b.iter(|| std::hint::black_box(adapt_pass(&trace, &artifact)))
    });
    group.finish();
}

criterion_group!(benches, bench_drift);
criterion_main!(benches);
