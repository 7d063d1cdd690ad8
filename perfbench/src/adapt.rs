//! The adaptive path (`driftd`), measured inside the fleet workload's
//! traced run on the fleet champion's own trace.
//!
//! The champion is an honest `FeatureSpec::no_telemetry()` DS1 fit and
//! `run_adapt` runs with the pinned `AdaptConfig::window(train_end,
//! trace_end)`, so the sidecar, the monitor and window, small `mlkit`
//! retrains and hot swaps all do work. Its throughput is not a gated
//! workload of its own: at default threads it is bound by thread
//! wake-ups and varied by more than any bound allows (see the README).

use crate::report::Outcome;
use crate::setup::{BoxResult, Champion};
use crate::stats::{self, Ledger};
use crate::steps::{self, traced_pass};
use driftd::adapt::{run_adapt, AdaptConfig, AdaptReport};
use mlkit::hash::fnv1a64;
use obskit::Recorder;
use std::sync::Arc;
use std::time::Instant;
use streamd::serve::{serve_observed, LaunchFacts, NullSink, ScoredLaunch, StepScorer};
use titan_sim::events::{EventStream, TraceEvent};

/// Hot swaps probed in the traced run, spread over the window.
const SWAP_PROBES: usize = 5;
/// Interleaved rounds of the plain, passthrough, pinned and
/// recorder-enabled passes.
const ROUNDS: usize = 3;

fn config(c: &Champion) -> AdaptConfig {
    let (from, _) = c.test_window;
    AdaptConfig::window(from, c.trace.config().total_minutes())
}

fn adapt_pass(c: &Champion, cfg: &AdaptConfig) -> BoxResult<(AdaptReport, f64)> {
    let t = Instant::now();
    let report = run_adapt(
        &c.trace,
        &c.artifact,
        cfg,
        &mut NullSink,
        &mut Recorder::null(),
    )?;
    let secs = t.elapsed().as_secs_f64();
    Ok((report, secs))
}

fn plain_pass(
    c: &Champion,
    cfg: &AdaptConfig,
    rec: &mut Recorder,
) -> BoxResult<(Vec<ScoredLaunch>, f64)> {
    let t = Instant::now();
    let report = serve_observed(&c.trace, &c.artifact, &cfg.serve, &mut NullSink, rec)?;
    let secs = t.elapsed().as_secs_f64();
    Ok((report.scored, secs))
}

/// `run_adapt` with checks past the horizon: the documented passthrough.
fn passthrough(cfg: &AdaptConfig, c: &Champion) -> AdaptConfig {
    AdaptConfig {
        check_every_min: c.trace.config().total_minutes() + 1,
        ..*cfg
    }
}

/// Replays the stream through a `StepScorer` and, at `SWAP_PROBES`
/// points of the window where a batch is pending, times
/// `swap_artifact` (the champion again, one generation up). Returns the
/// pauses in microseconds.
fn swap_pauses(c: &Champion, cfg: &AdaptConfig) -> BoxResult<Vec<f64>> {
    let trace = &c.trace;
    let (from, until) = (cfg.serve.score_from_min, cfg.serve.score_until_min);
    let stride = (until - from) / (SWAP_PROBES as u64 + 1);
    let mut next_probe = from + stride;
    let mut step = StepScorer::new(
        &c.artifact,
        &cfg.serve,
        trace.config().topology,
        Some(trace),
    )?;
    let mut rec = Recorder::null();
    let mut scored = Vec::new();
    let mut pauses = Vec::new();
    let catalog = trace.catalog();
    for event in EventStream::new(trace)? {
        match event {
            TraceEvent::Tick { minute } => {
                step.step_tick(minute, &mut scored, &mut NullSink, &mut rec)?
            }
            TraceEvent::Launch { minute, aprun } => {
                let run = trace.aprun(aprun)?;
                let profile = catalog.profile(run.app_id)?;
                let facts = LaunchFacts {
                    minute,
                    aprun: aprun.0,
                    app: run.app_id.0,
                    runtime_min: run.runtime_min(),
                    core_util: profile.core_util,
                    mem_util: profile.mem_util,
                    nodes: &run.nodes,
                };
                step.step_launch(&facts, &mut scored, &mut NullSink, &mut rec)?;
                let pending = step.step_stats().n_requests > scored.len() as u64;
                if pauses.len() < SWAP_PROBES && minute >= next_probe && pending {
                    let prepared =
                        step.prepare_swap(Arc::new(c.artifact.clone()), step.generation() + 1)?;
                    let t = Instant::now();
                    step.swap_artifact(minute, prepared, &mut scored, &mut NullSink, &mut rec)?;
                    pauses.push(t.elapsed().as_secs_f64() * 1e6);
                    next_probe += stride;
                }
            }
            TraceEvent::SbeVisible {
                minute,
                node,
                app,
                count,
                ..
            } => step.step_sbe(minute, node, app, count, &mut rec)?,
        }
    }
    Ok(pauses)
}

fn same_run(a: &AdaptReport, b: &AdaptReport) -> bool {
    a.drift_log() == b.drift_log() && a.scores_fnv == b.scores_fnv
}

/// Times every adaptive-path layer on `champion`'s trace into
/// `ledger` and records the `driftd`, `obskit` and `streamd` per-layer
/// metrics, with the adaptive path's correctness gate.
pub fn layers(champion: &Champion, out: &mut Outcome, ledger: &mut Ledger) -> BoxResult<()> {
    let cfg = &config(champion);
    // Interleaved rounds, so a slow moment of the host hits every
    // variant alike; the layer times are per-variant medians.
    let quiet_cfg = passthrough(cfg, champion);
    let (mut plain_t, mut quiet_t, mut pinned_t, mut enabled_t) = (vec![], vec![], vec![], vec![]);
    let mut runs = None;
    for _ in 0..ROUNDS {
        let (plain, t) = ledger.time("driftd.plain", || {
            plain_pass(champion, cfg, &mut Recorder::null())
        })?;
        plain_t.push(t);
        let (quiet, t) = ledger.time("driftd.passthrough", || adapt_pass(champion, &quiet_cfg))?;
        quiet_t.push(t);
        let (pinned, t) = ledger.time("driftd.pinned", || adapt_pass(champion, cfg))?;
        pinned_t.push(t);
        let (_, t) = ledger.time("obskit.enabled", || {
            plain_pass(champion, cfg, &mut Recorder::new())
        })?;
        enabled_t.push(t);
        if let Some((_, _, previous)) = &runs {
            if !same_run(&pinned, previous) {
                out.fail(
                    pinned.n_requests,
                    "a repeated pinned run_adapt changed the drift log or scores",
                );
            }
        }
        out.attempted += (plain.len() + quiet.scored.len() + pinned.n_requests as usize) as u64;
        runs = Some((plain, quiet, pinned));
    }
    let (plain, quiet, pinned) = runs.ok_or("no adaptive round ran")?;
    let med = stats::median;
    let (plain_s, quiet_s, pinned_s, enabled_s) = (
        med(&plain_t),
        med(&quiet_t),
        med(&pinned_t),
        med(&enabled_t),
    );
    let (serial, serial_s) = ledger.time("driftd.pinned_serial", || {
        steps::serially(|| adapt_pass(champion, cfg))
    })?;
    let pauses = ledger.time("driftd.swap_probe", || swap_pauses(champion, cfg))?;
    let events = ledger.time("titan_sim.event_stream", || {
        EventStream::new(&champion.trace).map(Iterator::count)
    })?;
    std::hint::black_box(events);
    let t = Instant::now();
    let mut step_ledger = Ledger::start();
    let (stepped, counts) = traced_pass(
        &champion.trace,
        &champion.artifact,
        &cfg.serve,
        false,
        &mut step_ledger,
    )?;
    let (step_wall, _) = step_ledger.close()?;
    ledger.add("streamd.traced_pass", t.elapsed().as_secs_f64());

    out.attempted += (serial.scored.len() + stepped.len()) as u64;
    if !steps::same_scores(&plain, &quiet.scored) {
        out.fail(
            quiet.scored.len() as u64,
            "no-check run_adapt scores differ from serve_observed",
        );
    }
    if !quiet.verdicts.is_empty() {
        out.fail(
            quiet.verdicts.len() as u64,
            "no-check run_adapt fired a verdict",
        );
    }
    if !same_run(&serial, &pinned) {
        out.fail(
            serial.n_requests,
            "run_adapt at SBE_THREADS=1 changed the drift log or scores",
        );
    }
    if !steps::same_scores(&stepped, &plain) {
        out.fail(
            stepped.len() as u64,
            "the traced StepScorer pass differs from serve_observed",
        );
    }
    // Fingerprints to compare across runs of the same seed.
    let log_fnv = fnv1a64(pinned.drift_log().as_bytes());
    out.tag("adapt.drift_log_fnv", format!("{log_fnv:#018x}"));
    out.tag("adapt.scores_fnv", format!("{:#018x}", pinned.scores_fnv));

    out.set("adapt.samples_per_s", pinned.n_requests as f64 / pinned_s);
    out.context("adapt.serial_ratio", pinned_s / serial_s);
    out.context("adapt.requests", pinned.n_requests as f64);
    out.context(
        "adapt.window_min",
        (cfg.serve.score_until_min - cfg.serve.score_from_min) as f64,
    );
    out.set(
        "titan_sim.event_stream_s",
        ledger.get("titan_sim.event_stream"),
    );
    out.set("streamd.step_s", step_ledger.get(steps::STEP));
    out.set("streamd.flush_s", step_ledger.get(steps::FLUSH));
    out.set("streamd.flush_other_s", step_ledger.get(steps::FLUSH));
    out.set("streamd.flushes", counts.flushes as f64);
    out.set(
        "streamd.rows_per_flush",
        counts.n_stage2 as f64 / counts.flushes.max(1) as f64,
    );
    out.set(
        "streamd.stage2_share",
        counts.n_stage2 as f64 / counts.n_requests.max(1) as f64,
    );
    out.set("driftd.plain_s", plain_s);
    out.set("driftd.sidecar_s", quiet_s - plain_s);
    out.set("driftd.checks_s", pinned_s - quiet_s);
    out.set("driftd.verdicts", pinned.verdicts.len() as f64);
    out.set("driftd.retrains", pinned.retrains.len() as f64);
    out.set("driftd.promotions", pinned.promotions.len() as f64);
    out.set("driftd.swap_pause_us", stats::median(&pauses));
    out.set("obskit.enabled_ratio", enabled_s / plain_s);
    out.context("adapt.step_trace_overhead", step_wall / plain_s);
    out.context("adapt.swap_probes", pauses.len() as f64);
    Ok(())
}
