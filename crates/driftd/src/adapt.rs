//! The continual-learning driver: drift-monitored serving with
//! champion/challenger retraining and zero-downtime hot swap.
//!
//! [`run_adapt`] replays the observed event stream through a
//! [`StepScorer`] exactly as `streamd::serve::serve_observed` does, and
//! runs a passive sidecar alongside it:
//!
//! * every stage-2 launch-node's **raw feature row** (rebuilt with
//!   `assemble_row` from the request facts [`StepScorer::issued`] hands
//!   out after each launch, so monitor and scorer see the very same
//!   request) goes to the [`DriftMonitor`] and the [`SampleWindow`];
//! * emitted scores and horizon-resolved SBE labels pair up into
//!   calibration samples and labeled training rows;
//! * at pinned check ticks the monitor may fire a [`DriftVerdict`]; a
//!   verdict triggers one
//!   [`train_challenger`](crate::retrain::train_challenger) attempt;
//!   a promotion hot-swaps the scorer **between events** via
//!   [`StepScorer::prepare_swap`]/[`StepScorer::swap_artifact`], so the
//!   pending batch flushes under the generation that admitted it and
//!   every score is attributable to exactly one generation.
//!
//! Determinism: the sidecar owns no clocks and no hash-order iteration;
//! check ticks, label horizons, and retrain splits are all integer
//! arithmetic on trace minutes, so the same event stream produces
//! byte-identical verdict logs, promoted artifact bytes, and post-swap
//! scores at any `SBE_THREADS` setting. With drift detection never
//! firing (or [`AdaptConfig::check_every_min`] beyond the horizon), the
//! scored output is byte-identical to a plain `serve_observed` run.

use std::sync::Arc;

use crate::monitor::{DriftMonitor, DriftVerdict, MonitorConfig};
use crate::retrain::{RetrainConfig, RetrainOutcome};
use crate::window::{SampleWindow, WindowConfig};
use crate::{DriftError, Result};
use mlkit::hash::{fnv1a64, Fnv1a};
use obskit::Recorder;
use sbepred::features::{assemble_row, FeatureSpec};
use streamd::artifact::PipelineArtifact;
use streamd::serve::{
    AlertSink, LaunchFacts, ScoredLaunch, ServeConfig, Stage2Request, StepScorer,
};
use streamd::StreamError;
use titan_sim::apps::AppId;
use titan_sim::events::{EventStream, TraceEvent};
use titan_sim::topology::NodeId;
use titan_sim::trace::TraceSet;

/// Everything one adaptive serve run needs. All sub-configs carry their
/// own pinned defaults; the composition here is itself part of the
/// pinned rule.
#[derive(Debug, Clone, Copy)]
pub struct AdaptConfig {
    /// Scoring window and batching.
    pub serve: ServeConfig,
    /// Drift-decision thresholds.
    pub monitor: MonitorConfig,
    /// Labeling window capacity and horizon.
    pub window: WindowConfig,
    /// Challenger training and promotion.
    pub retrain: RetrainConfig,
    /// Drift checks run at minutes divisible by this (and only there —
    /// a pinned cadence keeps verdict minutes replayable).
    pub check_every_min: u64,
}

impl AdaptConfig {
    /// The pinned composition scoring `[from, until)`: default serving,
    /// pinned monitor/window/retrain, drift checked every 120 trace
    /// minutes.
    pub fn window(from: u64, until: u64) -> AdaptConfig {
        AdaptConfig {
            serve: ServeConfig::window(from, until),
            monitor: MonitorConfig::pinned(),
            window: WindowConfig::pinned(),
            retrain: RetrainConfig::pinned(),
            check_every_min: 120,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.check_every_min == 0 {
            return Err(DriftError::InvalidConfig {
                reason: "check_every_min must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// One retrain attempt, as recorded in the drift log.
#[derive(Debug, Clone)]
pub struct RetrainRecord {
    /// Check-tick minute the attempt ran at.
    pub minute: u64,
    /// Deterministic outcome text (`skipped: …` or
    /// `evaluated champion_f1=… challenger_f1=… promoted=…`).
    pub outcome: String,
}

/// One committed promotion.
#[derive(Debug, Clone, Copy)]
pub struct PromotionRecord {
    /// Swap minute.
    pub minute: u64,
    /// The generation installed.
    pub generation: u32,
    /// Champion F1 on the held-out tail.
    pub champion_f1: f64,
    /// Challenger F1 on the held-out tail.
    pub challenger_f1: f64,
    /// FNV-1a of the promoted envelope bytes (the new champion
    /// checksum).
    pub artifact_fnv: u64,
    /// Train-window start recorded in the lineage.
    pub train_from_min: u64,
    /// Train-window end recorded in the lineage.
    pub train_until_min: u64,
    /// Training rows used.
    pub n_train: usize,
    /// Held-out rows used.
    pub n_holdout: usize,
}

/// What one adaptive serve run produced.
#[derive(Debug)]
pub struct AdaptReport {
    /// Every scored launch-node, sorted by `(minute, aprun, node)` —
    /// identical to `serve_observed` output when no swap fires.
    pub scored: Vec<ScoredLaunch>,
    /// Drift verdicts, in firing order.
    pub verdicts: Vec<DriftVerdict>,
    /// Retrain attempts, in order (one per verdict).
    pub retrains: Vec<RetrainRecord>,
    /// Committed promotions, in order.
    pub promotions: Vec<PromotionRecord>,
    /// The serving generation at end of stream.
    pub final_generation: u32,
    /// Stream events replayed.
    pub n_events: u64,
    /// Launch events replayed.
    pub n_launches: u64,
    /// SBE visibility events ingested.
    pub n_sbe_events: u64,
    /// Score requests issued.
    pub n_requests: u64,
    /// Requests that reached stage 2.
    pub n_stage2: u64,
    /// Batches flushed.
    pub n_batches: u64,
    /// Alerts emitted.
    pub n_alerts: u64,
    /// Labeled (score, outcome) pairs fed to the calibration monitor.
    pub n_pairs: u64,
    /// FNV-1a over the sorted scored rows — the replay-determinism
    /// fingerprint CI compares across thread counts.
    pub scores_fnv: u64,
}

impl AdaptReport {
    /// The deterministic drift log: one line per verdict, retrain, and
    /// promotion, in event order. CI byte-compares this across
    /// `SBE_THREADS` settings.
    pub fn drift_log(&self) -> String {
        let mut out = String::new();
        let mut retrains = self.retrains.iter();
        let mut promotions = self.promotions.iter().peekable();
        for v in &self.verdicts {
            out.push_str(&v.log_line());
            out.push('\n');
            if let Some(r) = retrains.next() {
                out.push_str(&format!("retrain minute={} {}\n", r.minute, r.outcome));
            }
            if let Some(p) = promotions.peek() {
                if p.minute == v.minute {
                    out.push_str(&format!(
                        "promote minute={} generation={} artifact_fnv={:#018x} \
                         window=[{}, {}) n_train={} n_holdout={}\n",
                        p.minute,
                        p.generation,
                        p.artifact_fnv,
                        p.train_from_min,
                        p.train_until_min,
                        p.n_train,
                        p.n_holdout
                    ));
                    promotions.next();
                }
            }
        }
        out.push_str(&format!(
            "final generation={} scores_fnv={:#018x} n_requests={} n_pairs={}\n",
            self.final_generation, self.scores_fnv, self.n_requests, self.n_pairs
        ));
        out
    }
}

/// Folds the sorted scored rows into the replay fingerprint.
fn fold_scores(scored: &[ScoredLaunch]) -> u64 {
    let mut h = Fnv1a::new();
    for s in scored {
        h.update(&s.minute.to_le_bytes());
        h.update(&s.aprun.to_le_bytes());
        h.update(&s.node.to_le_bytes());
        h.update(&s.probability.to_bits().to_le_bytes());
        h.update(&[u8::from(s.predicted), u8::from(s.stage2)]);
    }
    h.finish()
}

/// The passive sidecar: owns the drift monitor and the labeling window
/// and folds the scorer's stage-2 requests into both.
struct Sidecar {
    monitor: DriftMonitor,
    window: SampleWindow,
    spec: FeatureSpec,
    /// Scratch row; reused so the streaming path stays allocation-flat
    /// once warmed.
    row: Vec<f32>,
    /// How many of the driver's `scored` entries have been consumed.
    consumed: usize,
    n_pairs: u64,
}

impl Sidecar {
    fn new(spec: FeatureSpec, cfg: &AdaptConfig) -> Result<Sidecar> {
        if spec.needs_telemetry() {
            return Err(DriftError::InvalidConfig {
                reason: "adaptive serving requires a telemetry-free feature spec \
                         (sensor windows are not replayable into the drift window)"
                    .into(),
            });
        }
        let n_features = spec.feature_names().len();
        Ok(Sidecar {
            monitor: DriftMonitor::new(n_features, cfg.monitor)?,
            window: SampleWindow::new(cfg.window)?,
            spec,
            row: Vec::new(),
            consumed: 0,
            n_pairs: 0,
        })
    }

    /// Rebuilds the raw row of each stage-2 request `launch` issued
    /// (telemetry-free, like the spec) and folds it into the monitor
    /// and the window.
    fn observe_issued(
        &mut self,
        launch: &LaunchFacts<'_>,
        issued: &[Stage2Request],
        rec: &mut Recorder,
    ) -> Result<()> {
        for req in issued {
            self.row.clear();
            assemble_row(&self.spec, &req.facts, None, &req.hist, &mut self.row)
                .map_err(StreamError::from)?;
            self.monitor.observe_row(&self.row);
            rec.incr("driftd.rows", 1);
            self.window.admit(
                launch.minute,
                launch.aprun,
                req.node.0,
                launch.app,
                self.row.clone(),
            );
        }
        Ok(())
    }

    /// Resolves positive labels for any open window samples on this
    /// `(node, app)`.
    fn observe_sbe(&mut self, minute: u64, node: NodeId, app: AppId, count: u32) {
        if count > 0 {
            let pairs = self.window.observe_sbe(minute, node.0, app.0);
            self.feed_pairs(&pairs);
        }
    }

    /// Attaches newly emitted scores to their window samples.
    fn consume_scored(&mut self, scored: &[ScoredLaunch], rec: &mut Recorder) {
        while self.consumed < scored.len() {
            let s = scored[self.consumed];
            self.consumed += 1;
            if !s.stage2 {
                continue;
            }
            if let Some(pair) = self.window.attach_score(s.aprun, s.node, s.probability) {
                self.feed_pairs(&[pair]);
            }
            rec.incr("driftd.scores_attached", 1);
        }
    }

    fn feed_pairs(&mut self, pairs: &[(f32, bool)]) {
        for &(prob, label) in pairs {
            self.monitor.observe_labeled(prob, label);
            self.n_pairs += 1;
        }
    }
}

/// Runs the adaptive serving loop over an observed trace. `artifact` is
/// the generation-0 champion; promoted challengers take over mid-stream
/// without dropping or double-scoring any pending request.
///
/// # Errors
///
/// Config validation, a telemetry-needing feature spec, and any scorer,
/// trainer, or sink error. Retrain *skips* (thin or single-class
/// windows) are recorded, not errors.
pub fn run_adapt(
    trace: &TraceSet,
    artifact: &PipelineArtifact,
    cfg: &AdaptConfig,
    sink: &mut dyn AlertSink,
    rec: &mut Recorder,
) -> Result<AdaptReport> {
    cfg.validate()?;
    let mut step = StepScorer::new(artifact, &cfg.serve, trace.config().topology, Some(trace))?;
    let mut sidecar = Sidecar::new(*artifact.spec(), cfg)?;
    // The champion's identity is the FNV of its (root-lineage) envelope
    // — the value every successor must name as parent.
    let mut champion_checksum = fnv1a64(&artifact.to_bytes()?);

    let span = rec.span_start("driftd.adapt");
    let mut scored: Vec<ScoredLaunch> = Vec::new();
    let mut verdicts: Vec<DriftVerdict> = Vec::new();
    let mut retrains: Vec<RetrainRecord> = Vec::new();
    let mut promotions: Vec<PromotionRecord> = Vec::new();
    let mut n_events = 0u64;
    let mut n_launches = 0u64;
    let mut n_sbe_events = 0u64;

    let stream = EventStream::new(trace).map_err(StreamError::from)?;
    let catalog = trace.catalog();

    for event in stream {
        n_events += 1;
        match event {
            TraceEvent::Tick { minute } => {
                step.step_tick(minute, &mut scored, sink, rec)?;
                sidecar.consume_scored(&scored, rec);
                if minute > 0 && minute.is_multiple_of(cfg.check_every_min) {
                    check_drift(
                        minute,
                        cfg,
                        &mut step,
                        &mut sidecar,
                        &mut champion_checksum,
                        &mut scored,
                        &mut verdicts,
                        &mut retrains,
                        &mut promotions,
                        sink,
                        rec,
                    )?;
                    sidecar.consume_scored(&scored, rec);
                }
            }
            TraceEvent::Launch { minute, aprun } => {
                n_launches += 1;
                let run = trace.aprun(aprun).map_err(StreamError::from)?;
                let profile = catalog.profile(run.app_id).map_err(StreamError::from)?;
                let facts = LaunchFacts {
                    minute,
                    aprun: aprun.0,
                    app: run.app_id.0,
                    runtime_min: run.runtime_min(),
                    core_util: profile.core_util,
                    mem_util: profile.mem_util,
                    nodes: &run.nodes,
                };
                step.step_launch(&facts, &mut scored, sink, rec)?;
                sidecar.observe_issued(&facts, step.issued(), rec)?;
                sidecar.consume_scored(&scored, rec);
            }
            TraceEvent::SbeVisible {
                minute,
                node,
                app,
                count,
                ..
            } => {
                n_sbe_events += 1;
                step.step_sbe(minute, node, app, count, rec)?;
                sidecar.observe_sbe(minute, node, app, count);
            }
        }
    }
    step.step_finish(&mut scored, sink, rec)?;
    sidecar.consume_scored(&scored, rec);

    scored.sort_unstable_by_key(|s| (s.minute, s.aprun, s.node));
    let scores_fnv = fold_scores(&scored);

    let stats = step.step_stats();
    rec.gauge("driftd.generation", f64::from(step.generation()));
    rec.span_end(span);

    Ok(AdaptReport {
        final_generation: step.generation(),
        scored,
        verdicts,
        retrains,
        promotions,
        n_events,
        n_launches,
        n_sbe_events,
        n_requests: stats.n_requests,
        n_stage2: stats.n_stage2,
        n_batches: stats.n_batches,
        n_alerts: stats.n_alerts,
        n_pairs: sidecar.n_pairs,
        scores_fnv,
    })
}

/// One pinned check tick: resolve overdue labels, ask the monitor for a
/// verdict, and on a verdict run exactly one retrain attempt. Whatever
/// the outcome, the monitor rebaselines and the window clears — the
/// next verdict must be earned on fresh evidence, never on the residue
/// that already fired.
#[allow(clippy::too_many_arguments)]
fn check_drift(
    minute: u64,
    cfg: &AdaptConfig,
    step: &mut StepScorer<'_>,
    sidecar: &mut Sidecar,
    champion_checksum: &mut u64,
    scored: &mut Vec<ScoredLaunch>,
    verdicts: &mut Vec<DriftVerdict>,
    retrains: &mut Vec<RetrainRecord>,
    promotions: &mut Vec<PromotionRecord>,
    sink: &mut dyn AlertSink,
    rec: &mut Recorder,
) -> Result<()> {
    let pairs = sidecar.window.resolve_upto(minute);
    sidecar.feed_pairs(&pairs);

    let Some(verdict) = sidecar.monitor.check(minute, step.generation()) else {
        return Ok(());
    };
    rec.incr("driftd.verdicts", 1);
    verdicts.push(verdict);

    let rows = sidecar.window.labeled_rows();
    let outcome = crate::retrain::train_challenger(
        &rows,
        step.artifact(),
        *champion_checksum,
        step.generation(),
        &cfg.retrain,
    )?;
    rec.incr("driftd.retrains", 1);
    match outcome {
        RetrainOutcome::Skipped { reason } => {
            retrains.push(RetrainRecord {
                minute,
                outcome: format!("skipped: {reason}"),
            });
        }
        RetrainOutcome::Evaluated(ev) => {
            retrains.push(RetrainRecord {
                minute,
                outcome: format!(
                    "evaluated champion_f1={:.6} challenger_f1={:.6} promoted={}",
                    ev.champion_f1,
                    ev.challenger_f1,
                    ev.promoted.is_some()
                ),
            });
            if let Some(promo) = ev.promoted {
                let generation = promo.lineage.generation;
                let prepared = step.prepare_swap(Arc::new(promo.artifact), generation)?;
                // The swap flushes the pending batch under the outgoing
                // generation before committing — zero dropped, zero
                // double-scored.
                step.swap_artifact(minute, prepared, scored, sink, rec)?;
                *champion_checksum = promo.checksum;
                rec.incr("driftd.promotions", 1);
                promotions.push(PromotionRecord {
                    minute,
                    generation,
                    champion_f1: ev.champion_f1,
                    challenger_f1: ev.challenger_f1,
                    artifact_fnv: promo.checksum,
                    train_from_min: ev.train_from_min,
                    train_until_min: ev.train_until_min,
                    n_train: ev.n_train,
                    n_holdout: ev.n_holdout,
                });
            }
        }
    }
    // Restart the evidence stream under whichever champion now serves.
    sidecar.monitor.rebaseline();
    sidecar.window.clear();
    Ok(())
}
