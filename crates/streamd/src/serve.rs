//! The online scoring loop.
//!
//! [`serve`] replays a trace's [`EventStream`] against a shipped
//! [`PipelineArtifact`]: launches inside the scoring window become score
//! requests, requests batch up to a bounded capacity (or a maximum
//! queueing delay in trace minutes), and each flush runs stage 1
//! (offender-set membership), feature assembly + standardisation on the
//! calling thread, and the stage-2 classifier. Predicted-SBE launches are
//! emitted to an [`AlertSink`] as mitigation decisions.
//!
//! Determinism: every obskit measurement is recorded from the driver
//! thread with values that are pure functions of the trace and config
//! (batch sizes, queue delays, probabilities), so the metrics snapshot is
//! byte-identical across thread counts; the only parallelism is inside
//! the telemetry query engine, an order-preserving parkit fan-out under
//! the trace's thread policy.
//!
//! Parity: feature values are captured at *launch-event time* from the
//! incremental engine (frozen, strictly-before-launch state), while
//! telemetry, scaling, and prediction are pure per-row functions — so
//! batching policy affects throughput and latency, never a prediction.
//!
//! Scoring: the stage-2 model is flattened once when the scorer is
//! built (`mlkit::fastpath`), and every flush scores out of reusable
//! scratch with zero steady-state allocation. The interpreted
//! `PipelineModel::predict_proba` is kept only as the oracle the
//! differential suites hold this path to, bit for bit.
//!
//! Step feeding: the loop's body is the public [`StepScorer`] — a
//! one-event-at-a-time core ([`StepScorer::step_tick`] /
//! [`StepScorer::step_launch`] / [`StepScorer::step_sbe`] /
//! [`StepScorer::step_finish`]) that [`serve`] drives from an
//! [`EventStream`] and the `sbed` network daemon drives from decoded
//! wire frames. Both feeders share the engine, batching, and scoring
//! code paths, so equal event sequences score bit-identically however
//! the events arrive.

use crate::artifact::{CompiledScorer, PipelineArtifact};
use crate::engine::StreamFeatureEngine;
use crate::{Result, StreamError};
use mlkit::fastpath::FeatureFrame;
use obskit::Recorder;
use sbepred::features::{assemble_row, HistCounts, SampleFacts};
use serde::Serialize;
use titan_sim::engine::{SampleTelemetry, TelemetryQueryEngine};
use titan_sim::events::{EventStream, TraceEvent};
use titan_sim::schedule::ApRunId;
use titan_sim::topology::NodeId;
use titan_sim::trace::TraceSet;

/// Tuning and windowing for one serve run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Flush a batch once this many requests are pending.
    pub batch_capacity: usize,
    /// Flush once the oldest pending request has waited this many trace
    /// minutes (bounded scoring latency).
    pub max_delay_min: u64,
    /// First minute (inclusive) whose launches are scored. History is
    /// always replayed from minute 0 regardless.
    pub score_from_min: u64,
    /// End of the scoring window (exclusive).
    pub score_until_min: u64,
}

impl ServeConfig {
    /// A config scoring `[from, until)` with the defaults: batches of 64,
    /// 5-minute latency bound.
    pub fn window(from: u64, until: u64) -> ServeConfig {
        ServeConfig {
            batch_capacity: 64,
            max_delay_min: 5,
            score_from_min: from,
            score_until_min: until,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.batch_capacity == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "batch_capacity must be at least 1".into(),
            });
        }
        if self.score_from_min >= self.score_until_min {
            return Err(StreamError::InvalidConfig {
                reason: format!(
                    "empty scoring window [{}, {})",
                    self.score_from_min, self.score_until_min
                ),
            });
        }
        Ok(())
    }
}

/// One scored launch-node: the streaming counterpart of a row of the
/// batch `TwoStageOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScoredLaunch {
    /// Launch minute.
    pub minute: u64,
    /// The application run.
    pub aprun: u32,
    /// The application.
    pub app: u32,
    /// The node.
    pub node: u32,
    /// Predicted-SBE probability (0 when stage 1 filtered the node).
    pub probability: f32,
    /// Hard decision at the model threshold.
    pub predicted: bool,
    /// Whether the request reached the stage-2 classifier.
    pub stage2: bool,
}

/// The mitigation a flagged launch should receive — the paper's §I
/// motivation (checkpoint-interval tuning; pulling a node out of the
/// schedulable pool for the worst offenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Mitigation {
    /// Shorten the application's checkpoint interval for this run.
    ShortenCheckpoint,
    /// Drain the node after the run: predicted risk is high enough that
    /// follow-on work should not be placed there.
    DrainNode,
}

/// Probability at or above which the mitigation escalates from
/// checkpoint tuning to node draining.
const DRAIN_THRESHOLD: f32 = 0.9;

impl Mitigation {
    /// The escalation rule for a flagged launch scored at `probability`:
    /// drain the node at or above `DRAIN_THRESHOLD` (0.9), else shorten the
    /// checkpoint interval. Every surface that reports a decision (the
    /// serve loop's alerts, `sbed`'s SCORES entries) asks this.
    pub fn for_probability(probability: f32) -> Mitigation {
        if probability >= DRAIN_THRESHOLD {
            Mitigation::DrainNode
        } else {
            Mitigation::ShortenCheckpoint
        }
    }
}

/// An emitted mitigation decision for a flagged launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Alert {
    /// Launch minute.
    pub minute: u64,
    /// The application run.
    pub aprun: u32,
    /// The node at risk.
    pub node: u32,
    /// The application.
    pub app: u32,
    /// Predicted-SBE probability.
    pub probability: f32,
    /// The decision.
    pub decision: Mitigation,
}

impl Alert {
    fn for_launch(s: &ScoredLaunch) -> Alert {
        Alert {
            minute: s.minute,
            aprun: s.aprun,
            node: s.node,
            app: s.app,
            probability: s.probability,
            decision: Mitigation::for_probability(s.probability),
        }
    }
}

/// Receives mitigation decisions as the loop emits them.
pub trait AlertSink {
    /// Called once per flagged launch, in emission order.
    ///
    /// # Errors
    ///
    /// A sink error aborts the serve run.
    fn on_alert(&mut self, alert: &Alert) -> Result<()>;
}

/// The in-memory sink: collects alerts into a `Vec`.
impl AlertSink for Vec<Alert> {
    fn on_alert(&mut self, alert: &Alert) -> Result<()> {
        self.push(*alert);
        Ok(())
    }
}

/// A sink that drops everything (scoring-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl AlertSink for NullSink {
    fn on_alert(&mut self, _alert: &Alert) -> Result<()> {
        Ok(())
    }
}

/// The outcome of one serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Every scored launch-node in the window, sorted by
    /// `(minute, aprun, node)`.
    pub scored: Vec<ScoredLaunch>,
    /// Stream events replayed.
    pub n_events: u64,
    /// Launch events replayed (whole trace, not just the window).
    pub n_launches: u64,
    /// SBE visibility events ingested.
    pub n_sbe_events: u64,
    /// Score requests issued (launch-nodes inside the window).
    pub n_requests: u64,
    /// Requests that reached the stage-2 classifier.
    pub n_stage2: u64,
    /// Batches flushed.
    pub n_batches: u64,
    /// Alerts emitted.
    pub n_alerts: u64,
}

/// A stage-2 score request as [`StepScorer::step_launch`] issued it:
/// the node and the launch-time feature facts its row is assembled
/// from (`assemble_row`).
#[derive(Debug, Clone, Copy)]
pub struct Stage2Request {
    /// The node being scored.
    pub node: NodeId,
    /// Per-sample facts, frozen at launch time.
    pub facts: SampleFacts,
    /// SBE-history counts strictly before the launch minute.
    pub hist: HistCounts,
}

/// A queued stage-2 request with the launch it belongs to.
#[derive(Debug, Clone)]
struct PendingRequest {
    minute: u64,
    aprun: ApRunId,
    app: u32,
    req: Stage2Request,
}

/// The scorer's handle on its serving artifact. A scorer starts on a
/// caller-borrowed champion; a hot swap installs an owned (promoted)
/// challenger without requiring the caller to keep the old borrow
/// alive or restart the loop.
enum ArtifactRef<'a> {
    /// The artifact the scorer was built with.
    Borrowed(&'a PipelineArtifact),
    /// A hot-swapped successor, owned by the scorer.
    Owned(std::sync::Arc<PipelineArtifact>),
}

impl ArtifactRef<'_> {
    fn get(&self) -> &PipelineArtifact {
        match self {
            ArtifactRef::Borrowed(a) => a,
            ArtifactRef::Owned(a) => a,
        }
    }
}

/// The compiled stage-2 model and its scratch. Every buffer is reused
/// across flushes, so once the largest batch has been seen a flush
/// performs no heap allocation at all.
struct CompiledState {
    scorer: CompiledScorer,
    /// Feature width (the scaler's row length).
    n_features: usize,
    /// Raw (unscaled) feature row being assembled.
    raw: Vec<f32>,
    /// Standardised feature row (fixed width).
    scaled: Vec<f32>,
    /// Column-major batch buffer, persisted across flushes (capacity is
    /// retained by `reset`).
    frame: FeatureFrame,
    /// Probability output.
    proba: Vec<f32>,
}

impl CompiledState {
    /// Flattens `artifact`'s model and sizes the frame for `cfg`'s
    /// batches. Every scorer is built here, at start and for each swap.
    fn new(artifact: &PipelineArtifact, cfg: &ServeConfig) -> Result<CompiledState> {
        let n_features = artifact.spec().feature_names().len();
        Ok(CompiledState {
            scorer: artifact.compile()?,
            n_features,
            raw: Vec::with_capacity(n_features),
            scaled: vec![0.0; n_features],
            frame: FeatureFrame::with_capacity(n_features, cfg.batch_capacity.min(1_024)),
            proba: Vec::new(),
        })
    }
}

/// The bare facts of one launch event, as a step feeder presents them:
/// exactly what [`serve`] derives from the trace record and app catalog,
/// and what `sbed` decodes from a wire frame.
#[derive(Debug, Clone)]
pub struct LaunchFacts<'a> {
    /// Launch minute.
    pub minute: u64,
    /// Application-run id (must be unique per launch).
    pub aprun: u32,
    /// Application id.
    pub app: u32,
    /// Scheduled runtime in minutes.
    pub runtime_min: u64,
    /// Aggregate GPU core utilisation of the application.
    pub core_util: f64,
    /// Aggregate GPU memory utilisation of the application.
    pub mem_util: f64,
    /// Allocated nodes, in allocation order (the scorer sorts its own
    /// copy for the request universe; history queries see this order).
    pub nodes: &'a [NodeId],
}

/// Counters a [`StepScorer`] accumulates across its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Score requests issued (launch-nodes inside the window).
    pub n_requests: u64,
    /// Requests that reached the stage-2 classifier.
    pub n_stage2: u64,
    /// Batches flushed.
    pub n_batches: u64,
    /// Alerts emitted.
    pub n_alerts: u64,
}

/// The step-style scoring core: one-event-at-a-time feeding of the
/// incremental engine plus the bounded-batch TwoStage scoring loop.
///
/// [`serve`] drives this from a trace's [`EventStream`]; the `sbed`
/// network daemon drives it from decoded wire frames — both share the
/// same feature assembly (`assemble_row`), stage-1 filter, batching
/// policy, and compiled scorer, so a network feed and an in-process
/// replay of the same event sequence are bit-identical.
///
/// Call discipline (mirrors the event-stream contract): `step_tick`
/// opens a minute, then that minute's `step_launch` calls (aprun order),
/// then its `step_sbe` calls; `step_finish` flushes whatever is still
/// queued. Scored launches are appended to the caller's `out` vector in
/// emission order (stage-1 rejections at launch time, stage-2 rows at
/// flush time, batch order).
pub struct StepScorer<'a> {
    artifact: ArtifactRef<'a>,
    cfg: ServeConfig,
    spec: sbepred::features::FeatureSpec,
    topology: titan_sim::topology::Topology,
    query_engine: Option<TelemetryQueryEngine<'a>>,
    compiled: CompiledState,
    engine: StreamFeatureEngine,
    pending: Vec<PendingRequest>,
    /// The stage-2 requests the latest `step_launch` issued, in issue
    /// order; reused across launches.
    issued: Vec<Stage2Request>,
    stats: StepStats,
    /// Serving generation: 0 for the artifact the scorer was built with,
    /// bumped by every committed hot swap.
    generation: u32,
}

/// A validated, pre-compiled challenger ready to be committed by
/// [`StepScorer::swap_artifact`]. Building one does all the fallible,
/// allocating work (schema check, generation check, fastpath
/// compilation) *off* the swap boundary, so the commit itself is a pure
/// field exchange.
pub struct PreparedSwap {
    artifact: std::sync::Arc<PipelineArtifact>,
    compiled: CompiledState,
    generation: u32,
}

impl PreparedSwap {
    /// The generation this swap will install.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

impl<'a> StepScorer<'a> {
    /// Builds the scoring core. `telemetry` is the trace backing
    /// temperature/power window queries; it may be `None` only when the
    /// artifact's feature spec needs no telemetry (e.g.
    /// `FeatureSpec::no_telemetry()` — the spec network artifacts are
    /// trained with, since sensor windows do not travel on the wire).
    ///
    /// # Errors
    ///
    /// Config validation, an empty feature spec, or a telemetry-needing
    /// spec without a telemetry source.
    pub fn new(
        artifact: &'a PipelineArtifact,
        cfg: &ServeConfig,
        topology: titan_sim::topology::Topology,
        telemetry: Option<&'a TraceSet>,
    ) -> Result<StepScorer<'a>> {
        cfg.validate()?;
        let spec = *artifact.spec();
        if spec.feature_names().is_empty() {
            return Err(StreamError::InvalidConfig {
                reason: "artifact feature spec selects no features".into(),
            });
        }
        let query_engine = if spec.needs_telemetry() {
            match telemetry {
                Some(trace) => Some(TelemetryQueryEngine::new(trace)?),
                None => {
                    return Err(StreamError::InvalidConfig {
                        reason: "artifact spec needs telemetry but no telemetry source was \
                                 provided (train with FeatureSpec::no_telemetry() for network \
                                 serving)"
                            .into(),
                    })
                }
            }
        } else {
            None
        };
        Ok(StepScorer {
            artifact: ArtifactRef::Borrowed(artifact),
            cfg: *cfg,
            spec,
            topology,
            query_engine,
            compiled: CompiledState::new(artifact, cfg)?,
            engine: StreamFeatureEngine::new(),
            pending: Vec::new(),
            issued: Vec::new(),
            stats: StepStats::default(),
            generation: 0,
        })
    }

    /// The serving generation: 0 until the first committed hot swap.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The artifact currently being served.
    pub fn artifact(&self) -> &PipelineArtifact {
        self.artifact.get()
    }

    /// Validates and pre-compiles a challenger for a later
    /// [`StepScorer::swap_artifact`]. All the expensive or fallible work
    /// happens here, off the swap boundary: the challenger must carry
    /// the *same feature schema* as the serving champion (the stream
    /// feeder and pending requests were assembled under it), and
    /// `generation` must strictly advance the serving generation.
    ///
    /// # Errors
    ///
    /// * [`mlkit::MlError::ArtifactSchemaMismatch`] (via
    ///   [`StreamError::Ml`]) — the challenger was trained under a
    ///   different feature schema;
    /// * [`mlkit::MlError::ArtifactLineage`] — `generation` does not
    ///   strictly advance the serving generation;
    /// * compilation errors (an unfitted challenger model).
    pub fn prepare_swap(
        &self,
        artifact: std::sync::Arc<PipelineArtifact>,
        generation: u32,
    ) -> Result<PreparedSwap> {
        let expected = self.artifact.get().schema_hash();
        let found = artifact.schema_hash();
        if found != expected {
            return Err(mlkit::MlError::ArtifactSchemaMismatch { expected, found }.into());
        }
        if generation <= self.generation {
            return Err(mlkit::MlError::ArtifactLineage {
                reason: format!(
                    "swap generation {generation} does not advance serving generation {}",
                    self.generation
                ),
            }
            .into());
        }
        let compiled = CompiledState::new(&artifact, &self.cfg)?;
        Ok(PreparedSwap {
            artifact,
            compiled,
            generation,
        })
    }

    /// Commits a prepared hot swap at a batch boundary: everything
    /// admitted before this call is flushed and scored by the *old*
    /// generation (no request is dropped or double-scored), then the
    /// challenger becomes the serving artifact. Scores emitted by the
    /// flush land in `out`/`sink` exactly as a deadline flush would
    /// have delivered them.
    ///
    /// # Errors
    ///
    /// Propagates flush (telemetry/assembly/classifier/sink) errors; on
    /// error the swap is not committed.
    pub fn swap_artifact(
        &mut self,
        now_min: u64,
        prepared: PreparedSwap,
        out: &mut Vec<ScoredLaunch>,
        sink: &mut dyn AlertSink,
        rec: &mut Recorder,
    ) -> Result<()> {
        self.flush_pending(now_min, out, sink, rec)?;
        rec.incr("streamd.swaps", 1);
        self.commit_swap(prepared);
        rec.gauge("streamd.generation", self.generation as f64);
        Ok(())
    }

    /// The swap boundary itself: a pure field exchange, nothing else.
    /// Hot-path root (D006/D007/D008) — the pause a swap imposes on the
    /// serving loop is exactly this function, so it must not panic,
    /// allocate, or consult ambient state.
    fn commit_swap(&mut self, prepared: PreparedSwap) {
        self.artifact = ArtifactRef::Owned(prepared.artifact);
        self.compiled = prepared.compiled;
        self.generation = prepared.generation;
    }

    /// Opens `minute`: applies the previous minute's deferred prev-app
    /// updates and flushes if the oldest pending request has hit the
    /// latency deadline.
    ///
    /// # Errors
    ///
    /// Propagates flush (telemetry/assembly/classifier/sink) errors.
    pub fn step_tick(
        &mut self,
        minute: u64,
        out: &mut Vec<ScoredLaunch>,
        sink: &mut dyn AlertSink,
        rec: &mut Recorder,
    ) -> Result<()> {
        self.engine.end_minute();
        let deadline_hit = self
            .pending
            .first()
            .is_some_and(|p| minute.saturating_sub(p.minute) >= self.cfg.max_delay_min);
        if deadline_hit {
            self.flush_pending(minute, out, sink, rec)?;
        }
        Ok(())
    }

    /// Feeds one launch: updates the engine, and (for launches inside
    /// the scoring window) issues per-node requests in sorted node
    /// order — stage-1 rejections are appended to `out` immediately,
    /// offender nodes queue for the stage-2 batch and are listed by
    /// [`StepScorer::issued`] until the next launch.
    ///
    /// # Errors
    ///
    /// Unknown node ids (topology lookup) and flush errors.
    pub fn step_launch(
        &mut self,
        launch: &LaunchFacts<'_>,
        out: &mut Vec<ScoredLaunch>,
        sink: &mut dyn AlertSink,
        rec: &mut Recorder,
    ) -> Result<()> {
        self.engine
            .observe_launch(launch.minute, launch.app, launch.nodes);
        self.issued.clear();
        if !self.in_window(launch.minute) {
            return Ok(());
        }
        // Requests in (aprun, node) order, matching the batch sample
        // universe.
        let mut nodes = launch.nodes.to_vec();
        nodes.sort_unstable();
        for node in nodes {
            self.stats.n_requests += 1;
            rec.incr("streamd.requests", 1);
            if !self.artifact.get().is_offender(node.0) {
                // Stage 1: never-offending node — predicted SBE-free
                // without touching the classifier.
                rec.incr("streamd.stage1_filtered", 1);
                out.push(ScoredLaunch {
                    minute: launch.minute,
                    aprun: launch.aprun,
                    app: launch.app,
                    node: node.0,
                    probability: 0.0,
                    predicted: false,
                    stage2: false,
                });
                continue;
            }
            let facts = SampleFacts {
                app: launch.app,
                prev_app: self.engine.previous_app(node.0),
                runtime_min: launch.runtime_min,
                n_nodes: launch.nodes.len() as u32,
                core_util: launch.core_util,
                mem_util: launch.mem_util,
                loc: self.topology.location(node)?,
                node: node.0,
            };
            let hist = self.engine.hist_counts(
                &self.spec,
                node,
                titan_sim::apps::AppId(launch.app),
                launch.nodes,
                launch.minute,
            );
            let req = Stage2Request { node, facts, hist };
            self.issued.push(req);
            self.pending.push(PendingRequest {
                minute: launch.minute,
                aprun: ApRunId(launch.aprun),
                app: launch.app,
                req,
            });
            if self.pending.len() >= self.cfg.batch_capacity {
                self.flush_pending(launch.minute, out, sink, rec)?;
            }
        }
        Ok(())
    }

    /// Ingests one job-boundary SBE visibility event.
    ///
    /// # Errors
    ///
    /// Propagates incremental-history ordering violations.
    pub fn step_sbe(
        &mut self,
        minute: u64,
        node: NodeId,
        app: titan_sim::apps::AppId,
        count: u32,
        rec: &mut Recorder,
    ) -> Result<()> {
        rec.incr("streamd.sbe_events", 1);
        self.engine.observe_sbe(minute, node, app, count)
    }

    /// Ends the feed: applies the final minute's deferred updates and
    /// flushes whatever is still queued (queue delays are measured
    /// against the scoring window's end).
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn step_finish(
        &mut self,
        out: &mut Vec<ScoredLaunch>,
        sink: &mut dyn AlertSink,
        rec: &mut Recorder,
    ) -> Result<()> {
        self.engine.end_minute();
        let final_minute = self.cfg.score_until_min;
        self.flush_pending(final_minute, out, sink, rec)
    }

    /// The counters accumulated so far.
    pub fn step_stats(&self) -> StepStats {
        self.stats
    }

    /// The stage-2 requests the latest [`StepScorer::step_launch`]
    /// issued, in issue order (empty for a launch outside the scoring
    /// window or one with no offender node). Observers such as a drift
    /// monitor rebuild each request's raw row from these facts instead
    /// of mirroring the feature engine.
    pub fn issued(&self) -> &[Stage2Request] {
        &self.issued
    }

    /// Whether a launch at `minute` falls inside the scoring window
    /// (feeders use this to predict how many scored rows a launch will
    /// produce).
    pub fn in_window(&self, minute: u64) -> bool {
        minute >= self.cfg.score_from_min && minute < self.cfg.score_until_min
    }

    /// Scores and drains the pending batch.
    fn flush_pending(
        &mut self,
        now_min: u64,
        out: &mut Vec<ScoredLaunch>,
        sink: &mut dyn AlertSink,
        rec: &mut Recorder,
    ) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch: Vec<PendingRequest> = std::mem::take(&mut self.pending);
        let flush_span = rec.span_start("streamd.flush");
        self.stats.n_batches += 1;
        rec.incr("streamd.batches", 1);
        rec.observe("streamd.batch_rows", batch.len() as f64);
        for p in &batch {
            rec.observe(
                "streamd.queue_delay_min",
                now_min.saturating_sub(p.minute) as f64,
            );
        }

        // Telemetry for the whole batch in one order-preserving query;
        // the engine's window statistics are pure functions of
        // (aprun, node), so batch composition cannot change a value.
        let feature_span = rec.span_start("streamd.features");
        let telemetry: Vec<SampleTelemetry> = match &self.query_engine {
            Some(qe) => {
                let pairs: Vec<_> = batch.iter().map(|p| (p.aprun, p.req.node)).collect();
                qe.query(&pairs)?
            }
            None => Vec::new(),
        };
        // The assembly/scoring bodies live in named functions so
        // `detlint.toml` can declare them hot-path roots (D006/D007/D008)
        // without dragging driver instrumentation into the proof
        // obligation.
        let state = &mut self.compiled;
        let scaler = self.artifact.get().scaler();
        assemble_batch(&self.spec, scaler, state, &batch, &telemetry)?;
        rec.span_end(feature_span);

        let score_span = rec.span_start("streamd.score");
        score_batch(state, batch.len())?;
        rec.span_end(score_span);
        let threshold = self.artifact.get().model().threshold();

        for (p, &prob) in batch.iter().zip(&state.proba) {
            self.stats.n_stage2 += 1;
            rec.incr("streamd.stage2_scored", 1);
            rec.observe("streamd.probability_pct", prob as f64 * 100.0);
            let s = ScoredLaunch {
                minute: p.minute,
                aprun: p.aprun.0,
                app: p.app,
                node: p.req.node.0,
                probability: prob,
                predicted: prob >= threshold,
                stage2: true,
            };
            out.push(s);
            if s.predicted {
                self.stats.n_alerts += 1;
                rec.incr("streamd.alerts", 1);
                sink.on_alert(&Alert::for_launch(&s))?;
            }
        }
        rec.span_end(flush_span);
        Ok(())
    }
}

/// Replays `trace` against `artifact` (see the module docs).
///
/// # Errors
///
/// Propagates config validation, trace lookup, telemetry, classifier,
/// and sink errors.
pub fn serve(
    trace: &TraceSet,
    artifact: &PipelineArtifact,
    cfg: &ServeConfig,
    sink: &mut dyn AlertSink,
) -> Result<ServeReport> {
    serve_observed(trace, artifact, cfg, sink, &mut Recorder::null())
}

/// Like [`serve`], but records per-stage latency/throughput metrics into
/// `rec`: request/batch counters, batch-size and queue-delay histograms,
/// a probability histogram, and `streamd.flush` / `streamd.features` /
/// `streamd.score` spans. All measurements are driver-side and
/// deterministic — the snapshot is byte-identical across thread counts.
///
/// # Errors
///
/// See [`serve`].
pub fn serve_observed(
    trace: &TraceSet,
    artifact: &PipelineArtifact,
    cfg: &ServeConfig,
    sink: &mut dyn AlertSink,
    rec: &mut Recorder,
) -> Result<ServeReport> {
    let topology = trace.config().topology;
    let mut step = StepScorer::new(artifact, cfg, topology, Some(trace))?;

    let serve_span = rec.span_start("streamd.serve");
    rec.gauge("streamd.batch_capacity", cfg.batch_capacity as f64);
    rec.gauge("streamd.max_delay_min", cfg.max_delay_min as f64);

    let mut scored: Vec<ScoredLaunch> = Vec::new();
    let mut report = ServeReport {
        scored: Vec::new(),
        n_events: 0,
        n_launches: 0,
        n_sbe_events: 0,
        n_requests: 0,
        n_stage2: 0,
        n_batches: 0,
        n_alerts: 0,
    };

    let stream = EventStream::new(trace)?;
    rec.gauge("streamd.horizon_min", stream.horizon_min() as f64);
    let catalog = trace.catalog();

    for event in stream {
        report.n_events += 1;
        match event {
            TraceEvent::Tick { minute } => {
                // The tick opens `minute`; everything queued in earlier
                // minutes is now strictly in the past.
                step.step_tick(minute, &mut scored, sink, rec)?;
            }
            TraceEvent::Launch { minute, aprun } => {
                report.n_launches += 1;
                let run = trace.aprun(aprun)?;
                let profile = catalog.profile(run.app_id)?;
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
                    sink,
                    rec,
                )?;
            }
            TraceEvent::SbeVisible {
                minute,
                node,
                app,
                count,
                ..
            } => {
                report.n_sbe_events += 1;
                step.step_sbe(minute, node, app, count, rec)?;
            }
        }
    }
    // Final flush: whatever is still queued at end of trace.
    step.step_finish(&mut scored, sink, rec)?;

    let stats = step.step_stats();
    report.n_requests = stats.n_requests;
    report.n_stage2 = stats.n_stage2;
    report.n_batches = stats.n_batches;
    report.n_alerts = stats.n_alerts;

    rec.incr("streamd.events", report.n_events);
    rec.span_end(serve_span);

    scored.sort_unstable_by_key(|s| (s.minute, s.aprun, s.node));
    report.scored = scored;
    Ok(report)
}

/// Feature assembly: each row is assembled (`assemble_row`), then
/// standardised (the scaler's `transform_row`) and appended to the
/// persistent frame, in batch order on the calling thread; the first
/// failing row's error is returned. A streamed flush holds a couple of
/// rows, far too little work to pay for a thread spawn.
/// Hot-path root: detlint proves every function reachable from here
/// panic-free, steady-state alloc-free, and deterministic
/// (D006/D007/D008).
fn assemble_batch(
    spec: &sbepred::features::FeatureSpec,
    scaler: &mlkit::scaler::StandardScaler,
    state: &mut CompiledState,
    batch: &[PendingRequest],
    telemetry: &[SampleTelemetry],
) -> Result<()> {
    let needs_telemetry = spec.needs_telemetry();
    state.frame.reset(state.n_features);
    for (i, p) in batch.iter().enumerate() {
        // Checked lookup: a telemetry/batch length mismatch surfaces as
        // the assembler's missing-telemetry error, never a panic.
        let t = if needs_telemetry {
            telemetry.get(i)
        } else {
            None
        };
        state.raw.clear();
        assemble_row(spec, &p.req.facts, t, &p.req.hist, &mut state.raw)?;
        scaler.transform_row(&mut state.scaled, &state.raw)?;
        state.frame.push_row(&state.scaled)?;
    }
    Ok(())
}

/// Scoring over the assembled frame. Hot-path root (D006/D007/D008):
/// after the first full batch the probability buffer has reached
/// `batch_capacity` and the resize below reuses capacity.
fn score_batch(state: &mut CompiledState, n_rows: usize) -> Result<()> {
    state.proba.clear();
    // detlint: allow(D007) reason=bounded by batch_capacity; capacity is reused after the first full batch
    state.proba.resize(n_rows, 0.0);
    state
        .scorer
        .predict_proba_into(&state.frame, &mut state.proba)?;
    Ok(())
}
