//! The sequential scoring session: the daemon's single-threaded heart.
//!
//! A [`ScoreSession`] consumes *admitted* frames in request-id order and
//! produces the complete, deterministic response stream: ACKs at
//! admission, SCORES when a launch's batch flushes, a REPORT at finish.
//! Everything nondeterministic about a network daemon — connection
//! interleaving, socket timing, worker scheduling — is resolved *before*
//! frames reach this type (the daemon's sequencer admits strictly by
//! request id), so the session's outputs are a pure function of the
//! admitted frame sequence and the artifact. That is the replay
//! contract: [`crate::replay`] re-feeds a recorded frame log through a
//! fresh session and must reproduce every response byte and the final
//! metrics snapshot exactly.
//!
//! Validation happens here, not in the transport: a well-formed frame
//! carrying a bad event (unknown node, duplicate aprun, minute out of
//! order) gets a typed [`wire::ERR_REJECTED`] response and leaves the
//! scoring state untouched — deterministically, so replays reproduce
//! rejections too.

use crate::wire::{self, EncodedResponse, ReportPayload, ScoreEntry, ScoresPayload, WireEvent};
use crate::{Result, SbedError};
use mlkit::hash::{fnv1a64, Fnv1a};
use obskit::Recorder;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use streamd::artifact::PipelineArtifact;
use streamd::serve::{
    LaunchFacts, Mitigation, NullSink, PreparedSwap, ScoredLaunch, ServeConfig, StepScorer,
};
use titan_sim::apps::AppId;
use titan_sim::topology::{NodeId, Topology};

/// A launch admitted but not yet fully scored: collects its per-node
/// rows until all arrive, then emits one SCORES response.
#[derive(Debug)]
struct OpenLaunch {
    request_id: u64,
    minute: u64,
    expected: usize,
    entries: Vec<ScoreEntry>,
}

/// A validated hot swap, ready for [`ScoreSession::apply_swap`]. All
/// fallible work (envelope decode, succession verification, fastpath
/// compilation) happened in [`ScoreSession::prepare_swap`], so the
/// daemon can refuse a bad swap *before* logging its frame — a recorded
/// request log only ever contains swaps a replay will accept.
pub struct SessionSwap {
    prepared: PreparedSwap,
    /// FNV-1a of the swap frame's envelope bytes — the next champion
    /// checksum.
    checksum: u64,
    /// The lineage generation the envelope carries.
    lineage_generation: u32,
}

impl SessionSwap {
    /// The generation this swap installs.
    pub fn generation(&self) -> u32 {
        self.lineage_generation
    }
}

/// The sequential scoring state machine shared by the live daemon and
/// the replayer.
pub struct ScoreSession<'a> {
    step: StepScorer<'a>,
    rec: Recorder,
    /// Flush output scratch, drained into responses after every step.
    out: Vec<ScoredLaunch>,
    /// Launches awaiting their batch, keyed by aprun.
    open: BTreeMap<u32, OpenLaunch>,
    /// Every aprun ever admitted (duplicate detection).
    seen_apruns: BTreeSet<u32>,
    /// Highest node id the topology defines, plus one.
    n_nodes: u32,
    /// Minute of the last admitted tick (`None` before the first).
    current_minute: Option<u64>,
    /// Events admitted (ticks + launches + SBE deltas).
    n_events: u64,
    /// Events refused with a typed rejection.
    n_rejected: u64,
    /// FNV-1a checksum folded over every emitted response frame, in
    /// emission order — the one number live and replay must agree on.
    response_fnv: u64,
    /// FNV-1a of the serving champion's encoded envelope bytes — the
    /// parent checksum the next swap's lineage must name.
    champion_checksum: u64,
    /// The serving champion's lineage generation.
    champion_generation: u32,
    /// Hot swaps committed.
    n_swaps: u64,
    finished: bool,
}

impl<'a> ScoreSession<'a> {
    /// Builds a session over a loaded artifact.
    ///
    /// # Errors
    ///
    /// Config validation and artifact compilation, including a
    /// telemetry-needing feature spec (sensor windows do not travel on
    /// the wire, so only artifacts trained with
    /// `FeatureSpec::no_telemetry()` — or narrower — can serve).
    pub fn new(
        artifact: &'a PipelineArtifact,
        cfg: &ServeConfig,
        topology: Topology,
    ) -> Result<ScoreSession<'a>> {
        let step = StepScorer::new(artifact, cfg, topology, None)?;
        // The serving convention: a daemon starts on a root artifact
        // (generation 0, root lineage); its checksum anchors the swap
        // succession chain.
        let champion_checksum = fnv1a64(&artifact.to_bytes()?);
        Ok(ScoreSession {
            step,
            rec: Recorder::new(),
            out: Vec::new(),
            open: BTreeMap::new(),
            seen_apruns: BTreeSet::new(),
            n_nodes: topology.n_nodes(),
            current_minute: None,
            n_events: 0,
            n_rejected: 0,
            response_fnv: fnv1a64(&[]),
            champion_checksum,
            champion_generation: 0,
            n_swaps: 0,
            finished: false,
        })
    }

    /// Whether the finish flush has run (no further work is admitted).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The rolling checksum over every emitted response frame.
    pub fn response_fnv(&self) -> u64 {
        self.response_fnv
    }

    /// The metrics snapshot at this point in the stream.
    pub fn snapshot_json(&self) -> String {
        self.rec.snapshot_json()
    }

    /// The deterministic end-of-stream report.
    pub fn report(&self) -> ReportPayload {
        let stats = self.step.step_stats();
        ReportPayload {
            n_events: self.n_events,
            n_requests: stats.n_requests,
            n_stage2: stats.n_stage2,
            n_batches: stats.n_batches,
            n_alerts: stats.n_alerts,
            snapshot_fnv: fnv1a64(self.rec.snapshot_json().as_bytes()),
            n_swaps: self.n_swaps,
            generation: self.champion_generation,
        }
    }

    /// The serving champion's lineage generation.
    pub fn generation(&self) -> u32 {
        self.champion_generation
    }

    /// Hot swaps committed so far.
    pub fn n_swaps(&self) -> u64 {
        self.n_swaps
    }

    /// Events refused with a typed rejection so far.
    pub fn n_rejected(&self) -> u64 {
        self.n_rejected
    }

    /// Folds one emitted frame into the rolling checksum by rehashing
    /// the previous digest followed by the frame — order-sensitive, so
    /// any reordering or difference in any response byte shows up.
    fn fold_response(&mut self, bytes: &[u8]) {
        let mut h = Fnv1a::new();
        h.update(&self.response_fnv.to_le_bytes());
        h.update(bytes);
        self.response_fnv = h.finish();
    }

    /// Encodes one response frame, folds it into the checksum, and
    /// queues it; `last` marks the request's final response.
    fn emit(
        &mut self,
        rs: &mut Vec<EncodedResponse>,
        request_id: u64,
        kind: u16,
        payload: &[u8],
        last: bool,
    ) {
        let bytes = wire::encode_frame(kind, request_id, payload);
        self.fold_response(&bytes);
        rs.push(EncodedResponse {
            request_id,
            kind,
            last,
            bytes,
        });
    }

    fn emit_error(&mut self, rs: &mut Vec<EncodedResponse>, request_id: u64, code: u16, msg: &str) {
        let payload = wire::ErrorPayload {
            code,
            message: msg.to_string(),
        }
        .encode();
        self.emit(rs, request_id, wire::KIND_ERROR, &payload, true);
    }

    /// Closes launch `aprun`, answering its request with one SCORES
    /// frame of the rows it collected.
    fn emit_scores(&mut self, rs: &mut Vec<EncodedResponse>, aprun: u32) {
        if let Some(open) = self.open.remove(&aprun) {
            let payload = ScoresPayload {
                minute: open.minute,
                aprun,
                entries: open.entries,
            }
            .encode();
            self.emit(rs, open.request_id, wire::KIND_SCORES, &payload, true);
        }
    }

    /// Routes freshly flushed [`ScoredLaunch`] rows to their open
    /// launches, emitting a SCORES response for each launch that
    /// completed.
    fn route_out(&mut self, rs: &mut Vec<EncodedResponse>) {
        if self.out.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.out);
        for s in rows {
            let done = match self.open.get_mut(&s.aprun) {
                Some(open) => {
                    open.entries.push(ScoreEntry {
                        node: s.node,
                        probability: s.probability,
                        predicted: s.predicted,
                        stage2: s.stage2,
                        decision: decision_of(&s),
                    });
                    open.entries.len() >= open.expected
                }
                // A row for an aprun the session never opened would be
                // a scoring-core bug; there is no launch to answer, so
                // drop it deterministically rather than die.
                None => false,
            };
            if done {
                self.emit_scores(rs, s.aprun);
            }
        }
    }

    /// Validates an event against the session's stream discipline.
    /// Returns the rejection message for invalid events.
    fn validate(&self, ev: &WireEvent) -> Option<String> {
        match ev {
            WireEvent::Tick { minute } => {
                if let Some(cur) = self.current_minute {
                    if *minute <= cur {
                        return Some(format!("tick minute {minute} not after current {cur}"));
                    }
                }
                None
            }
            WireEvent::Launch {
                minute,
                aprun,
                nodes,
                ..
            } => {
                if Some(*minute) != self.current_minute {
                    return Some(format!(
                        "launch minute {minute} does not match current tick {:?}",
                        self.current_minute
                    ));
                }
                if self.seen_apruns.contains(aprun) {
                    return Some(format!("duplicate aprun {aprun}"));
                }
                let mut sorted: Vec<u32> = nodes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != nodes.len() {
                    return Some(format!("launch aprun {aprun} repeats a node"));
                }
                for &n in nodes {
                    if n >= self.n_nodes {
                        return Some(format!(
                            "node {n} outside topology ({} nodes)",
                            self.n_nodes
                        ));
                    }
                }
                None
            }
            WireEvent::Sbe { minute, node, .. } => {
                if Some(*minute) != self.current_minute {
                    return Some(format!(
                        "sbe minute {minute} does not match current tick {:?}",
                        self.current_minute
                    ));
                }
                if *node >= self.n_nodes {
                    return Some(format!(
                        "node {node} outside topology ({} nodes)",
                        self.n_nodes
                    ));
                }
                None
            }
        }
    }

    /// Handles one admitted frame; returns the responses it produced,
    /// in emission order.
    ///
    /// # Errors
    ///
    /// Only scoring-core failures (artifact/classifier) are fatal;
    /// every input problem becomes a typed error *response*.
    pub fn handle(
        &mut self,
        kind: u16,
        request_id: u64,
        payload: &[u8],
    ) -> Result<Vec<EncodedResponse>> {
        let mut rs = Vec::new();
        if self.finished {
            self.n_rejected += 1;
            self.emit_error(
                &mut rs,
                request_id,
                wire::ERR_DRAINING,
                "session already finished",
            );
            return Ok(rs);
        }
        match kind {
            wire::KIND_FINISH => {
                rs = self.finalize()?;
                let report = self.report().encode();
                self.emit(&mut rs, request_id, wire::KIND_REPORT, &report, true);
            }
            wire::KIND_EVENT => {
                let ev = match WireEvent::decode(payload) {
                    Ok(ev) => ev,
                    Err(e) => {
                        self.n_rejected += 1;
                        let code = wire::error_code(&e);
                        self.emit_error(&mut rs, request_id, code, &e.to_string());
                        return Ok(rs);
                    }
                };
                if let Some(reason) = self.validate(&ev) {
                    self.n_rejected += 1;
                    self.emit_error(&mut rs, request_id, wire::ERR_REJECTED, &reason);
                    return Ok(rs);
                }
                self.feed(&ev, request_id, &mut rs)?;
            }
            other => {
                self.n_rejected += 1;
                self.emit_error(
                    &mut rs,
                    request_id,
                    wire::ERR_MALFORMED,
                    &format!("kind {other:#06x} is not a request"),
                );
            }
        }
        Ok(rs)
    }

    /// Feeds one validated event through the scoring core.
    fn feed(
        &mut self,
        ev: &WireEvent,
        request_id: u64,
        rs: &mut Vec<EncodedResponse>,
    ) -> Result<()> {
        let mut sink = NullSink;
        let out = &mut self.out;
        match ev {
            WireEvent::Tick { minute } => {
                self.step
                    .step_tick(*minute, out, &mut sink, &mut self.rec)?;
                self.current_minute = Some(*minute);
            }
            WireEvent::Launch {
                minute,
                aprun,
                app,
                runtime_min,
                core_util,
                mem_util,
                nodes,
            } => {
                let node_ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
                let facts = LaunchFacts {
                    minute: *minute,
                    aprun: *aprun,
                    app: *app,
                    runtime_min: *runtime_min,
                    core_util: *core_util,
                    mem_util: *mem_util,
                    nodes: &node_ids,
                };
                let in_window = self.step.in_window(*minute);
                self.seen_apruns.insert(*aprun);
                self.open.insert(
                    *aprun,
                    OpenLaunch {
                        request_id,
                        minute: *minute,
                        expected: if in_window { node_ids.len() } else { 0 },
                        entries: Vec::new(),
                    },
                );
                self.step
                    .step_launch(&facts, out, &mut sink, &mut self.rec)?;
            }
            WireEvent::Sbe {
                minute,
                node,
                app,
                count,
            } => {
                self.step
                    .step_sbe(*minute, NodeId(*node), AppId(*app), *count, &mut self.rec)?;
            }
        }
        self.n_events += 1;
        // ACK first, then anything the step completed. A launch's ACK
        // is not terminal (its SCORES comes later); out-of-window
        // launches complete immediately below with an empty SCORES.
        let launch_like = matches!(ev, WireEvent::Launch { .. });
        self.emit(rs, request_id, wire::KIND_ACK, &[], !launch_like);
        self.route_out(rs);
        // An out-of-window launch never produces rows: answer it now.
        if let WireEvent::Launch { aprun, .. } = ev {
            if self.open.get(aprun).is_some_and(|o| o.expected == 0) {
                self.emit_scores(rs, *aprun);
            }
        }
        Ok(())
    }

    /// Validates a hot-swap request carried as full artifact-envelope
    /// bytes: the envelope must decode, its lineage must name the
    /// serving champion as parent with generation champion + 1, and the
    /// challenger must be servable under the current config (same
    /// feature schema, and it must compile). No session
    /// state changes — the daemon calls this *before* logging the swap
    /// frame, so a recorded log never contains a swap a replay would
    /// refuse.
    ///
    /// # Errors
    ///
    /// [`SbedError::Draining`] after finish; envelope/lineage/schema
    /// errors via the `streamd`/`mlkit` conversions.
    pub fn prepare_swap(&self, envelope: &[u8]) -> Result<SessionSwap> {
        if self.finished {
            return Err(SbedError::Draining);
        }
        let (artifact, lineage) = PipelineArtifact::from_bytes_with_lineage(envelope)?;
        lineage
            .verify_succession(self.champion_checksum, self.champion_generation)
            .map_err(streamd::StreamError::from)?;
        let prepared = self
            .step
            .prepare_swap(Arc::new(artifact), lineage.generation)?;
        Ok(SessionSwap {
            prepared,
            checksum: fnv1a64(envelope),
            lineage_generation: lineage.generation,
        })
    }

    /// Commits a prepared hot swap at the current request-sequence
    /// boundary: the pending batch is flushed and scored by the old
    /// generation (its SCORES responses are routed and emitted here, so
    /// no in-flight launch is dropped or double-scored), then the
    /// challenger becomes the champion. Every response emitted after
    /// this call is attributable to the new generation.
    ///
    /// # Errors
    ///
    /// Scoring-core failures during the boundary flush (the swap is not
    /// committed).
    pub fn apply_swap(&mut self, swap: SessionSwap) -> Result<Vec<EncodedResponse>> {
        let mut rs = Vec::new();
        let mut sink = NullSink;
        let now_min = self.current_minute.unwrap_or(0);
        self.step.swap_artifact(
            now_min,
            swap.prepared,
            &mut self.out,
            &mut sink,
            &mut self.rec,
        )?;
        self.route_out(&mut rs);
        self.champion_checksum = swap.checksum;
        self.champion_generation = swap.lineage_generation;
        self.n_swaps += 1;
        Ok(rs)
    }

    /// Finalises a session that ends without a FINISH frame (daemon
    /// drain): flushes pending work and emits whatever SCORES complete.
    /// The replayer applies the same rule at end-of-log, so drained
    /// sessions replay bit-identically too.
    ///
    /// # Errors
    ///
    /// Scoring-core failures.
    pub fn finalize(&mut self) -> Result<Vec<EncodedResponse>> {
        let mut rs = Vec::new();
        if self.finished {
            return Ok(rs);
        }
        let mut sink = NullSink;
        self.step
            .step_finish(&mut self.out, &mut sink, &mut self.rec)?;
        self.finished = true;
        self.route_out(&mut rs);
        Ok(rs)
    }
}

/// The mitigation decision wire code for one scored row: 0 when the row
/// is not flagged, else [`Mitigation::for_probability`]'s decision.
fn decision_of(s: &ScoredLaunch) -> u8 {
    if !s.predicted {
        return 0;
    }
    match Mitigation::for_probability(s.probability) {
        Mitigation::ShortenCheckpoint => 1,
        Mitigation::DrainNode => 2,
    }
}
