//! Timing helpers shared by the workloads, and the traced replay loop
//! of the `replay` workload and the adaptive probes: it drives
//! `StepScorer` from `EventStream` with exactly the call sequence
//! `streamd::serve::serve` uses, timing every public call from outside.

use crate::setup::BoxResult;
use crate::stats::Ledger;
use obskit::Recorder;
use std::collections::BTreeSet;
use std::time::Instant;
use streamd::artifact::PipelineArtifact;
use streamd::serve::{LaunchFacts, NullSink, ScoredLaunch, ServeConfig, StepScorer};
use titan_sim::engine::TelemetryQueryEngine;
use titan_sim::events::{EventStream, TraceEvent};
use titan_sim::schedule::ApRunId;
use titan_sim::topology::NodeId;
use titan_sim::trace::TraceSet;

/// Ledger layer names booked by [`traced_pass`].
pub const EVENT_STREAM: &str = "titan_sim.event_stream";
pub const STEP: &str = "streamd.step";
pub const FLUSH: &str = "streamd.flush";
pub const REQUERY: &str = "titan_sim.telemetry_query";

/// Counts from one traced pass.
#[derive(Debug, Default)]
pub struct StepCounts {
    /// Batches flushed (`StepStats::n_batches`).
    pub flushes: u64,
    pub n_requests: u64,
    pub n_stage2: u64,
    /// Telemetry queries re-issued, one per flushing call.
    pub queries: u64,
    /// Distinct topology slots summed over the re-issued queries.
    pub query_slots: u64,
}

/// Replays `trace` through a fresh `StepScorer`. Calls during which
/// `step_stats().n_batches` advanced are booked as flushes, the rest as
/// steps. With `requery`, each flushing call's stage-2 `(aprun, node)`
/// pairs are queried again through `TelemetryQueryEngine::query`,
/// outside the timed call, to time the telemetry layer on its own.
/// Returns the scored rows sorted as `serve` sorts them.
pub fn traced_pass(
    trace: &TraceSet,
    artifact: &PipelineArtifact,
    cfg: &ServeConfig,
    requery: bool,
    ledger: &mut Ledger,
) -> BoxResult<(Vec<ScoredLaunch>, StepCounts)> {
    let topology = trace.config().topology;
    let engine = if requery {
        Some(TelemetryQueryEngine::new(trace)?)
    } else {
        None
    };
    let mut step = ledger.time(STEP, || {
        StepScorer::new(artifact, cfg, topology, Some(trace))
    })?;
    let mut stream = ledger.time(EVENT_STREAM, || EventStream::new(trace))?;
    let catalog = trace.catalog();
    let mut sink = NullSink;
    let mut rec = Recorder::null();
    let mut scored: Vec<ScoredLaunch> = Vec::new();
    let mut counts = StepCounts::default();

    // One timed step call: booked as a flush when a batch flushed during
    // it, after which the batch's telemetry is queried again.
    let mut book = |ledger: &mut Ledger,
                    step: &StepScorer<'_>,
                    scored: &[ScoredLaunch],
                    mark: usize,
                    before: u64,
                    secs: f64|
     -> BoxResult<()> {
        let after = step.step_stats().n_batches;
        if after == before {
            ledger.add(STEP, secs);
            return Ok(());
        }
        ledger.add(FLUSH, secs);
        let Some(engine) = &engine else {
            return Ok(());
        };
        let pairs: Vec<(ApRunId, NodeId)> = scored[mark..]
            .iter()
            .filter(|s| s.stage2)
            .map(|s| (ApRunId(s.aprun), NodeId(s.node)))
            .collect();
        let t = Instant::now();
        let answers = engine.query(&pairs)?;
        ledger.add(REQUERY, t.elapsed().as_secs_f64());
        std::hint::black_box(answers);
        let mut slots = BTreeSet::new();
        for &(_, node) in &pairs {
            slots.insert(topology.slot_of(node)?.0);
        }
        counts.queries += 1;
        counts.query_slots += slots.len() as u64;
        Ok(())
    };

    loop {
        let t = Instant::now();
        let event = stream.next();
        ledger.add(EVENT_STREAM, t.elapsed().as_secs_f64());
        let Some(event) = event else { break };
        let mark = scored.len();
        let before = step.step_stats().n_batches;
        let secs = match event {
            TraceEvent::Tick { minute } => {
                let t = Instant::now();
                step.step_tick(minute, &mut scored, &mut sink, &mut rec)?;
                t.elapsed().as_secs_f64()
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
                let t = Instant::now();
                step.step_launch(&facts, &mut scored, &mut sink, &mut rec)?;
                t.elapsed().as_secs_f64()
            }
            TraceEvent::SbeVisible {
                minute,
                node,
                app,
                count,
                ..
            } => {
                let t = Instant::now();
                step.step_sbe(minute, node, app, count, &mut rec)?;
                t.elapsed().as_secs_f64()
            }
        };
        book(ledger, &step, &scored, mark, before, secs)?;
    }
    let mark = scored.len();
    let before = step.step_stats().n_batches;
    let t = Instant::now();
    step.step_finish(&mut scored, &mut sink, &mut rec)?;
    let secs = t.elapsed().as_secs_f64();
    book(ledger, &step, &scored, mark, before, secs)?;

    let stats = step.step_stats();
    counts.flushes = stats.n_batches;
    counts.n_requests = stats.n_requests;
    counts.n_stage2 = stats.n_stage2;
    scored.sort_unstable_by_key(|s| (s.minute, s.aprun, s.node));
    Ok((scored, counts))
}

/// Whether two scored outputs are identical, probabilities bit for bit.
pub fn same_scores(a: &[ScoredLaunch], b: &[ScoredLaunch]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.minute, x.aprun, x.app, x.node, x.predicted, x.stage2)
                == (y.minute, y.aprun, y.app, y.node, y.predicted, y.stage2)
                && x.probability.to_bits() == y.probability.to_bits()
        })
}

/// One timed pass: wall-clock seconds and the process's CPU seconds
/// (every thread, user + system) over the same call.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `f`, measuring its wall and CPU time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Pass) {
    let (cpu0, t) = (crate::host::process_cpu_s(), Instant::now());
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    let cpu = crate::host::process_cpu_s() - cpu0;
    (out, Pass { wall, cpu })
}

/// Times passes over `k` inputs round-robin, so every input sees the
/// whole measuring window, until `seconds` have passed and each input
/// had at least `min_rounds` passes. Returns each input's passes.
pub fn round_robin(
    k: usize,
    seconds: u64,
    min_rounds: usize,
    mut pass: impl FnMut(usize) -> BoxResult<Pass>,
) -> BoxResult<Vec<Vec<Pass>>> {
    let mut passes = vec![Vec::new(); k];
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed().as_secs_f64() < seconds as f64 {
        for (i, p) in passes.iter_mut().enumerate() {
            p.push(pass(i)?);
        }
        round += 1;
    }
    Ok(passes)
}

/// Aggregate throughput over several inputs: total work over the sum of
/// each input's median pass time, wall or CPU as `time` picks.
pub fn throughput(work: &[u64], passes: &[Vec<Pass>], time: fn(&Pass) -> f64) -> f64 {
    let total: u64 = work.iter().sum();
    let secs: f64 = passes
        .iter()
        .map(|p| crate::stats::median(&p.iter().map(time).collect::<Vec<_>>()))
        .sum();
    total as f64 / secs
}

/// Runs `f` with `SBE_THREADS=1`, restoring the previous setting after.
/// Only call while no other thread of this process is running.
pub fn serially<T>(f: impl FnOnce() -> T) -> T {
    let previous = std::env::var_os("SBE_THREADS");
    std::env::set_var("SBE_THREADS", "1");
    let out = f();
    match previous {
        Some(v) => std::env::set_var("SBE_THREADS", v),
        None => std::env::remove_var("SBE_THREADS"),
    }
    out
}
