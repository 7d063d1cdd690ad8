//! Trace generation and on-demand telemetry queries.
//!
//! [`generate`] runs the full pipeline — catalogue → schedule → fault
//! model → per-slot telemetry — and emits a [`TraceSet`]. Slots are
//! independent, so the telemetry sweep is parallelised across threads; it
//! keeps running sums, not per-minute series.
//!
//! [`TelemetryQueryEngine`], the one public reader of telemetry,
//! re-simulates it *deterministically* for arbitrary (aprun, node) pairs
//! after the fact, producing the window statistics the prediction
//! features need (run window, the four look-back windows, CPU
//! temperature, and slot-neighbour aggregates) without the trace ever
//! storing minute-level series. The generation sweep leaves a fixed
//! number of compact checkpoints per slot in the trace, and the engine
//! resumes each slot from the later of the state its last window kept
//! and the last checkpoint before the window, so no query replays a
//! slot's past further back than one checkpoint stride.

use crate::apps::AppCatalog;
use crate::config::SimConfig;
use crate::faults::FaultModel;
use crate::rng::stream_rng_indexed;
use crate::schedule::{ApRun, ApRunId, Schedule};
use crate::telemetry::{
    Checkpoint, MemberSums, SeriesKind, SlotCheckpoints, SlotSeries, SlotState, TelemetrySimulator,
    WindowStats,
};
use crate::topology::{NodeId, SlotId};
use crate::trace::{SampleRecord, TraceSet};
use crate::{Result, SimError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The look-back horizons (minutes before run start) used for historical
/// temperature/power features — the paper's 5/15/30/60-minute windows.
pub const LOOKBACK_WINDOWS_MIN: [u64; 4] = [5, 15, 30, 60];

/// DBE intensity relative to the SBE intensity of the same run — double
/// flips are orders of magnitude rarer (paper §II: DBEs are too rare to
/// predict).
pub const DBE_RELATIVE_RATE: f64 = 0.01;

/// The slot-minutes a telemetry query must simulate before it fans its
/// slots out across threads ([`parkit::Threads::for_work`]). A streamed
/// flush resumes one or two slots a few hundred minutes back and stays
/// on its calling thread; a bulk query over a whole trace fans out.
const QUERY_GRAIN_SLOT_MINUTES: usize = 16_384;

/// Generates a complete trace from a configuration.
///
/// # Errors
///
/// Propagates configuration validation and internal consistency errors.
///
/// # Example
///
/// ```
/// use titan_sim::config::SimConfig;
///
/// let trace = titan_sim::engine::generate(&SimConfig::tiny(1))?;
/// assert!(trace.positive_rate() > 0.0);
/// # Ok::<(), titan_sim::SimError>(())
/// ```
pub fn generate(cfg: &SimConfig) -> Result<TraceSet> {
    Ok(generate_full(cfg, &mut obskit::Recorder::null())?.0)
}

/// Like [`generate`], but also returns the hidden [`FaultModel`] — ground
/// truth that a real operator never observes, useful for calibration
/// tests and oracle comparisons — and records generation metrics into
/// `rec`: samples and SBE/DBE totals per cabinet, per-slot event
/// histograms, and a `"titan_sim.generate"` span. Per-slot recorders are
/// forked from `rec` and merged back in slot order, so the recorded
/// metrics are byte-identical under any thread policy, and passing
/// [`obskit::Recorder::null`] records nothing. The telemetry sweep records
/// no minute: as it steps each slot it sums every member's GPU temperature
/// and power over each of its runs (the sample means) and over the horizon
/// (the cumulative heatmaps), and leaves the slot's checkpoints in the
/// trace for [`TelemetryQueryEngine`] to resume from.
///
/// # Errors
///
/// Propagates configuration validation and internal consistency errors.
pub fn generate_full(
    cfg: &SimConfig,
    rec: &mut obskit::Recorder,
) -> Result<(TraceSet, FaultModel)> {
    let span = rec.span_start("titan_sim.generate");
    cfg.validate()?;
    let catalog = AppCatalog::generate(&cfg.workload, cfg.seed, cfg.days)?;
    let schedule = Schedule::generate(cfg, &catalog)?;
    let faults = FaultModel::generate(cfg)?;
    let sim = TelemetrySimulator::new(cfg, &schedule, &catalog)?;
    let n_nodes = cfg.topology.n_nodes() as usize;
    let n_slots = cfg.topology.n_slots();

    struct Shard {
        samples: Vec<SampleRecord>,
        cum_temp: Vec<(NodeId, f64)>,
        cum_power: Vec<(NodeId, f64)>,
        checkpoints: SlotCheckpoints,
        rec: obskit::Recorder,
    }

    let process_slot = |slot: SlotId, shard: &mut Shard| -> Result<()> {
        let (members, checkpoints) = sim.sweep(slot)?;
        shard.checkpoints = checkpoints;
        // Per-slot RNG draws: two streams (SBE + DBE) sample once per
        // busy interval on each member node.
        let mut slot_rng_draws = 0u64;
        for MemberSums {
            node,
            horizon,
            runs,
        } in members
        {
            // Cumulative sums for the Fig. 5 heatmaps.
            shard.cum_temp.push((node, horizon.0));
            shard.cum_power.push((node, horizon.1));

            // SBE sampling per busy interval on this node. DBEs draw
            // from an independent stream so that enabling/disabling them
            // never perturbs the SBE sequence.
            let mut rng = stream_rng_indexed(cfg.seed, "sbe", node.0 as u64);
            let mut dbe_rng = stream_rng_indexed(cfg.seed, "dbe", node.0 as u64);
            let cabinet = cfg.topology.cabinet_index(node)?;
            let mut node_sbes = 0u64;
            let mut node_dbes = 0u64;
            let timeline = sim.timeline(node);
            for (iv, (temp, power)) in timeline.iter().zip(runs) {
                let minutes = (iv.end_min - iv.start_min) as f64;
                let (avg_t, avg_p) = (temp / minutes, power / minutes);
                let run = &schedule.apruns()[iv.aprun.0 as usize];
                let app = catalog.profile(run.app_id)?;
                let lambda =
                    faults.intensity(node, app, run.runtime_min(), run.start_min, avg_t)?;
                // Burst magnitude scales with the run's *aggregate*
                // compute and memory exposure (node-hours × utilisation):
                // bigger, longer, memory-heavier runs re-strike faulty
                // cells more often. This is the knob behind the paper's
                // strong Fig. 4 Spearman correlations between SBE count
                // and core-hours / memory.
                let exposure_hours = run.node_hours() * app.core_util * app.mem_util;
                let count = faults.sample_count_with_burst(lambda, exposure_hours, &mut rng);
                // DBEs: orders of magnitude rarer, no burst (a double
                // flip is a one-off event, not a stuck cell).
                let dbe = faults.sample_count(lambda * DBE_RELATIVE_RATE, &mut dbe_rng);
                node_sbes += u64::from(count);
                node_dbes += u64::from(dbe);
                slot_rng_draws += 2;
                shard.samples.push(SampleRecord {
                    aprun: iv.aprun,
                    node,
                    avg_gpu_temp_c: avg_t as f32,
                    avg_gpu_power_w: avg_p as f32,
                    sbe_true: count,
                    sbe_attributed: 0, // filled in by TraceSet::assemble
                    dbe_true: dbe,
                });
            }
            if shard.rec.enabled() {
                shard.rec.incr("titan_sim.samples", timeline.len() as u64);
                shard
                    .rec
                    .incr(&format!("titan_sim.sbes.cabinet.{cabinet}"), node_sbes);
                shard
                    .rec
                    .incr(&format!("titan_sim.dbes.cabinet.{cabinet}"), node_dbes);
            }
        }
        shard
            .rec
            .observe("titan_sim.rng_draws_per_slot", slot_rng_draws as f64);
        Ok(())
    };

    // Slots are independent; fan them out with the order-preserving
    // parallel map. Each slot's RNG substreams are keyed by node id, so
    // any thread count produces bit-identical shards; merging in slot
    // order keeps the overall sample sequence deterministic too.
    let slots: Vec<u32> = (0..n_slots).collect();
    let parent_rec = &*rec;
    let shards: Vec<Shard> = parkit::try_par_map(cfg.threads, &slots, |&slot| {
        let mut shard = Shard {
            samples: Vec::new(),
            cum_temp: Vec::new(),
            cum_power: Vec::new(),
            checkpoints: SlotCheckpoints::default(),
            rec: parent_rec.fork(),
        };
        process_slot(SlotId(slot), &mut shard)?;
        Ok::<Shard, SimError>(shard)
    })?;

    let mut samples = Vec::new();
    let mut cum_temp = vec![0.0f64; n_nodes];
    let mut cum_power = vec![0.0f64; n_nodes];
    let mut checkpoints = Vec::with_capacity(shards.len());
    for shard in shards {
        samples.extend(shard.samples);
        checkpoints.push(shard.checkpoints);
        for (node, v) in shard.cum_temp {
            cum_temp[node.0 as usize] = v;
        }
        for (node, v) in shard.cum_power {
            cum_power[node.0 as usize] = v;
        }
        // Slot-order merge: metrics match a serial run byte for byte.
        rec.merge(shard.rec);
    }

    let trace = TraceSet::assemble(
        cfg.clone(),
        catalog,
        schedule,
        samples,
        cum_temp,
        cum_power,
        checkpoints,
    )?;
    rec.gauge("titan_sim.positive_rate", trace.positive_rate());
    rec.span_end(span);
    Ok((trace, faults))
}

/// Full telemetry feature bundle for one (aprun, node) sample.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SampleTelemetry {
    /// The aprun.
    pub aprun: ApRunId,
    /// The node.
    pub node: NodeId,
    /// GPU temperature during the run.
    pub run_temp: WindowStats,
    /// GPU power during the run.
    pub run_power: WindowStats,
    /// CPU temperature (same node) during the run.
    pub cpu_temp: WindowStats,
    /// Slot-neighbour average GPU temperature during the run.
    pub nei_temp: WindowStats,
    /// Slot-neighbour average GPU power during the run.
    pub nei_power: WindowStats,
    /// GPU temperature over the 5/15/30/60-minute windows before the run.
    pub prev_temp: [WindowStats; 4],
    /// GPU power over the same look-back windows.
    pub prev_power: [WindowStats; 4],
}

/// Recomputes telemetry statistics on demand, slot by slot: the one public
/// way to read a trace's telemetry after generation.
///
/// Every window is re-simulated from the trace's seed, but not from
/// minute 0: a slot's window resumes from the later of two exact
/// snapshots standing at or before its start. One is the state the
/// engine kept at the largest window start the slot has served; the
/// other is the last of the checkpoints [`generate_full`] captured in
/// the trace, a fixed number per slot evenly spaced over the horizon.
/// Either way only the minutes the window needs are recorded, and the
/// catch-up before them is shorter than one checkpoint stride, whether
/// the window moves forward or backward, so a query's cost does not
/// grow with the trace's length. A trace loaded from its serialized
/// form carries no checkpoints: its first window per slot, and any
/// window before the slot's kept state, replays from minute 0. The
/// snapshots are exact, so any query order, interleaving, thread count
/// or checkpoint set returns the same bits; the engine's own memory
/// grows by one small state per touched slot.
#[derive(Debug)]
pub struct TelemetryQueryEngine<'a> {
    trace: &'a TraceSet,
    sim: TelemetrySimulator<'a>,
    /// Per touched slot, the state at the largest window start it served.
    kept: Mutex<BTreeMap<u32, SlotState>>,
}

impl<'a> TelemetryQueryEngine<'a> {
    /// Creates a query engine over a trace.
    ///
    /// # Errors
    ///
    /// Propagates catalogue lookup errors.
    pub fn new(trace: &'a TraceSet) -> Result<TelemetryQueryEngine<'a>> {
        let sim = TelemetrySimulator::new(trace.config(), trace.schedule(), trace.catalog())?;
        Ok(TelemetryQueryEngine {
            trace,
            sim,
            kept: Mutex::new(BTreeMap::new()),
        })
    }

    /// Computes [`SampleTelemetry`] for every requested (aprun, node)
    /// pair. The result preserves the input order. Queries are grouped by
    /// slot internally so each slot is simulated once, over the run and
    /// look-back windows of its pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for dangling ids or pairs where
    /// the node is not part of the aprun's allocation.
    pub fn query(&self, pairs: &[(ApRunId, NodeId)]) -> Result<Vec<SampleTelemetry>> {
        let longest = LOOKBACK_WINDOWS_MIN[LOOKBACK_WINDOWS_MIN.len() - 1];
        let window = |run: &ApRun| (run.start_min.saturating_sub(longest), run.end_min);
        self.per_slot(pairs, window, |series, run, (aprun, node)| {
            let (s, e) = (run.start_min, run.end_min);
            let mut st = SampleTelemetry {
                aprun,
                node,
                run_temp: series.stats(node, SeriesKind::GpuTemp, s, e)?,
                run_power: series.stats(node, SeriesKind::GpuPower, s, e)?,
                cpu_temp: series.stats(node, SeriesKind::CpuTemp, s, e)?,
                nei_temp: series.neighbor_stats(node, SeriesKind::GpuTemp, s, e)?,
                nei_power: series.neighbor_stats(node, SeriesKind::GpuPower, s, e)?,
                prev_temp: [WindowStats::default(); 4],
                prev_power: [WindowStats::default(); 4],
            };
            for (w, &win) in LOOKBACK_WINDOWS_MIN.iter().enumerate() {
                let lo = s.saturating_sub(win);
                if lo < s {
                    st.prev_temp[w] = series.stats(node, SeriesKind::GpuTemp, lo, s)?;
                    st.prev_power[w] = series.stats(node, SeriesKind::GpuPower, lo, s)?;
                }
            }
            Ok(st)
        })
    }

    /// Returns, for every (aprun, node) pair, the raw GPU temperature and
    /// power series over the `lookback_min` minutes *before* the run
    /// starts (clipped at the trace origin). Queries are grouped by slot
    /// like [`TelemetryQueryEngine::query`]. This feeds time-series
    /// forecasters that predict run-time telemetry features before the
    /// run executes (the paper's §VI-A "second approach" / §VIII).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for dangling ids or pairs where
    /// the node is not part of the aprun's allocation.
    pub fn query_preseries(
        &self,
        pairs: &[(ApRunId, NodeId)],
        lookback_min: u64,
    ) -> Result<Vec<(Vec<f32>, Vec<f32>)>> {
        let window = |run: &ApRun| (run.start_min.saturating_sub(lookback_min), run.start_min);
        self.per_slot(pairs, window, |series, run, (_, node)| {
            let (lo, hi) = window(run);
            Ok((
                series.series(node, SeriesKind::GpuTemp, lo, hi)?.to_vec(),
                series.series(node, SeriesKind::GpuPower, lo, hi)?.to_vec(),
            ))
        })
    }

    /// Re-simulates one node's raw series over a minute range — the probe
    /// behind profile plots like the paper's Fig. 8.
    ///
    /// # Errors
    ///
    /// Propagates range/entity errors from the simulator.
    pub fn node_series(
        &self,
        node: NodeId,
        kind: SeriesKind,
        start_min: u64,
        end_min: u64,
    ) -> Result<Vec<f32>> {
        let slot = self.trace.config().topology.slot_of(node)?;
        let series = self.slot_window(slot, start_min, start_min, end_min)?;
        Ok(series.series(node, kind, start_min, end_min)?.to_vec())
    }

    /// Average series over *all* members of a node's slot (used as the
    /// "slot average" context line in Fig. 8).
    ///
    /// # Errors
    ///
    /// Propagates range/entity errors from the simulator.
    pub fn slot_average_series(
        &self,
        node: NodeId,
        kind: SeriesKind,
        start_min: u64,
        end_min: u64,
    ) -> Result<Vec<f32>> {
        let slot = self.trace.config().topology.slot_of(node)?;
        let series = self.slot_window(slot, start_min, start_min, end_min)?;
        let members = series.nodes().to_vec();
        let len = (end_min - start_min) as usize;
        let mut acc = vec![0.0f32; len];
        for &m in &members {
            for (a, &v) in acc
                .iter_mut()
                .zip(series.series(m, kind, start_min, end_min)?)
            {
                *a += v;
            }
        }
        let inv = 1.0 / members.len() as f32;
        for a in acc.iter_mut() {
            *a *= inv;
        }
        Ok(acc)
    }

    /// Answers every pair from its slot's series. Pairs are validated and
    /// grouped by slot; each touched slot is simulated once over the union
    /// of its pairs' `window`s, and a pair whose window is empty gets
    /// `T::default()`. Slots fan out across threads only when the
    /// slot-minutes to simulate reach [`QUERY_GRAIN_SLOT_MINUTES`].
    /// Workers return (pair index, answer) tuples that merge into the
    /// input-ordered output, so the thread policy cannot affect results.
    fn per_slot<T, W, A>(&self, pairs: &[(ApRunId, NodeId)], window: W, answer: A) -> Result<Vec<T>>
    where
        T: Clone + Default + Send,
        W: Fn(&ApRun) -> (u64, u64) + Sync,
        A: Fn(&SlotSeries, &ApRun, (ApRunId, NodeId)) -> Result<T> + Sync,
    {
        let topo = &self.trace.config().topology;
        let mut by_slot: BTreeMap<u32, Vec<(usize, &ApRun)>> = BTreeMap::new();
        for (i, &(aprun, node)) in pairs.iter().enumerate() {
            let run = self.trace.aprun(aprun)?;
            if !run.nodes.contains(&node) {
                return Err(SimError::UnknownEntity {
                    kind: "sample (node not in aprun allocation)",
                    id: node.0 as u64,
                });
            }
            by_slot
                .entry(topo.slot_of(node)?.0)
                .or_default()
                .push((i, run));
        }
        // Per slot, the union of its non-empty windows and their largest
        // start, as (lo, keep, hi).
        let slots: Vec<_> = by_slot
            .into_iter()
            .map(|(slot, queries)| {
                let mut span: Option<(u64, u64, u64)> = None;
                for &(_, run) in &queries {
                    let (lo, hi) = window(run);
                    if lo < hi {
                        span = Some(match span {
                            None => (lo, lo, hi),
                            Some((l, k, h)) => (l.min(lo), k.max(lo), h.max(hi)),
                        });
                    }
                }
                (slot, span, queries)
            })
            .collect();
        let work: usize = {
            let kept = self.kept();
            slots
                .iter()
                .filter_map(|&(slot, span, _)| {
                    let (lo, _, hi) = span?;
                    let from = self
                        .resume_point(SlotId(slot), kept.get(&slot), lo)
                        .minute();
                    Some(hi.saturating_sub(from) as usize)
                })
                .sum()
        };
        let threads = self
            .trace
            .config()
            .threads
            .for_work(work, QUERY_GRAIN_SLOT_MINUTES);

        let per_slot: Vec<Vec<(usize, T)>> =
            parkit::try_par_map(threads, &slots, |(slot, span, queries)| {
                let series = match *span {
                    Some((lo, keep, hi)) => Some(self.slot_window(SlotId(*slot), lo, keep, hi)?),
                    None => None,
                };
                let mut acc = Vec::with_capacity(queries.len());
                for &(qi, run) in queries {
                    let (lo, hi) = window(run);
                    let value = match &series {
                        Some(series) if lo < hi => answer(series, run, pairs[qi])?,
                        _ => T::default(),
                    };
                    acc.push((qi, value));
                }
                Ok::<_, SimError>(acc)
            })?;
        let mut out = vec![T::default(); pairs.len()];
        for acc in per_slot {
            for (qi, value) in acc {
                out[qi] = value;
            }
        }
        Ok(out)
    }

    /// Simulates `slot` over `[lo, hi)` and keeps its state at minute
    /// `keep` (`lo <= keep <= hi`) for the slot's next window. The
    /// simulation resumes from the later of the kept state and the
    /// trace's last checkpoint at or before `lo`, and from minute 0 when
    /// neither stands there; a kept state is only replaced by one at a
    /// later minute.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTimeRange`] for an empty or
    /// out-of-horizon window and [`SimError::UnknownEntity`] for an
    /// out-of-range slot.
    fn slot_window(&self, slot: SlotId, lo: u64, keep: u64, hi: u64) -> Result<SlotSeries> {
        let horizon = self.trace.config().total_minutes();
        if lo >= hi || hi > horizon {
            return Err(SimError::InvalidTimeRange {
                start: lo,
                end: hi,
                horizon,
            });
        }
        debug_assert!(lo <= keep && keep <= hi);
        let (resume, resumed) = {
            let mut kept = self.kept();
            let resume = self.resume_point(slot, kept.get(&slot.0), lo);
            let resumed = match resume {
                Resume::Kept(_) => kept.remove(&slot.0),
                _ => None,
            };
            (resume, resumed)
        };
        let mut state = match (resumed, resume) {
            (Some(state), _) => state,
            (None, Resume::Checkpoint(c)) => self.sim.restore(slot, c)?,
            (None, _) => self.sim.slot_state(slot)?,
        };
        self.sim.advance(&mut state, lo);
        let mut series = state.empty_series((hi - lo) as usize);
        self.sim.record(&mut state, keep, &mut series);
        let snapshot = state.clone();
        self.sim.record(&mut state, hi, &mut series);
        let mut kept = self.kept();
        if kept.get(&slot.0).is_none_or(|old| old.minute() < keep) {
            kept.insert(slot.0, snapshot);
        }
        Ok(series)
    }

    /// Where a window of `slot` starting at `lo` resumes, given the
    /// slot's kept state: that state when it stands at or before `lo` and
    /// no later checkpoint does, else the trace's last checkpoint at or
    /// before `lo`, else minute 0. [`Self::slot_window`] resumes there
    /// and [`Self::per_slot`] counts the minutes to simulate from there,
    /// so the two cannot disagree.
    fn resume_point(&self, slot: SlotId, kept: Option<&SlotState>, lo: u64) -> Resume<'a> {
        let kept = kept.map(SlotState::minute).filter(|&m| m <= lo);
        let checkpoint = self
            .trace
            .checkpoints(slot)
            .and_then(|c| c.at_or_before(lo));
        match (kept, checkpoint) {
            (Some(m), c) if c.is_none_or(|c| c.minute() <= m) => Resume::Kept(m),
            (_, Some(c)) => Resume::Checkpoint(c),
            _ => Resume::Origin,
        }
    }

    /// The kept states. A panic elsewhere cannot leave the map half
    /// updated: every update inserts or removes one complete state, and
    /// each kept state is a valid snapshot, so a poisoned lock is
    /// recovered.
    fn kept(&self) -> MutexGuard<'_, BTreeMap<u32, SlotState>> {
        self.kept.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The snapshot a slot's window resumes from (see
/// [`TelemetryQueryEngine::resume_point`]).
#[derive(Debug, Clone, Copy)]
enum Resume<'t> {
    /// The engine's kept state, standing at this minute.
    Kept(u64),
    /// A checkpoint captured at generation.
    Checkpoint(Checkpoint<'t>),
    /// A fresh state at minute 0.
    Origin,
}

impl Resume<'_> {
    /// The next minute the resumed state simulates.
    fn minute(&self) -> u64 {
        match self {
            Resume::Kept(m) => *m,
            Resume::Checkpoint(c) => c.minute(),
            Resume::Origin => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn trace() -> TraceSet {
        generate(&SimConfig::tiny(41)).unwrap()
    }

    #[test]
    fn generation_deterministic() {
        let a = generate(&SimConfig::tiny(2)).unwrap();
        let b = generate(&SimConfig::tiny(2)).unwrap();
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.node_cum_temp(), b.node_cum_temp());
    }

    #[test]
    fn observed_generation_matches_plain_and_counts_reconcile() {
        let cfg = SimConfig::tiny(2);
        let plain = generate(&cfg).unwrap();
        let mut rec = obskit::Recorder::new();
        let observed = generate_full(&cfg, &mut rec).unwrap().0;
        assert_eq!(plain.samples(), observed.samples());

        assert_eq!(
            rec.counter("titan_sim.samples"),
            observed.samples().len() as u64
        );
        let sbes: u64 = rec
            .counters()
            .filter(|(k, _)| k.starts_with("titan_sim.sbes.cabinet."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(sbes, observed.total_sbes());
        let span = rec.span("titan_sim.generate").unwrap();
        assert_eq!(span.count, 1);
        assert!(span.total_ticks > 0);
        // One histogram observation per slot.
        let h = rec.histogram("titan_sim.rng_draws_per_slot").unwrap();
        assert_eq!(h.count(), u64::from(cfg.topology.n_slots()));
    }

    #[test]
    fn observed_metrics_thread_count_invariant() {
        let reference = {
            let mut rec = obskit::Recorder::new();
            let cfg = SimConfig::tiny(5).with_threads(parkit::Threads::Serial);
            generate_full(&cfg, &mut rec).unwrap();
            rec.snapshot_json()
        };
        for n in [2usize, 8] {
            let mut rec = obskit::Recorder::new();
            let cfg = SimConfig::tiny(5).with_threads(parkit::Threads::Fixed(n));
            generate_full(&cfg, &mut rec).unwrap();
            assert_eq!(rec.snapshot_json(), reference, "metrics diverged at {n}");
        }
    }

    #[test]
    fn positive_rate_in_expected_band() {
        let t = trace();
        let rate = t.positive_rate();
        // Tiny config is looser than the scaled calibration target; just
        // require a usable minority class.
        assert!(rate > 0.001 && rate < 0.25, "positive rate {rate}");
    }

    #[test]
    fn query_engine_matches_generation_averages() {
        let t = trace();
        let engine = TelemetryQueryEngine::new(&t).unwrap();
        // Take a handful of samples and verify the re-simulated run mean
        // equals the stored avg temperature (same procedural series).
        let pairs: Vec<(ApRunId, NodeId)> = t
            .samples()
            .iter()
            .take(20)
            .map(|s| (s.aprun, s.node))
            .collect();
        let stats = engine.query(&pairs).unwrap();
        for (st, s) in stats.iter().zip(t.samples().iter().take(20)) {
            assert!(
                (st.run_temp.mean - s.avg_gpu_temp_c).abs() < 0.01,
                "{} vs {}",
                st.run_temp.mean,
                s.avg_gpu_temp_c
            );
            assert!((st.run_power.mean - s.avg_gpu_power_w).abs() < 0.05);
        }
    }

    #[test]
    fn query_preserves_order_and_validates() {
        let t = trace();
        let engine = TelemetryQueryEngine::new(&t).unwrap();
        let s0 = &t.samples()[0];
        let s1 = &t.samples()[t.samples().len() / 2];
        let stats = engine
            .query(&[(s1.aprun, s1.node), (s0.aprun, s0.node)])
            .unwrap();
        assert_eq!(stats[0].aprun, s1.aprun);
        assert_eq!(stats[1].aprun, s0.aprun);
        // Node not in allocation is rejected.
        let run = t.aprun(s0.aprun).unwrap();
        let outsider = (0..t.config().topology.n_nodes())
            .map(NodeId)
            .find(|n| !run.nodes.contains(n))
            .unwrap();
        assert!(engine.query(&[(s0.aprun, outsider)]).is_err());
    }

    #[test]
    fn lookback_windows_have_expected_lengths() {
        let t = trace();
        let engine = TelemetryQueryEngine::new(&t).unwrap();
        // Find a run starting after 60 minutes.
        let s = t
            .samples()
            .iter()
            .find(|s| t.aprun(s.aprun).unwrap().start_min > 60)
            .expect("a run starting after minute 60");
        let st = &engine.query(&[(s.aprun, s.node)]).unwrap()[0];
        // All four look-back stats must be populated (non-default std
        // would be flaky; check the means are in physical range instead).
        for w in &st.prev_temp {
            assert!(w.mean > 10.0, "look-back temp mean {}", w.mean);
        }
        for w in &st.prev_power {
            assert!(w.mean > 4.0, "look-back power mean {}", w.mean);
        }
    }

    #[test]
    fn preseries_lengths_and_values_match_probe() {
        let t = trace();
        let engine = TelemetryQueryEngine::new(&t).unwrap();
        let s = t
            .samples()
            .iter()
            .find(|s| t.aprun(s.aprun).unwrap().start_min > 100)
            .unwrap();
        let pre = engine.query_preseries(&[(s.aprun, s.node)], 60).unwrap();
        assert_eq!(pre.len(), 1);
        let (temp, power) = &pre[0];
        assert_eq!(temp.len(), 60);
        assert_eq!(power.len(), 60);
        let start = t.aprun(s.aprun).unwrap().start_min;
        let probe = engine
            .node_series(s.node, SeriesKind::GpuTemp, start - 60, start)
            .unwrap();
        assert_eq!(temp, &probe);
    }

    #[test]
    fn preseries_clipped_at_origin() {
        let t = trace();
        let engine = TelemetryQueryEngine::new(&t).unwrap();
        // Any sample: lookback longer than the start must clip.
        let s = &t.samples()[0];
        let start = t.aprun(s.aprun).unwrap().start_min;
        let pre = engine
            .query_preseries(&[(s.aprun, s.node)], u64::MAX)
            .unwrap();
        assert_eq!(pre[0].0.len() as u64, start);
    }

    #[test]
    fn node_series_probe_works() {
        let t = trace();
        let engine = TelemetryQueryEngine::new(&t).unwrap();
        let v = engine
            .node_series(NodeId(3), SeriesKind::GpuTemp, 100, 200)
            .unwrap();
        assert_eq!(v.len(), 100);
        let avg = engine
            .slot_average_series(NodeId(3), SeriesKind::GpuTemp, 100, 200)
            .unwrap();
        assert_eq!(avg.len(), 100);
        // Empty, out-of-horizon and unknown-node probes are refused.
        let horizon = t.config().total_minutes();
        let probe = |node, lo, hi| engine.node_series(node, SeriesKind::GpuTemp, lo, hi);
        assert!(probe(NodeId(3), 10, 10).is_err());
        assert!(probe(NodeId(3), 0, horizon + 1).is_err());
        assert!(probe(NodeId(9_999), 0, 10).is_err());
    }

    #[test]
    fn samples_cover_all_aprun_nodes() {
        let t = trace();
        let total: usize = t.apruns().iter().map(|r| r.nodes.len()).sum();
        assert_eq!(t.samples().len(), total);
    }
}
