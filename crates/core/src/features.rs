//! Feature engineering (paper §V).
//!
//! Features are organised into the paper's groups, each individually
//! switchable through [`FeatureSpec`] so the ablations of Fig. 11,
//! Table IV, and Fig. 12 can be expressed directly:
//!
//! * **App** — application identity (raw categorical id, as the paper
//!   feeds the binary name), the previous application on the node,
//!   runtime, node count, aggregate GPU core time, aggregate and maximum
//!   GPU memory;
//! * **Location** — cabinet grid coordinates, cage, slot, node position;
//! * **TP (temperature/power)** — [`WindowStats`] of GPU temperature and
//!   power during the run (*Cur*), over the 5/15/30/60-minute windows
//!   before the run (*Prev*), and of the slot neighbours plus the
//!   same-node CPU (*Nei*);
//! * **Hist** — observable SBE history: local (node), global (machine),
//!   application and allocated-nodes counts over the past 24 hours, with
//!   today / yesterday / older splits.
//!
//! Counts enter as `ln(1 + x)`; scaling is left to the caller (the
//! TwoStage pipeline standardises with train-set statistics).

use crate::history::SbeHistory;
use crate::samples::LabeledSample;
use crate::{PredError, Result};
use mlkit::dataset::Dataset;
use mlkit::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use titan_sim::apps::AppId;
use titan_sim::config::MINUTES_PER_DAY;
use titan_sim::engine::{SampleTelemetry, TelemetryQueryEngine};
use titan_sim::telemetry::WindowStats;
use titan_sim::topology::{NodeId, NodeLocation};
use titan_sim::trace::TraceSet;

/// Which feature groups to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Application features.
    pub app: bool,
    /// Node-location features.
    pub location: bool,
    /// Temperature/power during the current run on the target node.
    pub tp_cur: bool,
    /// Temperature/power look-back windows (5/15/30/60 min) on the
    /// target node.
    pub tp_prev: bool,
    /// Slot-neighbour temperature/power and same-node CPU temperature.
    pub tp_nei: bool,
    /// Node-scope SBE history.
    pub hist_local: bool,
    /// Machine-scope SBE history.
    pub hist_global: bool,
    /// Application- and allocation-scope SBE history (past 24 h).
    pub hist_app: bool,
    /// Include the "today" history length split.
    pub hist_today: bool,
    /// Include the "yesterday" history length split.
    pub hist_yesterday: bool,
    /// Include the "before yesterday" (full older history) split.
    pub hist_before: bool,
}

impl FeatureSpec {
    /// Every feature group on — the paper's best configuration ("All").
    pub fn all() -> FeatureSpec {
        FeatureSpec {
            app: true,
            location: true,
            tp_cur: true,
            tp_prev: true,
            tp_nei: true,
            hist_local: true,
            hist_global: true,
            hist_app: true,
            hist_today: true,
            hist_yesterday: true,
            hist_before: true,
        }
    }

    fn none() -> FeatureSpec {
        FeatureSpec {
            app: false,
            location: false,
            tp_cur: false,
            tp_prev: false,
            tp_nei: false,
            hist_local: false,
            hist_global: false,
            hist_app: false,
            hist_today: false,
            hist_yesterday: false,
            hist_before: false,
        }
    }

    /// Only application features (Fig. 11 "App").
    pub fn only_app() -> FeatureSpec {
        FeatureSpec {
            app: true,
            ..FeatureSpec::none()
        }
    }

    /// Only temperature/power features (Fig. 11 "TP").
    pub fn only_tp() -> FeatureSpec {
        FeatureSpec {
            tp_cur: true,
            tp_prev: true,
            tp_nei: true,
            ..FeatureSpec::none()
        }
    }

    /// Only SBE-history features (Fig. 11 "Hist").
    pub fn only_hist() -> FeatureSpec {
        FeatureSpec {
            hist_local: true,
            hist_global: true,
            hist_app: true,
            hist_today: true,
            hist_yesterday: true,
            hist_before: true,
            ..FeatureSpec::none()
        }
    }

    /// Every group except temperature/power — the widest spec that can
    /// be assembled without a telemetry source. Network serving (`sbed`)
    /// ships launch facts over the wire but not per-node sensor windows,
    /// so artifacts trained with this spec are the ones a scoring daemon
    /// can serve.
    pub fn no_telemetry() -> FeatureSpec {
        FeatureSpec {
            tp_cur: false,
            tp_prev: false,
            tp_nei: false,
            ..FeatureSpec::all()
        }
    }

    /// Table IV `Cur`: all groups, but only current-run T/P on the target
    /// node.
    pub fn cur() -> FeatureSpec {
        FeatureSpec {
            tp_prev: false,
            tp_nei: false,
            ..FeatureSpec::all()
        }
    }

    /// Table IV `CurPrev`: adds the look-back windows.
    pub fn cur_prev() -> FeatureSpec {
        FeatureSpec {
            tp_nei: false,
            ..FeatureSpec::all()
        }
    }

    /// Table IV `CurNei`: adds slot neighbours and the CPU.
    pub fn cur_nei() -> FeatureSpec {
        FeatureSpec {
            tp_prev: false,
            ..FeatureSpec::all()
        }
    }

    /// Table IV `CurPrevNei`: everything (alias of [`FeatureSpec::all`]).
    pub fn cur_prev_nei() -> FeatureSpec {
        FeatureSpec::all()
    }

    /// Fig. 12(a): all features minus global history.
    pub fn without_global_hist() -> FeatureSpec {
        FeatureSpec {
            hist_global: false,
            ..FeatureSpec::all()
        }
    }

    /// Fig. 12(a): all features minus local (node) history.
    pub fn without_local_hist() -> FeatureSpec {
        FeatureSpec {
            hist_local: false,
            ..FeatureSpec::all()
        }
    }

    /// Fig. 12(b): all features minus the "today" history split.
    pub fn without_hist_today() -> FeatureSpec {
        FeatureSpec {
            hist_today: false,
            ..FeatureSpec::all()
        }
    }

    /// Fig. 12(b): all features minus the "yesterday" history split.
    pub fn without_hist_yesterday() -> FeatureSpec {
        FeatureSpec {
            hist_yesterday: false,
            ..FeatureSpec::all()
        }
    }

    /// Fig. 12(b): all features minus the older-than-yesterday history.
    pub fn without_hist_before() -> FeatureSpec {
        FeatureSpec {
            hist_before: false,
            ..FeatureSpec::all()
        }
    }

    /// `true` when any temperature/power group is enabled (telemetry
    /// re-simulation required).
    pub fn needs_telemetry(&self) -> bool {
        self.tp_cur || self.tp_prev || self.tp_nei
    }

    /// The number of features this spec emits — the width of every
    /// assembled row, computed without building the name list (the serve
    /// fastpath sizes its reusable scratch from this).
    pub fn n_features(&self) -> usize {
        let mut n = 0;
        if self.app {
            n += 7;
        }
        if self.location {
            n += 6;
        }
        if self.tp_cur {
            n += 8;
        }
        if self.tp_prev {
            n += 32;
        }
        if self.tp_nei {
            n += 12;
        }
        let hist_splits = 1
            + usize::from(self.hist_today)
            + usize::from(self.hist_yesterday)
            + usize::from(self.hist_before);
        if self.hist_local {
            n += hist_splits;
        }
        if self.hist_global {
            n += hist_splits;
        }
        if self.hist_app {
            n += 2;
        }
        n
    }

    /// The ordered feature names this spec emits.
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        if self.app {
            for n in [
                "app_id",
                "prev_app_id",
                "ln_runtime_min",
                "ln_n_nodes",
                "ln_core_time",
                "ln_agg_mem",
                "max_mem",
            ] {
                names.push(n.to_string());
            }
        }
        if self.location {
            for n in [
                "loc_x", "loc_y", "loc_cage", "loc_slot", "loc_node", "loc_id",
            ] {
                names.push(n.to_string());
            }
        }
        let stats = ["mean", "std", "dmean", "dstd"];
        if self.tp_cur {
            for series in ["run_temp", "run_power"] {
                for s in stats {
                    names.push(format!("{series}_{s}"));
                }
            }
        }
        if self.tp_prev {
            for series in ["temp", "power"] {
                for w in [5u64, 15, 30, 60] {
                    for s in stats {
                        names.push(format!("prev{w}_{series}_{s}"));
                    }
                }
            }
        }
        if self.tp_nei {
            for series in ["cpu_temp", "nei_temp", "nei_power"] {
                for s in stats {
                    names.push(format!("{series}_{s}"));
                }
            }
        }
        if self.hist_local {
            names.push("hist_node_24h".into());
            if self.hist_today {
                names.push("hist_node_today".into());
            }
            if self.hist_yesterday {
                names.push("hist_node_yesterday".into());
            }
            if self.hist_before {
                names.push("hist_node_before".into());
            }
        }
        if self.hist_global {
            names.push("hist_machine_24h".into());
            if self.hist_today {
                names.push("hist_machine_today".into());
            }
            if self.hist_yesterday {
                names.push("hist_machine_yesterday".into());
            }
            if self.hist_before {
                names.push("hist_machine_before".into());
            }
        }
        if self.hist_app {
            names.push("hist_app_24h".into());
            names.push("hist_alloc_24h".into());
        }
        names
    }
}

/// Per-sample scalar facts a feature row is assembled from, independent
/// of *how* they were obtained: the batch [`FeatureExtractor`] derives
/// them from a full trace index, while the streaming engine maintains
/// them incrementally. Both paths feed [`assemble_row`], which is what
/// guarantees bit-identical features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleFacts {
    /// Application id.
    pub app: u32,
    /// Most recent application to *start* on the node before this run
    /// (`None` for a node's first run).
    pub prev_app: Option<u32>,
    /// Run length in minutes.
    pub runtime_min: u64,
    /// Allocation size in nodes.
    pub n_nodes: u32,
    /// Application GPU core utilisation (from the catalog profile).
    pub core_util: f64,
    /// Application GPU memory utilisation (from the catalog profile).
    pub mem_util: f64,
    /// Physical location of the node.
    pub loc: NodeLocation,
    /// The node id.
    pub node: u32,
}

/// The integer SBE-history counts behind the Hist feature group, queried
/// at a sample's start minute. Counts are exact integers, so a batch-built
/// and a stream-fed [`SbeHistory`] agreeing on them implies bit-identical
/// `ln(1+x)` features.
///
/// Fields for scopes the [`FeatureSpec`] disables are left 0 and never
/// emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistCounts {
    /// Node-scope count over the past 24 h.
    pub node_24h: u64,
    /// Node-scope count since midnight.
    pub node_today: u64,
    /// Node-scope count during yesterday.
    pub node_yesterday: u64,
    /// Node-scope count before yesterday.
    pub node_before: u64,
    /// Machine-scope count over the past 24 h.
    pub machine_24h: u64,
    /// Machine-scope count since midnight.
    pub machine_today: u64,
    /// Machine-scope count during yesterday.
    pub machine_yesterday: u64,
    /// Machine-scope count before yesterday.
    pub machine_before: u64,
    /// Application-scope count over the past 24 h.
    pub app_24h: u64,
    /// Sum over the allocation's nodes of their past-24 h counts.
    pub alloc_24h: u64,
}

impl HistCounts {
    /// Queries the counts `spec` needs from `history` at minute `start`,
    /// for a run of `app` on `node` allocated `alloc_nodes`.
    pub fn at(
        history: &SbeHistory,
        spec: &FeatureSpec,
        node: NodeId,
        app: AppId,
        alloc_nodes: &[NodeId],
        start: u64,
    ) -> HistCounts {
        let mut c = HistCounts::default();
        if !(spec.hist_local || spec.hist_global || spec.hist_app) {
            return c;
        }
        let day0 = start - start % MINUTES_PER_DAY;
        let yday = day0.saturating_sub(MINUTES_PER_DAY);
        let h24 = start.saturating_sub(MINUTES_PER_DAY);
        if spec.hist_local {
            c.node_24h = history.node_between(node, h24, start);
            if spec.hist_today {
                c.node_today = history.node_between(node, day0, start);
            }
            if spec.hist_yesterday {
                c.node_yesterday = history.node_between(node, yday, day0);
            }
            if spec.hist_before {
                c.node_before = history.node_before(node, yday);
            }
        }
        if spec.hist_global {
            c.machine_24h = history.machine_between(h24, start);
            if spec.hist_today {
                c.machine_today = history.machine_between(day0, start);
            }
            if spec.hist_yesterday {
                c.machine_yesterday = history.machine_between(yday, day0);
            }
            if spec.hist_before {
                c.machine_before = history.machine_before(yday);
            }
        }
        if spec.hist_app {
            c.app_24h = history.app_between(app, h24, start);
            c.alloc_24h = alloc_nodes
                .iter()
                .map(|&n| history.node_between(n, h24, start))
                .sum();
        }
        c
    }
}

/// Assembles one feature row in [`FeatureSpec::feature_names`] order from
/// pre-gathered facts. This is *the* row constructor: the batch extractor
/// and the streaming feature engine both call it, so their arithmetic is
/// the same code path.
///
/// # Errors
///
/// Returns [`PredError::InvalidInput`] when `spec` needs telemetry but
/// `telemetry` is `None`.
pub fn assemble_row(
    spec: &FeatureSpec,
    facts: &SampleFacts,
    telemetry: Option<&SampleTelemetry>,
    hist: &HistCounts,
    row: &mut Vec<f32>,
) -> Result<()> {
    if spec.app {
        // The paper feeds the application *binary name* (and the
        // previous application on the node) as categorical features. We
        // encode raw identity: tree models can isolate applications by
        // splitting on it, while linear models cannot — the same
        // asymmetry the paper observes.
        row.push(facts.app as f32);
        row.push(facts.prev_app.map_or(-1.0, |a| a as f32));
        row.push(ln1p(facts.runtime_min as f64));
        row.push(ln1p(facts.n_nodes as f64));
        let core_time = facts.runtime_min as f64 * facts.n_nodes as f64 * facts.core_util / 60.0;
        row.push(ln1p(core_time));
        row.push(ln1p(facts.mem_util * facts.n_nodes as f64));
        row.push(facts.mem_util as f32);
    }
    if spec.location {
        let loc = &facts.loc;
        row.push(loc.cabinet_x as f32);
        row.push(loc.cabinet_y as f32);
        row.push(loc.cage as f32);
        row.push(loc.slot as f32);
        row.push(loc.node as f32);
        row.push(facts.node as f32);
    }
    if spec.needs_telemetry() {
        let t = telemetry.ok_or_else(|| PredError::InvalidInput {
            reason: "feature spec needs telemetry but none was supplied".into(),
        })?;
        if spec.tp_cur {
            push_stats(row, &t.run_temp);
            push_stats(row, &t.run_power);
        }
        if spec.tp_prev {
            for w in &t.prev_temp {
                push_stats(row, w);
            }
            for w in &t.prev_power {
                push_stats(row, w);
            }
        }
        if spec.tp_nei {
            push_stats(row, &t.cpu_temp);
            push_stats(row, &t.nei_temp);
            push_stats(row, &t.nei_power);
        }
    }
    if spec.hist_local {
        row.push(ln1p(hist.node_24h as f64));
        if spec.hist_today {
            row.push(ln1p(hist.node_today as f64));
        }
        if spec.hist_yesterday {
            row.push(ln1p(hist.node_yesterday as f64));
        }
        if spec.hist_before {
            row.push(ln1p(hist.node_before as f64));
        }
    }
    if spec.hist_global {
        row.push(ln1p(hist.machine_24h as f64));
        if spec.hist_today {
            row.push(ln1p(hist.machine_today as f64));
        }
        if spec.hist_yesterday {
            row.push(ln1p(hist.machine_yesterday as f64));
        }
        if spec.hist_before {
            row.push(ln1p(hist.machine_before as f64));
        }
    }
    if spec.hist_app {
        row.push(ln1p(hist.app_24h as f64));
        row.push(ln1p(hist.alloc_24h as f64));
    }
    Ok(())
}

/// Extracts feature matrices for labelled samples from a trace.
#[derive(Debug)]
pub struct FeatureExtractor<'a> {
    trace: &'a TraceSet,
    query_engine: TelemetryQueryEngine<'a>,
    history: SbeHistory,
    /// Per node: chronological `(start_min, app)` of runs, for the
    /// previous-application feature.
    node_runs: BTreeMap<u32, Vec<(u64, u32)>>,
}

impl<'a> FeatureExtractor<'a> {
    /// Builds an extractor. The SBE history is indexed from `trace`
    /// itself; `all_samples` must be the full trace sample list, from
    /// which the previous-application feature is read (visibility is
    /// handled by event timestamps, so using the full list leaks
    /// nothing).
    ///
    /// # Errors
    ///
    /// Propagates simulator/query-engine construction errors.
    pub fn new(trace: &'a TraceSet, all_samples: &[LabeledSample]) -> Result<FeatureExtractor<'a>> {
        let query_engine = TelemetryQueryEngine::new(trace)?;
        let history = SbeHistory::build(trace)?;
        let mut node_runs: BTreeMap<u32, Vec<(u64, u32)>> = BTreeMap::new();
        for s in all_samples {
            node_runs
                .entry(s.node.0)
                .or_default()
                .push((s.start_min, s.app.0));
        }
        for v in node_runs.values_mut() {
            v.sort_unstable();
        }
        Ok(FeatureExtractor {
            trace,
            query_engine,
            history,
            node_runs,
        })
    }

    /// The observable SBE-history index.
    pub fn history(&self) -> &SbeHistory {
        &self.history
    }

    /// The underlying telemetry query engine.
    pub fn query_engine(&self) -> &TelemetryQueryEngine<'a> {
        &self.query_engine
    }

    /// The application that ran on `node` most recently before `start`.
    pub fn previous_app(&self, node: u32, start: u64) -> Option<u32> {
        let runs = self.node_runs.get(&node)?;
        let idx = runs.partition_point(|&(s, _)| s < start);
        if idx == 0 {
            None
        } else {
            Some(runs[idx - 1].1)
        }
    }

    /// Extracts the feature [`Dataset`] for `samples` under `spec`,
    /// counting extracted samples, emitted feature columns, and telemetry
    /// queries into `rec`.
    ///
    /// # Errors
    ///
    /// Returns [`PredError::InvalidInput`] for an empty sample list or an
    /// all-features-off spec, and propagates telemetry/lookup errors.
    pub fn extract(
        &self,
        samples: &[LabeledSample],
        spec: &FeatureSpec,
        rec: &mut obskit::Recorder,
    ) -> Result<Dataset> {
        let span = rec.span_start("features.extract");
        let ds = self.extract_impl(samples, spec)?;
        rec.incr("features.samples_extracted", ds.len() as u64);
        rec.gauge("features.columns", ds.n_features() as f64);
        if spec.needs_telemetry() {
            rec.incr("features.telemetry_queries", samples.len() as u64);
        }
        rec.observe("features.batch_rows", ds.len() as f64);
        rec.span_end(span);
        Ok(ds)
    }

    /// Gathers the [`SampleFacts`] of one sample from the trace indexes.
    ///
    /// # Errors
    ///
    /// Propagates catalog/topology lookup errors.
    pub fn sample_facts(&self, s: &LabeledSample) -> Result<SampleFacts> {
        let profile = self.trace.catalog().profile(s.app)?;
        let loc = self.trace.config().topology.location(s.node)?;
        Ok(SampleFacts {
            app: s.app.0,
            prev_app: self.previous_app(s.node.0, s.start_min),
            runtime_min: s.runtime_min(),
            n_nodes: s.n_nodes,
            core_util: profile.core_util,
            mem_util: profile.mem_util,
            loc,
            node: s.node.0,
        })
    }

    /// Queries the [`HistCounts`] of one sample at its start minute.
    ///
    /// # Errors
    ///
    /// Propagates aprun lookup errors.
    pub fn hist_counts(&self, s: &LabeledSample, spec: &FeatureSpec) -> Result<HistCounts> {
        if !(spec.hist_local || spec.hist_global || spec.hist_app) {
            return Ok(HistCounts::default());
        }
        let run = self.trace.aprun(s.aprun)?;
        Ok(HistCounts::at(
            &self.history,
            spec,
            s.node,
            s.app,
            &run.nodes,
            s.start_min,
        ))
    }

    fn extract_impl(&self, samples: &[LabeledSample], spec: &FeatureSpec) -> Result<Dataset> {
        if samples.is_empty() {
            return Err(PredError::InvalidInput {
                reason: "no samples to extract features for".into(),
            });
        }
        let names = spec.feature_names();
        if names.is_empty() {
            return Err(PredError::InvalidInput {
                reason: "feature spec selects no features".into(),
            });
        }
        let telemetry: Vec<SampleTelemetry> = if spec.needs_telemetry() {
            let pairs: Vec<_> = samples.iter().map(|s| (s.aprun, s.node)).collect();
            self.query_engine.query(&pairs)?
        } else {
            Vec::new()
        };

        let d = names.len();
        let mut x = Matrix::zeros(samples.len(), d);
        for (i, s) in samples.iter().enumerate() {
            let facts = self.sample_facts(s)?;
            let hist = self.hist_counts(s, spec)?;
            let t = if spec.needs_telemetry() {
                Some(&telemetry[i])
            } else {
                None
            };
            let mut row: Vec<f32> = Vec::with_capacity(d);
            assemble_row(spec, &facts, t, &hist, &mut row)?;
            debug_assert_eq!(row.len(), d, "feature row width mismatch");
            x.row_mut(i).copy_from_slice(&row);
        }
        let y = crate::samples::labels(samples);
        Ok(Dataset::new(x, y)?.with_feature_names(names)?)
    }
}

#[inline]
fn ln1p(x: f64) -> f32 {
    (x.max(0.0) + 1.0).ln() as f32
}

fn push_stats(row: &mut Vec<f32>, w: &WindowStats) {
    row.push(w.mean);
    row.push(w.std);
    row.push(w.diff_mean);
    row.push(w.diff_std);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::build_samples;
    use titan_sim::config::SimConfig;
    use titan_sim::engine::generate;

    fn setup() -> (TraceSet, Vec<LabeledSample>) {
        let t = generate(&SimConfig::tiny(3)).unwrap();
        let ss = build_samples(&t).unwrap();
        (t, ss)
    }

    #[test]
    fn feature_names_consistent_with_extraction() {
        let (t, ss) = setup();
        let fx = FeatureExtractor::new(&t, &ss).unwrap();
        for spec in [
            FeatureSpec::all(),
            FeatureSpec::only_app(),
            FeatureSpec::only_tp(),
            FeatureSpec::only_hist(),
            FeatureSpec::no_telemetry(),
            FeatureSpec::cur(),
            FeatureSpec::cur_prev(),
            FeatureSpec::cur_nei(),
            FeatureSpec::without_local_hist(),
            FeatureSpec::without_hist_today(),
        ] {
            let ds = fx
                .extract(&ss[..40], &spec, &mut obskit::Recorder::null())
                .unwrap();
            assert_eq!(ds.n_features(), spec.feature_names().len());
            assert_eq!(ds.len(), 40);
            assert_eq!(ds.feature_names(), spec.feature_names());
        }
    }

    #[test]
    fn all_features_finite() {
        let (t, ss) = setup();
        let fx = FeatureExtractor::new(&t, &ss).unwrap();
        let ds = fx
            .extract(
                &ss[..60],
                &FeatureSpec::all(),
                &mut obskit::Recorder::null(),
            )
            .unwrap();
        for v in ds.x().as_slice() {
            assert!(v.is_finite(), "non-finite feature {v}");
        }
    }

    #[test]
    fn n_features_matches_name_list_for_every_preset() {
        for spec in [
            FeatureSpec::all(),
            FeatureSpec::none(),
            FeatureSpec::only_app(),
            FeatureSpec::only_tp(),
            FeatureSpec::only_hist(),
            FeatureSpec::cur(),
            FeatureSpec::cur_prev(),
            FeatureSpec::cur_nei(),
            FeatureSpec::without_global_hist(),
            FeatureSpec::without_local_hist(),
            FeatureSpec::without_hist_today(),
            FeatureSpec::without_hist_yesterday(),
            FeatureSpec::without_hist_before(),
        ] {
            assert_eq!(spec.n_features(), spec.feature_names().len(), "{spec:?}");
        }
    }

    #[test]
    fn spec_constructors_differ() {
        assert_ne!(FeatureSpec::cur(), FeatureSpec::cur_prev());
        assert_ne!(FeatureSpec::cur_nei(), FeatureSpec::cur_prev_nei());
        assert_eq!(FeatureSpec::cur_prev_nei(), FeatureSpec::all());
        assert!(
            FeatureSpec::only_hist().feature_names().len()
                < FeatureSpec::all().feature_names().len()
        );
        assert!(!FeatureSpec::only_hist().needs_telemetry());
        assert!(FeatureSpec::only_tp().needs_telemetry());
        let nt = FeatureSpec::no_telemetry();
        assert!(!nt.needs_telemetry());
        assert!(nt.app && nt.location && nt.hist_local && nt.hist_global);
        assert!(nt.n_features() < FeatureSpec::all().n_features());
    }

    #[test]
    fn previous_app_is_chronological() {
        let (t, ss) = setup();
        let fx = FeatureExtractor::new(&t, &ss).unwrap();
        // For every node's second run, previous_app equals the first run's
        // app.
        let mut per_node: BTreeMap<u32, Vec<&LabeledSample>> = BTreeMap::new();
        for s in &ss {
            per_node.entry(s.node.0).or_default().push(s);
        }
        let mut checked = 0;
        for (node, mut runs) in per_node {
            runs.sort_by_key(|s| s.start_min);
            runs.dedup_by_key(|s| s.aprun);
            if runs.len() >= 2 && runs[0].start_min != runs[1].start_min {
                assert_eq!(
                    fx.previous_app(node, runs[1].start_min),
                    Some(runs[0].app.0)
                );
                checked += 1;
            }
            // No run before the first.
            if let Some(first) = runs.first() {
                assert_eq!(fx.previous_app(node, first.start_min), None);
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn empty_inputs_rejected() {
        let (t, ss) = setup();
        let fx = FeatureExtractor::new(&t, &ss).unwrap();
        assert!(fx
            .extract(&[], &FeatureSpec::all(), &mut obskit::Recorder::null())
            .is_err());
        let empty_spec = FeatureSpec {
            app: false,
            location: false,
            tp_cur: false,
            tp_prev: false,
            tp_nei: false,
            hist_local: false,
            hist_global: false,
            hist_app: false,
            hist_today: false,
            hist_yesterday: false,
            hist_before: false,
        };
        assert!(fx
            .extract(&ss[..5], &empty_spec, &mut obskit::Recorder::null())
            .is_err());
    }

    #[test]
    fn hist_features_zero_at_trace_start() {
        let (t, ss) = setup();
        let fx = FeatureExtractor::new(&t, &ss).unwrap();
        // The shortest run lasts 5 minutes, so nothing can be visible
        // before minute 5.
        let early: Vec<LabeledSample> = ss
            .iter()
            .filter(|s| s.start_min < 5)
            .copied()
            .take(5)
            .collect();
        if early.is_empty() {
            return;
        }
        let ds = fx
            .extract(
                &early,
                &FeatureSpec::only_hist(),
                &mut obskit::Recorder::null(),
            )
            .unwrap();
        for v in ds.x().as_slice() {
            assert_eq!(*v, 0.0);
        }
    }
}
