//! Observable SBE history.
//!
//! The `nvidia-smi` pipeline reads SBE counters only at batch-job
//! boundaries, so an error that occurs mid-job becomes *visible* only when
//! the job ends. All history features (the paper's §V-B "SBE history"
//! group) must respect that visibility rule to avoid label leakage:
//! [`SbeHistory`] indexes error events by the minute their job finished
//! and answers range-count queries at node, application, and machine
//! scope in `O(log n)`.
//!
//! It is the one SBE-history index, with two feeders: batch feature
//! extraction builds it over a whole trace ([`SbeHistory::build`]), and
//! the streaming feature engine (`streamd::engine`) grows it one event at
//! a time as a replay walks the trace forward. Both append through
//! [`SbeHistory::ingest`], so batch and stream hold the same integer
//! counts.

use crate::{PredError, Result};
use std::collections::BTreeMap;
use titan_sim::apps::AppId;
use titan_sim::events::sbe_deltas;
use titan_sim::topology::NodeId;
use titan_sim::trace::TraceSet;

/// A time-indexed cumulative event list: `(visible_at, cumulative_count)`
/// sorted by time.
#[derive(Debug, Clone, Default)]
struct CumSeries {
    points: Vec<(u64, u64)>,
}

impl CumSeries {
    /// Appends one event; `t` must be monotonically non-decreasing (the
    /// caller enforces this). Same-minute events merge into one point.
    fn append(&mut self, t: u64, c: u32) {
        if let Some((lt, lc)) = self.points.last_mut() {
            if *lt == t {
                *lc += c as u64;
                return;
            }
        }
        let cum = self.points.last().map_or(0, |&(_, lc)| lc) + c as u64;
        self.points.push((t, cum));
    }

    /// Total count visible strictly before `t`.
    fn before(&self, t: u64) -> u64 {
        let idx = self.points.partition_point(|&(pt, _)| pt < t);
        idx.checked_sub(1)
            .and_then(|i| self.points.get(i))
            .map_or(0, |&(_, c)| c)
    }

    /// Count visible in `[a, b)`.
    fn between(&self, a: u64, b: u64) -> u64 {
        self.before(b).saturating_sub(self.before(a))
    }
}

/// Index of observable SBE events.
///
/// All queries use strict visibility: `*_before(t)` counts events visible
/// strictly before minute `t`, and `*_between(a, b)` counts `[a, b)`.
#[derive(Debug, Clone, Default)]
pub struct SbeHistory {
    node: BTreeMap<u32, CumSeries>,
    app: BTreeMap<u32, CumSeries>,
    machine: CumSeries,
    /// The latest `visible_at` ingested so far.
    frontier: u64,
}

impl SbeHistory {
    /// Builds the index over `trace`'s SBE visibility events: one per
    /// positive (job, node), visible when the job's last aprun finishes
    /// ([`titan_sim::events::sbe_deltas`], which owns that rule).
    ///
    /// # Errors
    ///
    /// Propagates trace lookup errors (never expected for a well-formed
    /// trace).
    pub fn build(trace: &TraceSet) -> Result<SbeHistory> {
        let mut history = SbeHistory::default();
        // The deltas are time-sorted, so every ingest is in order.
        for d in sbe_deltas(trace)? {
            history.ingest(d.minute, d.node, d.app, d.count)?;
        }
        Ok(history)
    }

    /// Ingests one job-boundary SBE snapshot delta.
    ///
    /// Events must arrive in non-decreasing `visible_at` order (the order
    /// [`titan_sim::events::sbe_deltas`] and a replay driver produce); a
    /// zero count only advances the frontier.
    ///
    /// # Errors
    ///
    /// Returns [`PredError::InvalidInput`], and leaves the index
    /// unchanged, when `visible_at` is behind an already-ingested event.
    pub fn ingest(&mut self, visible_at: u64, node: NodeId, app: AppId, count: u32) -> Result<()> {
        if visible_at < self.frontier {
            return Err(PredError::InvalidInput {
                reason: format!(
                    "out-of-order history event: visible_at {visible_at} < frontier {}",
                    self.frontier
                ),
            });
        }
        self.frontier = visible_at;
        if count == 0 {
            return Ok(());
        }
        self.node
            .entry(node.0)
            .or_default()
            .append(visible_at, count);
        self.app.entry(app.0).or_default().append(visible_at, count);
        self.machine.append(visible_at, count);
        Ok(())
    }

    /// SBEs on `node` visible in `[a, b)`.
    pub fn node_between(&self, node: NodeId, a: u64, b: u64) -> u64 {
        self.node.get(&node.0).map_or(0, |s| s.between(a, b))
    }

    /// SBEs on `node` visible strictly before `t`.
    pub fn node_before(&self, node: NodeId, t: u64) -> u64 {
        self.node.get(&node.0).map_or(0, |s| s.before(t))
    }

    /// SBEs attributed to `app` visible in `[a, b)`.
    pub fn app_between(&self, app: AppId, a: u64, b: u64) -> u64 {
        self.app.get(&app.0).map_or(0, |s| s.between(a, b))
    }

    /// Machine-wide SBEs visible in `[a, b)`.
    pub fn machine_between(&self, a: u64, b: u64) -> u64 {
        self.machine.between(a, b)
    }

    /// Machine-wide SBEs visible strictly before `t`.
    pub fn machine_before(&self, t: u64) -> u64 {
        self.machine.before(t)
    }

    /// The set of nodes with at least one SBE visible strictly before `t`,
    /// in id order — the observable "offender node" set the TwoStage
    /// filter uses.
    pub fn offender_nodes_before(&self, t: u64) -> Vec<NodeId> {
        self.node
            .iter()
            .filter(|(_, s)| s.before(t) > 0)
            .map(|(&n, _)| NodeId(n))
            .collect()
    }

    /// The set of apps with at least one SBE visible strictly before `t`
    /// (Basic B's offender-application set), with their counts, in id
    /// order.
    pub fn offender_apps_before(&self, t: u64) -> Vec<(AppId, u64)> {
        self.app
            .iter()
            .map(|(&a, s)| (AppId(a), s.before(t)))
            .filter(|&(_, c)| c > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::{build_samples, LabeledSample};
    use titan_sim::config::SimConfig;
    use titan_sim::engine::generate;

    fn setup() -> (TraceSet, Vec<LabeledSample>, SbeHistory) {
        let t = generate(&SimConfig::tiny(3)).unwrap();
        let ss = build_samples(&t).unwrap();
        let h = SbeHistory::build(&t).unwrap();
        (t, ss, h)
    }

    #[test]
    fn cum_series_basics() {
        let mut s = CumSeries::default();
        for (t, c) in [(5, 1), (10, 2), (10, 3)] {
            s.append(t, c);
        }
        assert_eq!(s.before(5), 0);
        assert_eq!(s.before(6), 1);
        assert_eq!(s.before(11), 6);
        assert_eq!(s.between(5, 10), 1);
        assert_eq!(s.between(0, 100), 6);
        assert_eq!(s.between(11, 5), 0); // inverted range is empty
    }

    #[test]
    fn machine_total_matches_job_level_sum() {
        let (_, ss, h) = setup();
        // Sum per (job, node) once.
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0u64;
        for s in &ss {
            if s.sbe_count > 0 && seen.insert((s.job.0, s.node.0)) {
                total += s.sbe_count as u64;
            }
        }
        assert_eq!(h.machine_before(u64::MAX), total);
        assert!(total > 0);
    }

    #[test]
    fn events_not_visible_before_job_end() {
        let (_, ss, h) = setup();
        // Naively, from the samples: each job's last aprun end, and each
        // positive (job, node)'s first-seen count.
        let mut job_end: BTreeMap<u32, u64> = BTreeMap::new();
        let mut delta: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for s in &ss {
            let e = job_end.entry(s.job.0).or_insert(0);
            *e = (*e).max(s.end_min);
            if s.sbe_count > 0 {
                delta
                    .entry((s.job.0, s.node.0))
                    .or_insert(s.sbe_count as u64);
            }
        }
        // That node's deltas from jobs that ended before minute `m`.
        let naive = |node: u32, m: u64| -> u64 {
            delta
                .iter()
                .filter(|(&(job, n), _)| n == node && job_end[&job] < m)
                .map(|(_, &c)| c)
                .sum()
        };
        assert!(!delta.is_empty());
        for &(job, node) in delta.keys() {
            // Invisible at its job's end minute, visible one minute on.
            let t = job_end[&job];
            for m in [t, t + 1] {
                assert_eq!(
                    h.node_before(NodeId(node), m),
                    naive(node, m),
                    "node {node} at minute {m} (job {job} ends at {t})"
                );
            }
        }
    }

    #[test]
    fn offender_sets_grow_over_time() {
        let (_, _, h) = setup();
        let early = h.offender_nodes_before(1_000).len();
        let late = h.offender_nodes_before(u64::MAX).len();
        assert!(late >= early);
        assert!(late > 0);
        let apps = h.offender_apps_before(u64::MAX);
        assert!(!apps.is_empty());
        for (_, c) in apps {
            assert!(c > 0);
        }
    }

    #[test]
    fn node_scope_sums_to_machine_scope() {
        let (_, _, h) = setup();
        let t = u64::MAX;
        let node_sum: u64 = h
            .offender_nodes_before(t)
            .iter()
            .map(|&n| h.node_before(n, t))
            .sum();
        assert_eq!(node_sum, h.machine_before(t));
    }

    #[test]
    fn unknown_entities_count_zero() {
        let (_, _, h) = setup();
        assert_eq!(h.node_before(NodeId(999_999), u64::MAX), 0);
        assert_eq!(h.app_between(AppId(999_999), 0, u64::MAX), 0);
    }

    #[test]
    fn ingest_rejects_out_of_order_and_ignores_zero() {
        let mut h = SbeHistory::default();
        h.ingest(10, NodeId(1), AppId(2), 3).unwrap();
        h.ingest(10, NodeId(1), AppId(2), 2).unwrap(); // same-minute merge
        h.ingest(12, NodeId(1), AppId(2), 0).unwrap(); // advances frontier only
        assert_eq!(h.frontier, 12);
        assert_eq!(h.machine_before(u64::MAX), 5);
        assert_eq!(h.node_before(NodeId(1), 11), 5);
        assert_eq!(h.node_before(NodeId(1), 10), 0);
        // A refused event leaves every answer unchanged.
        let answers = |h: &SbeHistory| {
            [0, 10, 11, 12, u64::MAX].map(|t| {
                (
                    h.node_before(NodeId(1), t),
                    h.node_between(NodeId(1), 10, t),
                    h.app_between(AppId(2), 0, t),
                    h.machine_before(t),
                    h.offender_nodes_before(t),
                    h.offender_apps_before(t),
                )
            })
        };
        let before = answers(&h);
        assert!(h.ingest(11, NodeId(1), AppId(2), 1).is_err());
        assert!(h.ingest(9, NodeId(4), AppId(5), 1).is_err());
        assert_eq!(h.frontier, 12);
        assert_eq!(answers(&h), before);
    }
}
