//! Observable SBE history.
//!
//! The `nvidia-smi` pipeline reads SBE counters only at batch-job
//! boundaries, so an error that occurs mid-job becomes *visible* only when
//! the job ends. All history features (the paper's §V-B "SBE history"
//! group) must respect that visibility rule to avoid label leakage:
//! [`SbeHistory`] indexes error events by the minute their job finished
//! and answers range-count queries at node, application, and machine
//! scope in `O(log n)`.

use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use titan_sim::apps::AppId;
use titan_sim::events::sbe_deltas;
use titan_sim::topology::NodeId;
use titan_sim::trace::TraceSet;

/// A time-indexed cumulative event list: `(visible_at, cumulative_count)`
/// sorted by time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

/// Index of observable SBE events over a trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SbeHistory {
    node: BTreeMap<u32, CumSeries>,
    app: BTreeMap<u32, CumSeries>,
    machine: CumSeries,
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
        let mut history = SbeHistory {
            node: BTreeMap::new(),
            app: BTreeMap::new(),
            machine: CumSeries::default(),
        };
        // The deltas are time-sorted, so each series appends in order.
        for d in sbe_deltas(trace)? {
            let node = history.node.entry(d.node.0).or_default();
            node.append(d.minute, d.count);
            let app = history.app.entry(d.app.0).or_default();
            app.append(d.minute, d.count);
            history.machine.append(d.minute, d.count);
        }
        Ok(history)
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

    /// The set of nodes with at least one SBE visible strictly before `t`
    /// — the observable "offender node" set the TwoStage filter uses.
    pub fn offender_nodes_before(&self, t: u64) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .node
            .iter()
            .filter(|(_, s)| s.before(t) > 0)
            .map(|(&n, _)| NodeId(n))
            .collect();
        out.sort_unstable();
        out
    }

    /// The set of apps with at least one SBE visible strictly before `t`
    /// (Basic B's offender-application set), with their counts.
    pub fn offender_apps_before(&self, t: u64) -> Vec<(AppId, u64)> {
        let mut out: Vec<(AppId, u64)> = self
            .app
            .iter()
            .filter(|(_, s)| s.before(t) > 0)
            .map(|(&a, s)| (AppId(a), s.before(t)))
            .collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }
}

/// Read-only view of observable SBE history: the query surface the
/// history feature group needs, abstracted so the batch index
/// ([`SbeHistory`]) and the streaming index ([`IncrementalHistory`]) can
/// feed the exact same row-assembly code.
///
/// All queries use strict visibility: `*_before(t)` counts events visible
/// strictly before minute `t`, and `*_between(a, b)` counts `[a, b)`.
pub trait HistoryView {
    /// SBEs on `node` visible in `[a, b)`.
    fn node_between(&self, node: NodeId, a: u64, b: u64) -> u64;
    /// SBEs on `node` visible strictly before `t`.
    fn node_before(&self, node: NodeId, t: u64) -> u64;
    /// SBEs attributed to `app` visible in `[a, b)`.
    fn app_between(&self, app: AppId, a: u64, b: u64) -> u64;
    /// Machine-wide SBEs visible in `[a, b)`.
    fn machine_between(&self, a: u64, b: u64) -> u64;
    /// Machine-wide SBEs visible strictly before `t`.
    fn machine_before(&self, t: u64) -> u64;
}

impl HistoryView for SbeHistory {
    fn node_between(&self, node: NodeId, a: u64, b: u64) -> u64 {
        SbeHistory::node_between(self, node, a, b)
    }

    fn node_before(&self, node: NodeId, t: u64) -> u64 {
        SbeHistory::node_before(self, node, t)
    }

    fn app_between(&self, app: AppId, a: u64, b: u64) -> u64 {
        SbeHistory::app_between(self, app, a, b)
    }

    fn machine_between(&self, a: u64, b: u64) -> u64 {
        SbeHistory::machine_between(self, a, b)
    }

    fn machine_before(&self, t: u64) -> u64 {
        SbeHistory::machine_before(self, t)
    }
}

/// Sentinel chunk/series link meaning "none".
const ARENA_NONE: u32 = u32::MAX;

/// Points per [`SeriesArena`] chunk. Most series are short (a node's
/// SBE events over a trace), so small chunks keep slack bounded while
/// still amortising growth: one allocation per `CHUNK_CAP` points
/// instead of one `Vec` per key plus its doublings.
const CHUNK_CAP: usize = 8;

/// A chunked arena of append-only cumulative series.
///
/// All per-key `(time, cumulative_count)` points live in four flat
/// vectors, carved into fixed-size chunks that are chained per series —
/// the backing store [`IncrementalHistory`] uses so the streaming serve
/// loop ingests without a per-key allocation. Chunks are ordered within
/// a series, and times are non-decreasing (the owner enforces a
/// frontier), so a query walks the chain and binary-searches one chunk.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SeriesArena {
    /// Point times, `CHUNK_CAP` slots per chunk.
    chunk_t: Vec<u64>,
    /// Cumulative counts, parallel to `chunk_t`.
    chunk_c: Vec<u64>,
    /// Occupied slots per chunk (1..=CHUNK_CAP).
    chunk_len: Vec<u8>,
    /// Per chunk: the series' next chunk, or [`ARENA_NONE`].
    chunk_next: Vec<u32>,
    /// Per series: first chunk, or [`ARENA_NONE`] while empty.
    head: Vec<u32>,
    /// Per series: last chunk, or [`ARENA_NONE`] while empty.
    tail: Vec<u32>,
}

impl SeriesArena {
    /// Registers a new empty series and returns its handle.
    fn new_series(&mut self) -> u32 {
        let s = self.head.len() as u32;
        self.head.push(ARENA_NONE);
        self.tail.push(ARENA_NONE);
        s
    }

    /// Carves a fresh chunk holding one point; returns its id.
    fn alloc_chunk(&mut self, t: u64, cum: u64) -> u32 {
        let ci = self.chunk_len.len();
        self.chunk_t.resize((ci + 1) * CHUNK_CAP, 0);
        self.chunk_c.resize((ci + 1) * CHUNK_CAP, 0);
        self.chunk_t[ci * CHUNK_CAP] = t;
        self.chunk_c[ci * CHUNK_CAP] = cum;
        self.chunk_len.push(1);
        self.chunk_next.push(ARENA_NONE);
        ci as u32
    }

    /// Appends one event to `series`; `t` must be non-decreasing within
    /// the series. Same-`t` events merge into the last point, exactly
    /// like [`CumSeries::append`].
    fn append(&mut self, series: u32, t: u64, c: u32) {
        let s = series as usize;
        let tail = self.tail[s];
        if tail == ARENA_NONE {
            let chunk = self.alloc_chunk(t, c as u64);
            self.head[s] = chunk;
            self.tail[s] = chunk;
            return;
        }
        let ci = tail as usize;
        let len = self.chunk_len[ci] as usize;
        let last = ci * CHUNK_CAP + len - 1;
        if self.chunk_t[last] == t {
            self.chunk_c[last] += c as u64;
            return;
        }
        let cum = self.chunk_c[last] + c as u64;
        if len < CHUNK_CAP {
            self.chunk_t[ci * CHUNK_CAP + len] = t;
            self.chunk_c[ci * CHUNK_CAP + len] = cum;
            self.chunk_len[ci] += 1;
        } else {
            let chunk = self.alloc_chunk(t, cum);
            self.chunk_next[ci] = chunk;
            self.tail[s] = chunk;
        }
    }

    /// Total count of `series` visible strictly before `t`.
    fn before(&self, series: u32, t: u64) -> u64 {
        let mut best = 0u64;
        let mut cur = self
            .head
            .get(series as usize)
            .copied()
            .unwrap_or(ARENA_NONE);
        while cur != ARENA_NONE {
            let ci = cur as usize;
            let len = self.chunk_len.get(ci).copied().unwrap_or(0) as usize;
            let Some(ts) = self.chunk_t.get(ci * CHUNK_CAP..ci * CHUNK_CAP + len) else {
                break;
            };
            // Chunks are time-ordered: once a chunk starts at/after `t`
            // the running best is the answer.
            if ts.first().is_none_or(|&first| first >= t) {
                break;
            }
            let idx = ts.partition_point(|&pt| pt < t);
            if let Some(&c) = self.chunk_c.get((ci * CHUNK_CAP + idx).wrapping_sub(1)) {
                best = c;
            }
            if idx < len {
                break;
            }
            cur = self.chunk_next.get(ci).copied().unwrap_or(ARENA_NONE);
        }
        best
    }

    /// Count of `series` visible in `[a, b)`.
    fn between(&self, series: u32, a: u64, b: u64) -> u64 {
        self.before(series, b)
            .saturating_sub(self.before(series, a))
    }
}

/// An SBE-history index built *incrementally*, one visibility event at a
/// time, as a replay driver walks a trace forward.
///
/// Semantics are identical to [`SbeHistory`]: ingesting the same event
/// multiset (in non-decreasing `visible_at` order) yields the same answer
/// to every [`HistoryView`] query — the stream/batch parity suite holds
/// the two to byte-identical feature rows. Storage differs: all series
/// share one chunked `SeriesArena`, so steady-state ingest is
/// allocation-free except when a series fills a chunk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncrementalHistory {
    arena: SeriesArena,
    /// Per-node series handle into the arena.
    node: BTreeMap<u32, u32>,
    /// Per-app series handle into the arena.
    app: BTreeMap<u32, u32>,
    /// The machine-wide series handle.
    machine: u32,
    frontier: u64,
}

impl Default for IncrementalHistory {
    fn default() -> IncrementalHistory {
        let mut arena = SeriesArena::default();
        let machine = arena.new_series();
        IncrementalHistory {
            arena,
            node: BTreeMap::new(),
            app: BTreeMap::new(),
            machine,
            frontier: 0,
        }
    }
}

impl IncrementalHistory {
    /// An empty index with frontier 0.
    pub fn new() -> IncrementalHistory {
        IncrementalHistory::default()
    }

    /// Ingests one job-boundary SBE snapshot delta.
    ///
    /// Events must arrive in non-decreasing `visible_at` order (the order
    /// a replay driver naturally produces); zero counts are accepted and
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PredError::InvalidInput`] when `visible_at` is
    /// behind an already-ingested event.
    pub fn ingest(&mut self, visible_at: u64, node: NodeId, app: AppId, count: u32) -> Result<()> {
        if visible_at < self.frontier {
            return Err(crate::PredError::InvalidInput {
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
        let arena = &mut self.arena;
        let node_series = *self
            .node
            .entry(node.0)
            .or_insert_with(|| arena.new_series());
        arena.append(node_series, visible_at, count);
        let app_series = *self.app.entry(app.0).or_insert_with(|| arena.new_series());
        arena.append(app_series, visible_at, count);
        arena.append(self.machine, visible_at, count);
        Ok(())
    }

    /// The latest `visible_at` ingested so far.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Total SBE count ingested.
    pub fn total(&self) -> u64 {
        self.arena.before(self.machine, u64::MAX)
    }
}

impl HistoryView for IncrementalHistory {
    fn node_between(&self, node: NodeId, a: u64, b: u64) -> u64 {
        self.node
            .get(&node.0)
            .map_or(0, |&s| self.arena.between(s, a, b))
    }

    fn node_before(&self, node: NodeId, t: u64) -> u64 {
        self.node
            .get(&node.0)
            .map_or(0, |&s| self.arena.before(s, t))
    }

    fn app_between(&self, app: AppId, a: u64, b: u64) -> u64 {
        self.app
            .get(&app.0)
            .map_or(0, |&s| self.arena.between(s, a, b))
    }

    fn machine_between(&self, a: u64, b: u64) -> u64 {
        self.arena.between(self.machine, a, b)
    }

    fn machine_before(&self, t: u64) -> u64 {
        self.arena.before(self.machine, t)
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
    fn incremental_matches_batch_index() {
        let (trace, ss, h) = setup();
        // The stream the replay loop feeds `IncrementalHistory`.
        let mut inc = IncrementalHistory::new();
        for d in sbe_deltas(&trace).unwrap() {
            inc.ingest(d.minute, d.node, d.app, d.count).unwrap();
        }
        assert_eq!(inc.total(), h.machine_before(u64::MAX));
        // Every query the feature engine issues must agree at every
        // sample's start minute.
        for s in ss.iter().take(500) {
            let t = s.start_min;
            let day0 = t - t % 1_440;
            assert_eq!(inc.node_before(s.node, t), h.node_before(s.node, t));
            assert_eq!(
                inc.node_between(s.node, day0, t),
                h.node_between(s.node, day0, t)
            );
            assert_eq!(inc.machine_before(t), h.machine_before(t));
            assert_eq!(
                inc.app_between(s.app, t.saturating_sub(1_440), t),
                h.app_between(s.app, t.saturating_sub(1_440), t)
            );
        }
    }

    #[test]
    fn arena_series_cross_chunk_boundaries_like_cum_series() {
        // 3 × CHUNK_CAP distinct minutes forces chained chunks; a
        // reference CumSeries answers the same queries.
        let mut arena = SeriesArena::default();
        let s = arena.new_series();
        let mut reference = CumSeries::default();
        for i in 0..(3 * CHUNK_CAP as u64) {
            let t = 10 * i;
            let c = (i % 5 + 1) as u32;
            arena.append(s, t, c);
            reference.append(t, c);
        }
        for t in 0..(31 * CHUNK_CAP as u64) {
            assert_eq!(arena.before(s, t), reference.before(t), "before({t})");
        }
        assert_eq!(arena.between(s, 35, 155), reference.between(35, 155));
        assert_eq!(arena.between(s, 155, 35), 0);
    }

    #[test]
    fn arena_merges_same_minute_at_chunk_boundary() {
        let mut arena = SeriesArena::default();
        let s = arena.new_series();
        for i in 0..CHUNK_CAP as u64 {
            arena.append(s, i, 1);
        }
        // The chunk is full; a same-minute event must merge into the
        // last point, not open a new chunk.
        arena.append(s, CHUNK_CAP as u64 - 1, 4);
        assert_eq!(arena.chunk_len.len(), 1);
        assert_eq!(arena.before(s, CHUNK_CAP as u64), CHUNK_CAP as u64 + 4);
        // The next distinct minute does open one.
        arena.append(s, CHUNK_CAP as u64, 2);
        assert_eq!(arena.chunk_len.len(), 2);
        assert_eq!(arena.before(s, u64::MAX), CHUNK_CAP as u64 + 6);
    }

    #[test]
    fn arena_empty_series_answers_zero() {
        let mut arena = SeriesArena::default();
        let s = arena.new_series();
        assert_eq!(arena.before(s, u64::MAX), 0);
        assert_eq!(arena.between(s, 0, 100), 0);
    }

    #[test]
    fn incremental_history_serde_round_trip() {
        let mut inc = IncrementalHistory::new();
        for i in 0..40u64 {
            inc.ingest(
                i,
                NodeId((i % 3) as u32),
                AppId((i % 2) as u32),
                1 + (i % 4) as u32,
            )
            .unwrap();
        }
        let json = serde_json::to_string(&inc).unwrap();
        let back: IncrementalHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total(), inc.total());
        assert_eq!(back.frontier(), inc.frontier());
        for t in [0, 7, 20, 41, u64::MAX] {
            assert_eq!(
                back.node_before(NodeId(1), t),
                inc.node_before(NodeId(1), t)
            );
            assert_eq!(back.machine_before(t), inc.machine_before(t));
        }
    }

    #[test]
    fn incremental_rejects_out_of_order_and_ignores_zero() {
        let mut inc = IncrementalHistory::new();
        inc.ingest(10, NodeId(1), AppId(2), 3).unwrap();
        inc.ingest(10, NodeId(1), AppId(2), 2).unwrap(); // same-minute merge
        inc.ingest(12, NodeId(1), AppId(2), 0).unwrap(); // advances frontier only
        assert_eq!(inc.frontier(), 12);
        assert_eq!(inc.total(), 5);
        assert_eq!(inc.node_before(NodeId(1), 11), 5);
        assert_eq!(inc.node_before(NodeId(1), 10), 0);
        assert!(inc.ingest(9, NodeId(1), AppId(2), 1).is_err());
    }
}
