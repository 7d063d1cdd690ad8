//! The incremental feature engine.
//!
//! Maintains, event by event, exactly the per-(app, node) state the batch
//! [`sbepred::features::FeatureExtractor`] derives from a whole trace:
//!
//! * an [`SbeHistory`] of job-boundary SBE snapshot deltas, ingested one
//!   at a time, and
//! * the most recent application to *start* on each node (the
//!   previous-app feature).
//!
//! Parity argument: the batch extractor answers history queries at a
//! sample's start minute `t` with strict `< t` visibility, and resolves
//! the previous app by binary search over runs with `start < t`. The
//! driver feeds this engine events in minute order and defers a minute's
//! own prev-app updates until the minute ends ([`StreamFeatureEngine::end_minute`]),
//! so at the moment a launch at `t` is scored the engine holds *exactly*
//! the `< t` state — integer-identical counts, hence (through the shared
//! [`sbepred::features::assemble_row`]) bit-identical feature rows.

use crate::Result;
use sbepred::features::{FeatureSpec, HistCounts};
use sbepred::history::SbeHistory;
use std::collections::BTreeMap;
use titan_sim::apps::AppId;
use titan_sim::topology::NodeId;

/// Streaming per-(app, node) sliding-window state.
#[derive(Debug, Clone, Default)]
pub struct StreamFeatureEngine {
    history: SbeHistory,
    /// Per node: `(start_min, app)` of the most recent run to start.
    node_last_app: BTreeMap<u32, (u64, u32)>,
    /// Prev-app updates from the current minute, applied at
    /// [`StreamFeatureEngine::end_minute`] so same-minute launches never
    /// observe each other.
    pending_prev: Vec<(u32, u64, u32)>,
}

impl StreamFeatureEngine {
    /// An empty engine at minute 0.
    pub fn new() -> StreamFeatureEngine {
        StreamFeatureEngine::default()
    }

    /// Records a launch of `app` at `start_min` on `nodes`: each allocated
    /// node's previous-app state will point at this run once the current
    /// minute ends.
    pub fn observe_launch(&mut self, start_min: u64, app: u32, nodes: &[NodeId]) {
        for &node in nodes {
            self.pending_prev.push((node.0, start_min, app));
        }
    }

    /// Ingests a job-boundary SBE snapshot delta visible at `minute`.
    ///
    /// # Errors
    ///
    /// Propagates [`SbeHistory::ingest`] ordering violations.
    pub fn observe_sbe(&mut self, minute: u64, node: NodeId, app: AppId, count: u32) -> Result<()> {
        self.history.ingest(minute, node, app, count)?;
        Ok(())
    }

    /// Applies the minute's deferred prev-app updates. The driver calls
    /// this when the stream moves past a minute boundary.
    pub fn end_minute(&mut self) {
        for (node, start, app) in self.pending_prev.drain(..) {
            // The batch extractor sorts `(start, app)` tuples and takes
            // the last one before the query minute; keeping the max pair
            // reproduces its same-minute tie-break exactly.
            let cand = (start, app);
            let cur = self.node_last_app.entry(node).or_insert(cand);
            if *cur < cand {
                *cur = cand;
            }
        }
    }

    /// The most recent application to start on `node` strictly before
    /// the current minute.
    pub fn previous_app(&self, node: u32) -> Option<u32> {
        self.node_last_app.get(&node).map(|&(_, app)| app)
    }

    /// The [`HistCounts`] of a launch of `app` on `node` at `start`,
    /// allocated `alloc_nodes` — queried against the current (strictly
    /// pre-`start`) history state.
    pub fn hist_counts(
        &self,
        spec: &FeatureSpec,
        node: NodeId,
        app: AppId,
        alloc_nodes: &[NodeId],
        start: u64,
    ) -> HistCounts {
        HistCounts::at(&self.history, spec, node, app, alloc_nodes, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prev_app_defers_to_minute_end() {
        let mut eng = StreamFeatureEngine::new();
        eng.observe_launch(5, 42, &[NodeId(0), NodeId(1)]);
        // Same minute: launches must not see each other.
        assert_eq!(eng.previous_app(0), None);
        eng.end_minute();
        assert_eq!(eng.previous_app(0), Some(42));
        assert_eq!(eng.previous_app(1), Some(42));
        assert_eq!(eng.previous_app(2), None);
        // A later run supersedes.
        eng.observe_launch(9, 7, &[NodeId(1)]);
        assert_eq!(eng.previous_app(1), Some(42));
        eng.end_minute();
        assert_eq!(eng.previous_app(1), Some(7));
        assert_eq!(eng.previous_app(0), Some(42));
    }

    #[test]
    fn hist_counts_respect_strict_visibility() {
        let mut eng = StreamFeatureEngine::new();
        eng.observe_sbe(100, NodeId(3), AppId(9), 4).unwrap();
        let spec = FeatureSpec::only_hist();
        // A launch at minute 100 must not see the event at 100.
        let at100 = eng.hist_counts(&spec, NodeId(3), AppId(9), &[NodeId(3)], 100);
        assert_eq!(at100.node_24h, 0);
        let at101 = eng.hist_counts(&spec, NodeId(3), AppId(9), &[NodeId(3)], 101);
        assert_eq!(at101.node_24h, 4);
        assert_eq!(at101.app_24h, 4);
        assert_eq!(at101.alloc_24h, 4);
        assert_eq!(at101.machine_24h, 4);
    }
}
