//! Trace records — the data a downstream analyst actually observes.
//!
//! The observable schema deliberately mirrors the paper's collection
//! pipeline. In particular, SBE counters are read by `nvidia-smi` only at
//! batch-job boundaries, so per-aprun error counts are *not* observable:
//! the job-level per-node delta is conservatively attributed to every
//! aprun in the job ([`SampleRecord::sbe_attributed`]). The per-aprun
//! ground truth is retained as [`SampleRecord::sbe_true`] for severity
//! analysis and calibration tests, clearly marked as hidden information.

use crate::apps::{AppCatalog, AppId};
use crate::config::SimConfig;
use crate::schedule::{ApRun, ApRunId, Job, Schedule};
use crate::telemetry::SlotCheckpoints;
use crate::topology::{NodeId, SlotId};
use crate::{Result, SimError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One (aprun, node) observation — the unit the paper's classifier labels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// The application run.
    pub aprun: ApRunId,
    /// The node observed.
    pub node: NodeId,
    /// Mean GPU temperature during the run (°C) — out-of-band telemetry.
    pub avg_gpu_temp_c: f32,
    /// Mean GPU power during the run (W) — out-of-band telemetry.
    pub avg_gpu_power_w: f32,
    /// Ground-truth SBE count of this aprun on this node.
    ///
    /// Hidden in the real system; kept for calibration/severity analysis.
    pub sbe_true: u32,
    /// Job-level SBE delta on this node, attributed to every aprun of the
    /// job — what the `nvidia-smi` snapshot pipeline observes.
    pub sbe_attributed: u32,
    /// Ground-truth double-bit-error count — far rarer than SBEs (the
    /// paper deems DBEs "statistically unsuitable for prediction"); kept
    /// for realism and rate checks, not used as a prediction target.
    pub dbe_true: u32,
}

impl SampleRecord {
    /// `true` when the observable pipeline labels this sample SBE-affected.
    pub fn is_affected(&self) -> bool {
        self.sbe_attributed > 0
    }
}

/// A complete generated trace: configuration, workload, and samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSet {
    config: SimConfig,
    catalog: AppCatalog,
    schedule: Schedule,
    samples: Vec<SampleRecord>,
    /// `sample_ranges[aprun] = (offset, len)` into `samples`.
    sample_ranges: Vec<(u32, u32)>,
    /// Per-node sum of GPU temperature over every simulated minute.
    node_cum_temp: Vec<f64>,
    /// Per-node sum of GPU power over every simulated minute.
    node_cum_power: Vec<f64>,
    /// Per slot, the telemetry checkpoints captured during generation.
    /// An execution aid, not trace data: skipped by serde, so the
    /// serialized trace does not change and a trace loaded from JSON has
    /// none, its telemetry queries replaying each slot from minute 0.
    #[serde(skip)]
    checkpoints: Vec<SlotCheckpoints>,
}

impl TraceSet {
    /// Assembles a trace set; used by [`crate::engine::generate`].
    ///
    /// `samples` must be sorted by `(aprun, node)`; `checkpoints` holds
    /// one entry per slot, in slot order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when samples are out of order
    /// or cumulative vectors have the wrong length.
    pub(crate) fn assemble(
        config: SimConfig,
        catalog: AppCatalog,
        schedule: Schedule,
        mut samples: Vec<SampleRecord>,
        node_cum_temp: Vec<f64>,
        node_cum_power: Vec<f64>,
        checkpoints: Vec<SlotCheckpoints>,
    ) -> Result<TraceSet> {
        let n_nodes = config.topology.n_nodes() as usize;
        if node_cum_temp.len() != n_nodes || node_cum_power.len() != n_nodes {
            return Err(SimError::InvalidConfig {
                field: "node_cum_temp/power",
                reason: format!(
                    "expected {n_nodes} entries, got {}/{}",
                    node_cum_temp.len(),
                    node_cum_power.len()
                ),
            });
        }
        samples.sort_unstable_by_key(|s| (s.aprun, s.node));

        // Job-level attribution: sum sbe_true per (job, node), then write
        // the total back into every aprun of that job on that node.
        let mut job_node: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for s in &samples {
            let job = schedule.apruns()[s.aprun.0 as usize].job_id;
            *job_node.entry((job.0, s.node.0)).or_insert(0) += s.sbe_true;
        }
        for s in &mut samples {
            let job = schedule.apruns()[s.aprun.0 as usize].job_id;
            s.sbe_attributed = job_node[&(job.0, s.node.0)];
        }

        // Per-aprun ranges.
        let mut sample_ranges = vec![(0u32, 0u32); schedule.apruns().len()];
        let mut i = 0usize;
        while i < samples.len() {
            let run = samples[i].aprun;
            let start = i;
            while i < samples.len() && samples[i].aprun == run {
                i += 1;
            }
            sample_ranges[run.0 as usize] = (start as u32, (i - start) as u32);
        }

        Ok(TraceSet {
            config,
            catalog,
            schedule,
            samples,
            sample_ranges,
            node_cum_temp,
            node_cum_power,
            checkpoints,
        })
    }

    /// The telemetry checkpoints of `slot`; `None` for a trace loaded
    /// from its serialized form, which carries none.
    pub(crate) fn checkpoints(&self, slot: SlotId) -> Option<&SlotCheckpoints> {
        self.checkpoints.get(slot.0 as usize)
    }

    /// The configuration the trace was generated from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The application catalogue.
    pub fn catalog(&self) -> &AppCatalog {
        &self.catalog
    }

    /// All batch jobs.
    pub fn jobs(&self) -> &[Job] {
        self.schedule.jobs()
    }

    /// All apruns.
    pub fn apruns(&self) -> &[ApRun] {
        self.schedule.apruns()
    }

    /// The full workload.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// All (aprun, node) samples, sorted by `(aprun, node)`.
    pub fn samples(&self) -> &[SampleRecord] {
        &self.samples
    }

    /// The samples of one aprun.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for out-of-range ids.
    pub fn samples_of(&self, aprun: ApRunId) -> Result<&[SampleRecord]> {
        let (off, len) =
            *self
                .sample_ranges
                .get(aprun.0 as usize)
                .ok_or(SimError::UnknownEntity {
                    kind: "aprun",
                    id: aprun.0 as u64,
                })?;
        Ok(&self.samples[off as usize..(off + len) as usize])
    }

    /// The aprun record for an id.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for out-of-range ids.
    pub fn aprun(&self, id: ApRunId) -> Result<&ApRun> {
        self.schedule
            .apruns()
            .get(id.0 as usize)
            .ok_or(SimError::UnknownEntity {
                kind: "aprun",
                id: id.0 as u64,
            })
    }

    /// The application executed by an aprun.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for out-of-range ids.
    pub fn app_of(&self, id: ApRunId) -> Result<AppId> {
        Ok(self.aprun(id)?.app_id)
    }

    /// Per-node cumulative GPU temperature (sum over all trace minutes) —
    /// the quantity behind the paper's Fig. 5(a).
    pub fn node_cum_temp(&self) -> &[f64] {
        &self.node_cum_temp
    }

    /// Per-node cumulative GPU power — behind Fig. 5(b).
    pub fn node_cum_power(&self) -> &[f64] {
        &self.node_cum_power
    }

    /// Nodes that see at least one (attributed) SBE anywhere in the trace
    /// — the trace-wide "offender node" set.
    pub fn offender_nodes(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.config.topology.n_nodes() as usize];
        for s in &self.samples {
            if s.sbe_attributed > 0 {
                seen[s.node.0 as usize] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Total double-bit errors in the trace (rare by construction).
    pub fn total_dbes(&self) -> u64 {
        self.samples.iter().map(|s| s.dbe_true as u64).sum()
    }

    /// Total (true) single-bit errors in the trace.
    pub fn total_sbes(&self) -> u64 {
        self.samples.iter().map(|s| s.sbe_true as u64).sum()
    }

    /// Fraction of samples that are SBE-affected.
    pub fn positive_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.is_affected()).count() as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::generate;

    fn trace() -> TraceSet {
        generate(&SimConfig::tiny(31)).unwrap()
    }

    #[test]
    fn samples_sorted_and_indexed() {
        let t = trace();
        for w in t.samples().windows(2) {
            assert!((w[0].aprun, w[0].node) < (w[1].aprun, w[1].node));
        }
        for run in t.apruns() {
            let ss = t.samples_of(run.id).unwrap();
            assert_eq!(ss.len(), run.nodes.len());
            for s in ss {
                assert_eq!(s.aprun, run.id);
                assert!(run.nodes.contains(&s.node));
            }
        }
    }

    #[test]
    fn attribution_smears_job_errors_over_apruns() {
        let t = trace();
        // For every job and node: every aprun's attributed count equals
        // the sum of true counts over the job's apruns on that node.
        for job in t.jobs() {
            if job.aprun_ids.len() < 2 {
                continue;
            }
            let nodes = &t.aprun(job.aprun_ids[0]).unwrap().nodes;
            for &node in nodes {
                let total: u32 = job
                    .aprun_ids
                    .iter()
                    .flat_map(|&id| t.samples_of(id).unwrap())
                    .filter(|s| s.node == node)
                    .map(|s| s.sbe_true)
                    .sum();
                for &id in &job.aprun_ids {
                    let s = t
                        .samples_of(id)
                        .unwrap()
                        .iter()
                        .find(|s| s.node == node)
                        .unwrap();
                    assert_eq!(s.sbe_attributed, total);
                }
            }
        }
    }

    #[test]
    fn attributed_at_least_true() {
        let t = trace();
        for s in t.samples() {
            assert!(s.sbe_attributed >= s.sbe_true);
        }
    }

    #[test]
    fn offender_nodes_consistent_with_samples() {
        let t = trace();
        let offenders = t.offender_nodes();
        assert!(!offenders.is_empty());
        for s in t.samples() {
            if s.sbe_attributed > 0 {
                assert!(offenders.contains(&s.node));
            }
        }
    }

    #[test]
    fn cumulative_vectors_sized_and_positive() {
        let t = trace();
        let n = t.config().topology.n_nodes() as usize;
        assert_eq!(t.node_cum_temp().len(), n);
        assert_eq!(t.node_cum_power().len(), n);
        assert!(t.node_cum_temp().iter().all(|&v| v > 0.0));
        assert!(t.node_cum_power().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn dbes_are_much_rarer_than_sbes() {
        let t = trace();
        let sbes = t.total_sbes();
        let dbes = t.total_dbes();
        assert!(sbes > 0);
        assert!(
            dbes * 10 < sbes.max(10),
            "dbes {dbes} not rare relative to sbes {sbes}"
        );
    }

    #[test]
    fn unknown_ids_rejected() {
        let t = trace();
        let bad = ApRunId(t.apruns().len() as u32);
        assert!(t.aprun(bad).is_err());
        assert!(t.samples_of(bad).is_err());
    }
}
