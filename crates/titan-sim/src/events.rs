//! Time-ordered replay events over a finished trace.
//!
//! A deployed predictor does not see a trace as a table — it sees a
//! *stream*: application launches arriving at the scheduler, SBE snapshot
//! deltas appearing when jobs end, and the wall clock ticking. This
//! module linearises a [`TraceSet`] into exactly that stream so an online
//! scoring loop can replay history the way a daemon would have lived it.
//!
//! Ordering contract (the determinism the stream/batch parity suite
//! relies on): events are sorted by minute; within one minute the order
//! is [`TraceEvent::Tick`] first, then [`TraceEvent::Launch`]es in aprun
//! id order, then [`TraceEvent::SbeVisible`] deltas in (job, node) order.
//! A launch at minute `t` therefore observes strictly less than `t` of
//! history — the same strict-visibility rule the `SbeHistory` queries
//! implement, whether that index was built over the whole trace or fed
//! from this stream.

use crate::apps::AppId;
use crate::schedule::{ApRunId, JobId};
use crate::topology::NodeId;
use crate::trace::TraceSet;
use crate::Result;
use std::collections::BTreeMap;

/// One event of the replayed trace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A minute boundary. Emitted for every minute of the horizon, before
    /// that minute's launches; drives time-based work such as batch-flush
    /// deadlines.
    Tick {
        /// The minute starting now.
        minute: u64,
    },
    /// An application run starts on its allocation.
    Launch {
        /// Start minute of the run.
        minute: u64,
        /// The run's id (resolve details via [`TraceSet::aprun`]).
        aprun: ApRunId,
    },
    /// A job-boundary SBE snapshot delta becomes visible: `count` new
    /// SBEs attributed to (`job`, `node`), observable from `minute` on.
    SbeVisible {
        /// The minute the owning job ended.
        minute: u64,
        /// The job whose boundary snapshot revealed the delta.
        job: JobId,
        /// The node the errors were counted on.
        node: NodeId,
        /// The application the delta is attributed to.
        app: AppId,
        /// The per-node SBE delta.
        count: u32,
    },
}

impl TraceEvent {
    /// The minute the event occurs at.
    pub fn minute(&self) -> u64 {
        match self {
            TraceEvent::Tick { minute }
            | TraceEvent::Launch { minute, .. }
            | TraceEvent::SbeVisible { minute, .. } => *minute,
        }
    }
}

/// A job-boundary SBE snapshot delta: `count` new SBEs attributed to
/// (`job`, `node`) and to `app`, observable from `minute` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbeDelta {
    /// The minute the owning job ended.
    pub minute: u64,
    /// The job whose boundary snapshot revealed the delta.
    pub job: JobId,
    /// The node the errors were counted on.
    pub node: NodeId,
    /// The application the delta is attributed to.
    pub app: AppId,
    /// The per-node SBE delta.
    pub count: u32,
}

/// The trace's SBE visibility rule, and its one owner: each positive
/// (job, node) pair yields one [`SbeDelta`] at the minute the job's
/// *last* aprun ends — the moment the job-boundary `nvidia-smi` snapshot
/// would have been taken. The attributed delta is the same on every
/// aprun of the job, so the first seen in trace sample order (by aprun,
/// then node) gives the count and the application. Sorted by
/// `(minute, job, node)`.
///
/// # Errors
///
/// Propagates trace lookup errors (never expected for a well-formed
/// trace).
pub fn sbe_deltas(trace: &TraceSet) -> Result<Vec<SbeDelta>> {
    // Last end per job = the job-boundary snapshot minute.
    let mut job_end: BTreeMap<u32, u64> = BTreeMap::new();
    for r in trace.apruns() {
        let e = job_end.entry(r.job_id.0).or_insert(0);
        *e = (*e).max(r.end_min);
    }
    let mut job_node: BTreeMap<(u32, u32), (u64, AppId, u32)> = BTreeMap::new();
    for s in trace.samples() {
        if s.sbe_attributed == 0 {
            continue;
        }
        let run = trace.aprun(s.aprun)?;
        job_node.entry((run.job_id.0, s.node.0)).or_insert((
            job_end.get(&run.job_id.0).copied().unwrap_or(run.end_min),
            run.app_id,
            s.sbe_attributed,
        ));
    }
    let mut deltas: Vec<SbeDelta> = job_node
        .iter()
        .map(|(&(job, node), &(minute, app, count))| SbeDelta {
            minute,
            job: JobId(job),
            node: NodeId(node),
            app,
            count,
        })
        .collect();
    deltas.sort_unstable_by_key(|d| (d.minute, d.job, d.node));
    Ok(deltas)
}

/// An iterator replaying a trace as a time-ordered [`TraceEvent`] stream.
///
/// Construction indexes the trace once; iteration is lazy and allocation
/// free.
#[derive(Debug)]
pub struct EventStream {
    /// `(start_min, aprun)` sorted ascending.
    launches: Vec<(u64, ApRunId)>,
    /// [`sbe_deltas`] of the trace, sorted ascending.
    sbe_events: Vec<SbeDelta>,
    /// One past the last minute that gets a tick.
    horizon: u64,
    minute: u64,
    li: usize,
    si: usize,
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Tick,
    Launches,
    Sbes,
}

impl EventStream {
    /// Builds the stream for `trace`; its SBE visibility events are
    /// [`sbe_deltas`].
    ///
    /// # Errors
    ///
    /// Propagates trace lookup errors (never expected for a well-formed
    /// trace).
    pub fn new(trace: &TraceSet) -> Result<EventStream> {
        let mut launches: Vec<(u64, ApRunId)> =
            trace.apruns().iter().map(|r| (r.start_min, r.id)).collect();
        launches.sort_unstable();
        let sbe_events = sbe_deltas(trace)?;

        let mut horizon = trace.config().total_minutes();
        if let Some(&(t, _)) = launches.last() {
            horizon = horizon.max(t + 1);
        }
        if let Some(d) = sbe_events.last() {
            horizon = horizon.max(d.minute + 1);
        }
        Ok(EventStream {
            launches,
            sbe_events,
            horizon,
            minute: 0,
            li: 0,
            si: 0,
            phase: Phase::Tick,
        })
    }

    /// One past the last ticked minute.
    pub fn horizon_min(&self) -> u64 {
        self.horizon
    }

    /// Total number of launch events the stream will emit.
    pub fn n_launches(&self) -> usize {
        self.launches.len()
    }

    /// Total number of SBE visibility events the stream will emit.
    pub fn n_sbe_events(&self) -> usize {
        self.sbe_events.len()
    }
}

impl Iterator for EventStream {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        loop {
            if self.minute >= self.horizon {
                return None;
            }
            match self.phase {
                Phase::Tick => {
                    self.phase = Phase::Launches;
                    return Some(TraceEvent::Tick {
                        minute: self.minute,
                    });
                }
                Phase::Launches => {
                    if let Some(&(t, aprun)) = self.launches.get(self.li) {
                        if t == self.minute {
                            self.li += 1;
                            return Some(TraceEvent::Launch { minute: t, aprun });
                        }
                    }
                    self.phase = Phase::Sbes;
                }
                Phase::Sbes => {
                    if let Some(&d) = self.sbe_events.get(self.si) {
                        if d.minute == self.minute {
                            self.si += 1;
                            return Some(TraceEvent::SbeVisible {
                                minute: d.minute,
                                job: d.job,
                                node: d.node,
                                app: d.app,
                                count: d.count,
                            });
                        }
                    }
                    self.minute += 1;
                    self.phase = Phase::Tick;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::generate;

    fn trace() -> TraceSet {
        generate(&SimConfig::tiny(3)).unwrap()
    }

    #[test]
    fn stream_is_time_ordered_with_intra_minute_phases() {
        let t = trace();
        let stream = EventStream::new(&t).unwrap();
        let mut last_minute = 0u64;
        let mut last_phase = 0u8; // 0 tick, 1 launch, 2 sbe
        let mut last_launch_id = None;
        for ev in stream {
            let m = ev.minute();
            assert!(m >= last_minute, "minute went backwards");
            if m > last_minute {
                last_minute = m;
                last_phase = 0;
                last_launch_id = None;
            }
            let phase = match ev {
                TraceEvent::Tick { .. } => 0,
                TraceEvent::Launch { aprun, .. } => {
                    if let Some(prev) = last_launch_id {
                        assert!(aprun > prev, "launches not in id order");
                    }
                    last_launch_id = Some(aprun);
                    1
                }
                TraceEvent::SbeVisible { .. } => 2,
            };
            assert!(phase >= last_phase, "intra-minute phase order violated");
            last_phase = phase;
        }
    }

    #[test]
    fn every_aprun_launches_exactly_once() {
        let t = trace();
        let stream = EventStream::new(&t).unwrap();
        assert_eq!(stream.n_launches(), t.apruns().len());
        let mut seen = std::collections::BTreeSet::new();
        for ev in stream {
            if let TraceEvent::Launch { minute, aprun } = ev {
                assert!(seen.insert(aprun), "duplicate launch");
                assert_eq!(t.aprun(aprun).unwrap().start_min, minute);
            }
        }
        assert_eq!(seen.len(), t.apruns().len());
    }

    #[test]
    fn sbe_events_reconcile_with_job_level_totals() {
        let t = trace();
        let stream = EventStream::new(&t).unwrap();
        // Sum per (job, node) once, like the trace's offender accounting.
        let mut expected = 0u64;
        let mut seen = std::collections::BTreeSet::new();
        for s in t.samples() {
            let run = t.aprun(s.aprun).unwrap();
            if s.sbe_attributed > 0 && seen.insert((run.job_id.0, s.node.0)) {
                expected += s.sbe_attributed as u64;
            }
        }
        let mut total = 0u64;
        let mut n = 0usize;
        for ev in stream {
            if let TraceEvent::SbeVisible {
                minute, job, count, ..
            } = ev
            {
                total += count as u64;
                n += 1;
                // Visible exactly when the job's last aprun ends.
                let job_end = t
                    .apruns()
                    .iter()
                    .filter(|r| r.job_id == job)
                    .map(|r| r.end_min)
                    .max()
                    .unwrap();
                assert_eq!(minute, job_end);
                assert!(count > 0);
            }
        }
        assert_eq!(total, expected);
        assert_eq!(n, seen.len());
        assert!(n > 0);
    }

    #[test]
    fn ticks_cover_the_horizon_exactly_once() {
        let t = trace();
        let stream = EventStream::new(&t).unwrap();
        let horizon = stream.horizon_min();
        let mut next_expected = 0u64;
        for ev in stream {
            if let TraceEvent::Tick { minute } = ev {
                assert_eq!(minute, next_expected);
                next_expected += 1;
            }
        }
        assert_eq!(next_expected, horizon);
        assert!(horizon >= t.config().total_minutes());
    }
}
