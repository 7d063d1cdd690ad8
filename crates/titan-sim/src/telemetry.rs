//! Per-minute GPU/CPU telemetry simulation.
//!
//! The paper's facility collected GPU temperature, GPU power, and CPU
//! temperature out-of-band roughly once per minute for every node. This
//! module regenerates such series *procedurally*: given the global seed,
//! the slot id, and the workload timelines, the series for any slot can be
//! re-simulated bit-identically at any time — so no minute-level data ever
//! needs to be stored.
//!
//! The physical model per node and minute:
//!
//! * **power** = idle + utilisation × (TDP − idle) + OU noise,
//! * **ambient** = base + spatial field (hot upper-left / lower-right
//!   corners, as in the paper's Fig. 5a) + diurnal cycle,
//! * **GPU temperature** relaxes toward
//!   `ambient + k·power + k_nei·(average power of slot neighbours)` with
//!   configurable thermal inertia, plus OU noise — neighbouring nodes in
//!   the same slot measurably heat each other (paper §III-C3),
//! * **CPU temperature** relaxes toward `ambient + rise × cpu-utilisation`.
//!
//! One per-minute step moves a slot's state forward and hands each
//! minute's readings to a sink chosen at compile time: nothing when a
//! query advances to its window, a recorded series of the window's
//! minutes, and, when trace generation sweeps the horizon, the running
//! sums of each member's GPU temperature and power that its run means and
//! cumulative heatmaps need, so generation keeps no per-minute series.
//! The simulator is crate-private: after generation,
//! [`crate::engine::TelemetryQueryEngine`] is the one way to read
//! telemetry.

use crate::apps::AppCatalog;
use crate::config::{SimConfig, MINUTES_PER_DAY};
use crate::rng::{derive_seed_indexed, OuProcess, XorShift64};
use crate::schedule::{NodeInterval, Schedule};
use crate::topology::{NodeId, SlotId};
use crate::{Result, SimError};
use serde::{Deserialize, Serialize};

/// Which telemetry series of a node to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SeriesKind {
    /// GPU die temperature (°C).
    GpuTemp,
    /// GPU board power (W).
    GpuPower,
    /// CPU package temperature (°C).
    CpuTemp,
}

/// Summary statistics of a telemetry window, exactly the four per-series
/// features the paper engineers (§V-A): mean and standard deviation of the
/// level, and mean and standard deviation of consecutive differences.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowStats {
    /// Mean of the series.
    pub mean: f32,
    /// Population standard deviation of the series.
    pub std: f32,
    /// Mean of consecutive differences.
    pub diff_mean: f32,
    /// Population standard deviation of consecutive differences.
    pub diff_std: f32,
}

/// Computes [`WindowStats`] over a slice; all-zero for empty input.
pub fn window_stats(xs: &[f32]) -> WindowStats {
    if xs.is_empty() {
        return WindowStats::default();
    }
    let n = xs.len() as f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    for &x in xs {
        s1 += x as f64;
        s2 += (x as f64) * (x as f64);
    }
    let mean = s1 / n;
    let var = (s2 / n - mean * mean).max(0.0);
    let (dmean, dstd) = if xs.len() < 2 {
        (0.0, 0.0)
    } else {
        let dn = (xs.len() - 1) as f64;
        let mut d1 = 0.0f64;
        let mut d2 = 0.0f64;
        for w in xs.windows(2) {
            let d = (w[1] - w[0]) as f64;
            d1 += d;
            d2 += d * d;
        }
        let dm = d1 / dn;
        (dm, (d2 / dn - dm * dm).max(0.0).sqrt())
    };
    WindowStats {
        mean: mean as f32,
        std: var.sqrt() as f32,
        diff_mean: dmean as f32,
        diff_std: dstd as f32,
    }
}

/// Per-aprun utilisation levels, pre-resolved from the app catalogue.
#[derive(Debug, Clone, Copy, Default)]
struct RunUtil {
    core: f32,
    cpu: f32,
}

/// Procedural telemetry generator bound to a configuration and workload.
#[derive(Debug)]
pub(crate) struct TelemetrySimulator<'a> {
    cfg: &'a SimConfig,
    timelines: Vec<Vec<NodeInterval>>,
    run_util: Vec<RunUtil>,
}

impl<'a> TelemetrySimulator<'a> {
    /// Builds a simulator for the given workload.
    ///
    /// # Errors
    ///
    /// Propagates catalogue lookup errors for dangling app references.
    pub(crate) fn new(
        cfg: &'a SimConfig,
        schedule: &Schedule,
        catalog: &AppCatalog,
    ) -> Result<TelemetrySimulator<'a>> {
        let mut run_util = Vec::with_capacity(schedule.apruns().len());
        for run in schedule.apruns() {
            let p = catalog.profile(run.app_id)?;
            run_util.push(RunUtil {
                core: p.core_util as f32,
                cpu: p.cpu_util as f32,
            });
        }
        Ok(TelemetrySimulator {
            cfg,
            timelines: schedule.node_timelines(cfg.topology.n_nodes() as usize),
            run_util,
        })
    }

    /// The ambient temperature at cabinet `(x, y)` and `minute`.
    ///
    /// Hot spots sit at the upper-left `(0, grid_y-1)` and lower-right
    /// `(grid_x-1, 0)` corners of the floor grid, matching the paper's
    /// Fig. 5(a); a small diurnal sine is superimposed.
    fn ambient_c(&self, cabinet_x: u16, cabinet_y: u16, minute: u64) -> f64 {
        self.cfg.telemetry.ambient_base_c
            + self.spatial_c(cabinet_x, cabinet_y)
            + self.diurnal_c(cabinet_x, cabinet_y, minute)
    }

    /// The static spatial component of the ambient field.
    fn spatial_c(&self, cabinet_x: u16, cabinet_y: u16) -> f64 {
        let t = &self.cfg.telemetry;
        let gx = self.cfg.topology.grid_x() as f64;
        let gy = self.cfg.topology.grid_y() as f64;
        let x = cabinet_x as f64;
        let y = cabinet_y as f64;
        // Distance to the two hot corners, scaled by grid size.
        let sigma2 = (gx * gx + gy * gy) / 18.0;
        let d1 = x * x + (gy - 1.0 - y) * (gy - 1.0 - y);
        let d2 = (gx - 1.0 - x) * (gx - 1.0 - x) + y * y;
        t.ambient_spatial_amp_c * ((-d1 / (2.0 * sigma2)).exp() + (-d2 / (2.0 * sigma2)).exp())
    }

    /// The diurnal component of the ambient field.
    fn diurnal_c(&self, cabinet_x: u16, cabinet_y: u16, minute: u64) -> f64 {
        let t = &self.cfg.telemetry;
        let phase = (cabinet_x as u64 * 31 + cabinet_y as u64 * 17) as f64;
        t.ambient_diurnal_amp_c
            * ((minute as f64 / MINUTES_PER_DAY as f64 * std::f64::consts::TAU) + phase).sin()
    }

    /// The busy timeline of `node`: sorted, non-overlapping intervals.
    pub(crate) fn timeline(&self, node: NodeId) -> &[NodeInterval] {
        &self.timelines[node.0 as usize]
    }

    /// Steps `slot` through the whole horizon from minute 0 into one
    /// [`MemberSums`] per member, and captures the slot's
    /// [`SlotCheckpoints`] on the way: the sweep pauses at each
    /// [`checkpoint_minutes`] minute to snapshot its state, which changes
    /// no simulated bit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for an out-of-range slot.
    pub(crate) fn sweep(&self, slot: SlotId) -> Result<(Vec<MemberSums>, SlotCheckpoints)> {
        let horizon = self.cfg.total_minutes();
        let mut state = self.slot_state(slot)?;
        let mut sums: Vec<MemberSums> = state
            .members
            .iter()
            .map(|m| MemberSums {
                node: m.node,
                horizon: (0.0, 0.0),
                runs: vec![(0.0, 0.0); self.timeline(m.node).len()],
            })
            .collect();
        let mut checkpoints = SlotCheckpoints::default();
        for minute in checkpoint_minutes(horizon) {
            self.record(&mut state, minute, &mut sums);
            checkpoints.capture(&state);
        }
        self.record(&mut state, horizon, &mut sums);
        Ok((sums, checkpoints))
    }

    /// The state of `slot` before minute 0: fresh per-node noise streams
    /// and the thermal state at idle steady state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for an out-of-range slot.
    pub(crate) fn slot_state(&self, slot: SlotId) -> Result<SlotState> {
        let topo = &self.cfg.topology;
        let t = &self.cfg.telemetry;
        let mut cabinet = (0, 0);
        let mut members = Vec::new();
        for node in topo.slot_members(slot)? {
            let l = topo.location(node)?;
            if members.is_empty() {
                cabinet = (l.cabinet_x, l.cabinet_y);
            }
            let ambient0 = self.ambient_c(l.cabinet_x, l.cabinet_y, 0);
            members.push(MemberState {
                node,
                rng: XorShift64::new(derive_seed_indexed(
                    self.cfg.seed,
                    "telemetry-node",
                    node.0 as u64,
                )),
                power_noise: OuProcess::new(t.power_ou_theta, 0.0, t.power_ou_sigma),
                temp_noise: OuProcess::new(t.temp_ou_theta, 0.0, t.temp_ou_sigma),
                cpu_noise: OuProcess::new(t.temp_ou_theta, 0.0, t.temp_ou_sigma * 0.6),
                cursor: 0,
                amb_static: t.ambient_base_c + self.spatial_c(l.cabinet_x, l.cabinet_y),
                gpu_temp: ambient0 + t.temp_per_watt * t.idle_power_w,
                cpu_temp: ambient0 + 2.0,
                power: 0.0,
            });
        }
        Ok(SlotState {
            minute: 0,
            cabinet,
            members,
        })
    }

    /// The state of `slot` at `checkpoint`, one of the slot's own: a fresh
    /// [`TelemetrySimulator::slot_state`] with everything that changes
    /// between minutes restored from the snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for an out-of-range slot.
    pub(crate) fn restore(&self, slot: SlotId, checkpoint: Checkpoint<'_>) -> Result<SlotState> {
        let mut state = self.slot_state(slot)?;
        debug_assert_eq!(state.members.len(), checkpoint.members.len());
        state.minute = checkpoint.minute;
        for (m, c) in state.members.iter_mut().zip(checkpoint.members) {
            m.rng = c.rng.clone();
            m.power_noise.set_value(c.power_noise);
            m.temp_noise.set_value(c.temp_noise);
            m.cpu_noise.set_value(c.cpu_noise);
            m.gpu_temp = c.gpu_temp;
            m.cpu_temp = c.cpu_temp;
            m.cursor = c.cursor;
        }
        Ok(state)
    }

    /// Steps `state` up to minute `to_min`, keeping none of its readings;
    /// a state at or past `to_min` is left as it is.
    pub(crate) fn advance(&self, state: &mut SlotState, to_min: u64) {
        self.record(state, to_min, &mut ());
    }

    /// Steps `state` up to minute `end_min`, handing every minute's
    /// readings to `sink`; a state at or past `end_min` is left as it is.
    pub(crate) fn record<S: MinuteSink>(&self, state: &mut SlotState, end_min: u64, sink: &mut S) {
        while state.minute < end_min {
            self.step(state, sink);
        }
    }

    /// Simulates the minute `state` stands at and hands its readings to
    /// `sink`. A sink only reads, so every sink leaves the same state.
    #[inline(always)]
    fn step<S: MinuteSink>(&self, state: &mut SlotState, sink: &mut S) {
        let t = &self.cfg.telemetry;
        let minute = state.minute;
        // The diurnal term is shared because slot members never straddle
        // a cabinet.
        let diurnal = self.diurnal_c(state.cabinet.0, state.cabinet.1, minute);
        // 1) Utilisation and power for every node this minute.
        for m in state.members.iter_mut() {
            let tl = &self.timelines[m.node.0 as usize];
            while m.cursor < tl.len() && tl[m.cursor].end_min <= minute {
                m.cursor += 1;
            }
            let core_util = self.util(tl, busy_at(tl, m.cursor, minute)).core;
            let target = t.idle_power_w + core_util as f64 * (t.tdp_power_w - t.idle_power_w);
            m.power = (target + m.power_noise.step(&mut m.rng)).max(5.0);
        }
        let power_sum: f64 = state.members.iter().map(|m| m.power).sum();

        // 2) Temperatures using the slot's power field.
        let k = state.members.len();
        let mut temp_sum = 0.0f64;
        for (i, m) in state.members.iter_mut().enumerate() {
            let tl = &self.timelines[m.node.0 as usize];
            let busy = busy_at(tl, m.cursor, minute);
            let cpu_util = self.util(tl, busy).cpu;
            let amb = m.amb_static + diurnal;
            let nei_avg = if k > 1 {
                (power_sum - m.power) / (k - 1) as f64
            } else {
                0.0
            };
            let target = amb + t.temp_per_watt * m.power + t.neighbor_temp_per_watt * nei_avg;
            m.gpu_temp += t.thermal_inertia * (target - m.gpu_temp);
            let temp = m.gpu_temp + m.temp_noise.step(&mut m.rng);

            let cpu_target = amb + t.cpu_temp_rise_c * cpu_util as f64;
            m.cpu_temp += t.thermal_inertia * (cpu_target - m.cpu_temp);
            let ctemp = m.cpu_temp + m.cpu_noise.step(&mut m.rng);

            temp_sum += temp;
            sink.member(i, busy, temp as f32, m.power as f32, ctemp as f32);
        }
        sink.slot(temp_sum as f32, power_sum as f32);
        state.minute += 1;
    }

    /// The utilisation of the run in interval `busy` of the node timeline
    /// `tl`, or of an idle node.
    #[inline]
    fn util(&self, tl: &[NodeInterval], busy: Option<usize>) -> RunUtil {
        busy.map_or(RunUtil::default(), |k| {
            self.run_util[tl[k].aprun.0 as usize]
        })
    }
}

/// The index of the interval of the node timeline `tl` that holds
/// `minute`, if any, with the cursor already advanced past finished
/// intervals.
#[inline]
fn busy_at(tl: &[NodeInterval], cursor: usize, minute: u64) -> Option<usize> {
    (cursor < tl.len() && tl[cursor].start_min <= minute && minute < tl[cursor].end_min)
        .then_some(cursor)
}

/// Where the per-minute step hands the minute's readings. The sink is a
/// type parameter, so `()`, which keeps nothing, compiles to a bare step.
pub(crate) trait MinuteSink {
    /// Member `i`'s GPU temperature and power and CPU temperature, and the
    /// index of the interval of its timeline it is busy in, if any.
    fn member(&mut self, i: usize, busy: Option<usize>, temp: f32, power: f32, cpu_temp: f32);
    /// The slot's GPU temperature and power summed over its members.
    fn slot(&mut self, temp_sum: f32, power_sum: f32);
}

impl MinuteSink for () {
    fn member(&mut self, _: usize, _: Option<usize>, _: f32, _: f32, _: f32) {}
    fn slot(&mut self, _: f32, _: f32) {}
}

impl MinuteSink for SlotSeries {
    fn member(&mut self, i: usize, _: Option<usize>, temp: f32, power: f32, cpu_temp: f32) {
        self.gpu_temp[i].push(temp);
        self.gpu_power[i].push(power);
        self.cpu_temp[i].push(cpu_temp);
    }
    fn slot(&mut self, temp_sum: f32, power_sum: f32) {
        self.slot_temp_sum.push(temp_sum);
        self.slot_power_sum.push(power_sum);
    }
}

/// What trace generation keeps of one slot member's readings: its GPU
/// temperature and power, each summed in f64 from 0.0 over its f32
/// readings in minute order, the same sums a recorded series gives.
#[derive(Debug)]
pub(crate) struct MemberSums {
    pub(crate) node: NodeId,
    /// (temperature, power) over the whole horizon.
    pub(crate) horizon: (f64, f64),
    /// (temperature, power) over each interval of the node's timeline.
    pub(crate) runs: Vec<(f64, f64)>,
}

impl MinuteSink for Vec<MemberSums> {
    fn member(&mut self, i: usize, busy: Option<usize>, temp: f32, power: f32, _: f32) {
        let (temp, power) = (f64::from(temp), f64::from(power));
        let m = &mut self[i];
        m.horizon.0 += temp;
        m.horizon.1 += power;
        if let Some(k) = busy {
            m.runs[k].0 += temp;
            m.runs[k].1 += power;
        }
    }
    fn slot(&mut self, _: f32, _: f32) {}
}

/// One slot member's simulation state between minutes.
#[derive(Debug, Clone)]
struct MemberState {
    node: NodeId,
    rng: XorShift64,
    power_noise: OuProcess,
    temp_noise: OuProcess,
    cpu_noise: OuProcess,
    /// First interval of the node's timeline that has not ended yet.
    cursor: usize,
    /// Ambient base plus the node's static spatial component.
    amb_static: f64,
    gpu_temp: f64,
    cpu_temp: f64,
    /// Board power of the minute being stepped.
    power: f64,
}

/// Everything the simulation of one slot carries from a minute to the
/// next: each member's noise stream, OU processes, thermal state and
/// timeline cursor, and the next minute to simulate. The simulation is a
/// pure function of (seed, slot, minute), so a state stepped from
/// minute 0 is an exact snapshot of it: resuming a clone reproduces the
/// full-horizon series bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct SlotState {
    minute: u64,
    /// The slot's cabinet, which sets the shared diurnal term.
    cabinet: (u16, u16),
    members: Vec<MemberState>,
}

impl SlotState {
    /// The next minute this state simulates.
    pub(crate) fn minute(&self) -> u64 {
        self.minute
    }

    /// An empty series of this slot starting at [`SlotState::minute`],
    /// with room for `len` minutes.
    pub(crate) fn empty_series(&self, len: usize) -> SlotSeries {
        let k = self.members.len();
        SlotSeries {
            start_min: self.minute,
            nodes: self.members.iter().map(|m| m.node).collect(),
            gpu_temp: vec![Vec::with_capacity(len); k],
            gpu_power: vec![Vec::with_capacity(len); k],
            cpu_temp: vec![Vec::with_capacity(len); k],
            slot_temp_sum: Vec::with_capacity(len),
            slot_power_sum: Vec::with_capacity(len),
        }
    }
}

/// Checkpoints captured per slot during generation. The count, not the
/// horizon, bounds their memory: this many × slots × members × 56 B.
pub(crate) const CHECKPOINTS_PER_SLOT: usize = 8;

/// The minutes a slot's checkpoints stand at: multiples of the stride
/// `⌈horizon / (CHECKPOINTS_PER_SLOT + 1)⌉` strictly inside
/// `(0, horizon)`, so every minute lies less than one stride past
/// minute 0 or a checkpoint.
pub(crate) fn checkpoint_minutes(horizon: u64) -> impl Iterator<Item = u64> {
    let stride = horizon.div_ceil(CHECKPOINTS_PER_SLOT as u64 + 1).max(1);
    (1..=CHECKPOINTS_PER_SLOT as u64)
        .map(move |i| i * stride)
        .take_while(move |&m| m < horizon)
}

/// The part of a [`MemberState`] that changes between minutes. The rest
/// (node id, OU parameters, static ambient) is rebuilt by
/// [`TelemetrySimulator::slot_state`], and the power of the minute last
/// stepped is overwritten before the next step reads it.
#[derive(Debug, Clone)]
struct MemberCheckpoint {
    rng: XorShift64,
    power_noise: f64,
    temp_noise: f64,
    cpu_noise: f64,
    gpu_temp: f64,
    cpu_temp: f64,
    cursor: usize,
}

/// Exact snapshots of one slot's simulation at [`checkpoint_minutes`],
/// captured by [`TelemetrySimulator::sweep`] so that
/// a telemetry query can resume near any minute instead of replaying the
/// slot from minute 0.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotCheckpoints {
    /// The minutes the snapshots stand at, strictly increasing.
    minutes: Vec<u64>,
    /// Every member's snapshot, snapshot-major: `minutes.len()` runs of
    /// one entry per member.
    members: Vec<MemberCheckpoint>,
}

/// One snapshot of a [`SlotCheckpoints`], borrowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checkpoint<'a> {
    minute: u64,
    members: &'a [MemberCheckpoint],
}

impl Checkpoint<'_> {
    /// The next minute the restored state simulates.
    pub(crate) fn minute(&self) -> u64 {
        self.minute
    }
}

impl SlotCheckpoints {
    /// Appends a snapshot of `state`, which stands past every earlier one.
    fn capture(&mut self, state: &SlotState) {
        debug_assert!(self.minutes.last().is_none_or(|&m| m < state.minute));
        self.minutes.push(state.minute);
        self.members
            .extend(state.members.iter().map(|m| MemberCheckpoint {
                rng: m.rng.clone(),
                power_noise: m.power_noise.value(),
                temp_noise: m.temp_noise.value(),
                cpu_noise: m.cpu_noise.value(),
                gpu_temp: m.gpu_temp,
                cpu_temp: m.cpu_temp,
                cursor: m.cursor,
            }));
    }

    /// The last snapshot at or before `minute`, if any.
    pub(crate) fn at_or_before(&self, minute: u64) -> Option<Checkpoint<'_>> {
        let i = self
            .minutes
            .partition_point(|&m| m <= minute)
            .checked_sub(1)?;
        let k = self.members.len() / self.minutes.len();
        Some(Checkpoint {
            minute: self.minutes[i],
            members: self.members.get(i * k..(i + 1) * k)?,
        })
    }
}

/// The simulated telemetry of one slot over a minute range.
#[derive(Debug, Clone)]
pub(crate) struct SlotSeries {
    start_min: u64,
    nodes: Vec<NodeId>,
    gpu_temp: Vec<Vec<f32>>,
    gpu_power: Vec<Vec<f32>>,
    cpu_temp: Vec<Vec<f32>>,
    slot_temp_sum: Vec<f32>,
    slot_power_sum: Vec<f32>,
}

impl SlotSeries {
    /// Number of simulated minutes.
    pub(crate) fn len(&self) -> usize {
        self.slot_temp_sum.len()
    }

    /// Member nodes in id order.
    pub(crate) fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn member_index(&self, node: NodeId) -> Result<usize> {
        self.nodes
            .iter()
            .position(|&n| n == node)
            .ok_or(SimError::UnknownEntity {
                kind: "slot member",
                id: node.0 as u64,
            })
    }

    fn clip(&self, start_min: u64, end_min: u64) -> Result<(usize, usize)> {
        let len = self.len() as u64;
        if start_min < self.start_min || end_min <= start_min || end_min - self.start_min > len {
            return Err(SimError::InvalidTimeRange {
                start: start_min,
                end: end_min,
                horizon: self.start_min + len,
            });
        }
        Ok((
            (start_min - self.start_min) as usize,
            (end_min - self.start_min) as usize,
        ))
    }

    /// Borrows one node's series over `[start_min, end_min)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] when `node` is not a member and
    /// [`SimError::InvalidTimeRange`] for a range outside the simulation.
    pub(crate) fn series(
        &self,
        node: NodeId,
        kind: SeriesKind,
        start_min: u64,
        end_min: u64,
    ) -> Result<&[f32]> {
        let i = self.member_index(node)?;
        let (lo, hi) = self.clip(start_min, end_min)?;
        let v = match kind {
            SeriesKind::GpuTemp => &self.gpu_temp[i],
            SeriesKind::GpuPower => &self.gpu_power[i],
            SeriesKind::CpuTemp => &self.cpu_temp[i],
        };
        Ok(&v[lo..hi])
    }

    /// [`WindowStats`] of one node's series over `[start_min, end_min)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SlotSeries::series`].
    pub(crate) fn stats(
        &self,
        node: NodeId,
        kind: SeriesKind,
        start_min: u64,
        end_min: u64,
    ) -> Result<WindowStats> {
        Ok(window_stats(self.series(node, kind, start_min, end_min)?))
    }

    /// [`WindowStats`] of the *slot-neighbour average* (all members except
    /// `node`) for GPU temperature or power.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for [`SeriesKind::CpuTemp`]
    /// (CPU telemetry is per-node only in the paper), plus the range and
    /// membership errors of [`SlotSeries::series`].
    pub(crate) fn neighbor_stats(
        &self,
        node: NodeId,
        kind: SeriesKind,
        start_min: u64,
        end_min: u64,
    ) -> Result<WindowStats> {
        let i = self.member_index(node)?;
        let (lo, hi) = self.clip(start_min, end_min)?;
        let (own, sums) = match kind {
            SeriesKind::GpuTemp => (&self.gpu_temp[i], &self.slot_temp_sum),
            SeriesKind::GpuPower => (&self.gpu_power[i], &self.slot_power_sum),
            SeriesKind::CpuTemp => {
                return Err(SimError::InvalidConfig {
                    field: "kind",
                    reason: "slot-neighbour CPU temperature is not collected".into(),
                })
            }
        };
        let k = self.nodes.len();
        if k < 2 {
            return Ok(WindowStats::default());
        }
        let inv = 1.0 / (k - 1) as f32;
        let nei: Vec<f32> = (lo..hi).map(|t| (sums[t] - own[t]) * inv).collect();
        Ok(window_stats(&nei))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppCatalog;
    use crate::config::SimConfig;
    use crate::schedule::Schedule;

    fn setup() -> (SimConfig, Schedule, AppCatalog) {
        let cfg = SimConfig::tiny(11);
        let catalog = AppCatalog::generate(&cfg.workload, cfg.seed, cfg.days).unwrap();
        let sched = Schedule::generate(&cfg, &catalog).unwrap();
        (cfg, sched, catalog)
    }

    /// `slot` recorded over `[lo, hi)` after stepping from minute 0.
    fn recorded(sim: &TelemetrySimulator<'_>, slot: SlotId, lo: u64, hi: u64) -> SlotSeries {
        let mut state = sim.slot_state(slot).unwrap();
        sim.advance(&mut state, lo);
        let mut series = state.empty_series((hi - lo) as usize);
        sim.record(&mut state, hi, &mut series);
        series
    }

    /// The oracle of [`TelemetrySimulator::sweep`]: the whole horizon of
    /// `slot` recorded, capturing checkpoints on the way.
    fn recorded_sweep(sim: &TelemetrySimulator<'_>, slot: SlotId) -> (SlotSeries, SlotCheckpoints) {
        let horizon = sim.cfg.total_minutes();
        let mut state = sim.slot_state(slot).unwrap();
        let mut series = state.empty_series(horizon as usize);
        let mut checkpoints = SlotCheckpoints::default();
        for minute in checkpoint_minutes(horizon) {
            sim.record(&mut state, minute, &mut series);
            checkpoints.capture(&state);
        }
        sim.record(&mut state, horizon, &mut series);
        (series, checkpoints)
    }

    #[test]
    fn window_stats_hand_computed() {
        let s = window_stats(&[1.0, 2.0, 4.0]);
        assert!((s.mean - 7.0 / 3.0).abs() < 1e-5);
        // diffs: [1, 2] -> mean 1.5, var 0.25
        assert!((s.diff_mean - 1.5).abs() < 1e-5);
        assert!((s.diff_std - 0.5).abs() < 1e-5);
        assert_eq!(window_stats(&[]), WindowStats::default());
        let single = window_stats(&[3.0]);
        assert_eq!(single.mean, 3.0);
        assert_eq!(single.diff_std, 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let a = recorded(&sim, SlotId(0), 0, 500);
        let b = recorded(&sim, SlotId(0), 0, 500);
        assert_eq!(a.gpu_temp, b.gpu_temp);
        assert_eq!(a.gpu_power, b.gpu_power);
    }

    #[test]
    fn range_query_matches_full_simulation() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let full = recorded(&sim, SlotId(1), 0, 800);
        let sub = recorded(&sim, SlotId(1), 300, 800);
        let node = sub.nodes()[0];
        let a = full.series(node, SeriesKind::GpuTemp, 300, 800).unwrap();
        let b = sub.series(node, SeriesKind::GpuTemp, 300, 800).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn resumed_state_records_the_full_simulation_bit_for_bit() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let slot = SlotId(1);
        let horizon = cfg.total_minutes();
        let full = recorded(&sim, slot, 0, horizon);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // `part` must equal `full` from its first minute on, bit for bit.
        let assert_tail = |part: &SlotSeries| {
            let lo = part.start_min as usize;
            let hi = lo + part.len();
            assert_eq!(part.nodes(), full.nodes());
            for i in 0..full.nodes().len() {
                assert_eq!(bits(&part.gpu_temp[i]), bits(&full.gpu_temp[i][lo..hi]));
                assert_eq!(bits(&part.gpu_power[i]), bits(&full.gpu_power[i][lo..hi]));
                assert_eq!(bits(&part.cpu_temp[i]), bits(&full.cpu_temp[i][lo..hi]));
            }
            assert_eq!(bits(&part.slot_temp_sum), bits(&full.slot_temp_sum[lo..hi]));
            assert_eq!(
                bits(&part.slot_power_sum),
                bits(&full.slot_power_sum[lo..hi])
            );
        };
        let end = 1_500u64;
        for m in [0, 1, end / 2, end - 1] {
            let mut state = sim.slot_state(slot).unwrap();
            sim.advance(&mut state, m);
            assert_eq!(state.minute(), m);
            let mut part = state.empty_series((end - m) as usize);
            sim.record(&mut state, end, &mut part);
            assert_eq!(part.start_min, m);
            assert_eq!(part.len() as u64, end - m);
            assert_tail(&part);
        }

        // Capturing checkpoints moves no bit of a recorded sweep, and each
        // checkpoint of the summing sweep, restored onto a fresh state,
        // records the rest of the full run.
        let (swept, _) = recorded_sweep(&sim, slot);
        assert_eq!(swept.len() as u64, horizon);
        assert_tail(&swept);
        let (_, checkpoints) = sim.sweep(slot).unwrap();
        assert_eq!(checkpoints.minutes.len(), CHECKPOINTS_PER_SLOT);
        for &m in &checkpoints.minutes {
            let c = checkpoints.at_or_before(m).unwrap();
            assert_eq!(c.minute(), m);
            let mut state = sim.restore(slot, c).unwrap();
            assert_eq!(state.minute(), m);
            let mut part = state.empty_series((horizon - m) as usize);
            sim.record(&mut state, horizon, &mut part);
            assert_eq!(part.start_min, m);
            assert_tail(&part);
        }
    }

    /// The sweep keeps only sums, and they must be the bits a recorded
    /// horizon sums to: each a left-to-right f64 sum from 0.0 of the f32
    /// readings, over the whole horizon and over every timeline interval.
    #[test]
    fn sweep_sums_equal_a_recorded_horizon_bit_for_bit() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let horizon = cfg.total_minutes();
        let sum = |xs: &[f32]| {
            xs.iter()
                .fold(0.0f64, |acc, &x| acc + f64::from(x))
                .to_bits()
        };
        for slot in [0, 5, 10, 15].map(SlotId) {
            let (sums, checkpoints) = sim.sweep(slot).unwrap();
            let (series, oracle) = recorded_sweep(&sim, slot);
            assert_eq!(checkpoints.minutes, oracle.minutes);
            let nodes: Vec<NodeId> = sums.iter().map(|m| m.node).collect();
            assert_eq!(nodes, series.nodes());
            let mut runs = 0;
            for m in &sums {
                let over = |kind, lo, hi| sum(series.series(m.node, kind, lo, hi).unwrap());
                assert_eq!(m.horizon.0.to_bits(), over(SeriesKind::GpuTemp, 0, horizon));
                assert_eq!(
                    m.horizon.1.to_bits(),
                    over(SeriesKind::GpuPower, 0, horizon)
                );
                let timeline = sim.timeline(m.node);
                assert_eq!(m.runs.len(), timeline.len());
                for (iv, &(temp, power)) in timeline.iter().zip(&m.runs) {
                    let (lo, hi) = (iv.start_min, iv.end_min);
                    assert_eq!(temp.to_bits(), over(SeriesKind::GpuTemp, lo, hi));
                    assert_eq!(power.to_bits(), over(SeriesKind::GpuPower, lo, hi));
                }
                runs += timeline.len();
            }
            assert!(runs > 0, "slot {} ran nothing", slot.0);
        }
    }

    #[test]
    fn checkpoint_lookup_picks_the_last_at_or_before() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let (_, checkpoints) = sim.sweep(SlotId(0)).unwrap();
        let minutes = &checkpoints.minutes;
        assert!(checkpoints.at_or_before(0).is_none());
        assert!(checkpoints.at_or_before(minutes[0] - 1).is_none());
        for (i, &m) in minutes.iter().enumerate() {
            let next = minutes.get(i + 1).copied().unwrap_or(cfg.total_minutes());
            for probe in [m, m + 1, next - 1] {
                assert_eq!(checkpoints.at_or_before(probe).unwrap().minute(), m);
            }
        }
        assert!(SlotCheckpoints::default().at_or_before(u64::MAX).is_none());
    }

    /// The checkpoint count, not the horizon, bounds their memory: at
    /// most [`CHECKPOINTS_PER_SLOT`] per slot, about 1.9 KB for a 4-node
    /// slot (0.75 MB for the 400-slot scaled machine, 9 MB for Titan's
    /// 4,800 slots), however long the trace.
    #[test]
    fn checkpoints_are_bounded_whatever_the_horizon() {
        let mut bytes_per_trace = Vec::new();
        for days in [1, 30] {
            let mut cfg = SimConfig::tiny(11);
            cfg.days = days;
            let horizon = cfg.total_minutes();
            let trace = crate::engine::generate(&cfg).unwrap();
            let mut bytes = 0;
            for slot in (0..cfg.topology.n_slots()).map(SlotId) {
                let c = trace.checkpoints(slot).unwrap();
                let k = cfg.topology.slot_members(slot).unwrap().len();
                // Both horizons are long enough for every checkpoint.
                assert_eq!(c.minutes.len(), CHECKPOINTS_PER_SLOT);
                assert!(c.minutes.windows(2).all(|w| w[0] < w[1]));
                assert!(c.minutes.iter().all(|&m| 0 < m && m < horizon));
                assert_eq!(c.members.len(), c.minutes.len() * k);
                let slot_bytes = std::mem::size_of_val(c.minutes.as_slice())
                    + std::mem::size_of_val(c.members.as_slice());
                assert!(slot_bytes <= CHECKPOINTS_PER_SLOT * (8 + 56 * k));
                // Tiny slots have four nodes: 8 × (8 + 4 × 56) = 1,856 B.
                assert_eq!(k, 4);
                assert!(slot_bytes <= 1_900, "{slot_bytes} B per slot");
                bytes += slot_bytes;
            }
            bytes_per_trace.push(bytes);
        }
        assert_eq!(bytes_per_trace[0], bytes_per_trace[1]);
    }

    #[test]
    fn busy_nodes_run_hotter_and_draw_more_power() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let timelines = sched.node_timelines(cfg.topology.n_nodes() as usize);
        // Find a long-ish busy interval.
        let mut pick = None;
        'outer: for (node, tl) in timelines.iter().enumerate() {
            for iv in tl {
                if iv.end_min - iv.start_min >= 60 && iv.start_min > 120 {
                    pick = Some((NodeId(node as u32), *iv));
                    break 'outer;
                }
            }
        }
        let (node, iv) = pick.expect("tiny workload has a >=60 min run");
        let slot = cfg.topology.slot_of(node).unwrap();
        let series = recorded(&sim, slot, 0, iv.end_min);
        let mean = |kind, lo, hi| series.stats(node, kind, lo, hi).unwrap().mean;
        let busy_t = mean(SeriesKind::GpuTemp, iv.start_min + 10, iv.end_min);
        let busy_p = mean(SeriesKind::GpuPower, iv.start_min + 10, iv.end_min);
        // Compare to the window right before the run starts (idle or not,
        // power at idle is the common case in the tiny config).
        let idle_p = mean(
            SeriesKind::GpuPower,
            iv.start_min.saturating_sub(60),
            iv.start_min,
        );
        assert!(busy_p > idle_p + 10.0, "busy {busy_p} vs idle {idle_p}");
        assert!(
            f64::from(busy_t) > cfg.telemetry.ambient_base_c,
            "busy temp {busy_t}"
        );
    }

    #[test]
    fn ambient_hot_corners() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let gx = cfg.topology.grid_x();
        let gy = cfg.topology.grid_y();
        let hot1 = sim.ambient_c(0, gy - 1, 0);
        let hot2 = sim.ambient_c(gx - 1, 0, 0);
        let centre = sim.ambient_c(gx / 2, gy / 2, 0);
        assert!(hot1 > centre);
        assert!(hot2 > centre);
    }

    #[test]
    fn neighbor_stats_average_others() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let series = recorded(&sim, SlotId(0), 0, 100);
        let nodes = series.nodes().to_vec();
        let target = nodes[0];
        let nei = series
            .neighbor_stats(target, SeriesKind::GpuPower, 0, 100)
            .unwrap();
        // Manual average of the other three nodes' means.
        let mut acc = 0.0;
        for &n in &nodes[1..] {
            acc += f64::from(series.stats(n, SeriesKind::GpuPower, 0, 100).unwrap().mean);
        }
        let manual = acc / (nodes.len() - 1) as f64;
        assert!(
            (nei.mean as f64 - manual).abs() < 0.05,
            "{} vs {manual}",
            nei.mean
        );
    }

    #[test]
    fn invalid_ranges_rejected() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        // Empty and out-of-horizon windows are refused by the query engine
        // (`node_series_probe_works`).
        assert!(sim.slot_state(SlotId(9999)).is_err());
        let series = recorded(&sim, SlotId(0), 100, 200);
        let node = series.nodes()[0];
        assert!(series.series(node, SeriesKind::GpuTemp, 0, 50).is_err());
        assert!(series.series(node, SeriesKind::GpuTemp, 150, 250).is_err());
        assert!(series
            .series(NodeId(9_999), SeriesKind::GpuTemp, 100, 150)
            .is_err());
    }

    #[test]
    fn cpu_neighbor_stats_rejected() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let series = recorded(&sim, SlotId(0), 0, 10);
        let node = series.nodes()[0];
        assert!(series
            .neighbor_stats(node, SeriesKind::CpuTemp, 0, 10)
            .is_err());
    }

    #[test]
    fn temperatures_physically_plausible() {
        let (cfg, sched, catalog) = setup();
        let sim = TelemetrySimulator::new(&cfg, &sched, &catalog).unwrap();
        let series = recorded(&sim, SlotId(2), 0, 2_000);
        for &n in series.nodes() {
            let s = series.series(n, SeriesKind::GpuTemp, 0, 2_000).unwrap();
            for &v in s {
                assert!((10.0..95.0).contains(&v), "temp {v} out of range");
            }
            let p = series.series(n, SeriesKind::GpuPower, 0, 2_000).unwrap();
            for &v in p {
                assert!((5.0..320.0).contains(&v), "power {v} out of range");
            }
        }
    }
}
