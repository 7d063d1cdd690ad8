//! `fleet`: the `sbed` daemon on loopback under an open-loop ladder.
//!
//! Set-up trains a `FeatureSpec::no_telemetry()` DS1 champion (with its
//! real offender set) and spawns the daemon at `DaemonConfig::new`
//! defaults. One process drives two connections with
//! `sbed::fleet::synth_events`: every frame has a due time on a fixed
//! schedule, joins its connection's send queue then whether or not
//! earlier frames were answered, leaves it while the daemon's
//! per-connection window has room, and is timed from its due time to its
//! ACK. Refused frames are resent and keep their original due time. The
//! run steps through a ladder of absolute event rates fixed in
//! [`LADDER`].

use crate::report::Outcome;
use crate::setup::{self, BoxResult, Champion};
use crate::stats::{self, backlog_growth, percentile, Ledger, Rung};
use sbed::daemon::{Daemon, DaemonConfig, DaemonReport};
use sbed::fleet::{synth_events, SynthConfig};
use sbed::session::ScoreSession;
use sbed::wire::{self, ErrorPayload, WireEvent};
use sbepred::features::FeatureSpec;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamd::serve::ServeConfig;

/// Length of the trace the champion is trained on.
pub const DAYS: u32 = 30;
/// Champions set up per untraced run (one per sub-seed); `setup_s` is
/// the median, and the daemon serves the first.
pub const INPUTS: usize = 3;
/// Connections: one per core of the two-core measuring host.
pub const CONNS: usize = 2;

/// One rung of the ladder: an absolute offered rate and its share of
/// the run length.
pub struct RungSpec {
    pub name: &'static str,
    /// Events per second, both connections together.
    pub rate: f64,
    /// Relative run length.
    pub weight: f64,
}

/// The ladder, in ascending order. `low` and `high` sit near a quarter
/// and three quarters of the 40k events/s the daemon sustained on a
/// quiet host when the ladder was fixed; the top rungs lie above it, so
/// that capacity is inside the ladder.
pub const LADDER: [RungSpec; 9] = [
    RungSpec {
        name: "warmup",
        rate: 10_000.0,
        weight: 0.5,
    },
    RungSpec {
        name: "low",
        rate: 10_000.0,
        weight: 2.0,
    },
    RungSpec {
        name: "r20k",
        rate: 20_000.0,
        weight: 0.4,
    },
    RungSpec {
        name: "high",
        rate: 30_000.0,
        weight: 2.0,
    },
    RungSpec {
        name: "r35k",
        rate: 35_000.0,
        weight: 0.4,
    },
    RungSpec {
        name: "r40k",
        rate: 40_000.0,
        weight: 0.4,
    },
    RungSpec {
        name: "r45k",
        rate: 45_000.0,
        weight: 0.4,
    },
    RungSpec {
        name: "r50k",
        rate: 50_000.0,
        weight: 0.4,
    },
    RungSpec {
        name: "r60k",
        rate: 60_000.0,
        weight: 0.4,
    },
];

/// Synthetic stream shape: 1,600 nodes, 30 launches a minute of up to
/// 8 nodes, 20 SBE deltas a minute.
fn synth_config(seed: u64, minutes: u64) -> SynthConfig {
    SynthConfig {
        n_nodes: 1_600,
        minutes,
        launches_per_min: 30,
        max_nodes_per_launch: 8,
        sbe_per_min: 20,
        ..SynthConfig::demo(seed, 1_600)
    }
}

/// Everything logged about one frame, in nanoseconds since the run's
/// epoch (0 = never happened).
#[derive(Debug, Clone, Copy, Default)]
struct FrameLog {
    due: u64,
    sent: u64,
    ack: u64,
    scores: u64,
    sends: u32,
    /// A non-overload error code the frame was answered with.
    error: u16,
}

/// Per-rung instructions from the conductor to a sending thread.
enum Cmd {
    Rung {
        first: u64,
        end: u64,
        rate: f64,
        t0: Instant,
        deadline: Instant,
    },
    /// Sends FINISH under `seq` (the first sequence no rung used).
    Finish { seq: u64, deadline: Instant },
}

const BACKLOG_SAMPLES: usize = 16;
/// How long the closing FINISH phase may take to drain the backlog.
const FINISH_DEADLINE: Duration = Duration::from_secs(20);
/// How long a sender sleeps when it waits on answers rather than on a
/// due time.
const IDLE_STEP: Duration = Duration::from_micros(100);

/// State one connection's sender and reader share.
#[derive(Default)]
struct Shared {
    /// Own frames answered so far (first ACK, REPORT or terminal error).
    answered: AtomicU64,
    /// Sent frames whose final answer has not arrived: the client's view
    /// of the daemon's per-connection window.
    in_flight: AtomicU64,
    /// Set once the sender is done; the reader then stops.
    stop: AtomicBool,
}

/// What a connection's reader saw.
#[derive(Default)]
struct ReadLog {
    logs: BTreeMap<u64, FrameLog>,
    scores: BTreeMap<u64, Vec<u8>>,
    report: bool,
    open_launches_max: u64,
}

/// The reading half of a connection: blocks on the socket, so every
/// answer is stamped the moment it arrives.
fn reader(
    mut stream: TcpStream,
    epoch: Instant,
    launches: &[bool],
    shared: &Shared,
    refused: mpsc::Sender<u64>,
) -> BoxResult<ReadLog> {
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    let mut log = ReadLog::default();
    let mut open_launches = 0u64;
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let is_launch = |seq: u64| launches.get(seq as usize).copied().unwrap_or(false);
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
        let t = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut used = 0;
        while rbuf.len() - used >= wire::HEADER_LEN {
            let mut hdr = [0u8; wire::HEADER_LEN];
            hdr.copy_from_slice(&rbuf[used..used + wire::HEADER_LEN]);
            let len = wire::validate_header(&hdr)?.len as usize;
            if rbuf.len() - used < wire::HEADER_LEN + len {
                break;
            }
            let (frame, n) = wire::decode_frame(&rbuf[used..])?;
            used += n;
            let seq = frame.header.request_id;
            let entry = log.logs.entry(seq).or_default();
            match frame.header.kind {
                wire::KIND_ACK if entry.ack == 0 => {
                    entry.ack = t;
                    shared.answered.fetch_add(1, Ordering::SeqCst);
                    if is_launch(seq) {
                        open_launches += 1;
                        log.open_launches_max = log.open_launches_max.max(open_launches);
                    } else {
                        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                wire::KIND_ACK => {}
                wire::KIND_SCORES => {
                    entry.scores = t;
                    open_launches = open_launches.saturating_sub(1);
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    log.scores.insert(seq, frame.payload);
                }
                wire::KIND_REPORT => {
                    entry.ack = t;
                    log.report = true;
                    shared.answered.fetch_add(1, Ordering::SeqCst);
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                wire::KIND_ERROR => {
                    let err = ErrorPayload::decode(&frame.payload)?;
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    if err.code == wire::ERR_OVERLOAD {
                        refused.send(seq).ok();
                    } else if entry.error == 0 && entry.ack == 0 {
                        entry.error = err.code;
                        shared.answered.fetch_add(1, Ordering::SeqCst);
                    }
                }
                other => return Err(format!("daemon sent frame kind {other:#06x}").into()),
            }
        }
        rbuf.drain(..used);
    }
    Ok(log)
}

/// The sending half of a connection: every own frame enters the send
/// queue at its due time, whether or not earlier frames were answered,
/// and leaves it while the connection's window has room. Refused frames
/// go back out after a backoff and keep their original due time.
struct Sender<'a> {
    stream: TcpStream,
    epoch: Instant,
    frames: &'a [Vec<u8>],
    conn: usize,
    shared: &'a Shared,
    /// Frames kept unanswered at most: the daemon's `conn_window`, so a
    /// well-behaved client is not refused for it.
    window: u64,
    refused: mpsc::Receiver<u64>,
    logs: BTreeMap<u64, FrameLog>,
    queue: VecDeque<u64>,
    resend: Vec<(u64, Instant)>,
    retransmits: u64,
    /// The FINISH frame, once queued: its sequence and bytes.
    finish: Option<(u64, Vec<u8>)>,
    /// Own frames that have entered the queue so far.
    released: u64,
    out: Vec<u8>,
}

impl Sender<'_> {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn owns(&self, seq: u64) -> bool {
        seq as usize % CONNS == self.conn
    }

    /// Sends refused frames whose backoff passed, then queued frames,
    /// while the window has room.
    fn transmit(&mut self, now: Instant) -> BoxResult<()> {
        while let Ok(seq) = self.refused.try_recv() {
            let sends = self.logs.get(&seq).map_or(1, |l| l.sends);
            self.resend
                .push((seq, now + Duration::from_micros(100 << sends.min(6))));
        }
        self.out.clear();
        let t = self.ns(now);
        while self.shared.in_flight.load(Ordering::SeqCst) < self.window {
            let seq = match self.resend.iter().position(|&(_, at)| at <= now) {
                Some(i) => {
                    self.retransmits += 1;
                    self.resend.swap_remove(i).0
                }
                // New frames wait while a refused one is out: the
                // sequencer needs it first, and sending past it would
                // fill the window with frames stuck behind it.
                None if !self.resend.is_empty() => break,
                None => match self.queue.pop_front() {
                    Some(seq) => seq,
                    None => break,
                },
            };
            match &self.finish {
                Some((f, bytes)) if *f == seq => self.out.extend_from_slice(bytes),
                _ => self.out.extend_from_slice(&self.frames[seq as usize]),
            }
            let log = self.logs.entry(seq).or_default();
            if log.sent == 0 {
                log.sent = t;
            }
            log.sends += 1;
            self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        }
        if !self.out.is_empty() {
            self.stream.write_all(&self.out)?;
        }
        Ok(())
    }

    fn answered(&self) -> u64 {
        self.shared.answered.load(Ordering::SeqCst)
    }

    fn idle(&self) -> bool {
        self.queue.is_empty() && self.resend.is_empty()
    }

    /// Runs one rung: own frames `first..end` fall due at
    /// `t0 + (seq - first) / rate`. Returns backlog samples (frames due
    /// minus frames answered) at evenly spaced times.
    fn rung(
        &mut self,
        first: u64,
        end: u64,
        rate: f64,
        t0: Instant,
        deadline: Instant,
    ) -> BoxResult<Vec<f64>> {
        let own: Vec<u64> = (first..end).filter(|&s| self.owns(s)).collect();
        let due_at = |seq: u64| t0 + Duration::from_secs_f64((seq - first) as f64 / rate);
        let span = Duration::from_secs_f64((end - first) as f64 / rate);
        let sample_at = |j: usize| t0 + span.mul_f64(j as f64 / BACKLOG_SAMPLES as f64);
        for &seq in &own {
            let due = self.ns(due_at(seq));
            self.logs.entry(seq).or_default().due = due;
        }
        let released_before = self.released;
        let answered_before = self.answered();
        let target = self.released + own.len() as u64;
        let mut samples = Vec::with_capacity(BACKLOG_SAMPLES);
        let mut next = 0usize;
        loop {
            let now = Instant::now();
            while next < own.len() && due_at(own[next]) <= now {
                self.queue.push_back(own[next]);
                self.released += 1;
                next += 1;
            }
            self.transmit(now)?;
            while samples.len() < BACKLOG_SAMPLES && sample_at(samples.len()) <= now {
                let due = (self.released - released_before) as f64;
                samples.push(due - (self.answered() - answered_before) as f64);
            }
            let complete = next == own.len() && self.idle() && self.answered() >= target;
            if (complete && samples.len() == BACKLOG_SAMPLES) || now >= deadline {
                break;
            }
            let mut wake = deadline;
            if let Some(&seq) = own.get(next) {
                wake = wake.min(due_at(seq));
            }
            if samples.len() < BACKLOG_SAMPLES {
                wake = wake.min(sample_at(samples.len()));
            }
            if !self.idle() || next == own.len() {
                // Waiting for window room or for answers.
                wake = wake.min(now + IDLE_STEP);
            }
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
        while samples.len() < BACKLOG_SAMPLES {
            samples.push(samples.last().copied().unwrap_or(0.0));
        }
        Ok(samples)
    }

    /// Queues FINISH (on the connection that owns it) and waits until
    /// every sent frame has its final answer, or the deadline.
    fn finish(&mut self, finish_seq: u64, deadline: Instant) -> BoxResult<()> {
        if self.owns(finish_seq) {
            let t = self.ns(Instant::now());
            self.logs.entry(finish_seq).or_default().due = t;
            self.finish = Some((
                finish_seq,
                wire::encode_frame(wire::KIND_FINISH, finish_seq, &[]),
            ));
            self.queue.push_back(finish_seq);
            self.released += 1;
        }
        loop {
            let now = Instant::now();
            self.transmit(now)?;
            let done = self.idle()
                && self.answered() >= self.released
                && self.shared.in_flight.load(Ordering::SeqCst) == 0;
            if done || now >= deadline {
                return Ok(());
            }
            std::thread::sleep(IDLE_STEP);
        }
    }
}

/// What one connection hands back: both halves' logs, merged.
struct ConnResult {
    logs: BTreeMap<u64, FrameLog>,
    scores: BTreeMap<u64, Vec<u8>>,
    report: bool,
    open_launches_max: u64,
    retransmits: u64,
}

#[allow(clippy::too_many_arguments)]
fn connection(
    addr: SocketAddr,
    conn: usize,
    window: u64,
    epoch: Instant,
    frames: &[Vec<u8>],
    launches: &[bool],
    cmds: mpsc::Receiver<Cmd>,
    done: mpsc::Sender<Vec<f64>>,
) -> BoxResult<ConnResult> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let shared = Shared::default();
    let (refused_tx, refused_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let reading = scope.spawn(|| reader(read_half, epoch, launches, &shared, refused_tx));
        let mut s = Sender {
            stream,
            epoch,
            frames,
            conn,
            shared: &shared,
            window,
            refused: refused_rx,
            logs: BTreeMap::new(),
            queue: VecDeque::new(),
            resend: Vec::new(),
            retransmits: 0,
            finish: None,
            released: 0,
            out: Vec::new(),
        };
        let sending = (|| -> BoxResult<()> {
            while let Ok(cmd) = cmds.recv() {
                match cmd {
                    Cmd::Rung {
                        first,
                        end,
                        rate,
                        t0,
                        deadline,
                    } => {
                        let samples = s.rung(first, end, rate, t0, deadline)?;
                        done.send(samples).map_err(|_| "conductor hung up")?;
                    }
                    Cmd::Finish { seq, deadline } => return s.finish(seq, deadline),
                }
            }
            Ok(())
        })();
        shared.stop.store(true, Ordering::SeqCst);
        let read = reading.join().map_err(|_| "reader thread panicked")?;
        sending?;
        let read = read?;
        let mut logs = s.logs;
        for (seq, r) in read.logs {
            let l = logs.entry(seq).or_default();
            l.ack = r.ack;
            l.scores = r.scores;
            l.error = r.error;
        }
        Ok(ConnResult {
            logs,
            scores: read.scores,
            report: read.report,
            open_launches_max: read.open_launches_max,
            retransmits: s.retransmits,
        })
    })
}

fn launches_of(events: &[WireEvent], seq: u64) -> bool {
    matches!(events.get(seq as usize), Some(WireEvent::Launch { .. }))
}

/// The ladder's schedule: for each rung, its frame range.
fn plan(seconds: u64) -> (Vec<(u64, u64)>, Vec<Duration>) {
    let total_weight: f64 = LADDER.iter().map(|r| r.weight).sum();
    let mut ranges = Vec::new();
    let mut spans = Vec::new();
    let mut first = 0u64;
    for r in &LADDER {
        let secs = seconds as f64 * r.weight / total_weight;
        let n = ((r.rate * secs) as u64).max(stats::MIN_ANSWERED as u64 + 200);
        ranges.push((first, first + n));
        spans.push(Duration::from_secs_f64(n as f64 / r.rate));
        first += n;
    }
    (ranges, spans)
}

/// The live phase: daemon plus generator threads. Returns the logs of
/// every frame, the SCORES payloads, rungs, and the daemon's report.
struct Live {
    logs: BTreeMap<u64, FrameLog>,
    scores: BTreeMap<u64, Vec<u8>>,
    report_seen: bool,
    rungs: Vec<Rung>,
    /// Process CPU seconds (daemon and clients) spent during each rung.
    rung_cpu_s: Vec<f64>,
    daemon: DaemonReport,
    open_launches_max: u64,
    retransmits: u64,
    spawn_s: f64,
}

fn live(champion: &Champion, events: &[WireEvent], seconds: u64) -> BoxResult<Live> {
    let (ranges, spans) = plan(seconds);
    let n_events = ranges.last().map_or(0, |r| r.1) as usize;
    let frames: Vec<Vec<u8>> = events[..n_events]
        .iter()
        .enumerate()
        .map(|(i, ev)| wire::encode_frame(wire::KIND_EVENT, i as u64, &ev.encode()))
        .collect();
    let launches: Vec<bool> = events[..n_events]
        .iter()
        .map(|e| matches!(e, WireEvent::Launch { .. }))
        .collect();

    let t = Instant::now();
    let serve = ServeConfig::window(0, events.last().map_or(1, |e| e.minute() + 1));
    let cfg = DaemonConfig::new("127.0.0.1:0", serve, champion.trace.config().topology);
    let window = cfg.conn_window as u64;
    let daemon = Daemon::spawn(Arc::new(champion.artifact.clone()), cfg)?;
    let spawn_s = t.elapsed().as_secs_f64();
    let addr = daemon.addr();
    let epoch = Instant::now();

    let result: BoxResult<(Vec<ConnResult>, Vec<Rung>, Vec<f64>)> =
        std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel();
            let mut cmd_txs = Vec::new();
            let mut handles = Vec::new();
            for conn in 0..CONNS {
                let (tx, rx) = mpsc::channel();
                cmd_txs.push(tx);
                let done = done_tx.clone();
                let (frames, launches) = (&frames, &launches);
                handles.push(scope.spawn(move || {
                    connection(addr, conn, window, epoch, frames, launches, rx, done)
                }));
            }
            drop(done_tx);
            let mut rungs = Vec::new();
            let mut cpu = Vec::new();
            let mut failure = None;
            for (k, (&(first, end), span)) in ranges.iter().zip(&spans).enumerate() {
                let cpu0 = crate::host::process_cpu_s();
                let t0 = Instant::now() + Duration::from_millis(2);
                let deadline = t0 + span.mul_f64(2.0) + Duration::from_secs(1);
                for tx in &cmd_txs {
                    tx.send(Cmd::Rung {
                        first,
                        end,
                        rate: LADDER[k].rate,
                        t0,
                        deadline,
                    })
                    .ok();
                }
                let mut backlog = vec![0.0; BACKLOG_SAMPLES];
                // A connection that died never reports; its rung deadline
                // bounds the wait.
                let give_up = deadline + Duration::from_secs(5);
                for _ in 0..CONNS {
                    let wait = give_up.saturating_duration_since(Instant::now());
                    match done_rx.recv_timeout(wait) {
                        Ok(samples) => {
                            for (b, s) in backlog.iter_mut().zip(samples) {
                                *b += s;
                            }
                        }
                        Err(_) => failure = Some("a connection thread stopped early"),
                    }
                }
                cpu.push(crate::host::process_cpu_s() - cpu0);
                rungs.push(Rung {
                    rate: LADDER[k].rate,
                    answered: 0,
                    p99_ms: None,
                    failed: 0,
                    backlog_growth: backlog_growth(&backlog),
                });
                if failure.is_some() {
                    break;
                }
                // Above `high`, the first rung whose backlog grew ends the
                // ladder: every higher rung would only pile up more.
                let past_high = LADDER[..=k].iter().any(|r| r.name == "high");
                if past_high
                    && rungs
                        .last()
                        .is_some_and(|r| r.backlog_growth > stats::BACKLOG_SLACK)
                {
                    break;
                }
            }
            let deadline = Instant::now() + FINISH_DEADLINE;
            let seq = ranges.get(rungs.len().saturating_sub(1)).map_or(0, |r| r.1);
            for tx in &cmd_txs {
                tx.send(Cmd::Finish { seq, deadline }).ok();
            }
            drop(cmd_txs);
            let mut results = Vec::new();
            for h in handles {
                results.push(h.join().map_err(|_| "connection thread panicked")??);
            }
            match failure {
                Some(f) => Err(f.into()),
                None => Ok((results, rungs, cpu)),
            }
        });
    let (results, rungs, rung_cpu_s) = match result {
        Ok(r) => r,
        Err(e) => {
            daemon.drain();
            daemon.join().ok();
            return Err(e);
        }
    };
    let report_seen = results.iter().any(|r| r.report);
    if !report_seen {
        daemon.drain();
    }
    let report = daemon.join()?;
    let mut out = Live {
        logs: BTreeMap::new(),
        scores: BTreeMap::new(),
        report_seen,
        rungs,
        rung_cpu_s,
        daemon: report,
        open_launches_max: 0,
        retransmits: 0,
        spawn_s,
    };
    for r in results {
        out.logs.extend(r.logs);
        out.scores.extend(r.scores);
        out.open_launches_max = out.open_launches_max.max(r.open_launches_max);
        out.retransmits += r.retransmits;
    }
    for (k, rung) in out.rungs.iter_mut().enumerate() {
        let (first, end) = ranges[k];
        let mut lat = Vec::new();
        for seq in first..end {
            match out.logs.get(&seq) {
                Some(l) if l.ack > 0 && l.error == 0 => lat.push((l.ack - l.due) as f64 / 1e6),
                _ => rung.failed += 1,
            }
        }
        rung.answered = lat.len();
        rung.p99_ms = percentile(&lat, 99).map(|p| p.value);
    }
    Ok(out)
}

/// The admitted frames fed through a fresh in-process session: its
/// response checksum and the SCORES payload of every launch.
struct InProcess {
    response_fnv: u64,
    scores: BTreeMap<u64, Vec<u8>>,
    /// Per admitted frame: seconds inside `ScoreSession::handle`.
    session_s: Vec<f64>,
    codec_s: f64,
}

fn in_process(
    champion: &Champion,
    events: &[WireEvent],
    live: &Live,
    timed: bool,
) -> BoxResult<InProcess> {
    let n_events = live.logs.len() as u64 - 1;
    let serve = ServeConfig::window(0, events.last().map_or(1, |e| e.minute() + 1));
    let mut session =
        ScoreSession::new(&champion.artifact, &serve, champion.trace.config().topology)?;
    let mut out = InProcess {
        response_fnv: 0,
        scores: BTreeMap::new(),
        session_s: Vec::new(),
        codec_s: 0.0,
    };
    for seq in 0..live.daemon.n_admitted {
        let (kind, payload) = if seq == n_events {
            (wire::KIND_FINISH, Vec::new())
        } else {
            (wire::KIND_EVENT, events[seq as usize].encode())
        };
        let responses = if timed {
            let bytes = wire::encode_frame(kind, seq, &payload);
            let t = Instant::now();
            let (frame, _) = wire::decode_frame(&bytes)?;
            if kind == wire::KIND_EVENT {
                std::hint::black_box(WireEvent::decode(&frame.payload)?);
            }
            out.codec_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let rs = session.handle(kind, seq, &payload)?;
            out.session_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for r in &rs {
                let (frame, _) = wire::decode_frame(&r.bytes)?;
                match frame.header.kind {
                    wire::KIND_SCORES => {
                        std::hint::black_box(wire::ScoresPayload::decode(&frame.payload)?);
                    }
                    wire::KIND_ERROR => {
                        std::hint::black_box(ErrorPayload::decode(&frame.payload)?);
                    }
                    wire::KIND_REPORT => {
                        std::hint::black_box(wire::ReportPayload::decode(&frame.payload)?);
                    }
                    _ => {}
                }
            }
            out.codec_s += t.elapsed().as_secs_f64();
            rs
        } else {
            session.handle(kind, seq, &payload)?
        };
        for r in responses {
            if r.kind == wire::KIND_SCORES {
                let (frame, _) = wire::decode_frame(&r.bytes)?;
                out.scores.insert(r.request_id, frame.payload);
            }
        }
    }
    if !session.finished() {
        for r in session.finalize()? {
            if r.kind == wire::KIND_SCORES {
                let (frame, _) = wire::decode_frame(&r.bytes)?;
                out.scores.insert(r.request_id, frame.payload);
            }
        }
    }
    out.response_fnv = session.response_fnv();
    Ok(out)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> BoxResult<Outcome> {
    let k = if traced { 1 } else { INPUTS };
    let (mut champions, times) = setup::train_set(seed, DAYS, FeatureSpec::no_telemetry(), k)?;
    champions.truncate(1);
    let champion = champions.pop().ok_or("no champion was set up")?;
    let (ranges, _) = plan(seconds);
    let n_needed = ranges.last().map_or(0, |r| r.1);
    let minutes = n_needed.div_ceil(51) + 1;
    let events = synth_events(&synth_config(seed, minutes));

    let mut out = Outcome::default();
    let live = live(&champion, &events, seconds)?;
    let n_frames = live.logs.len() as u64;
    out.attempted = n_frames;

    // Correctness gate: the daemon's response stream equals a fresh
    // in-process session fed the admitted frames, and every SCORES the
    // clients received equals the session's.
    let t = Instant::now();
    let reference = in_process(&champion, &events, &live, false)?;
    let untimed_s = t.elapsed().as_secs_f64();
    if reference.response_fnv != live.daemon.response_fnv {
        out.fail(1, "daemon response_fnv differs from the in-process session");
    }
    let wrong_scores = live
        .scores
        .iter()
        .filter(|(seq, p)| reference.scores.get(seq) != Some(p))
        .count() as u64;
    out.fail(wrong_scores, "SCORES differ from the in-process session");
    let errors = live.logs.values().filter(|l| l.error > 0).count() as u64;
    out.fail(errors, "frames answered with a non-overload error");
    // A frame is answered by its ACK, a launch by its SCORES too.
    let unanswered = live
        .logs
        .iter()
        .filter(|(&seq, l)| {
            let launch = seq + 1 < n_frames && launches_of(&events, seq);
            l.error == 0 && (l.ack == 0 || (launch && l.scores == 0))
        })
        .count() as u64;
    out.unanswered(unanswered);
    if !live.report_seen {
        out.context("finish_unanswered", 1.0);
    }

    let rungs = &live.rungs;
    let latencies = |k: usize| -> Vec<f64> {
        let (first, end) = ranges[k];
        (first..end)
            .filter_map(|s| live.logs.get(&s))
            .filter(|l| l.ack > 0 && l.error == 0)
            .map(|l| (l.ack - l.due) as f64 / 1e6)
            .collect()
    };
    for (name, p50_name, p99_name) in [
        ("low", "ack_p50_ms.low", "ack_p99_ms.low"),
        ("high", "ack_p50_ms.high", "ack_p99_ms.high"),
    ] {
        let k = LADDER.iter().position(|r| r.name == name).unwrap_or(0);
        let lat = latencies(k);
        out.set(p50_name, percentile(&lat, 50).map_or(0.0, |p| p.value));
        if let Some(p99) = percentile(&lat, 99) {
            out.set(p99_name, p99.value);
            out.context(format!("ack_n.{name}"), p99.n as f64);
            out.context(format!("ack_p99_beyond.{name}"), p99.beyond as f64);
        }
    }
    for (spec, rung) in LADDER.iter().zip(rungs).skip(1) {
        out.rung(spec.name, rung);
    }
    // The warm-up rung only fills caches and starts threads.
    out.set(
        "sustained_eps",
        stats::sustained_rate(&rungs[1..]).unwrap_or(0.0),
    );

    // Delivered throughput at the high rung: scored samples answered per
    // second between its first due time and its last answer, and per
    // CPU second the process (daemon and clients) spent on the rung.
    let high = LADDER.iter().position(|r| r.name == "high").unwrap_or(0);
    let (first, end) = ranges[high];
    let mut samples = 0u64;
    let mut t_first = u64::MAX;
    let mut t_last = 0u64;
    for seq in first..end {
        if let Some(l) = live.logs.get(&seq) {
            t_first = t_first.min(l.due);
            t_last = t_last.max(l.ack);
            if let (Some(p), WireEvent::Launch { .. }) =
                (live.scores.get(&seq), &events[seq as usize])
            {
                samples += wire::ScoresPayload::decode(p)?.entries.len() as u64;
            }
        }
    }
    out.set(
        "samples_per_s",
        samples as f64 / ((t_last.saturating_sub(t_first)) as f64 / 1e9),
    );
    out.set("samples_per_cpu_s", samples as f64 / live.rung_cpu_s[high]);
    out.set("setup_s", times.total_s + live.spawn_s);
    out.context("frames", n_frames as f64);
    out.context("offenders", champion.artifact.offenders().len() as f64);
    out.context("overloads", live.daemon.n_overloads as f64);

    if !traced {
        return Ok(out);
    }

    // The traced phase: the admitted frames again through a timed
    // in-process session, then the adaptive path on the champion's own
    // trace. Every timed call is booked, so the residual is the glue.
    let mut ledger = Ledger::start();
    let t = Instant::now();
    let timed = in_process(&champion, &events, &live, true)?;
    let timed_wall = t.elapsed().as_secs_f64();
    let session_total: f64 = timed.session_s.iter().sum();
    ledger.add("sbed.session", session_total);
    ledger.add("sbed.codec", timed.codec_s);
    if timed.response_fnv != reference.response_fnv {
        out.fail(
            1,
            "the timed in-process session differs from the untimed one",
        );
    }
    let (serial, serial_s) = ledger.time("parkit.serial_session", || {
        let t = Instant::now();
        crate::steps::serially(|| in_process(&champion, &events, &live, false))
            .map(|r| (r, t.elapsed().as_secs_f64()))
    })?;
    if serial.response_fnv != reference.response_fnv {
        out.fail(1, "the in-process session at SBE_THREADS=1 differs");
    }
    crate::adapt::layers(&champion, &mut out, &mut ledger)?;
    let (_, residual) = ledger.close()?;
    let session_us: Vec<f64> = timed.session_s.iter().map(|s| s * 1e6).collect();
    // Transport time and generator lateness are read on the `high` rung
    // (and lateness on `low` too), where the client window does not hold
    // frames back; above capacity both would only restate the backlog.
    let rung_range = |name: &str| {
        let k = LADDER.iter().position(|r| r.name == name).unwrap_or(0);
        ranges[k].0..ranges[k].1
    };
    let mut transport = Vec::new();
    let mut scores_wait = Vec::new();
    let mut late: f64 = 0.0;
    for (&seq, l) in &live.logs {
        let answered = l.ack > 0 && l.error == 0;
        if answered && rung_range("high").contains(&seq) {
            if let Some(s) = timed.session_s.get(seq as usize) {
                transport.push((l.ack - l.due) as f64 / 1e6 - s * 1e3);
            }
        }
        if answered && l.scores > 0 {
            scores_wait.push((l.scores - l.ack) as f64 / 1e6);
        }
        let probed = rung_range("low").contains(&seq) || rung_range("high").contains(&seq);
        if probed && l.sent > 0 {
            late = late.max(l.sent.saturating_sub(l.due) as f64 / 1e6);
        }
    }
    let sent: u64 = live.logs.values().map(|l| u64::from(l.sends)).sum();
    out.setup_layers(&times);
    out.set(
        "sbed.session_us.p50",
        percentile(&session_us, 50).map_or(0.0, |p| p.value),
    );
    out.set(
        "sbed.session_us.p99",
        percentile(&session_us, 99).map_or(0.0, |p| p.value),
    );
    out.set("sbed.session_s", session_total);
    out.set(
        "sbed.codec_us",
        timed.codec_s * 1e6 / live.daemon.n_admitted.max(1) as f64,
    );
    out.set(
        "sbed.transport_ms.p50",
        percentile(&transport, 50).map_or(0.0, |p| p.value),
    );
    out.set(
        "sbed.transport_ms.p99",
        percentile(&transport, 99).map_or(0.0, |p| p.value),
    );
    out.set("sbed.overloads", live.daemon.n_overloads as f64);
    out.set("sbed.retransmits", live.retransmits as f64);
    out.set(
        "sbed.useful_share",
        live.daemon.n_admitted as f64 / sent.max(1) as f64,
    );
    out.set("sbed.open_launches.max", live.open_launches_max as f64);
    out.set(
        "sbed.scores_wait_ms.p50",
        percentile(&scores_wait, 50).map_or(0.0, |p| p.value),
    );
    out.set("sbed.gen_late_ms.max", late);
    let r = &live.daemon.report;
    out.context("session.flushes", r.n_batches as f64);
    out.context(
        "session.rows_per_flush",
        r.n_stage2 as f64 / r.n_batches.max(1) as f64,
    );
    out.context(
        "session.stage2_share",
        r.n_stage2 as f64 / r.n_requests.max(1) as f64,
    );
    out.set("parkit.serial_ratio", untimed_s / serial_s);
    out.set("residual_s", residual);
    out.set("trace_overhead", timed_wall / untimed_s);
    out.context("session_frames", session_us.len() as f64);
    out.absent_layers(
        &["titan_sim"],
        "no-telemetry champion: the fleet and adaptive paths issue no telemetry query",
    );
    Ok(out)
}
