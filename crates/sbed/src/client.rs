//! The wire client and the mock-fleet load driver.
//!
//! [`Connection`] is a thin blocking client for one TCP connection:
//! frame encoding, response decoding, nothing clever. [`run_fleet`]
//! drives many connections at once against one daemon — the mock
//! fleet: a shared event list is partitioned round-robin, every
//! connection ships its slice in increasing sequence order with a
//! bounded in-flight window, retransmits on typed overload responses,
//! and (for designated failure connections) first sends every k-th
//! frame with a corrupted checksum to exercise the daemon's damage
//! handling live before retransmitting it clean.
//!
//! Because the daemon sequences by request id, the fleet's scores are
//! bit-identical to feeding the same event list through one
//! [`crate::session::ScoreSession`] in process — regardless of
//! connection count, interleaving, overloads, or injected corruption.
//! The parity suite holds it to that.
//!
//! Latency observations go through an injected [`obskit::Clock`]; with
//! the deterministic [`obskit::NullClock`] all latencies are zero and
//! the fleet outcome is reproducible byte for byte.

use crate::wire::{
    self, ErrorPayload, ReportPayload, ScoresPayload, WireEvent, KIND_ACK, KIND_ERROR, KIND_EVENT,
    KIND_FINISH, KIND_REPORT, KIND_SCORES,
};
use crate::{Result, SbedError};
use obskit::{Clock, Recorder};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Event admitted.
    Ack,
    /// Per-node scores for one launch.
    Scores(ScoresPayload),
    /// Typed rejection.
    Error(ErrorPayload),
    /// End-of-stream report.
    Report(ReportPayload),
}

/// A decoded response with the request it answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request this response answers.
    pub request_id: u64,
    /// The body.
    pub body: ResponseBody,
}

/// A blocking client connection.
#[derive(Debug)]
pub struct Connection {
    /// The socket, read through a buffer so back-to-back responses come
    /// from one read; writes go straight to the socket.
    stream: BufReader<TcpStream>,
}

impl Connection {
    /// Connects (with TCP_NODELAY for request/response latency).
    ///
    /// # Errors
    ///
    /// Socket I/O.
    pub fn connect(addr: SocketAddr) -> Result<Connection> {
        let stream = TcpStream::connect(addr).map_err(|e| SbedError::Io {
            context: format!("connecting to {addr}"),
            source: e,
        })?;
        stream.set_nodelay(true).ok();
        Ok(Connection {
            stream: BufReader::new(stream),
        })
    }

    /// Sends raw frame bytes.
    ///
    /// # Errors
    ///
    /// Socket I/O.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream
            .get_mut()
            .write_all(bytes)
            .map_err(|e| SbedError::Io {
                context: "sending frame".into(),
                source: e,
            })
    }

    /// Sends one event under sequence number `seq`.
    ///
    /// # Errors
    ///
    /// Socket I/O.
    pub fn send_event(&mut self, seq: u64, event: &WireEvent) -> Result<()> {
        self.send_raw(&wire::encode_frame(KIND_EVENT, seq, &event.encode()))
    }

    /// Sends the FINISH request under sequence number `seq`.
    ///
    /// # Errors
    ///
    /// Socket I/O.
    pub fn send_finish(&mut self, seq: u64) -> Result<()> {
        self.send_raw(&wire::encode_frame(KIND_FINISH, seq, &[]))
    }

    /// Receives one response. `Ok(None)` means the server closed the
    /// connection cleanly between frames.
    ///
    /// # Errors
    ///
    /// Socket I/O, frame damage, and non-response frame kinds.
    pub fn recv(&mut self) -> Result<Option<Response>> {
        let mut hdr = [0u8; wire::HEADER_LEN];
        let mut got = 0usize;
        while got < hdr.len() {
            let window = hdr.get_mut(got..).unwrap_or(&mut []);
            match self.stream.read(window) {
                Ok(0) => {
                    if got == 0 {
                        return Ok(None);
                    }
                    return Err(SbedError::Truncated {
                        what: "response header",
                        need: wire::HEADER_LEN,
                        have: got,
                    });
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(SbedError::Io {
                        context: "receiving response".into(),
                        source: e,
                    })
                }
            }
        }
        let header = wire::validate_header(&hdr)?;
        let mut payload = vec![0u8; header.len as usize];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| SbedError::Io {
                context: "receiving response payload".into(),
                source: e,
            })?;
        let computed = mlkit::artifact::fnv1a64(&payload);
        if computed != header.checksum {
            return Err(SbedError::Checksum {
                stored: header.checksum,
                computed,
            });
        }
        let body = match header.kind {
            KIND_ACK => ResponseBody::Ack,
            KIND_SCORES => ResponseBody::Scores(ScoresPayload::decode(&payload)?),
            KIND_ERROR => ResponseBody::Error(ErrorPayload::decode(&payload)?),
            KIND_REPORT => ResponseBody::Report(ReportPayload::decode(&payload)?),
            other => {
                return Err(SbedError::Protocol {
                    reason: format!("server sent non-response kind {other:#06x}"),
                })
            }
        };
        Ok(Some(Response {
            request_id: header.request_id,
            body,
        }))
    }
}

/// Mock-fleet shape and failure injection.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Concurrent connections (simulated fleet nodes).
    pub conns: usize,
    /// Per-connection in-flight window (unanswered requests).
    pub window: usize,
    /// The first `failure_conns` connections are failure nodes.
    pub failure_conns: usize,
    /// Failure nodes first send every `corrupt_every`-th of their
    /// frames with a flipped checksum byte (0 disables), then
    /// retransmit clean after the typed rejection.
    pub corrupt_every: u64,
}

impl FleetConfig {
    /// `conns` healthy connections with a 32-frame window.
    pub fn healthy(conns: usize) -> FleetConfig {
        FleetConfig {
            conns,
            window: 32,
            failure_conns: 0,
            corrupt_every: 0,
        }
    }
}

/// Per-connection driver statistics.
#[derive(Debug, Clone, Default)]
pub struct ConnStats {
    /// Send→ACK (admission) latencies, nanoseconds, completion order
    /// (all zero under [`obskit::NullClock`]).
    pub latencies_ns: Vec<u64>,
    /// Frames retransmitted after a typed overload response.
    pub overload_retries: u64,
    /// Frames deliberately sent corrupted (and their typed rejections
    /// observed) before the clean retransmit.
    pub corruption_retries: u64,
}

/// What the whole fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Every SCORES response, keyed by request id (= global event
    /// index).
    pub scores: BTreeMap<u64, ScoresPayload>,
    /// The FINISH report.
    pub report: ReportPayload,
    /// Per-connection stats, connection order.
    pub stats: Vec<ConnStats>,
    /// ACKs received across the fleet.
    pub n_acks: u64,
}

impl FleetOutcome {
    /// Folds every connection's latencies into `rec` as the
    /// `sbed.latency_ns` histogram plus request/retry counters —
    /// connection order, so the snapshot is deterministic for a
    /// deterministic clock.
    pub fn observe(&self, rec: &mut Recorder) {
        for s in &self.stats {
            for &ns in &s.latencies_ns {
                rec.observe("sbed.latency_ns", ns as f64);
            }
            rec.incr("sbed.fleet_overload_retries", s.overload_retries);
            rec.incr("sbed.fleet_corruption_retries", s.corruption_retries);
        }
        rec.incr("sbed.fleet_acks", self.n_acks);
        rec.incr("sbed.fleet_scores", self.scores.len() as u64);
    }
}

/// One connection's work item.
struct Job {
    seq: u64,
    bytes: Vec<u8>,
    is_launch: bool,
    is_finish: bool,
    /// Already sent corrupted once — retransmits go out clean so a
    /// `corrupt_every` of 1 cannot loop forever.
    corrupted_once: bool,
}

struct ConnOutcome {
    scores: BTreeMap<u64, ScoresPayload>,
    report: Option<ReportPayload>,
    stats: ConnStats,
    n_acks: u64,
}

/// Flips one checksum byte so the frame arrives damaged but
/// well-framed (header length intact → the daemon rejects and the
/// connection survives).
fn corrupt(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(b) = out.get_mut(20) {
        *b ^= 0xff;
    }
    out
}

fn drive_conn(
    addr: SocketAddr,
    jobs: Vec<Job>,
    window: usize,
    corrupt_every: u64,
    clock: &dyn Clock,
) -> Result<ConnOutcome> {
    let mut conn = Connection::connect(addr)?;
    let mut pending: VecDeque<Job> = jobs.into();
    let expected_scores = pending.iter().filter(|j| j.is_launch).count();
    let expects_report = pending.iter().any(|j| j.is_finish);
    // seq → (job, send time, corrupted copy outstanding)
    let mut outstanding: BTreeMap<u64, (Job, u64, bool)> = BTreeMap::new();
    let mut out = ConnOutcome {
        scores: BTreeMap::new(),
        report: None,
        stats: ConnStats::default(),
        n_acks: 0,
    };
    let mut sent = 0u64;
    let mut overload_backoff = 0u32;
    loop {
        while outstanding.len() < window {
            let Some(mut job) = pending.pop_front() else {
                break;
            };
            sent += 1;
            let mangle =
                corrupt_every > 0 && sent.is_multiple_of(corrupt_every) && !job.corrupted_once;
            let wire_bytes = if mangle {
                corrupt(&job.bytes)
            } else {
                job.bytes.clone()
            };
            if mangle {
                job.corrupted_once = true;
            }
            conn.send_raw(&wire_bytes)?;
            outstanding.insert(job.seq, (job, clock.now_nanos(), mangle));
        }
        let done = pending.is_empty()
            && outstanding.is_empty()
            && out.scores.len() >= expected_scores
            && (!expects_report || out.report.is_some());
        if done {
            return Ok(out);
        }
        let resp = match conn.recv()? {
            Some(r) => r,
            None => {
                return Err(SbedError::Protocol {
                    reason: "server closed with requests outstanding".into(),
                })
            }
        };
        let id = resp.request_id;
        match resp.body {
            ResponseBody::Ack => {
                out.n_acks += 1;
                overload_backoff = 0;
                // Latency is send→ACK: the admission latency, measured
                // uniformly for every event kind (a launch's SCORES
                // arrives whenever its batch flushes, which measures
                // batching policy, not the daemon).
                if let Some((_job, t0, _)) = outstanding.remove(&id) {
                    out.stats
                        .latencies_ns
                        .push(clock.now_nanos().saturating_sub(t0));
                }
            }
            ResponseBody::Scores(p) => {
                out.scores.insert(id, p);
                overload_backoff = 0;
                // The launch's window slot was released by its ACK;
                // nothing outstanding to clear here.
            }
            ResponseBody::Report(r) => {
                out.report = Some(r);
                outstanding.remove(&id);
            }
            ResponseBody::Error(e)
                if e.code == wire::ERR_OVERLOAD || e.code == wire::ERR_MALFORMED =>
            {
                // Typed refusal: retransmit the clean frame. Overloads
                // back off briefly so a saturated daemon can drain.
                let Some((job, _, was_corrupt)) = outstanding.remove(&id) else {
                    return Err(SbedError::Protocol {
                        reason: format!("rejection for unknown sequence {id}"),
                    });
                };
                if e.code == wire::ERR_OVERLOAD {
                    out.stats.overload_retries += 1;
                    overload_backoff = (overload_backoff + 1).min(6);
                    std::thread::sleep(Duration::from_micros(50u64 << overload_backoff));
                } else if was_corrupt {
                    out.stats.corruption_retries += 1;
                } else {
                    return Err(SbedError::Rejected {
                        code: e.code,
                        message: e.message,
                    });
                }
                // Resend next loop iteration, clean, same sequence.
                pending.push_front(job);
            }
            ResponseBody::Error(e) => {
                return Err(SbedError::Rejected {
                    code: e.code,
                    message: e.message,
                });
            }
        }
    }
}

/// Drives the mock fleet: partitions `events` round-robin over
/// `cfg.conns` connections (event index = request id = admission
/// sequence), appends a FINISH from the connection owning the final
/// sequence, and runs every connection on its own thread.
///
/// # Errors
///
/// Connection failures, protocol violations, and non-retryable
/// rejections. A missing FINISH report is a protocol violation.
pub fn run_fleet(
    addr: SocketAddr,
    events: &[WireEvent],
    cfg: &FleetConfig,
    clock: &dyn Clock,
) -> Result<FleetOutcome> {
    if cfg.conns == 0 || cfg.window == 0 {
        return Err(SbedError::InvalidConfig {
            reason: "fleet needs at least one connection and a window of at least 1".into(),
        });
    }
    // Partition: event i goes to connection i % conns, so every
    // connection's sequence numbers increase — the invariant that
    // makes the daemon's sequencer deadlock-free under any window.
    let mut slices: Vec<Vec<Job>> = (0..cfg.conns).map(|_| Vec::new()).collect();
    for (i, ev) in events.iter().enumerate() {
        let seq = i as u64;
        let job = Job {
            seq,
            bytes: wire::encode_frame(KIND_EVENT, seq, &ev.encode()),
            is_launch: matches!(ev, WireEvent::Launch { .. }),
            is_finish: false,
            corrupted_once: false,
        };
        if let Some(slot) = slices.get_mut(i % cfg.conns) {
            slot.push(job);
        }
    }
    let finish_seq = events.len() as u64;
    let finish_conn = events.len() % cfg.conns;
    if let Some(slot) = slices.get_mut(finish_conn) {
        slot.push(Job {
            seq: finish_seq,
            bytes: wire::encode_frame(KIND_FINISH, finish_seq, &[]),
            is_launch: false,
            is_finish: true,
            corrupted_once: false,
        });
    }

    let results: Vec<Result<ConnOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .into_iter()
            .enumerate()
            .map(|(c, jobs)| {
                let corrupt_every = if c < cfg.failure_conns {
                    cfg.corrupt_every
                } else {
                    0
                };
                let window = cfg.window;
                scope.spawn(move || drive_conn(addr, jobs, window, corrupt_every, clock))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(SbedError::Internal {
                    reason: "fleet thread panicked".into(),
                }),
            })
            .collect()
    });

    let mut outcome = FleetOutcome {
        scores: BTreeMap::new(),
        report: ReportPayload::default(),
        stats: Vec::with_capacity(cfg.conns),
        n_acks: 0,
    };
    let mut report = None;
    for r in results {
        let mut c = r?;
        outcome.scores.append(&mut c.scores);
        outcome.n_acks += c.n_acks;
        if c.report.is_some() {
            report = c.report;
        }
        outcome.stats.push(c.stats);
    }
    outcome.report = report.ok_or(SbedError::Protocol {
        reason: "fleet finished without a FINISH report".into(),
    })?;
    Ok(outcome)
}
