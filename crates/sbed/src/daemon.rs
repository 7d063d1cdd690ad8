//! The TCP scoring daemon.
//!
//! Threading model (std blocking I/O, no async runtime):
//!
//! * one **accept** thread (non-blocking listener, poll + sleep) that
//!   spawns one reader thread per connection;
//! * per connection, a **reader** thread that frames and checks
//!   requests through a `BufReader`, answers transport-level damage and
//!   its own refusals with typed error responses, and enqueues
//!   well-formed frames;
//! * one **engine** thread that owns the [`ScoreSession`]. It takes
//!   every message already queued (at most 1024), collects
//!   each connection's replies in the order it makes them, and then
//!   writes each connection's bytes with one write.
//!
//! A connection's outbound half is its socket's write half behind a
//! lock, shared by its reader and the engine.
//!
//! Determinism under concurrency: the request id of every frame is its
//! *admission sequence number*. The engine holds early arrivals in a
//! bounded reorder buffer and feeds the session strictly in sequence
//! order, so the session — and with it every score, every metric, and
//! the rolling response checksum — is a pure function of the frame
//! sequence, no matter how many connections or threads carried it.
//! Each batch is assembled and scored on the engine thread.
//!
//! Back-pressure is bounded and typed at three points: a per-connection
//! in-flight window (checked by the reader), the engine's bounded
//! request queue (1024 frames, shared by all connections), and the
//! bounded reorder buffer (checked by the engine). All three refuse with
//! a [`wire::ERR_OVERLOAD`] response (the client retransmits) — requests
//! are never silently dropped. A frame holds its window slot until the
//! engine collects its first reply (an ACK, an error or the REPORT),
//! before writing it, so a client that sends only after reading a
//! frame's first reply never meets a full window. A launch's SCORES
//! comes later and holds no slot: every launch still awaiting its
//! SCORES has at least one stage-2 request pending, and a batch flushes
//! at `batch_capacity` requests, so open launches stay bounded without
//! the window.
//!
//! Replies are bounded by the socket, not by daemon memory: the engine
//! holds at most one burst's replies, and each write carries a timeout.
//! A client that stops reading fills its socket buffers; the next write
//! to it then fails or times out, the daemon shuts that connection down
//! (its reader stops too) and the engine carries on with the others. Such
//! a client costs at most its socket buffers and one write timeout.
//!
//! Drain ([`Daemon::drain`]): stop accepting connections and admitting
//! frames, finish everything already queued (flush pending batches,
//! answer open launches), then stop. A drained run's recorded log
//! replays bit-identically: [`ScoreSession::finalize`] applies the same
//! end-of-log rule the replayer does.

use crate::replay::LogWriter;
use crate::session::ScoreSession;
use crate::wire::{self, ReportPayload};
use crate::{Result, SbedError};
use mlkit::artifact::fnv1a64;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use streamd::artifact::PipelineArtifact;
use streamd::serve::ServeConfig;
use titan_sim::topology::Topology;

/// How long blocked threads sleep between shutdown-flag checks. Pure
/// liveness tuning: no scored value depends on it.
const POLL: Duration = Duration::from_millis(5);
/// Socket read timeout so readers notice shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(100);
/// Engine request-queue bound: frames queued across all connections
/// awaiting the sequencer, and the most messages one engine burst takes.
const QUEUE_CAPACITY: usize = 1024;
/// Socket write timeout: the longest one write may wait for socket
/// buffer space. A write that waits it out closes its connection, so a
/// client that stops reading holds the engine up at most this long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind (`"127.0.0.1:0"` for an ephemeral test port).
    pub listen: String,
    /// Scoring window and batching.
    pub serve: ServeConfig,
    /// The node universe events are validated against.
    pub topology: Topology,
    /// Per-connection in-flight window (requests admitted whose first
    /// reply the engine has not yet collected).
    pub conn_window: usize,
    /// Reorder-buffer bound (early arrivals held for the sequencer).
    pub reorder_capacity: usize,
    /// If set, every admitted frame is appended to this log for replay.
    pub record_log: Option<PathBuf>,
    /// Shut down once a FINISH frame has been processed (the default;
    /// a long-lived daemon would set this false and rely on
    /// [`Daemon::drain`]).
    pub exit_on_finish: bool,
}

impl DaemonConfig {
    /// A config with the defaults: 64-frame connection window,
    /// 4096-frame reorder buffer, no recording, exit on finish. The
    /// engine's request queue holds 1024 frames, whatever the config.
    pub fn new(listen: &str, serve: ServeConfig, topology: Topology) -> DaemonConfig {
        DaemonConfig {
            listen: listen.to_string(),
            serve,
            topology,
            conn_window: 64,
            reorder_capacity: 4096,
            record_log: None,
            exit_on_finish: true,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.conn_window == 0 || self.reorder_capacity == 0 {
            return Err(SbedError::InvalidConfig {
                reason: "conn_window and reorder_capacity must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// What the engine thread hands back at shutdown.
struct EngineOutcome {
    result: Result<()>,
    report: ReportPayload,
    snapshot: String,
    response_fnv: u64,
    n_rejected: u64,
    n_admitted: u64,
    n_swaps_rejected: u64,
}

/// The daemon's end-of-run summary.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// The session's deterministic report (the same payload a FINISH
    /// response carries).
    pub report: ReportPayload,
    /// Final metrics snapshot JSON.
    pub snapshot: String,
    /// Rolling checksum over every session response frame, in emission
    /// order — replaying the recorded log must reproduce this exactly.
    pub response_fnv: u64,
    /// Admitted events the session refused with a typed rejection.
    pub n_rejected: u64,
    /// Frames admitted through the sequencer.
    pub n_admitted: u64,
    /// Connections accepted.
    pub n_connections: u64,
    /// Transport-level rejections (framing damage, checksum
    /// mismatches) answered by readers. Not part of the replay surface.
    pub n_transport_errors: u64,
    /// Overload refusals (connection window, queue, reorder buffer).
    pub n_overloads: u64,
    /// Scheduled hot swaps the engine refused (bad lineage, schema
    /// mismatch, stale generation, or scheduled past the end of the
    /// run). Refused swaps are never logged, so a recorded log only
    /// ever contains swaps a replay will accept.
    pub n_swaps_rejected: u64,
}

/// One connection as its reader and the engine share it.
struct Conn {
    /// Accept order; keys the engine's per-burst outboxes.
    id: u64,
    /// The socket's write half.
    out: Mutex<TcpStream>,
    /// Requests queued for the engine whose first reply it has not yet
    /// collected.
    inflight: AtomicUsize,
}

impl Conn {
    /// Writes `bytes` with one call. The socket's write timeout bounds
    /// the time that call may wait for buffer space, so a short write
    /// means it waited out `WRITE_TIMEOUT`. A write that fails or times
    /// out shuts the socket down: its reader's next read ends, and later
    /// writes fail at once.
    fn send(&self, bytes: &[u8]) {
        let mut stream = lock(&self.out);
        let written = loop {
            match stream.write(bytes) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                other => break other,
            }
        };
        if !matches!(written, Ok(n) if n == bytes.len()) {
            stream.shutdown(Shutdown::Both).ok();
        }
    }
}

/// Encodes a direct (non-session) error response. These answer frames
/// the session never handled, so they are outside the replay surface by
/// design.
fn error_frame(request_id: u64, code: u16, message: &str) -> Vec<u8> {
    let payload = wire::ErrorPayload {
        code,
        message: message.to_string(),
    }
    .encode();
    wire::encode_frame(wire::KIND_ERROR, request_id, &payload)
}

/// One frame waiting for the sequencer.
struct PendingFrame {
    kind: u16,
    payload: Vec<u8>,
    conn: Arc<Conn>,
}

enum ToEngine {
    Frame { seq: u64, frame: PendingFrame },
    Swap { at_seq: u64, bytes: Vec<u8> },
    Drain,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn io_err(context: &str, source: std::io::Error) -> SbedError {
    SbedError::Io {
        context: context.to_string(),
        source,
    }
}

/// A running daemon. Spawn with [`Daemon::spawn`], stop with a client
/// FINISH (when `exit_on_finish`) or [`Daemon::drain`], then collect
/// the report with [`Daemon::join`].
pub struct Daemon {
    addr: SocketAddr,
    draining: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    engine_tx: Option<SyncSender<ToEngine>>,
    engine: Option<JoinHandle<EngineOutcome>>,
    accept: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    n_connections: Arc<AtomicU64>,
    transport_errors: Arc<AtomicU64>,
    n_overloads: Arc<AtomicU64>,
}

impl Daemon {
    /// Binds, validates the artifact/config pair, and starts the
    /// accept and engine threads.
    ///
    /// # Errors
    ///
    /// Bind/thread-spawn failures and config/artifact validation
    /// (including a telemetry-needing feature spec).
    pub fn spawn(artifact: Arc<PipelineArtifact>, cfg: DaemonConfig) -> Result<Daemon> {
        cfg.validate()?;
        // Fail fast on artifact/config problems: build (and drop) a
        // session here, where the error can reach the caller, rather
        // than letting the engine thread die silently at startup.
        drop(ScoreSession::new(&artifact, &cfg.serve, cfg.topology)?);

        let listener = TcpListener::bind(&cfg.listen)
            .map_err(|e| io_err(&format!("binding {}", cfg.listen), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("resolving bound address", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("setting listener non-blocking", e))?;

        let draining = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let n_connections = Arc::new(AtomicU64::new(0));
        let transport_errors = Arc::new(AtomicU64::new(0));
        let n_overloads = Arc::new(AtomicU64::new(0));
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let (engine_tx, engine_rx) = mpsc::sync_channel::<ToEngine>(QUEUE_CAPACITY);

        let engine = {
            let artifact = Arc::clone(&artifact);
            let cfg = cfg.clone();
            let draining = Arc::clone(&draining);
            let shutdown = Arc::clone(&shutdown);
            let n_overloads = Arc::clone(&n_overloads);
            std::thread::Builder::new()
                .name("sbed-engine".into())
                .spawn(move || {
                    let outcome =
                        run_engine(artifact.as_ref(), &cfg, engine_rx, &draining, &n_overloads);
                    // Whatever ended the engine ends the daemon.
                    draining.store(true, Ordering::SeqCst);
                    shutdown.store(true, Ordering::SeqCst);
                    outcome
                })
                .map_err(|e| io_err("spawning engine thread", e))?
        };

        let accept = {
            let engine_tx = engine_tx.clone();
            let draining = Arc::clone(&draining);
            let shutdown = Arc::clone(&shutdown);
            let n_connections = Arc::clone(&n_connections);
            let transport_errors = Arc::clone(&transport_errors);
            let n_overloads = Arc::clone(&n_overloads);
            let conn_handles = Arc::clone(&conn_handles);
            let conn_window = cfg.conn_window;
            std::thread::Builder::new()
                .name("sbed-accept".into())
                .spawn(move || {
                    run_accept(
                        listener,
                        engine_tx,
                        draining,
                        shutdown,
                        n_connections,
                        transport_errors,
                        n_overloads,
                        conn_handles,
                        conn_window,
                    )
                })
                .map_err(|e| io_err("spawning accept thread", e))?
        };

        Ok(Daemon {
            addr,
            draining,
            shutdown,
            engine_tx: Some(engine_tx),
            engine: Some(engine),
            accept: Some(accept),
            conn_handles,
            n_connections,
            transport_errors,
            n_overloads,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Schedules a zero-downtime artifact hot swap at an admission
    /// boundary: `envelope` (full `mlkit::artifact` envelope bytes with
    /// a lineage header naming the current champion as parent) takes
    /// over scoring after every frame below `at_seq` is answered and
    /// before frame `at_seq` is admitted. If that boundary has already
    /// passed, the swap applies at the next boundary the engine
    /// reaches. The engine validates lineage/schema/generation before
    /// committing; a refused swap leaves the champion serving and is
    /// counted in [`DaemonReport::n_swaps_rejected`].
    ///
    /// # Errors
    ///
    /// [`SbedError::Draining`] if the engine is no longer accepting
    /// work.
    pub fn swap_at(&self, at_seq: u64, envelope: Vec<u8>) -> Result<()> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(SbedError::Draining);
        }
        match &self.engine_tx {
            Some(tx) => tx
                .send(ToEngine::Swap {
                    at_seq,
                    bytes: envelope,
                })
                .map_err(|_| SbedError::Draining),
            None => Err(SbedError::Draining),
        }
    }

    /// Starts a graceful drain: no new connections or requests are
    /// admitted; everything already queued is scored and answered.
    /// Idempotent. Follow with [`Daemon::join`].
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(tx) = &self.engine_tx {
            // Best-effort wake-up; the engine also polls the flag.
            tx.try_send(ToEngine::Drain).ok();
        }
    }

    /// Waits for the daemon to stop (after a FINISH with
    /// `exit_on_finish`, or after [`Daemon::drain`]) and returns the
    /// report.
    ///
    /// # Errors
    ///
    /// A scoring-core failure that aborted the engine, or a worker
    /// thread panic.
    pub fn join(mut self) -> Result<DaemonReport> {
        // Dropping our queue handle lets the engine see disconnection
        // once every connection is gone.
        self.engine_tx = None;
        let outcome = match self.engine.take() {
            Some(h) => h.join().map_err(|_| SbedError::Internal {
                reason: "engine thread panicked".into(),
            })?,
            None => {
                return Err(SbedError::Internal {
                    reason: "engine already joined".into(),
                });
            }
        };
        if let Some(h) = self.accept.take() {
            h.join().map_err(|_| SbedError::Internal {
                reason: "accept thread panicked".into(),
            })?;
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.conn_handles).drain(..).collect();
        for h in handles {
            h.join().map_err(|_| SbedError::Internal {
                reason: "connection thread panicked".into(),
            })?;
        }
        outcome.result?;
        Ok(DaemonReport {
            report: outcome.report,
            snapshot: outcome.snapshot,
            response_fnv: outcome.response_fnv,
            n_rejected: outcome.n_rejected,
            n_admitted: outcome.n_admitted,
            n_connections: self.n_connections.load(Ordering::SeqCst),
            n_transport_errors: self.transport_errors.load(Ordering::SeqCst),
            n_overloads: self.n_overloads.load(Ordering::SeqCst),
            n_swaps_rejected: outcome.n_swaps_rejected,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn run_accept(
    listener: TcpListener,
    engine_tx: SyncSender<ToEngine>,
    draining: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    n_connections: Arc<AtomicU64>,
    transport_errors: Arc<AtomicU64>,
    n_overloads: Arc<AtomicU64>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conn_window: usize,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let id = n_connections.fetch_add(1, Ordering::SeqCst);
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
                stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let conn = Arc::new(Conn {
                    id,
                    out: Mutex::new(write_half),
                    inflight: AtomicUsize::new(0),
                });
                let engine_tx = engine_tx.clone();
                let draining = Arc::clone(&draining);
                let shutdown = Arc::clone(&shutdown);
                let transport_errors = Arc::clone(&transport_errors);
                let n_overloads = Arc::clone(&n_overloads);
                let spawned =
                    std::thread::Builder::new()
                        .name("sbed-conn".into())
                        .spawn(move || {
                            run_reader(
                                stream,
                                &conn,
                                engine_tx,
                                draining,
                                shutdown,
                                transport_errors,
                                n_overloads,
                                conn_window,
                            );
                        });
                if let Ok(h) = spawned {
                    lock(&conn_handles).push(h);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    // Dropping the listener here closes the port: post-drain connection
    // attempts are refused by the OS.
}

/// Reads `buf.len()` bytes, tolerating read timeouts (checking the
/// shutdown flag at each) and interrupts. `Ok(false)` means the peer
/// closed (or shutdown fired) before the first byte.
fn read_full(
    stream: &mut impl Read,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        let window = buf.get_mut(got..).unwrap_or(&mut []);
        match stream.read(window) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false)
                } else {
                    Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[allow(clippy::too_many_arguments)]
fn run_reader(
    stream: TcpStream,
    conn: &Arc<Conn>,
    engine_tx: SyncSender<ToEngine>,
    draining: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    transport_errors: Arc<AtomicU64>,
    n_overloads: Arc<AtomicU64>,
    conn_window: usize,
) {
    let mut stream = BufReader::new(stream);
    let refuse = |request_id: u64, code: u16, message: &str| {
        conn.send(&error_frame(request_id, code, message));
    };

    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut hdr = [0u8; wire::HEADER_LEN];
        match read_full(&mut stream, &mut hdr, &shutdown) {
            Ok(true) => {}
            Ok(false) => break,
            Err(_) => break,
        }
        let raw = wire::header_fields(&hdr);
        let checked = wire::validate_header(&hdr);
        let header = match checked {
            Ok(h) => h,
            Err(e) => {
                transport_errors.fetch_add(1, Ordering::SeqCst);
                refuse(raw.request_id, wire::error_code(&e), &e.to_string());
                match e {
                    // Version damage leaves the length field (same
                    // layout in any plausible version) trustworthy:
                    // skip the payload and keep the connection.
                    SbedError::Version { .. } if raw.len <= wire::MAX_PAYLOAD => {
                        let mut sink = vec![0u8; raw.len as usize];
                        match read_full(&mut stream, &mut sink, &shutdown) {
                            Ok(true) => continue,
                            _ => break,
                        }
                    }
                    // Bad magic or an oversize length mean framing is
                    // lost: nothing downstream can be trusted, so the
                    // connection closes (the error response above still
                    // tells the peer why).
                    _ => break,
                }
            }
        };
        let mut payload = vec![0u8; header.len as usize];
        match read_full(&mut stream, &mut payload, &shutdown) {
            Ok(true) => {}
            _ => break,
        }
        let computed = fnv1a64(&payload);
        if computed != header.checksum {
            transport_errors.fetch_add(1, Ordering::SeqCst);
            let e = SbedError::Checksum {
                stored: header.checksum,
                computed,
            };
            refuse(header.request_id, wire::error_code(&e), &e.to_string());
            continue;
        }
        if header.kind != wire::KIND_EVENT && header.kind != wire::KIND_FINISH {
            transport_errors.fetch_add(1, Ordering::SeqCst);
            let e = SbedError::UnknownKind { kind: header.kind };
            refuse(header.request_id, wire::ERR_MALFORMED, &e.to_string());
            continue;
        }
        if draining.load(Ordering::SeqCst) {
            refuse(
                header.request_id,
                wire::ERR_DRAINING,
                &SbedError::Draining.to_string(),
            );
            continue;
        }
        let queued = conn.inflight.load(Ordering::SeqCst);
        if queued >= conn_window {
            n_overloads.fetch_add(1, Ordering::SeqCst);
            let e = SbedError::Overload {
                queued,
                capacity: conn_window,
            };
            refuse(header.request_id, wire::ERR_OVERLOAD, &e.to_string());
            continue;
        }
        conn.inflight.fetch_add(1, Ordering::SeqCst);
        let frame = PendingFrame {
            kind: header.kind,
            payload,
            conn: Arc::clone(conn),
        };
        match engine_tx.try_send(ToEngine::Frame {
            seq: header.request_id,
            frame,
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                conn.inflight.fetch_sub(1, Ordering::SeqCst);
                n_overloads.fetch_add(1, Ordering::SeqCst);
                let e = SbedError::Overload {
                    queued,
                    capacity: conn_window,
                };
                refuse(header.request_id, wire::ERR_OVERLOAD, &e.to_string());
            }
            Err(TrySendError::Disconnected(_)) => {
                conn.inflight.fetch_sub(1, Ordering::SeqCst);
                refuse(
                    header.request_id,
                    wire::ERR_DRAINING,
                    &SbedError::Draining.to_string(),
                );
                break;
            }
        }
    }
}

/// Adds `bytes` to `conn`'s replies for this burst.
fn collect(outbox: &mut BTreeMap<u64, (Arc<Conn>, Vec<u8>)>, conn: &Arc<Conn>, bytes: Vec<u8>) {
    match outbox.entry(conn.id) {
        Entry::Vacant(slot) => {
            slot.insert((Arc::clone(conn), bytes));
        }
        Entry::Occupied(mut slot) => slot.get_mut().1.extend_from_slice(&bytes),
    }
}

struct Engine<'a> {
    session: ScoreSession<'a>,
    buffer: BTreeMap<u64, PendingFrame>,
    /// Admitted requests still owed their final reply, each with
    /// whether it still holds its window slot (until its first reply).
    open: BTreeMap<u64, (Arc<Conn>, bool)>,
    /// This burst's replies, per connection id, in the order the engine
    /// made them; [`Engine::flush`] writes them.
    outbox: BTreeMap<u64, (Arc<Conn>, Vec<u8>)>,
    /// Hot swaps scheduled for a future admission boundary: the swap
    /// keyed by `s` applies after every frame below `s` is scored and
    /// before frame `s` is admitted.
    swaps: BTreeMap<u64, Vec<u8>>,
    next_seq: u64,
    n_admitted: u64,
    n_swaps_rejected: u64,
    log: Option<LogWriter>,
    reorder_capacity: usize,
}

impl Engine<'_> {
    /// Collects session responses for their requesters, freeing a
    /// request's window slot at its first response: a launch's ACK
    /// frees it, and its SCORES follows without one.
    fn route(&mut self, responses: Vec<wire::EncodedResponse>) {
        for r in responses {
            let Some((conn, holds_slot)) = self.open.get_mut(&r.request_id) else {
                continue;
            };
            if std::mem::take(holds_slot) {
                conn.inflight.fetch_sub(1, Ordering::SeqCst);
            }
            collect(&mut self.outbox, conn, r.bytes);
            if r.last {
                self.open.remove(&r.request_id);
            }
        }
    }

    /// Answers a frame the session will not handle with a direct error,
    /// freeing its window slot.
    fn refuse(&mut self, conn: &Arc<Conn>, seq: u64, code: u16, message: &str) {
        conn.inflight.fetch_sub(1, Ordering::SeqCst);
        collect(&mut self.outbox, conn, error_frame(seq, code, message));
    }

    /// Writes each connection's collected replies with one write.
    fn flush(&mut self) {
        for (conn, bytes) in std::mem::take(&mut self.outbox).into_values() {
            conn.send(&bytes);
        }
    }

    /// Places one frame into the reorder buffer (answering stale,
    /// duplicate, and buffer-overflow cases directly), then admits
    /// every frame that is now in sequence.
    ///
    /// # Errors
    ///
    /// Scoring-core and record-log failures (fatal).
    fn enqueue(&mut self, seq: u64, frame: PendingFrame, n_overloads: &AtomicU64) -> Result<()> {
        if seq < self.next_seq {
            let message = format!(
                "sequence {seq} already admitted (next is {})",
                self.next_seq
            );
            self.refuse(&frame.conn, seq, wire::ERR_REJECTED, &message);
            return Ok(());
        }
        if self.buffer.contains_key(&seq) {
            let message = format!("sequence {seq} already queued");
            self.refuse(&frame.conn, seq, wire::ERR_REJECTED, &message);
            return Ok(());
        }
        if seq != self.next_seq && self.buffer.len() >= self.reorder_capacity {
            n_overloads.fetch_add(1, Ordering::SeqCst);
            let message = SbedError::Overload {
                queued: self.buffer.len(),
                capacity: self.reorder_capacity,
            }
            .to_string();
            self.refuse(&frame.conn, seq, wire::ERR_OVERLOAD, &message);
            return Ok(());
        }
        self.buffer.insert(seq, frame);
        self.pump()
    }

    /// Applies every hot swap whose boundary has been reached: swaps
    /// scheduled at or before `next_seq` run now, strictly between
    /// admitted frames. A swap the session refuses (bad lineage,
    /// schema mismatch, stale generation) is counted and dropped
    /// *before* logging, so the recorded log only contains swaps a
    /// replay will accept; an accepted swap is logged first, then
    /// applied, exactly the order the replayer reproduces.
    ///
    /// # Errors
    ///
    /// Record-log and scoring-core failures (fatal). Swap *validation*
    /// failures are not fatal: the champion keeps serving.
    fn apply_due_swaps(&mut self) -> Result<()> {
        while let Some((&at, _)) = self.swaps.first_key_value() {
            if at > self.next_seq {
                break;
            }
            let bytes = self.swaps.remove(&at).unwrap_or_default();
            let swap = match self.session.prepare_swap(&bytes) {
                Ok(s) => s,
                Err(_) => {
                    self.n_swaps_rejected += 1;
                    continue;
                }
            };
            if let Some(log) = self.log.as_mut() {
                let frame = wire::encode_frame(wire::KIND_SWAP, self.next_seq, &bytes);
                log.append(&frame)?;
            }
            let responses = self.session.apply_swap(swap)?;
            self.route(responses);
        }
        Ok(())
    }

    /// Admits every in-sequence frame: applies due swaps at the
    /// boundary, records the frame, feeds the session, routes the
    /// responses.
    ///
    /// # Errors
    ///
    /// Scoring-core and record-log failures (fatal).
    fn pump(&mut self) -> Result<()> {
        self.apply_due_swaps()?;
        while let Some(frame) = self.buffer.remove(&self.next_seq) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.n_admitted += 1;
            if let Some(log) = self.log.as_mut() {
                let bytes = wire::encode_frame(frame.kind, seq, &frame.payload);
                log.append(&bytes)?;
            }
            match self.session.handle(frame.kind, seq, &frame.payload) {
                Ok(responses) => {
                    self.open.insert(seq, (frame.conn, true));
                    self.route(responses);
                }
                Err(e) => {
                    // Tell the requester before the daemon aborts.
                    let message = format!("scoring failed: {e}");
                    self.refuse(&frame.conn, seq, wire::ERR_INTERNAL, &message);
                    return Err(e);
                }
            }
            if self.session.finished() {
                break;
            }
            self.apply_due_swaps()?;
        }
        Ok(())
    }

    /// Ends the run: finalises the session (drain case), answers what
    /// completed, and refuses everything still stuck in the reorder
    /// buffer. Swaps scheduled past the end of the run never applied
    /// and were never logged; they count as rejected.
    fn shut(&mut self) -> Result<()> {
        let finalized = self.session.finalize()?;
        self.route(finalized);
        let message = SbedError::Draining.to_string();
        for (seq, frame) in std::mem::take(&mut self.buffer) {
            self.refuse(&frame.conn, seq, wire::ERR_DRAINING, &message);
        }
        self.n_swaps_rejected += self.swaps.len() as u64;
        self.swaps.clear();
        Ok(())
    }
}

fn run_engine(
    artifact: &PipelineArtifact,
    cfg: &DaemonConfig,
    rx: mpsc::Receiver<ToEngine>,
    draining: &AtomicBool,
    n_overloads: &AtomicU64,
) -> EngineOutcome {
    let failed = |e: SbedError| EngineOutcome {
        result: Err(e),
        report: ReportPayload::default(),
        snapshot: String::new(),
        response_fnv: 0,
        n_rejected: 0,
        n_admitted: 0,
        n_swaps_rejected: 0,
    };
    let session = match ScoreSession::new(artifact, &cfg.serve, cfg.topology) {
        Ok(s) => s,
        Err(e) => return failed(e),
    };
    let log = match &cfg.record_log {
        Some(path) => match LogWriter::create(path, artifact.schema_hash()) {
            Ok(w) => Some(w),
            Err(e) => return failed(e),
        },
        None => None,
    };
    let mut engine = Engine {
        session,
        buffer: BTreeMap::new(),
        open: BTreeMap::new(),
        outbox: BTreeMap::new(),
        swaps: BTreeMap::new(),
        next_seq: 0,
        n_admitted: 0,
        n_swaps_rejected: 0,
        log,
        reorder_capacity: cfg.reorder_capacity,
    };

    let mut fatal: Option<SbedError> = None;
    let mut drained = false;
    while !drained && fatal.is_none() {
        if engine.session.finished() && cfg.exit_on_finish {
            break;
        }
        let mut next = match rx.recv_timeout(POLL) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => {
                if draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // One burst: every message already queued, at most
        // `QUEUE_CAPACITY` of them (all of them once a drain starts),
        // then one write per connection.
        let mut taken = 0usize;
        while let Some(msg) = next {
            taken += 1;
            let handled = match msg {
                ToEngine::Frame { seq, frame } => engine.enqueue(seq, frame, n_overloads),
                // Swaps still in flight at drain time are not applied:
                // a draining daemon keeps its champion to the end.
                ToEngine::Swap { .. } if drained => {
                    engine.n_swaps_rejected += 1;
                    Ok(())
                }
                // Last scheduling wins for a boundary; pump applies it
                // once every frame below `at_seq` has been scored.
                ToEngine::Swap { at_seq, bytes } => {
                    engine.swaps.insert(at_seq, bytes);
                    engine.pump()
                }
                ToEngine::Drain => {
                    drained = true;
                    Ok(())
                }
            };
            if let Err(e) = handled {
                fatal = Some(e);
                break;
            }
            let done = !drained && engine.session.finished() && cfg.exit_on_finish;
            next = if !done && (drained || taken < QUEUE_CAPACITY) {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        engine.flush();
    }
    if fatal.is_none() {
        if let Err(e) = engine.shut() {
            fatal = Some(e);
        }
    }
    engine.flush();
    EngineOutcome {
        result: match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        },
        report: engine.session.report(),
        snapshot: engine.session.snapshot_json(),
        response_fnv: engine.session.response_fnv(),
        n_rejected: engine.session.n_rejected(),
        n_admitted: engine.n_admitted,
        n_swaps_rejected: engine.n_swaps_rejected,
    }
}
