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
//! * one **engine** thread that owns the admission core
//!   (`crate::admission`) and, through it, the [`ScoreSession`]. It
//!   blocks on its queue, hands the core every message already queued
//!   (at most 1024), then frees each connection's window slots and
//!   writes that connection's replies with one write.
//!
//! The core holds every admission rule (sequencing, the reorder buffer,
//! window slots, swap boundaries, drain and the record log), so these
//! threads keep only I/O. A connection's outbound half is its socket's
//! write half behind a lock, shared by its reader and the engine.
//!
//! Determinism under concurrency: the request id of every frame is its
//! *admission sequence number*, and the core feeds the session strictly
//! in sequence order, so every score, every metric and the rolling
//! response checksum are a pure function of the frame sequence, no
//! matter how many connections or threads carried it.
//!
//! Back-pressure is bounded and typed at three points: a per-connection
//! in-flight window and the engine's request queue (1024 frames, shared
//! by all connections), both checked by the reader, and the core's
//! reorder buffer (4096 frames). All three refuse with a
//! [`wire::ERR_OVERLOAD`] response (the client retransmits) — requests
//! are never silently dropped. A frame holds its window slot until its
//! first reply (an ACK, an error or the REPORT), and the engine frees
//! the slot before it writes that reply, so a client that sends only
//! after reading a frame's first reply never meets a full window. A
//! launch's SCORES comes later and holds no slot: every launch still
//! awaiting its SCORES has a stage-2 request pending, and a batch
//! flushes at `batch_capacity` requests, so open launches stay bounded
//! without the window.
//!
//! Replies are bounded by the socket, not by daemon memory: the engine
//! holds at most one burst's replies, and each write carries a timeout.
//! A client that stops reading fills its socket buffers; the next write
//! to it then fails or times out, the daemon shuts that connection down
//! (its reader stops too) and the engine carries on with the others.
//!
//! The run ends at the first FINISH the session answers, or at a drain
//! ([`Daemon::drain`]): stop accepting connections and frames, finish
//! everything already queued, then stop. A long-lived daemon is one
//! that never receives FINISH. A drained run's recorded log replays
//! bit-identically: [`ScoreSession::finalize`] applies the same
//! end-of-log rule the replayer does.

use crate::admission::{error_frame, Admission, Input, Peer, Replies};
use crate::replay::LogWriter;
use crate::session::ScoreSession;
use crate::wire::{self, ReportPayload};
use crate::{Result, SbedError};
use mlkit::artifact::fnv1a64;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use streamd::artifact::PipelineArtifact;
use streamd::serve::ServeConfig;
use titan_sim::topology::Topology;

/// How long the accept thread sleeps between polls of its
/// non-blocking listener. Pure liveness tuning: no scored value depends
/// on it.
const POLL: Duration = Duration::from_millis(5);
/// Socket read timeout so readers notice the stop flag.
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
    /// If set, every admitted frame is appended to this log for replay.
    pub record_log: Option<PathBuf>,
}

impl DaemonConfig {
    /// A config with the defaults: 64-frame connection window, no
    /// recording. The engine's request queue (1024 frames) and the
    /// reorder buffer (4096 frames) are constants.
    pub fn new(listen: &str, serve: ServeConfig, topology: Topology) -> DaemonConfig {
        DaemonConfig {
            listen: listen.to_string(),
            serve,
            topology,
            conn_window: 64,
            record_log: None,
        }
    }
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
    /// mismatch, stale generation, replaced by a later swap at the same
    /// boundary, scheduled after the drain or past the end of the run).
    /// Every scheduled swap is either applied or counted here. Refused
    /// swaps are never logged, so a recorded log only ever contains
    /// swaps a replay will accept.
    pub n_swaps_rejected: u64,
}

/// One connection as its reader and the engine share it.
struct Conn {
    /// Accept order; keys the engine's per-burst replies.
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

impl Peer for Arc<Conn> {
    fn key(&self) -> u64 {
        self.id
    }
}

/// What the daemon's threads share.
struct Shared {
    /// Set once the daemon stops: by [`Daemon::drain`] or when the
    /// engine thread exits. Readers refuse frames and stop, the accept
    /// thread stops, and the engine finishes what it holds.
    stopping: AtomicBool,
    n_connections: AtomicU64,
    n_transport_errors: AtomicU64,
    /// Window and queue refusals; the core counts its own.
    n_overloads: AtomicU64,
    /// Reader threads, joined by [`Daemon::join`].
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// [`DaemonConfig::conn_window`].
    conn_window: usize,
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
/// FINISH or [`Daemon::drain`], then collect the report with
/// [`Daemon::join`].
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine_tx: SyncSender<Input<Arc<Conn>>>,
    engine: JoinHandle<Result<DaemonReport>>,
    accept: JoinHandle<()>,
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
        if cfg.conn_window == 0 {
            return Err(SbedError::InvalidConfig {
                reason: "conn_window must be at least 1".into(),
            });
        }
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

        let shared = Arc::new(Shared {
            stopping: AtomicBool::new(false),
            n_connections: AtomicU64::new(0),
            n_transport_errors: AtomicU64::new(0),
            n_overloads: AtomicU64::new(0),
            readers: Mutex::new(Vec::new()),
            conn_window: cfg.conn_window,
        });
        let (engine_tx, engine_rx) = mpsc::sync_channel(QUEUE_CAPACITY);

        let engine = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sbed-engine".into())
                .spawn(move || {
                    let result = run_engine(&artifact, &cfg, &engine_rx);
                    // Whatever ended the engine ends the daemon.
                    shared.stopping.store(true, Ordering::SeqCst);
                    result
                })
                .map_err(|e| io_err("spawning engine thread", e))?
        };

        let accept = {
            let engine_tx = engine_tx.clone();
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sbed-accept".into())
                .spawn(move || run_accept(&listener, &engine_tx, &shared))
                .map_err(|e| io_err("spawning accept thread", e))?
        };

        Ok(Daemon {
            addr,
            shared,
            engine_tx,
            engine,
            accept,
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
    /// reaches. A later swap scheduled at the same boundary replaces
    /// this one. The engine validates lineage/schema/generation before
    /// committing; a refused or replaced swap leaves the champion
    /// serving and is counted in [`DaemonReport::n_swaps_rejected`].
    ///
    /// # Errors
    ///
    /// [`SbedError::Draining`] if the engine is no longer accepting
    /// work.
    pub fn swap_at(&self, at_seq: u64, envelope: Vec<u8>) -> Result<()> {
        if self.shared.stopping.load(Ordering::SeqCst) {
            return Err(SbedError::Draining);
        }
        self.engine_tx
            .send(Input::Swap { at_seq, envelope })
            .map_err(|_| SbedError::Draining)
    }

    /// Starts a graceful drain: no new connections or requests are
    /// admitted; everything already queued is scored and answered.
    /// Idempotent. Follow with [`Daemon::join`].
    pub fn drain(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Fails only once the engine has stopped, which is the goal.
        self.engine_tx.send(Input::Drain).ok();
    }

    /// Waits for the daemon to stop (after a FINISH, or after
    /// [`Daemon::drain`]) and returns the report.
    ///
    /// # Errors
    ///
    /// A scoring-core failure that aborted the engine, or a worker
    /// thread panic.
    pub fn join(self) -> Result<DaemonReport> {
        let Daemon {
            shared,
            engine,
            accept,
            ..
        } = self;
        let panicked = |thread: &str| SbedError::Internal {
            reason: format!("{thread} thread panicked"),
        };
        let engine = engine.join().map_err(|_| panicked("engine"))?;
        accept.join().map_err(|_| panicked("accept"))?;
        let readers: Vec<JoinHandle<()>> = lock(&shared.readers).drain(..).collect();
        for h in readers {
            h.join().map_err(|_| panicked("connection"))?;
        }
        let mut report = engine?;
        report.n_connections = shared.n_connections.load(Ordering::SeqCst);
        report.n_transport_errors = shared.n_transport_errors.load(Ordering::SeqCst);
        report.n_overloads += shared.n_overloads.load(Ordering::SeqCst);
        Ok(report)
    }
}

fn run_accept(
    listener: &TcpListener,
    engine_tx: &SyncSender<Input<Arc<Conn>>>,
    shared: &Arc<Shared>,
) {
    while !shared.stopping.load(Ordering::SeqCst) {
        let Ok((stream, _peer)) = listener.accept() else {
            std::thread::sleep(POLL);
            continue;
        };
        let id = shared.n_connections.fetch_add(1, Ordering::SeqCst);
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
        let reader_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("sbed-conn".into())
            .spawn(move || run_reader(stream, &conn, &engine_tx, &reader_shared));
        if let Ok(h) = spawned {
            lock(&shared.readers).push(h);
        }
    }
    // Dropping the listener here closes the port: post-drain connection
    // attempts are refused by the OS.
}

/// Fills `buf`, tolerating read timeouts (checking the stop flag at
/// each) and interrupts. `false` means the peer closed, the read
/// failed or the daemon stopped first: the reader ends either way.
fn read_full(stream: &mut impl Read, buf: &mut [u8], stopping: &AtomicBool) -> bool {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(buf.get_mut(got..).unwrap_or(&mut [])) {
            Ok(0) => return false,
            Ok(n) => got += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stopping.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

fn run_reader(
    stream: TcpStream,
    conn: &Arc<Conn>,
    engine_tx: &SyncSender<Input<Arc<Conn>>>,
    shared: &Shared,
) {
    let mut stream = BufReader::new(stream);
    let stopping = &shared.stopping;
    let refuse = |request_id: u64, code: u16, message: &str| {
        conn.send(&error_frame(request_id, code, message));
    };
    let overload = |request_id: u64, queued: usize, capacity: usize| {
        shared.n_overloads.fetch_add(1, Ordering::SeqCst);
        let e = SbedError::Overload { queued, capacity };
        refuse(request_id, wire::ERR_OVERLOAD, &e.to_string());
    };
    let draining = SbedError::Draining.to_string();

    while !stopping.load(Ordering::SeqCst) {
        let mut hdr = [0u8; wire::HEADER_LEN];
        if !read_full(&mut stream, &mut hdr, stopping) {
            break;
        }
        let raw = wire::header_fields(&hdr);
        let header = match wire::validate_header(&hdr) {
            Ok(h) => h,
            Err(e) => {
                shared.n_transport_errors.fetch_add(1, Ordering::SeqCst);
                refuse(raw.request_id, wire::error_code(&e), &e.to_string());
                match e {
                    // Version damage leaves the length field (same
                    // layout in any plausible version) trustworthy:
                    // skip the payload and keep the connection.
                    SbedError::Version { .. } if raw.len <= wire::MAX_PAYLOAD => {
                        let mut sink = vec![0u8; raw.len as usize];
                        if read_full(&mut stream, &mut sink, stopping) {
                            continue;
                        }
                        break;
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
        if !read_full(&mut stream, &mut payload, stopping) {
            break;
        }
        let computed = fnv1a64(&payload);
        if computed != header.checksum {
            shared.n_transport_errors.fetch_add(1, Ordering::SeqCst);
            let e = SbedError::Checksum {
                stored: header.checksum,
                computed,
            };
            refuse(header.request_id, wire::error_code(&e), &e.to_string());
            continue;
        }
        if header.kind != wire::KIND_EVENT && header.kind != wire::KIND_FINISH {
            shared.n_transport_errors.fetch_add(1, Ordering::SeqCst);
            let e = SbedError::UnknownKind { kind: header.kind };
            refuse(header.request_id, wire::ERR_MALFORMED, &e.to_string());
            continue;
        }
        // The daemon may have stopped while this frame was being read.
        if stopping.load(Ordering::SeqCst) {
            refuse(header.request_id, wire::ERR_DRAINING, &draining);
            continue;
        }
        let queued = conn.inflight.load(Ordering::SeqCst);
        if queued >= shared.conn_window {
            overload(header.request_id, queued, shared.conn_window);
            continue;
        }
        conn.inflight.fetch_add(1, Ordering::SeqCst);
        let frame = Input::Frame {
            peer: Arc::clone(conn),
            seq: header.request_id,
            kind: header.kind,
            payload,
        };
        match engine_tx.try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                conn.inflight.fetch_sub(1, Ordering::SeqCst);
                overload(header.request_id, QUEUE_CAPACITY, QUEUE_CAPACITY);
            }
            Err(TrySendError::Disconnected(_)) => {
                conn.inflight.fetch_sub(1, Ordering::SeqCst);
                refuse(header.request_id, wire::ERR_DRAINING, &draining);
                break;
            }
        }
    }
}

/// Frees each connection's window slots, then writes its replies with
/// one write.
fn send_replies(core: &mut Admission<'_, Arc<Conn>>) {
    for Replies { peer, bytes, freed } in core.take_replies() {
        peer.inflight.fetch_sub(freed, Ordering::SeqCst);
        peer.send(&bytes);
    }
}

/// The engine thread: feeds the admission core in bursts until a FINISH
/// is answered or a drain has been taken, then shuts the core.
fn run_engine(
    artifact: &PipelineArtifact,
    cfg: &DaemonConfig,
    rx: &Receiver<Input<Arc<Conn>>>,
) -> Result<DaemonReport> {
    let session = ScoreSession::new(artifact, &cfg.serve, cfg.topology)?;
    let log = match &cfg.record_log {
        Some(path) => Some(LogWriter::create(path, artifact.schema_hash())?),
        None => None,
    };
    let mut core = Admission::new(session, log);
    let mut result = Ok(());
    while result.is_ok() && !core.draining() && !core.finished() {
        let Ok(first) = rx.recv() else {
            break;
        };
        // One burst: every message already queued, at most
        // `QUEUE_CAPACITY` of them (all of them once a drain starts),
        // then one write per connection.
        let mut next = Some(first);
        let mut taken = 0usize;
        while let Some(msg) = next {
            taken += 1;
            result = core.deliver(msg);
            let more = core.draining() || (!core.finished() && taken < QUEUE_CAPACITY);
            next = match result {
                Ok(()) if more => rx.try_recv().ok(),
                _ => None,
            };
        }
        send_replies(&mut core);
    }
    if result.is_ok() {
        result = core.shut();
    }
    send_replies(&mut core);
    result.map(|()| core.report())
}
