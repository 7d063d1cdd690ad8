//! Back-pressure, drain, and live-damage behaviour of the daemon.
//!
//! Every refusal must be a *typed response* — never a silent drop —
//! and a drained daemon must finish what it admitted, refuse new
//! work, close its port, and leave a recorded log that replays byte
//! for byte. A client that stops reading is cut off, not buffered for.

mod common;

use common::synthetic_artifact;
use sbed::client::{Connection, ResponseBody};
use sbed::daemon::{Daemon, DaemonConfig};
use sbed::fleet::{synth_events, SynthConfig};
use sbed::replay::replay_log_file;
use sbed::wire::{self, WireEvent};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamd::serve::ServeConfig;
use titan_sim::topology::Topology;

fn tick(minute: u64) -> WireEvent {
    WireEvent::Tick { minute }
}

fn spawn_daemon(mutate: impl FnOnce(&mut DaemonConfig)) -> Daemon {
    let artifact = Arc::new(synthetic_artifact());
    let topology = Topology::tiny().expect("tiny topology");
    let mut cfg = DaemonConfig::new("127.0.0.1:0", ServeConfig::window(0, 1_000), topology);
    mutate(&mut cfg);
    Daemon::spawn(artifact, cfg).expect("daemon spawns")
}

fn expect_ack(conn: &mut Connection, seq: u64) {
    let r = conn.recv().expect("recv").expect("response");
    assert_eq!(r.request_id, seq);
    assert_eq!(r.body, ResponseBody::Ack, "seq {seq}: expected ACK");
}

fn expect_error(conn: &mut Connection, seq: u64, code: u16) -> String {
    let r = conn.recv().expect("recv").expect("response");
    assert_eq!(r.request_id, seq);
    match r.body {
        ResponseBody::Error(e) => {
            assert_eq!(e.code, code, "seq {seq}: wrong error code ({})", e.message);
            e.message
        }
        other => panic!("seq {seq}: expected error {code}, got {other:?}"),
    }
}

/// A full per-connection window refuses with a typed ERR_OVERLOAD
/// response; the refused request can be retransmitted and the run
/// still completes.
#[test]
fn conn_window_overload_is_typed_not_dropped() {
    let daemon = spawn_daemon(|c| c.conn_window = 1);
    let addr = daemon.addr();
    let mut a = Connection::connect(addr).expect("conn a");
    let mut b = Connection::connect(addr).expect("conn b");

    // seq 1 arrives first: held for the sequencer, occupying conn A's
    // whole window (no response until seq 0 admits it).
    a.send_event(1, &tick(1)).expect("send 1");
    // A deterministic beat so the reader has queued seq 1 before the
    // next frame (the window check is per-reader, in arrival order).
    std::thread::sleep(std::time::Duration::from_millis(50));
    a.send_event(2, &tick(2)).expect("send 2");
    expect_error(&mut a, 2, wire::ERR_OVERLOAD);

    // Conn B supplies seq 0: the sequencer admits 0 then 1, freeing
    // A's window.
    b.send_event(0, &tick(0)).expect("send 0");
    expect_ack(&mut b, 0);
    expect_ack(&mut a, 1);

    // The refused frame retransmits cleanly.
    a.send_event(2, &tick(2)).expect("resend 2");
    expect_ack(&mut a, 2);

    b.send_finish(3).expect("finish");
    let r = b.recv().expect("recv").expect("report");
    assert!(matches!(r.body, ResponseBody::Report(_)));

    let report = daemon.join().expect("join");
    assert_eq!(report.report.n_events, 3);
    assert!(report.n_overloads >= 1, "overload refusal not counted");
}

/// Stale and duplicate sequence numbers get typed ERR_REJECTED
/// responses over the wire, and the connection carries on. (The
/// reorder buffer's own bound is forced in process, at its real 4096
/// frames, by the admission core's unit tests.)
#[test]
fn stale_and_duplicate_sequences_are_typed_rejections() {
    let daemon = spawn_daemon(|_| {});
    let addr = daemon.addr();
    let mut conn = Connection::connect(addr).expect("conn");

    conn.send_event(1, &tick(1)).expect("send 1"); // buffered (waiting for 0)
    conn.send_event(1, &tick(1)).expect("send dup 1"); // already queued
    expect_error(&mut conn, 1, wire::ERR_REJECTED);

    conn.send_event(0, &tick(0)).expect("send 0"); // admits 0 and then 1
    expect_ack(&mut conn, 0);
    expect_ack(&mut conn, 1);

    conn.send_event(0, &tick(0)).expect("send stale 0"); // already admitted
    expect_error(&mut conn, 0, wire::ERR_REJECTED);

    conn.send_event(2, &tick(2)).expect("send 2");
    expect_ack(&mut conn, 2);
    conn.send_finish(3).expect("finish");
    let r = conn.recv().expect("recv").expect("report");
    assert!(matches!(r.body, ResponseBody::Report(_)));

    let report = daemon.join().expect("join");
    assert_eq!(report.report.n_events, 3);
    assert_eq!(report.n_overloads, 0);
}

/// Drain finishes everything admitted, then the port closes: new
/// connection attempts are refused by the OS.
#[test]
fn drain_completes_admitted_work_and_closes_the_port() {
    // No FINISH ever arrives: the drain supplies the ending.
    let daemon = spawn_daemon(|_| {});
    let addr = daemon.addr();
    let mut conn = Connection::connect(addr).expect("conn");

    for seq in 0..10u64 {
        conn.send_event(seq, &tick(seq)).expect("send");
        expect_ack(&mut conn, seq);
    }

    daemon.drain();
    let report = daemon.join().expect("join");
    // Everything admitted before the drain was scored and reported.
    assert_eq!(report.report.n_events, 10);
    assert!(!report.snapshot.is_empty());
    assert_ne!(report.response_fnv, 0);

    // The listener is gone: connecting again must fail.
    assert!(
        Connection::connect(addr).is_err(),
        "post-drain connection was accepted"
    );
    // The drained server closed our connection (any buffered responses
    // were flushed first; recv eventually reports the close).
    while let Ok(Some(_)) = conn.recv() {}
}

/// Recoverable transport damage (checksum, version, non-request kind)
/// gets a typed error and the connection lives on; framing-destroying
/// damage (bad magic) gets a typed error and then the connection
/// closes. Neither enters the replay surface.
#[test]
fn live_connection_survives_recoverable_damage() {
    let daemon = spawn_daemon(|_| {});
    let addr = daemon.addr();

    // A framing-destroyed connection: typed error, then closed.
    let mut broken = Connection::connect(addr).expect("broken conn");
    let mut bad_magic = wire::encode_frame(wire::KIND_EVENT, 900, &tick(0).encode());
    bad_magic[0] = b'X';
    broken.send_raw(&bad_magic).expect("send bad magic");
    expect_error(&mut broken, 900, wire::ERR_MALFORMED);
    // The server abandons the connection (clean close or reset — its
    // reader stopped mid-frame, so an RST is legitimate).
    match broken.recv() {
        Ok(None) | Err(_) => {}
        Ok(Some(r)) => panic!("connection survived unrecoverable framing damage: {r:?}"),
    }

    // A connection taking recoverable damage keeps working.
    let mut conn = Connection::connect(addr).expect("conn");

    let mut bad_sum = wire::encode_frame(wire::KIND_EVENT, 100, &tick(0).encode());
    bad_sum[20] ^= 0xff;
    conn.send_raw(&bad_sum).expect("send bad checksum");
    expect_error(&mut conn, 100, wire::ERR_MALFORMED);

    let mut bad_version = wire::encode_frame(wire::KIND_EVENT, 101, &tick(0).encode());
    bad_version[4] = 9;
    conn.send_raw(&bad_version).expect("send bad version");
    expect_error(&mut conn, 101, wire::ERR_MALFORMED);

    // A response kind is not a request.
    let not_request = wire::encode_frame(wire::KIND_ACK, 102, &[]);
    conn.send_raw(&not_request).expect("send non-request");
    expect_error(&mut conn, 102, wire::ERR_MALFORMED);

    // The same connection then carries a full run.
    for seq in 0..3u64 {
        conn.send_event(seq, &tick(seq)).expect("send");
        expect_ack(&mut conn, seq);
    }
    conn.send_finish(3).expect("finish");
    let r = conn.recv().expect("recv").expect("report");
    assert!(matches!(r.body, ResponseBody::Report(_)));

    let report = daemon.join().expect("join");
    assert_eq!(
        report.report.n_events, 3,
        "damaged frames leaked into the session"
    );
    assert_eq!(report.n_transport_errors, 4);
}

/// A recorded run — drained mid-stream, so the end-of-log rule fires —
/// replays bit-identically: same response checksum, same report, same
/// metrics snapshot bytes.
#[test]
fn drained_recorded_log_replays_byte_identically() {
    let log_path = std::env::temp_dir().join(format!("sbed_drain_log_{}.bin", std::process::id()));
    let artifact = synthetic_artifact();
    let topology = Topology::tiny().expect("tiny topology");
    let serve = ServeConfig::window(0, 1_000);

    let mut cfg = DaemonConfig::new("127.0.0.1:0", serve, topology);
    cfg.record_log = Some(log_path.clone());
    let daemon = Daemon::spawn(Arc::new(artifact.clone()), cfg).expect("daemon spawns");
    let addr = daemon.addr();

    // A real mixed workload (ticks, launches, SBE deltas), no FINISH:
    // the drain supplies the ending.
    let events = synth_events(&SynthConfig::demo(11, 64));
    let mut conn = Connection::connect(addr).expect("conn");
    let mut acks = 0u64;
    for (seq, ev) in events.iter().enumerate() {
        conn.send_event(seq as u64, ev).expect("send");
        // Keep the window at 1: read until this event's ACK arrives
        // (score frames for earlier launches may come first).
        loop {
            let r = conn.recv().expect("recv").expect("response");
            match r.body {
                ResponseBody::Ack => {
                    assert_eq!(r.request_id, seq as u64);
                    acks += 1;
                    break;
                }
                ResponseBody::Scores(_) => {}
                other => panic!("seq {seq}: unexpected {other:?}"),
            }
        }
    }
    assert_eq!(acks, events.len() as u64);

    daemon.drain();
    let live = daemon.join().expect("join");
    assert_eq!(live.report.n_events, events.len() as u64);

    let replayed = replay_log_file(
        &log_path,
        &artifact,
        &serve,
        Topology::tiny().expect("topo"),
    )
    .expect("replay");
    assert_eq!(replayed.n_frames, events.len() as u64);
    assert_eq!(
        replayed.response_fnv, live.response_fnv,
        "response stream diverged"
    );
    assert_eq!(replayed.report, live.report, "report diverged");
    assert_eq!(
        replayed.snapshot, live.snapshot,
        "metrics snapshot not byte-stable"
    );

    std::fs::remove_file(&log_path).ok();
}

/// A client that sends and never reads is cut off once a reply write to
/// it times out, and the daemon keeps serving: another connection's
/// FINISH gets its REPORT, and the daemon joins cleanly.
#[test]
fn client_that_never_reads_is_cut_off() {
    let daemon = spawn_daemon(|_| {});
    let addr = daemon.addr();
    let mut good = Connection::connect(addr).expect("good conn");
    good.send_event(0, &tick(0)).expect("send 0");
    expect_ack(&mut good, 0);

    // The silent client resends the admitted seq 0, whole frames only:
    // every copy earns a stale-sequence rejection it never reads and
    // admits nothing, until its socket buffers fill and a daemon write
    // times out. Its own write timeout only catches a daemon that stops
    // reading without closing; it is far above the daemon's.
    let mut silent = TcpStream::connect(addr).expect("silent conn");
    silent
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("client write timeout");
    let stale = wire::encode_frame(wire::KIND_EVENT, 0, &tick(0).encode()).repeat(256);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match silent.write_all(&stale) {
            Ok(()) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("the daemon stopped reading a connection without closing it")
            }
            // Reset or broken pipe: the daemon closed the connection.
            Err(_) => break,
        }
        assert!(
            Instant::now() < deadline,
            "the daemon never closed a connection that does not read"
        );
    }

    // FINISH on the good connection, retransmitted while the engine
    // queue still holds the silent client's frames.
    let mut report = None;
    for _ in 0..200 {
        good.send_finish(1).expect("finish");
        let r = good.recv().expect("recv").expect("response");
        assert_eq!(r.request_id, 1);
        match r.body {
            ResponseBody::Report(p) => {
                report = Some(p);
                break;
            }
            ResponseBody::Error(e) if e.code == wire::ERR_OVERLOAD => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("FINISH: expected REPORT, got {other:?}"),
        }
    }
    assert!(report.is_some(), "FINISH was refused throughout");

    let live = daemon.join().expect("join");
    assert_eq!(live.report.n_events, 1);
    assert_eq!(live.n_connections, 2);
    assert_eq!(
        live.n_transport_errors, 0,
        "the silent client's frames were damaged"
    );
}
