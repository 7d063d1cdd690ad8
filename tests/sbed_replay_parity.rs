//! Fleet/process parity: the `sbed` network daemon must reproduce
//! in-process `streamd` scoring bit for bit.
//!
//! Two anchors:
//!
//! * **Trace-anchored** — a real simulated trace is decomposed into
//!   wire events and driven through a loopback daemon by a mock fleet;
//!   every (aprun, node) probability must match the in-process
//!   `streamd::serve` run on the same trace, bit for bit.
//! * **Synthetic at scale** — a seeded synthetic workload (≥ 100
//!   connections, ≥ 10k requests, 1,600-node topology) scores
//!   identically across live runs, whose connection threads interleave
//!   differently each time, and the recorded request log replays
//!   byte-identically (rolling response checksum, report, and metrics
//!   snapshot).
//!
//! A third check pins flow control: a client that keeps exactly the
//! daemon's window of frames awaiting their first reply is never
//! refused, with or without launches whose SCORES come later, and its
//! response checksum is an in-process session's.

use gpu_error_prediction::{mlkit, obskit, sbed, sbepred, streamd, titan_sim};
use mlkit::dataset::Dataset;
use mlkit::gbdt::Gbdt;
use mlkit::model::Classifier;
use mlkit::scaler::StandardScaler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbed::client::{run_fleet, Connection, FleetConfig, FleetOutcome, ResponseBody};
use sbed::daemon::{Daemon, DaemonConfig};
use sbed::fleet::{synth_events, SynthConfig};
use sbed::replay::replay_log_file;
use sbed::session::ScoreSession;
use sbed::wire::{self, WireEvent};
use sbepred::datasets::DsSplit;
use sbepred::features::{FeatureExtractor, FeatureSpec};
use sbepred::samples::build_samples;
use sbepred::twostage::prepare_with_extractor;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamd::artifact::{PipelineArtifact, PipelineModel};
use streamd::serve::{serve, NullSink, ServeConfig};
use titan_sim::config::SimConfig;
use titan_sim::topology::Topology;
use titan_sim::trace::TraceSet;

/// (aprun, node) → (probability bits, hard decision).
type ScoreMap = BTreeMap<(u32, u32), (u32, bool)>;

/// Decomposes a trace into the wire events the daemon scores from —
/// the exact same stream `streamd::serve` consumes internally.
fn trace_to_wire_events(trace: &TraceSet) -> Vec<WireEvent> {
    let stream = titan_sim::events::EventStream::new(trace).expect("event stream");
    let catalog = trace.catalog();
    stream
        .map(|ev| match ev {
            titan_sim::events::TraceEvent::Tick { minute } => WireEvent::Tick { minute },
            titan_sim::events::TraceEvent::Launch { minute, aprun } => {
                let run = trace.aprun(aprun).expect("aprun");
                let profile = catalog.profile(run.app_id).expect("profile");
                WireEvent::Launch {
                    minute,
                    aprun: aprun.0,
                    app: run.app_id.0,
                    runtime_min: run.runtime_min(),
                    core_util: profile.core_util,
                    mem_util: profile.mem_util,
                    nodes: run.nodes.iter().map(|n| n.0).collect(),
                }
            }
            titan_sim::events::TraceEvent::SbeVisible {
                minute,
                node,
                app,
                count,
                ..
            } => WireEvent::Sbe {
                minute,
                node: node.0,
                app: app.0,
                count,
            },
        })
        .collect()
}

/// Trains a shippable no-telemetry artifact on DS1 of a tiny trace
/// (telemetry features do not travel on the wire, so network artifacts
/// ship without them).
fn train_wire_artifact() -> (TraceSet, PipelineArtifact, (u64, u64)) {
    let trace = titan_sim::engine::generate(&SimConfig::tiny(13)).expect("trace");
    let samples = build_samples(&trace).expect("samples");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor");
    let split = DsSplit::ds1(&trace).expect("split");
    let spec = FeatureSpec::no_telemetry();
    let prepared = prepare_with_extractor(&fx, &samples, &split, &spec).expect("prepare");
    let mut model = Gbdt::new().n_trees(20).min_samples_leaf(2).seed(7);
    model
        .fit(&prepared.train, &mut obskit::Recorder::null())
        .expect("fit");
    let offenders: Vec<u32> = fx
        .history()
        .offender_nodes_before(split.train_end_min())
        .into_iter()
        .map(|n| n.0)
        .collect();
    let artifact = PipelineArtifact::new(
        spec,
        offenders,
        prepared.scaler.clone(),
        PipelineModel::Gbdt(model),
        split.train_end_min(),
        split.name(),
    );
    (trace, artifact, split.test_window())
}

/// A deterministic synthetic artifact sized for `n_nodes`, with every
/// `offender_every`-th node an offender (seeded random training rows;
/// model quality is irrelevant — bit-identity of scoring is what the
/// suite checks).
fn synthetic_artifact(n_nodes: u32, offender_every: usize) -> PipelineArtifact {
    let spec = FeatureSpec::no_telemetry();
    let n = spec.n_features();
    let mut rng = StdRng::seed_from_u64(42);
    let rows: Vec<Vec<f32>> = (0..160)
        .map(|_| (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| {
            if r.iter().sum::<f32>() > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let data = Dataset::from_rows(&rows, &y).expect("dataset");
    let scaler = StandardScaler::fit(&data).expect("scaler");
    let scaled = scaler.transform(&data).expect("transform");
    let mut model = Gbdt::new()
        .n_trees(12)
        .max_depth(3)
        .min_samples_leaf(2)
        .seed(5);
    model
        .fit(&scaled, &mut obskit::Recorder::null())
        .expect("fit");
    let offenders: Vec<u32> = (0..n_nodes).step_by(offender_every).collect();
    PipelineArtifact::new(
        spec,
        offenders,
        scaler,
        PipelineModel::Gbdt(model),
        0,
        "synthetic",
    )
}

fn fleet_score_map(outcome: &FleetOutcome) -> ScoreMap {
    let mut map = ScoreMap::new();
    for scores in outcome.scores.values() {
        for e in &scores.entries {
            let prev = map.insert(
                (scores.aprun, e.node),
                (e.probability.to_bits(), e.predicted),
            );
            assert!(
                prev.is_none(),
                "duplicate score for (aprun {}, node {})",
                scores.aprun,
                e.node
            );
        }
    }
    map
}

/// Runs one daemon + fleet pass and returns the fleet outcome plus the
/// daemon's end-of-run report.
fn run_loopback(
    artifact: &PipelineArtifact,
    serve_cfg: &ServeConfig,
    topology: Topology,
    events: &[WireEvent],
    fleet_cfg: &FleetConfig,
    record_log: Option<std::path::PathBuf>,
) -> (FleetOutcome, sbed::daemon::DaemonReport) {
    let mut cfg = DaemonConfig::new("127.0.0.1:0", *serve_cfg, topology);
    cfg.record_log = record_log;
    let daemon = Daemon::spawn(Arc::new(artifact.clone()), cfg).expect("daemon spawns");
    let outcome =
        run_fleet(daemon.addr(), events, fleet_cfg, &obskit::NullClock).expect("fleet run");
    let report = daemon.join().expect("daemon join");
    (outcome, report)
}

#[test]
fn fleet_scores_match_in_process_serve_bit_for_bit() {
    let (trace, artifact, (from, until)) = train_wire_artifact();
    let serve_cfg = ServeConfig::window(from, until);

    // In-process reference on the same trace.
    let mut sink = NullSink;
    let reference = serve(&trace, &artifact, &serve_cfg, &mut sink).expect("serve");
    let mut ref_map = ScoreMap::new();
    for s in &reference.scored {
        ref_map.insert((s.aprun, s.node), (s.probability.to_bits(), s.predicted));
    }
    assert!(!ref_map.is_empty(), "degenerate reference: nothing scored");

    let events = trace_to_wire_events(&trace);
    assert_eq!(events.len() as u64, reference.n_events);

    for conns in [1usize, 7] {
        let (outcome, report) = run_loopback(
            &artifact,
            &serve_cfg,
            trace.config().topology,
            &events,
            &FleetConfig::healthy(conns),
            None,
        );
        assert_eq!(outcome.n_acks, events.len() as u64);
        assert_eq!(report.report.n_events, events.len() as u64);
        assert_eq!(report.n_rejected, 0, "the daemon rejected trace events");
        let fleet_map = fleet_score_map(&outcome);
        assert_eq!(
            fleet_map, ref_map,
            "fleet scores diverged from in-process serve at {conns} connections"
        );
        // The FINISH report's stats must agree with the in-process run.
        assert_eq!(report.report.n_requests, reference.n_requests);
        assert_eq!(report.report.n_stage2, reference.n_stage2);
        assert_eq!(report.report.n_alerts, reference.n_alerts);
    }
}

#[test]
fn fleet_at_scale_is_thread_invariant_and_replays_byte_identically() {
    // ≥ 100 connections, ≥ 10k requests, 1,600-node topology.
    let topology = Topology::scaled().expect("scaled topology");
    let n_nodes = topology.n_nodes();
    let synth = SynthConfig {
        seed: 20_180_625,
        n_nodes,
        minutes: 120,
        launches_per_min: 35,
        max_nodes_per_launch: 8,
        n_apps: 32,
        sbe_per_min: 50,
    };
    let events = synth_events(&synth);
    assert!(
        events.len() >= 10_000,
        "workload too small: {}",
        events.len()
    );
    let artifact = synthetic_artifact(n_nodes, 2);
    let fleet_cfg = FleetConfig::healthy(100);

    // Three live runs: each interleaves its 100 connections' reader
    // threads differently, and all must answer the same bits.
    let serve_cfg = ServeConfig::window(0, synth.minutes);
    let mut runs: Vec<(usize, FleetOutcome, sbed::daemon::DaemonReport)> = Vec::new();
    for run in 0..3 {
        let log_path =
            std::env::temp_dir().join(format!("sbed_parity_{}_{run}.bin", std::process::id()));
        let (outcome, report) = run_loopback(
            &artifact,
            &serve_cfg,
            topology,
            &events,
            &fleet_cfg,
            Some(log_path.clone()),
        );
        assert_eq!(outcome.n_acks, events.len() as u64);
        assert_eq!(report.report.n_events, events.len() as u64);
        assert_eq!(report.n_connections, 100);

        // The recorded log replays bit-identically: response stream
        // checksum, report, and metrics snapshot.
        let replayed = replay_log_file(&log_path, &artifact, &serve_cfg, topology).expect("replay");
        assert_eq!(replayed.n_frames, events.len() as u64 + 1); // + FINISH
        assert_eq!(
            replayed.response_fnv, report.response_fnv,
            "replay response stream diverged in run {run}"
        );
        assert_eq!(replayed.report, report.report);
        assert_eq!(
            replayed.snapshot, report.snapshot,
            "metrics snapshot not byte-stable under replay in run {run}"
        );
        std::fs::remove_file(&log_path).ok();
        runs.push((run, outcome, report));
    }

    // Run invariance: identical scores, identical response checksum,
    // identical report, identical snapshot.
    let (_, first_outcome, first_report) = &runs[0];
    let first_map = fleet_score_map(first_outcome);
    assert!(!first_map.is_empty(), "degenerate workload: nothing scored");
    for (run, outcome, report) in &runs[1..] {
        assert_eq!(
            fleet_score_map(outcome),
            first_map,
            "scores diverged between runs 0 and {run}"
        );
        assert_eq!(report.response_fnv, first_report.response_fnv);
        assert_eq!(report.report, first_report.report);
        assert_eq!(report.snapshot, first_report.snapshot);
    }
}

#[test]
fn failure_injection_does_not_change_scores() {
    // Designated failure connections corrupt every 3rd frame before
    // retransmitting it clean; the daemon's answers must not move.
    let topology = Topology::tiny().expect("tiny topology");
    let synth = SynthConfig::demo(9, topology.n_nodes());
    let events = synth_events(&synth);
    let artifact = synthetic_artifact(topology.n_nodes(), 2);
    let serve_cfg = ServeConfig::window(0, synth.minutes);

    let (clean, clean_report) = run_loopback(
        &artifact,
        &serve_cfg,
        topology,
        &events,
        &FleetConfig::healthy(4),
        None,
    );

    let faulty_cfg = FleetConfig {
        failure_conns: 2,
        corrupt_every: 3,
        ..FleetConfig::healthy(4)
    };
    let (faulty, faulty_report) =
        run_loopback(&artifact, &serve_cfg, topology, &events, &faulty_cfg, None);

    let retries: u64 = faulty.stats.iter().map(|s| s.corruption_retries).sum();
    assert!(retries > 0, "failure injection never fired");
    assert!(faulty_report.n_transport_errors >= retries);
    assert_eq!(fleet_score_map(&faulty), fleet_score_map(&clean));
    assert_eq!(faulty_report.response_fnv, clean_report.response_fnv);
    assert_eq!(faulty_report.report, clean_report.report);
    assert_eq!(faulty_report.snapshot, clean_report.snapshot);
}

#[test]
fn window_slot_is_free_before_its_reply_can_be_read() {
    // Ticks and SBE deltas only: each ACK is its frame's only reply.
    let tiny = Topology::tiny().expect("tiny topology");
    let quiet = SynthConfig {
        minutes: 400,
        launches_per_min: 0,
        sbe_per_min: 9,
        ..SynthConfig::demo(31, tiny.n_nodes())
    };
    keep_the_window_full(tiny, &quiet, &synthetic_artifact(tiny.n_nodes(), 2));

    // With launches: a launch's SCORES follows its ACK once its stage-2
    // batch flushes, and a launch that held its slot until then could
    // fill the window with frames the daemon cannot answer yet.
    let scaled = Topology::scaled().expect("scaled topology");
    let busy = SynthConfig {
        seed: 31,
        n_nodes: scaled.n_nodes(),
        minutes: 400,
        launches_per_min: 30,
        max_nodes_per_launch: 8,
        n_apps: 12,
        sbe_per_min: 20,
    };
    keep_the_window_full(scaled, &busy, &synthetic_artifact(scaled.n_nodes(), 16));
}

/// Drives one connection that keeps exactly the daemon's `conn_window`
/// frames awaiting their first reply (an ACK, an error or the REPORT)
/// and sends the next frame only after it reads one; a launch's SCORES
/// comes later and frees nothing. A refused frame goes out again, so a
/// refusal shows in the overload count, and a stall fails at the
/// deadline instead of hanging.
fn keep_the_window_full(topology: Topology, synth: &SynthConfig, artifact: &PipelineArtifact) {
    let events = synth_events(synth);
    let mut frames: Vec<(u16, Vec<u8>)> = events
        .iter()
        .map(|ev| (wire::KIND_EVENT, ev.encode()))
        .collect();
    frames.push((wire::KIND_FINISH, Vec::new()));
    let serve_cfg = ServeConfig::window(0, synth.minutes);
    let cfg = DaemonConfig::new("127.0.0.1:0", serve_cfg, topology);
    let window = cfg.conn_window;
    let daemon = Daemon::spawn(Arc::new(artifact.clone()), cfg).expect("daemon spawns");

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut conn = Connection::connect(daemon.addr()).expect("connect");
    let mut unsent: VecDeque<u64> = (0..frames.len() as u64).collect();
    let mut outstanding = 0usize;
    let mut awaiting_scores = 0usize;
    let mut most_awaiting_scores = 0usize;
    let mut finished = false;
    while !finished {
        assert!(
            Instant::now() < deadline,
            "stalled with {} of {} frames unsent",
            unsent.len(),
            frames.len()
        );
        while outstanding < window {
            let Some(seq) = unsent.pop_front() else {
                break;
            };
            let (kind, payload) = &frames[seq as usize];
            conn.send_raw(&wire::encode_frame(*kind, seq, payload))
                .expect("send");
            outstanding += 1;
        }
        let r = conn.recv().expect("recv").expect("daemon closed early");
        match r.body {
            ResponseBody::Scores(_) => awaiting_scores -= 1,
            ResponseBody::Ack => {
                outstanding -= 1;
                let launch = events.get(r.request_id as usize);
                if matches!(launch, Some(WireEvent::Launch { .. })) {
                    awaiting_scores += 1;
                    most_awaiting_scores = most_awaiting_scores.max(awaiting_scores);
                }
            }
            ResponseBody::Report(_) => {
                outstanding -= 1;
                finished = true;
            }
            ResponseBody::Error(e) if e.code == wire::ERR_OVERLOAD => {
                outstanding -= 1;
                unsent.push_front(r.request_id);
            }
            other => panic!("seq {}: unexpected {other:?}", r.request_id),
        }
    }
    let live = daemon.join().expect("daemon join");
    assert_eq!(live.report.n_events, events.len() as u64);
    assert_eq!(
        live.n_overloads, 0,
        "a client that keeps to the window was refused"
    );
    assert_eq!(awaiting_scores, 0, "a launch was never scored");
    assert!(
        most_awaiting_scores <= serve_cfg.batch_capacity,
        "{most_awaiting_scores} launches awaited their SCORES at once"
    );

    let mut session = ScoreSession::new(artifact, &serve_cfg, topology).expect("session");
    for (seq, (kind, payload)) in frames.iter().enumerate() {
        session.handle(*kind, seq as u64, payload).expect("handle");
    }
    assert_eq!(
        live.response_fnv,
        session.response_fnv(),
        "daemon response stream differs from the in-process session"
    );
}
