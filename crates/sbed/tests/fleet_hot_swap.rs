//! Zero-downtime hot swap under fleet load.
//!
//! A 100-connection mock fleet drives a synthetic workload through the
//! daemon while a lineage-verified challenger is swapped in mid-stream.
//! The suite locks the swap-boundary contract:
//!
//! * every request is answered exactly once — no response dropped, no
//!   launch double-scored, the score universe identical to a no-swap
//!   run;
//! * the end-of-run report attributes the run to exactly one committed
//!   swap and the final generation;
//! * the recorded request log (which embeds the swap at its admission
//!   boundary) replays byte-identically — same rolling response
//!   checksum, report, and metrics snapshot;
//! * a challenger with a broken succession header is refused without
//!   perturbing a single score.

mod common;

use common::synthetic_artifact;
use mlkit::artifact::Lineage;
use mlkit::dataset::Dataset;
use mlkit::gbdt::Gbdt;
use mlkit::hash::fnv1a64;
use mlkit::model::Classifier;
use mlkit::scaler::StandardScaler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbed::client::{run_fleet, FleetConfig, FleetOutcome};
use sbed::daemon::{Daemon, DaemonConfig, DaemonReport};
use sbed::fleet::{synth_events, SynthConfig};
use sbed::replay::replay_log_file;
use sbed::wire::WireEvent;
use sbepred::features::FeatureSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use streamd::artifact::{PipelineArtifact, PipelineModel};
use streamd::serve::ServeConfig;
use titan_sim::topology::Topology;

/// (aprun, node) → (probability bits, hard decision).
type ScoreMap = BTreeMap<(u32, u32), (u32, bool)>;

/// A challenger over the fixture champion: same schema (mandatory for
/// a swap), differently seeded model, encoded with a valid succession
/// header naming the champion as parent.
fn challenger_bytes(champion: &PipelineArtifact, generation: u32) -> Vec<u8> {
    let spec = FeatureSpec::no_telemetry();
    let n = spec.n_features();
    let mut rng = StdRng::seed_from_u64(1717);
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
    let data = Dataset::from_rows(&rows, &y).expect("challenger dataset");
    let scaler = StandardScaler::fit(&data).expect("challenger scaler");
    let scaled = scaler.transform(&data).expect("challenger transform");
    let mut model = Gbdt::new()
        .n_trees(12)
        .max_depth(3)
        .min_samples_leaf(2)
        .seed(6);
    model
        .fit(&scaled, &mut obskit::Recorder::null())
        .expect("challenger fit");
    let challenger = PipelineArtifact::new(
        spec,
        champion.offenders().to_vec(),
        scaler,
        PipelineModel::Gbdt(model),
        60,
        "adapt-g1",
    );
    let parent = fnv1a64(&champion.to_bytes().expect("champion bytes"));
    let lineage = Lineage::child_of(parent, generation.wrapping_sub(1), 0, 60);
    challenger
        .to_bytes_with_lineage(lineage)
        .expect("challenger envelope")
}

/// The fleet workload: ~1k events, ~2.4k score requests on the tiny
/// 64-node topology.
fn workload() -> (Topology, SynthConfig, Vec<WireEvent>) {
    let topology = Topology::tiny().expect("tiny topology");
    let synth = SynthConfig {
        seed: 0x05ee_d5a9,
        n_nodes: topology.n_nodes(),
        minutes: 60,
        launches_per_min: 10,
        max_nodes_per_launch: 6,
        n_apps: 16,
        sbe_per_min: 5,
    };
    let events = synth_events(&synth);
    (topology, synth, events)
}

/// Runs one daemon + 100-connection fleet pass, optionally scheduling
/// `swaps` (boundary sequence, envelope bytes) before load starts.
fn run_with_swaps(
    artifact: &PipelineArtifact,
    serve_cfg: &ServeConfig,
    topology: Topology,
    events: &[WireEvent],
    swaps: &[(u64, Vec<u8>)],
    record_log: Option<std::path::PathBuf>,
) -> (FleetOutcome, DaemonReport) {
    let mut cfg = DaemonConfig::new("127.0.0.1:0", *serve_cfg, topology);
    cfg.record_log = record_log;
    let daemon = Daemon::spawn(Arc::new(artifact.clone()), cfg).expect("daemon spawns");
    for (at_seq, bytes) in swaps {
        daemon.swap_at(*at_seq, bytes.clone()).expect("swap_at");
    }
    let outcome = run_fleet(
        daemon.addr(),
        events,
        &FleetConfig::healthy(100),
        &obskit::NullClock,
    )
    .expect("fleet run");
    let report = daemon.join().expect("daemon join");
    (outcome, report)
}

fn score_map(outcome: &FleetOutcome) -> ScoreMap {
    let mut map = ScoreMap::new();
    for scores in outcome.scores.values() {
        for e in &scores.entries {
            let prev = map.insert(
                (scores.aprun, e.node),
                (e.probability.to_bits(), e.predicted),
            );
            assert!(
                prev.is_none(),
                "double-scored (aprun {}, node {})",
                scores.aprun,
                e.node
            );
        }
    }
    map
}

#[test]
fn hot_swap_under_fleet_load_drops_nothing_and_replays_byte_identically() {
    let (topology, synth, events) = workload();
    let champion = synthetic_artifact();
    let swap_bytes = challenger_bytes(&champion, 1);
    // The swap lands at the stream's midpoint: frames below the
    // boundary score under generation 0, the rest under generation 1.
    let swap_at = events.len() as u64 / 2;

    // Reference universe: the same fleet with no swap scheduled.
    let base_cfg = ServeConfig::window(0, synth.minutes);
    let (clean, clean_report) = run_with_swaps(&champion, &base_cfg, topology, &events, &[], None);
    let clean_map = score_map(&clean);
    assert!(!clean_map.is_empty(), "degenerate workload: nothing scored");
    assert_eq!(clean_report.report.n_swaps, 0);
    assert_eq!(clean_report.report.generation, 0);

    let log_path = std::env::temp_dir().join(format!("sbed_hot_swap_{}.bin", std::process::id()));
    let (outcome, report) = run_with_swaps(
        &champion,
        &base_cfg,
        topology,
        &events,
        &[(swap_at, swap_bytes)],
        Some(log_path.clone()),
    );

    // Exactly one committed swap, generation advanced, nothing
    // rejected, every frame acknowledged.
    assert_eq!(outcome.n_acks, events.len() as u64);
    assert_eq!(report.report.n_events, events.len() as u64);
    assert_eq!(report.n_rejected, 0);
    assert_eq!(report.n_swaps_rejected, 0);
    assert_eq!(report.report.n_swaps, 1, "the swap must commit");
    assert_eq!(report.report.generation, 1);

    // Zero dropped, zero double-scored: the answered universe is
    // exactly the no-swap universe (probabilities may differ — a
    // different model serves the tail).
    let map = score_map(&outcome);
    assert_eq!(
        map.keys().collect::<Vec<_>>(),
        clean_map.keys().collect::<Vec<_>>(),
        "swap changed the set of answered (aprun, node) requests"
    );
    assert_ne!(
        map, clean_map,
        "the challenger must actually change some post-swap score"
    );
    assert_eq!(report.report.n_requests, clean_report.report.n_requests);

    // The recorded log embeds the swap at its admission boundary:
    // replay must reproduce the response stream byte for byte.
    let replayed = replay_log_file(&log_path, &champion, &base_cfg, topology).expect("replay");
    assert_eq!(replayed.n_frames, events.len() as u64 + 2); // + SWAP + FINISH
    assert_eq!(
        replayed.response_fnv, report.response_fnv,
        "replay response stream diverged"
    );
    assert_eq!(replayed.report, report.report);
    assert_eq!(replayed.snapshot, report.snapshot);
    std::fs::remove_file(&log_path).ok();
}

#[test]
fn broken_succession_is_refused_without_perturbing_scores() {
    let (topology, synth, events) = workload();
    let champion = synthetic_artifact();
    let serve_cfg = ServeConfig::window(0, synth.minutes);

    let (clean, clean_report) = run_with_swaps(&champion, &serve_cfg, topology, &events, &[], None);

    // Wrong parent checksum: the lineage names a champion that is not
    // serving. The engine must refuse it before logging anything.
    let spec_ok_parent_bad = {
        let (art, _) = PipelineArtifact::from_bytes_with_lineage(&challenger_bytes(&champion, 1))
            .expect("decode");
        art.to_bytes_with_lineage(Lineage::child_of(0xdead_beef, 0, 0, 60))
            .expect("re-encode")
    };
    // Generation regression: parent is right, but the header claims a
    // generation that does not strictly advance the serving one.
    let generation_stuck = {
        let (art, _) = PipelineArtifact::from_bytes_with_lineage(&challenger_bytes(&champion, 1))
            .expect("decode");
        let parent = fnv1a64(&champion.to_bytes().expect("bytes"));
        let mut lineage = Lineage::child_of(parent, 0, 0, 60);
        lineage.generation = 0;
        art.to_bytes_with_lineage(lineage).expect("re-encode")
    };

    let swap_at = events.len() as u64 / 2;
    let (faulty, faulty_report) = run_with_swaps(
        &champion,
        &serve_cfg,
        topology,
        &events,
        &[
            (swap_at, spec_ok_parent_bad),
            (swap_at + 7, generation_stuck),
        ],
        None,
    );

    assert_eq!(
        faulty_report.n_swaps_rejected, 2,
        "both swaps must be refused"
    );
    assert_eq!(faulty_report.report.n_swaps, 0);
    assert_eq!(faulty_report.report.generation, 0);
    assert_eq!(score_map(&faulty), score_map(&clean));
    assert_eq!(faulty_report.response_fnv, clean_report.response_fnv);
    assert_eq!(faulty_report.report, clean_report.report);
    assert_eq!(faulty_report.snapshot, clean_report.snapshot);
}
