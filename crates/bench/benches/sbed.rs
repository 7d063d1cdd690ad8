//! sbed saturation — end-to-end requests/sec through the loopback
//! daemon.
//!
//! Each pass spawns a fresh daemon on an ephemeral port, drives it
//! with the seeded mock fleet (64 connections on the 1,600-node scaled
//! topology), and measures wall-clock requests/sec. One pass takes a
//! few tenths of a second, and on a small shared host its rate swings
//! severalfold from pass to pass, so the report carries the median of
//! `PASSES` timed passes as `rps`, with its quartiles beside it.
//! Latency percentiles come from fleet-side send→ACK timings under
//! [`sbe_bench::WallClock`], over every timed pass.
//!
//! Parity is asserted before anything is timed: two passes, whose
//! connection threads interleave differently, must answer the same
//! response-stream checksum — a fast wrong answer is not a result.
//! `BENCH_sbed.json` is written at the workspace root for
//! `repro check-bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use sbe_bench::{BenchReport, Metric, WallClock};
use sbed::client::{run_fleet, FleetConfig, FleetOutcome};
use sbed::daemon::{Daemon, DaemonConfig, DaemonReport};
use sbed::fleet::{synth_events, SynthConfig};
use sbed::wire::WireEvent;
use std::sync::Arc;
use streamd::artifact::{PipelineArtifact, PipelineModel};
use streamd::serve::ServeConfig;
use titan_sim::topology::Topology;

const CONNS: usize = 64;
const MINUTES: u64 = 120;
const PASSES: usize = 11;
/// Floor on throughput. A quiet machine pushes thousands of
/// requests/sec through the loopback daemon; the floor catches the
/// serving path collapsing (a lock on the hot path, a per-request
/// allocation storm) without flaking on two-core runners.
const MIN_RPS: f64 = 500.0;
/// p99 over p50 of one latency sample can only fall below 1 when the
/// percentiles are inconsistent.
const MIN_P99_OVER_P50: f64 = 1.0;

fn synthetic_artifact(n_nodes: u32) -> PipelineArtifact {
    use mlkit::dataset::Dataset;
    use mlkit::gbdt::Gbdt;
    use mlkit::model::Classifier;
    use mlkit::scaler::StandardScaler;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sbepred::features::FeatureSpec;

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
    let offenders: Vec<u32> = (0..n_nodes).step_by(2).collect();
    PipelineArtifact::new(
        spec,
        offenders,
        scaler,
        PipelineModel::Gbdt(model),
        0,
        "synthetic",
    )
}

struct Fixture {
    artifact: Arc<PipelineArtifact>,
    topology: Topology,
    events: Vec<WireEvent>,
}

fn fixture() -> Fixture {
    let topology = Topology::scaled().expect("scaled topology");
    let n_nodes = topology.n_nodes();
    let synth = SynthConfig {
        seed: 20_180_625,
        n_nodes,
        minutes: MINUTES,
        launches_per_min: 30,
        max_nodes_per_launch: 8,
        n_apps: 32,
        sbe_per_min: 20,
    };
    Fixture {
        artifact: Arc::new(synthetic_artifact(n_nodes)),
        topology,
        events: synth_events(&synth),
    }
}

fn one_pass(f: &Fixture, clock: &dyn obskit::Clock) -> (FleetOutcome, DaemonReport) {
    let cfg = DaemonConfig::new("127.0.0.1:0", ServeConfig::window(0, MINUTES), f.topology);
    let daemon = Daemon::spawn(Arc::clone(&f.artifact), cfg).expect("daemon spawns");
    let outcome = run_fleet(
        daemon.addr(),
        &f.events,
        &FleetConfig::healthy(CONNS),
        clock,
    )
    .expect("fleet run");
    let report = daemon.join().expect("daemon join");
    (outcome, report)
}

/// Nearest-rank percentile of sorted values.
fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or_default()
}

fn bench_sbed(c: &mut Criterion) {
    let f = fixture();
    let n_requests = f.events.len() as u64 + 1; // + FINISH
    let clock = WallClock::new();

    // Parity gate: two untimed passes must answer identical response
    // streams before any timing is published.
    let fnvs: Vec<u64> = (0..2)
        .map(|_| one_pass(&f, &obskit::NullClock).1.response_fnv)
        .collect();
    assert!(
        fnvs.iter().all(|&x| x == fnvs[0]),
        "response streams diverged across passes: {fnvs:?}"
    );

    // Saturation rate: the median of PASSES passes, with its quartiles;
    // latencies from every pass.
    let mut rates: Vec<f64> = Vec::with_capacity(PASSES);
    let mut latencies: Vec<u64> = Vec::new();
    for _ in 0..PASSES {
        let t0 = std::time::Instant::now();
        let (outcome, _) = one_pass(&f, &clock);
        rates.push(n_requests as f64 / t0.elapsed().as_secs_f64().max(1e-9));
        latencies.extend(
            outcome
                .stats
                .iter()
                .flat_map(|s| s.latencies_ns.iter().copied()),
        );
    }
    rates.sort_by(f64::total_cmp);
    latencies.sort_unstable();
    let rps = nearest_rank(&rates, 0.50);
    eprintln!("{rps:.0} req/s ({n_requests} requests, median of {PASSES} passes)");
    let mut metrics = vec![
        Metric::higher("rps", "req/s", rps).limit(MIN_RPS),
        Metric::higher("rps_q1", "req/s", nearest_rank(&rates, 0.25)),
        Metric::higher("rps_q3", "req/s", nearest_rank(&rates, 0.75)),
    ];

    let p50_ns = nearest_rank(&latencies, 0.50) as f64;
    let p99_ns = nearest_rank(&latencies, 0.99) as f64;
    metrics.push(Metric::lower("latency_p50_ms", "ms", p50_ns / 1e6));
    metrics.push(Metric::lower("latency_p99_ms", "ms", p99_ns / 1e6));
    metrics.push(Metric::higher("p99_over_p50", "ratio", p99_ns / p50_ns).limit(MIN_P99_OVER_P50));

    BenchReport::new(
        "sbed",
        &[
            ("conns", CONNS as u64),
            ("n_nodes", u64::from(f.topology.n_nodes())),
            ("requests", n_requests),
            ("minutes", MINUTES),
        ],
        metrics,
    )
    .write();

    let mut group = c.benchmark_group("sbed");
    group.sample_size(10);
    group.bench_function("fleet", |b| {
        b.iter(|| std::hint::black_box(one_pass(&f, &obskit::NullClock)))
    });
    group.finish();
}

criterion_group!(benches, bench_sbed);
criterion_main!(benches);
