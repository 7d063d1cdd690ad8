//! Simulator throughput: full trace generation, per-slot telemetry
//! re-simulation, and on-demand telemetry queries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use titan_sim::config::SimConfig;
use titan_sim::engine::{generate, TelemetryQueryEngine};
use titan_sim::telemetry::SeriesKind;
use titan_sim::topology::NodeId;

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    group.bench_function("tiny_trace", |b| {
        b.iter(|| generate(std::hint::black_box(&SimConfig::tiny(3))).expect("generates"))
    });
    group.finish();
}

fn bench_slot_simulation(c: &mut Criterion) {
    let trace = generate(&SimConfig::tiny(3)).expect("generates");
    let horizon = trace.config().total_minutes();
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(20);
    // Full 30-day horizon for one 4-node slot = ~173k simulated minutes: a
    // fresh engine has no kept state and no checkpoint before minute 0, so
    // it records node 4's whole slot from minute 0.
    group.bench_function("slot_full_horizon", |b| {
        b.iter_batched(
            || TelemetryQueryEngine::new(&trace).expect("engine builds"),
            |engine| {
                engine
                    .node_series(
                        std::hint::black_box(NodeId(4)),
                        SeriesKind::GpuTemp,
                        0,
                        horizon,
                    )
                    .expect("simulates")
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_query_engine(c: &mut Criterion) {
    let cfg = SimConfig::tiny(3);
    let trace = generate(&cfg).expect("generates");
    let engine = TelemetryQueryEngine::new(&trace).expect("engine builds");
    // 64 samples spread over the trace.
    let step = (trace.samples().len() / 64).max(1);
    let pairs: Vec<_> = trace
        .samples()
        .iter()
        .step_by(step)
        .map(|s| (s.aprun, s.node))
        .collect();
    let mut group = c.benchmark_group("query");
    group.sample_size(10);
    group.bench_function("telemetry_stats_64_samples", |b| {
        b.iter(|| engine.query(std::hint::black_box(&pairs)).expect("queries"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generate,
    bench_slot_simulation,
    bench_query_engine
);
criterion_main!(benches);
