//! Feature-pipeline throughput: extraction per feature group and SBE
//! history queries.

use criterion::{criterion_group, criterion_main, Criterion};
use obskit::Recorder;
use sbepred::features::{FeatureExtractor, FeatureSpec};
use sbepred::history::SbeHistory;
use sbepred::samples::build_samples;
use titan_sim::config::SimConfig;
use titan_sim::engine::generate;
use titan_sim::topology::NodeId;

fn bench_extraction(c: &mut Criterion) {
    let trace = generate(&SimConfig::tiny(3)).expect("generates");
    let samples = build_samples(&trace).expect("samples build");
    let fx = FeatureExtractor::new(&trace, &samples).expect("extractor builds");
    let subset = &samples[..256.min(samples.len())];

    let mut group = c.benchmark_group("extract_256_samples");
    group.sample_size(10);
    for (name, spec) in [
        ("hist_only", FeatureSpec::only_hist()),
        ("app_only", FeatureSpec::only_app()),
        ("all_features", FeatureSpec::all()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                fx.extract(std::hint::black_box(subset), &spec, &mut Recorder::null())
                    .expect("extracts")
            })
        });
    }
    group.finish();
}

fn bench_history(c: &mut Criterion) {
    let trace = generate(&SimConfig::tiny(3)).expect("generates");
    let history = SbeHistory::build(&trace).expect("history builds");
    let horizon = trace.config().total_minutes();

    let mut group = c.benchmark_group("history");
    group.bench_function("node_between_1000_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                let node = NodeId((i % 64) as u32);
                let t = (i * 37) % horizon;
                acc += history.node_between(node, t.saturating_sub(1440), t);
            }
            acc
        })
    });
    group.bench_function("offender_set", |b| {
        b.iter(|| history.offender_nodes_before(std::hint::black_box(horizon / 2)))
    });
    group.finish();
}

criterion_group!(benches, bench_extraction, bench_history);
criterion_main!(benches);
