//! Interpreted vs compiled inference throughput — the fastpath trajectory.
//!
//! Raw model inference over a pre-built feature buffer: the interpreted
//! `Gbdt::predict_proba` (the oracle) vs the compiled struct-of-arrays
//! scorer's `predict_proba_into` (the serving path), on a large
//! ensemble (deep trees whose node arrays outgrow the upper cache
//! levels — the regime the lockstep-lane kernel is built for). The
//! batch is kept below the interpreted path's parallel-row threshold so
//! both sides run serial and the numbers are per-core predictions/sec.
//!
//! Besides the Criterion timings, the bench hand-times both sides and
//! writes `BENCH_fastpath.json` at the workspace root, the report
//! `repro check-bench` gates on in CI. Parity is asserted bit-for-bit
//! before anything is timed: a fast wrong answer is not a result.

use criterion::{criterion_group, criterion_main, Criterion};
use mlkit::dataset::Dataset;
use mlkit::fastpath::{CompiledGbdt, FeatureFrame};
use mlkit::gbdt::Gbdt;
use mlkit::model::Classifier;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use sbe_bench::{BenchReport, Metric};

/// Below `Gbdt`'s parallel-row threshold (4096): keeps the interpreted
/// side serial so batch numbers compare one core against one core.
const BATCH_ROWS: usize = 4_000;
const N_FEATURES: usize = 64;
/// A large ensemble: ~170k nodes, where the serving champion (120 trees
/// of depth 5) has at most 7,560; both run the one compiled kernel.
/// This one is well past what fits in the upper cache levels, so
/// scoring cost is dominated by per-step memory latency — serialized on
/// the interpreted walk, overlapped eight-wide on the compiled one.
const N_TREES: usize = 150;
const MAX_DEPTH: usize = 10;
const TRAIN_ROWS: usize = 12_000;
/// Floor on the compiled batch speedup, well under the ~6x a quiet
/// machine shows: shared runners are noisy, and the gate exists to catch
/// the fastpath regressing toward the interpreted baseline, not to flake
/// on scheduler jitter.
const MIN_BATCH_SPEEDUP: f64 = 3.0;

struct BatchFixture {
    model: Gbdt,
    compiled: CompiledGbdt,
    ds: Dataset,
    frame: FeatureFrame,
    out: Vec<f32>,
}

fn batch_fixture() -> BatchFixture {
    let mut rng = StdRng::seed_from_u64(13);
    let mut gen_rows = |n: usize| -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                (0..N_FEATURES)
                    .map(|_| rng.gen::<f32>() * 4.0 - 2.0)
                    .collect()
            })
            .collect()
    };
    let train_rows = gen_rows(TRAIN_ROWS);
    let y: Vec<f32> = train_rows
        .iter()
        .map(|r| {
            if r.iter().take(8).sum::<f32>() > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let train = Dataset::from_rows(&train_rows, &y).expect("train dataset");
    let mut model = Gbdt::new()
        .n_trees(N_TREES)
        .max_depth(MAX_DEPTH)
        .min_samples_leaf(1)
        .seed(7);
    model
        .fit(&train, &mut obskit::Recorder::null())
        .expect("fits");
    let compiled = model.compile().expect("compiles");

    let score_rows = gen_rows(BATCH_ROWS);
    let ds = Dataset::from_rows(&score_rows, &vec![0.0; BATCH_ROWS]).expect("score dataset");
    let frame = FeatureFrame::from_rows(&score_rows).expect("frame");
    let out = vec![0.0f32; BATCH_ROWS];
    let f = BatchFixture {
        model,
        compiled,
        ds,
        frame,
        out,
    };
    assert_batch_parity(&f);
    f
}

/// Bit-for-bit parity gate: refuse to publish a speedup for a scorer
/// that disagrees with the reference.
fn assert_batch_parity(f: &BatchFixture) {
    let interpreted = f.model.predict_proba(&f.ds).expect("predicts");
    let mut out = vec![0.0f32; BATCH_ROWS];
    f.compiled
        .predict_proba_into(&f.frame, &mut out)
        .expect("compiled predicts");
    for (i, (a, b)) in interpreted.iter().zip(&out).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "parity violation at row {i}: interpreted {a} vs compiled {b}"
        );
    }
}

/// Hand-times `reps` runs of `pass` and returns events-per-second for
/// the *fastest* run (`per_rep` events each). Min-time is the standard
/// capability estimator: scheduler noise only ever slows a run down, so
/// the best rep is the least-contaminated one — which is what a floor
/// gate comparing two sides of the same machine should consume.
fn rate_of(reps: u32, per_rep: usize, mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        pass();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    per_rep as f64 / best.max(1e-9)
}

fn bench_fastpath(c: &mut Criterion) {
    let bf = batch_fixture();

    // Hand-timed predictions/sec for the JSON report; the vendored
    // criterion cannot report throughput units.
    const BATCH_REPS: u32 = 20;
    let batch_interpreted = rate_of(BATCH_REPS, BATCH_ROWS, || {
        std::hint::black_box(bf.model.predict_proba(&bf.ds).expect("predicts"));
    });
    let mut out = bf.out.clone();
    let batch_compiled = rate_of(BATCH_REPS, BATCH_ROWS, || {
        bf.compiled
            .predict_proba_into(&bf.frame, &mut out)
            .expect("compiled predicts");
        std::hint::black_box(&out);
    });

    BenchReport::new(
        "fastpath",
        &[
            ("batch_rows", BATCH_ROWS as u64),
            ("n_features", N_FEATURES as u64),
            ("n_trees", N_TREES as u64),
            ("max_depth", MAX_DEPTH as u64),
        ],
        vec![
            Metric::higher("interpreted_pps", "pred/s", batch_interpreted),
            Metric::higher("compiled_pps", "pred/s", batch_compiled),
            Metric::higher("batch_speedup", "ratio", batch_compiled / batch_interpreted)
                .limit(MIN_BATCH_SPEEDUP),
        ],
    )
    .write();

    let mut group = c.benchmark_group("fastpath");
    group.sample_size(10);
    group.bench_function("batch_interpreted", |b| {
        b.iter(|| {
            bf.model
                .predict_proba(std::hint::black_box(&bf.ds))
                .expect("predicts")
        })
    });
    let mut out = bf.out.clone();
    group.bench_function("batch_compiled", |b| {
        b.iter(|| {
            bf.compiled
                .predict_proba_into(std::hint::black_box(&bf.frame), &mut out)
                .expect("compiled predicts")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fastpath);
criterion_main!(benches);
