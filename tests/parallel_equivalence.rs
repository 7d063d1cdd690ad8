//! Parallel-vs-serial equivalence suite.
//!
//! The contract of the parkit layer (DESIGN.md "Parallel execution &
//! determinism") is that the thread policy is an execution detail: every
//! result in this workspace is bit-identical whether computed inline,
//! with one worker, or with many. These tests lock that contract down at
//! the layers where parkit is wired in — trace generation, telemetry
//! queries, GBDT training/prediction, and cross-validation — by running
//! each at 1, 2, and 8 threads and demanding byte- or value-identical
//! output.

use gpu_error_prediction::mlkit::crossval::cross_validate;
use gpu_error_prediction::mlkit::dataset::Dataset;
use gpu_error_prediction::mlkit::gbdt::Gbdt;
use gpu_error_prediction::mlkit::model::Classifier;
use gpu_error_prediction::obskit::Recorder;
use gpu_error_prediction::parkit::Threads;
use gpu_error_prediction::titan_sim::config::SimConfig;
use gpu_error_prediction::titan_sim::engine::{generate, SampleTelemetry, TelemetryQueryEngine};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A deterministic, learnable dataset big enough to cross the parallel
/// work-size gates in the GBDT split finder (samples × features ≥ 32768).
fn synthetic_dataset(n: usize, d: usize) -> Dataset {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| (((i * 31 + j * 17) % 97) as f32) / 97.0)
                .collect()
        })
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| if r[0] + r[1] > r[2] + 0.5 { 1.0 } else { 0.0 })
        .collect();
    Dataset::from_rows(&rows, &y).expect("dataset builds")
}

#[test]
fn trace_generation_is_thread_count_invariant() {
    let reference = {
        let cfg = SimConfig::tiny(3).with_threads(Threads::Serial);
        let t = generate(&cfg).expect("trace generates");
        serde_json::to_string(&t).expect("trace serializes")
    };
    for n in THREAD_COUNTS {
        let cfg = SimConfig::tiny(3).with_threads(Threads::Fixed(n));
        let t = generate(&cfg).expect("trace generates");
        let s = serde_json::to_string(&t).expect("trace serializes");
        assert_eq!(s, reference, "trace diverged at {n} threads");
    }
}

/// Every field of each answer, floats as bits.
fn telemetry_bits(answers: &[SampleTelemetry]) -> Vec<u32> {
    let mut bits = Vec::new();
    for t in answers {
        bits.extend([t.aprun.0, t.node.0]);
        let stats = [t.run_temp, t.run_power, t.cpu_temp, t.nei_temp, t.nei_power]
            .into_iter()
            .chain(t.prev_temp)
            .chain(t.prev_power);
        for w in stats {
            bits.extend([w.mean, w.std, w.diff_mean, w.diff_std].map(f32::to_bits));
        }
    }
    bits
}

#[test]
fn telemetry_queries_are_thread_count_invariant() {
    // A stream-sized query (one short launch on at most two slots)
    // simulates less than one query grain and stays on the calling
    // thread; a bulk query over every sample fans out across slots.
    // Both must answer the same bits under every policy.
    let answers = |threads: Threads| -> (Vec<u32>, Vec<u32>) {
        let trace = generate(&SimConfig::tiny(13).with_threads(threads)).expect("trace generates");
        let topo = trace.config().topology;
        let mid = trace.config().total_minutes() / 2;
        let launch = trace
            .apruns()
            .iter()
            .filter(|r| r.start_min > mid && r.runtime_min() <= 120)
            .find(|r| {
                let mut slots: Vec<u32> = r
                    .nodes
                    .iter()
                    .map(|&n| topo.slot_of(n).expect("node in topology").0)
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                slots.len() <= 2
            })
            .expect("a short launch on at most two slots");
        let stream: Vec<_> = launch.nodes.iter().map(|&n| (launch.id, n)).collect();
        let bulk: Vec<_> = trace.samples().iter().map(|s| (s.aprun, s.node)).collect();
        let engine = TelemetryQueryEngine::new(&trace).expect("engine builds");
        let small = engine.query(&stream).expect("stream query");
        let all = engine.query(&bulk).expect("bulk query");
        (telemetry_bits(&small), telemetry_bits(&all))
    };
    let reference = answers(Threads::Serial);
    for n in [2, 8] {
        let (small, all) = answers(Threads::Fixed(n));
        assert!(small == reference.0, "stream query diverged at {n} threads");
        assert!(all == reference.1, "bulk query diverged at {n} threads");
    }
}

#[test]
fn gbdt_predictions_are_thread_count_invariant() {
    let train = synthetic_dataset(1_200, 30); // 36_000 > split-finder gate
    let test = synthetic_dataset(400, 30);

    let fit_predict = |threads: Threads| -> Vec<f32> {
        let mut model = Gbdt::new()
            .n_trees(25)
            .max_depth(4)
            .min_samples_leaf(5)
            .subsample(0.8)
            .seed(42)
            .threads(threads);
        model.fit(&train).expect("gbdt fits");
        model.predict_proba(&test).expect("gbdt predicts")
    };

    let reference = fit_predict(Threads::Serial);
    assert!(
        reference.iter().any(|&p| p > 0.5) && reference.iter().any(|&p| p < 0.5),
        "degenerate reference predictions"
    );
    for n in THREAD_COUNTS {
        let probs = fit_predict(Threads::Fixed(n));
        // Bit-exact, not approximate: the parallel split finder replicates
        // the serial reduce order including tie-breaks.
        assert_eq!(probs, reference, "predictions diverged at {n} threads");
    }
}

#[test]
fn cross_validation_folds_are_thread_count_invariant() {
    let ds = synthetic_dataset(600, 8);
    let factory = || {
        Gbdt::new()
            .n_trees(10)
            .max_depth(3)
            .min_samples_leaf(2)
            .seed(7)
    };

    let reference = cross_validate(&ds, 5, 11, Threads::Serial, &mut Recorder::null(), factory)
        .expect("serial cv runs")
        .folds;
    for n in THREAD_COUNTS {
        let folds = cross_validate(
            &ds,
            5,
            11,
            Threads::Fixed(n),
            &mut Recorder::null(),
            factory,
        )
        .expect("parallel cv runs")
        .folds;
        // Per-fold confusion matrices in fold order, not just aggregates.
        assert_eq!(folds, reference, "cv folds diverged at {n} threads");
    }
}

#[test]
fn sbe_threads_env_override_is_parsed() {
    // Auto resolves through SBE_THREADS; don't mutate the process env in a
    // parallel test binary — just check the explicit policies resolve sanely.
    assert_eq!(Threads::Serial.resolve(), 1);
    assert_eq!(Threads::Fixed(0).resolve(), 1);
    assert_eq!(Threads::Fixed(6).resolve(), 6);
    assert!(Threads::Auto.resolve() >= 1);
}
