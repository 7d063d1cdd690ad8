//! Property-based tests (proptest) on core invariants across the
//! workspace: topology coordinate algebra, statistics (and their answer to
//! NaN-bearing input), metrics, the streaming SBE-history index against a
//! naive event sum, sampling ratios, and forecasting stability.

use gpu_error_prediction::mlkit::dataset::Dataset;
use gpu_error_prediction::mlkit::metrics::{roc_auc, ConfusionMatrix};
use gpu_error_prediction::mlkit::sampling::{random_oversample, random_undersample, smote};
use gpu_error_prediction::mlkit::stats::{mean, percentile, ranks, spearman, std_dev, Ecdf};
use gpu_error_prediction::mlkit::MlError;
use gpu_error_prediction::sbepred::history::{HistoryView, IncrementalHistory};
use gpu_error_prediction::titan_sim::apps::AppId;
use gpu_error_prediction::titan_sim::telemetry::window_stats;
use gpu_error_prediction::titan_sim::topology::{NodeId, Topology};
use gpu_error_prediction::tscast::ar::ArModel;
use gpu_error_prediction::tscast::Forecaster;
use proptest::prelude::*;

/// A history query bound: a minute up to a little past the last event
/// an event list can reach, or now and then `u64::MAX`.
fn history_bound() -> impl Strategy<Value = u64> {
    (0u32..10, 0u64..1_250).prop_map(|(pick, t)| if pick == 0 { u64::MAX } else { t })
}

proptest! {
    #[test]
    fn topology_location_round_trips(
        gx in 1u16..12, gy in 1u16..8, cages in 1u16..4, slots in 1u16..6, nodes in 1u16..5,
        pick in 0u32..100_000,
    ) {
        let topo = Topology::new(gx, gy, cages, slots, nodes).expect("valid dims");
        let node = NodeId(pick % topo.n_nodes());
        let loc = topo.location(node).expect("in range");
        prop_assert_eq!(topo.node_id(loc).expect("valid loc"), node);
        // Slot membership is consistent.
        let slot = topo.slot_of(node).expect("in range");
        let members = topo.slot_members(slot).expect("valid slot");
        prop_assert!(members.contains(&node));
        prop_assert_eq!(members.len(), nodes as usize);
    }

    #[test]
    fn window_stats_match_naive_computation(xs in prop::collection::vec(-100.0f32..100.0, 1..200)) {
        let s = window_stats(&xs);
        let xs64: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        prop_assert!((s.mean as f64 - mean(&xs64)).abs() < 1e-2);
        prop_assert!((s.std as f64 - std_dev(&xs64)).abs() < 1e-2);
        if xs.len() >= 2 {
            let diffs: Vec<f64> = xs64.windows(2).map(|w| w[1] - w[0]).collect();
            prop_assert!((s.diff_mean as f64 - mean(&diffs)).abs() < 1e-2);
        }
    }

    #[test]
    fn ranks_are_a_permutation_mean(xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let r = ranks(&xs);
        // Rank sum is always n(n+1)/2 (ties average preserves the sum).
        let n = xs.len() as f64;
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn spearman_is_symmetric_and_bounded(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let (Ok(a), Ok(b)) = (spearman(&xs, &ys), spearman(&ys, &xs)) {
            prop_assert!((a - b).abs() < 1e-9);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&a));
        }
    }

    #[test]
    fn percentile_is_monotone(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo).expect("valid");
        let b = percentile(&xs, hi).expect("valid");
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        probe1 in -2e3f64..2e3,
        probe2 in -2e3f64..2e3,
    ) {
        let cdf = Ecdf::new(&xs);
        let (lo, hi) = if probe1 <= probe2 { (probe1, probe2) } else { (probe2, probe1) };
        let a = cdf.eval(lo);
        let b = cdf.eval(hi);
        prop_assert!(a <= b);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!((0.0..=1.0).contains(&b));
    }

    #[test]
    fn nan_bearing_input_never_panics(
        cells in prop::collection::vec((-1e3f64..1e3, 0u32..7), 2..120),
        p in 0.0f64..100.0,
        minority in prop::collection::vec((-10.0f32..10.0, -10.0f32..10.0, 0u32..5), 2..150),
    ) {
        // About one value in seven is NaN.
        let xs: Vec<f64> = cells
            .iter()
            .map(|&(v, pick)| if pick == 0 { f64::NAN } else { v })
            .collect();
        let numbers: Vec<f64> = xs.iter().copied().filter(|v| !v.is_nan()).collect();
        let has_nan = numbers.len() < xs.len();
        let is_nan_err = |r: Result<f64, MlError>| matches!(r, Err(MlError::NanInput { .. }));

        // Result-returning functions answer a NaN with a typed error.
        prop_assert_eq!(is_nan_err(percentile(&xs, p)), has_nan);
        let reversed: Vec<f64> = xs.iter().rev().copied().collect();
        prop_assert_eq!(is_nan_err(spearman(&xs, &reversed)), has_nan);
        let truth: Vec<f32> = (0..xs.len()).map(|i| (i % 2) as f32).collect();
        let scores: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
        prop_assert_eq!(is_nan_err(roc_auc(&truth, &scores)), has_nan);

        // The others put NaN last and leave the numbers as they were.
        let r = ranks(&xs);
        let kept: Vec<f64> = xs.iter().zip(&r).filter(|(v, _)| !v.is_nan()).map(|(_, &k)| k).collect();
        prop_assert_eq!(kept, ranks(&numbers));
        for (v, &k) in xs.iter().zip(&r) {
            if v.is_nan() {
                prop_assert!(k > numbers.len() as f64);
            }
        }
        let cdf = Ecdf::new(&xs);
        prop_assert_eq!(cdf.len(), xs.len());
        prop_assert_eq!(cdf.eval(f64::INFINITY), numbers.len() as f64 / xs.len() as f64);

        // SMOTE over positives whose second feature is NaN about one in five.
        let mut rows: Vec<Vec<f32>> = minority
            .iter()
            .map(|&(a, b, pick)| vec![a, if pick == 0 { f32::NAN } else { b }])
            .collect();
        let minority_nan = rows.iter().any(|row| row[1].is_nan());
        let mut y = vec![1.0f32; rows.len()];
        for i in 0..4 * rows.len() {
            rows.push(vec![i as f32, 0.0]);
            y.push(0.0);
        }
        let ds = Dataset::from_rows(&rows, &y).expect("valid");
        match smote(&ds, 1.0, 5, 7) {
            Ok(out) => {
                prop_assert!(!minority_nan);
                prop_assert_eq!(out.n_negative(), 4 * minority.len());
            }
            Err(e) => {
                let nan_refused = matches!(e, MlError::NanInput { .. });
                prop_assert!(minority_nan && nan_refused, "unexpected error: {e}");
            }
        }
    }

    #[test]
    fn confusion_counts_partition_the_samples(
        labels in prop::collection::vec((0u8..2, 0u8..2), 1..200)
    ) {
        let truth: Vec<f32> = labels.iter().map(|&(t, _)| t as f32).collect();
        let pred: Vec<f32> = labels.iter().map(|&(_, p)| p as f32).collect();
        let cm = ConfusionMatrix::from_predictions(&truth, &pred).expect("valid");
        prop_assert_eq!(cm.total() as usize, labels.len());
        // Precision and recall stay in [0, 1].
        prop_assert!((0.0..=1.0).contains(&cm.precision()));
        prop_assert!((0.0..=1.0).contains(&cm.recall()));
        prop_assert!((0.0..=1.0).contains(&cm.f1()));
    }

    #[test]
    fn undersample_never_exceeds_requested_ratio(
        n_pos in 1usize..20,
        n_neg in 1usize..200,
        ratio in 0.5f64..5.0,
    ) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_pos {
            rows.push(vec![i as f32, 1.0]);
            y.push(1.0);
        }
        for i in 0..n_neg {
            rows.push(vec![i as f32, 0.0]);
            y.push(0.0);
        }
        let ds = Dataset::from_rows(&rows, &y).expect("valid");
        let out = random_undersample(&ds, ratio, 7).expect("samples");
        prop_assert_eq!(out.n_positive(), n_pos);
        let max_neg = ((n_pos as f64 * ratio).round() as usize).clamp(1, n_neg);
        prop_assert!(out.n_negative() <= max_neg);
    }

    #[test]
    fn oversample_reaches_requested_ratio(
        n_pos in 1usize..10,
        n_neg in 10usize..100,
    ) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_pos {
            rows.push(vec![i as f32]);
            y.push(1.0);
        }
        for i in 0..n_neg {
            rows.push(vec![-(i as f32)]);
            y.push(0.0);
        }
        let ds = Dataset::from_rows(&rows, &y).expect("valid");
        let out = random_oversample(&ds, 2.0, 7).expect("samples");
        prop_assert_eq!(out.n_negative(), n_neg);
        prop_assert!(out.imbalance_ratio() <= 2.0 + 1e-9);
    }

    #[test]
    fn ar_forecasts_are_finite_for_stationary_series(
        phi in -0.9f64..0.9,
        start in -10.0f64..10.0,
        horizon in 1usize..50,
    ) {
        // Generate a stationary AR(1) path with bounded noise.
        let mut x = start;
        let mut state = 0x9e37_79b9u64;
        let series: Vec<f64> = (0..300)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                x = phi * x + noise;
                x
            })
            .collect();
        if let Ok(model) = ArModel::fit(&series, 2) {
            let fc = model.forecast(&series, horizon).expect("forecasts");
            prop_assert_eq!(fc.len(), horizon);
            for v in fc {
                prop_assert!(v.is_finite());
                prop_assert!(v.abs() < 1e6);
            }
        }
    }

    #[test]
    fn incremental_history_matches_a_naive_event_sum(
        steps in prop::collection::vec((0u64..4, 0u32..6, 0u32..4, 0u32..3, 0u32..8), 0..400),
        queries in prop::collection::vec(
            (history_bound(), history_bound(), 0u32..7, 0u32..5),
            1..40,
        ),
    ) {
        // Each step advances the minute by 0..=3, so repeated minutes are
        // common, and ~400 events fill many 8-point arena chunks per series.
        let mut history = IncrementalHistory::new();
        let mut events: Vec<(u64, u32, u32, u32)> = Vec::with_capacity(steps.len());
        let mut minute = 0u64;
        for &(gap, node, app, count, stale) in &steps {
            minute += gap;
            prop_assert!(history.ingest(minute, NodeId(node), AppId(app), count).is_ok());
            events.push((minute, node, app, count));
            // Now and then, offer an event behind the frontier: it must be
            // refused, and the answers below prove it left no trace.
            if stale == 0 && minute > 0 {
                let behind = minute - 1 - u64::from(app) % minute;
                prop_assert!(history.ingest(behind, NodeId(node), AppId(app), count + 1).is_err());
            }
        }
        let naive = |a: u64, b: u64, keep: &dyn Fn(u32, u32) -> bool| -> u64 {
            events
                .iter()
                .filter(|&&(t, node, app, _)| a <= t && t < b && keep(node, app))
                .map(|&(_, _, _, count)| u64::from(count))
                .sum()
        };
        prop_assert_eq!(history.frontier(), minute);
        prop_assert_eq!(history.total(), naive(0, u64::MAX, &|_, _| true));
        // Node 6 and app 4 never occur; `a > b` ranges are empty.
        for &(a, b, node, app) in &queries {
            prop_assert_eq!(
                history.node_between(NodeId(node), a, b),
                naive(a, b, &|n, _| n == node)
            );
            prop_assert_eq!(history.node_before(NodeId(node), b), naive(0, b, &|n, _| n == node));
            prop_assert_eq!(
                history.app_between(AppId(app), a, b),
                naive(a, b, &|_, p| p == app)
            );
            prop_assert_eq!(history.machine_between(a, b), naive(a, b, &|_, _| true));
            prop_assert_eq!(history.machine_before(b), naive(0, b, &|_, _| true));
        }
    }
}
