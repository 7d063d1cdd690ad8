//! Property-based tests for the ML substrate.

use mlkit::dataset::Dataset;
use mlkit::gbdt::Gbdt;
use mlkit::linear::{sigmoid, LogisticRegression};
use mlkit::matrix::Matrix;
use mlkit::model::Classifier;
use mlkit::scaler::StandardScaler;
use mlkit::tree::QuantileBinner;
use proptest::prelude::*;

fn dataset_strategy(max_n: usize, d: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec((prop::collection::vec(-10.0f32..10.0, d), 0u8..2), 4..max_n)
        .prop_filter_map("needs both classes", |rows| {
            let x: Vec<Vec<f32>> = rows.iter().map(|(r, _)| r.clone()).collect();
            let y: Vec<f32> = rows.iter().map(|&(_, l)| l as f32).collect();
            let pos = y.iter().filter(|&&v| v == 1.0).count();
            if pos == 0 || pos == y.len() {
                return None;
            }
            Dataset::from_rows(&x, &y).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transpose_is_an_involution(
        rows in 1usize..20,
        cols in 1usize..20,
        seed in 0u64..1000,
    ) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as u64).wrapping_mul(seed + 1) % 97) as f32)
            .collect();
        let m = Matrix::from_vec(rows, cols, data).expect("valid");
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_is_neutral(n in 1usize..16, seed in 0u64..1000) {
        let data: Vec<f32> = (0..n * n)
            .map(|i| ((i as u64).wrapping_mul(seed + 3) % 31) as f32)
            .collect();
        let a = Matrix::from_vec(n, n, data).expect("valid");
        let mut eye = Matrix::zeros(n, n);
        for i in 0..n {
            eye.set(i, i, 1.0);
        }
        prop_assert_eq!(a.matmul(&eye).expect("conforms"), a.clone());
        prop_assert_eq!(eye.matmul(&a).expect("conforms"), a);
    }

    #[test]
    fn sigmoid_bounded_and_monotone(a in -50.0f32..50.0, b in -50.0f32..50.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (sa, sb) = (sigmoid(lo), sigmoid(hi));
        prop_assert!((0.0..=1.0).contains(&sa));
        prop_assert!((0.0..=1.0).contains(&sb));
        prop_assert!(sa <= sb);
    }

    #[test]
    fn standard_scaler_never_produces_nan(ds in dataset_strategy(40, 3)) {
        let sc = StandardScaler::fit(&ds).expect("fits");
        let t = sc.transform(&ds).expect("transforms");
        for v in t.x().as_slice() {
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn binner_preserves_value_order(
        values in prop::collection::vec(-100.0f32..100.0, 8..100),
        probe_a in -100.0f32..100.0,
        probe_b in -100.0f32..100.0,
    ) {
        let rows: Vec<Vec<f32>> = values.iter().map(|&v| vec![v]).collect();
        let x = Matrix::from_rows(&rows).expect("valid");
        let binner = QuantileBinner::fit(&x, 16).expect("fits");
        let (lo, hi) = if probe_a <= probe_b { (probe_a, probe_b) } else { (probe_b, probe_a) };
        prop_assert!(binner.bin_value(0, lo) <= binner.bin_value(0, hi));
    }

    #[test]
    fn binner_value_lands_within_its_cut_bounds(
        values in prop::collection::vec(-100.0f32..100.0, 8..100),
        probe in -100.0f32..100.0,
    ) {
        let rows: Vec<Vec<f32>> = values.iter().map(|&v| vec![v]).collect();
        let x = Matrix::from_rows(&rows).expect("valid");
        let binner = QuantileBinner::fit(&x, 16).expect("fits");
        let b = binner.bin_value(0, probe) as usize;
        let nb = binner.n_bins_for(0);
        prop_assert!(b < nb, "bin {b} out of range {nb}");
        // bin_value counts thresholds <= probe, so the bin's bracketing
        // cuts must contain the value: threshold[b-1] <= probe < threshold[b].
        if b > 0 {
            prop_assert!(binner.threshold(0, b - 1) <= probe);
        }
        if b + 1 < nb {
            prop_assert!(probe < binner.threshold(0, b));
        }
    }

    #[test]
    fn binning_bit_identical_across_thread_policies(
        values in prop::collection::vec(-100.0f32..100.0, 16..80),
    ) {
        // Binning has no internal parallelism; what the determinism
        // contract requires is that dispatching it across parkit workers
        // (as the training engines do) is order-preserving and
        // bit-identical at 1/2/8 threads.
        let rows: Vec<Vec<f32>> = values.iter().map(|&v| vec![v, -v]).collect();
        let x = Matrix::from_rows(&rows).expect("valid");
        let binner = QuantileBinner::fit(&x, 16).expect("fits");
        let idx: Vec<usize> = (0..rows.len()).collect();
        let bin_all = |threads: parkit::Threads| -> Vec<(u8, u8)> {
            parkit::par_map(threads, &idx, |&i| {
                (binner.bin_value(0, rows[i][0]), binner.bin_value(1, rows[i][1]))
            })
        };
        let reference = bin_all(parkit::Threads::Serial);
        for n in [1usize, 2, 8] {
            prop_assert_eq!(bin_all(parkit::Threads::Fixed(n)), reference.clone());
        }
    }

    #[test]
    fn binner_fit_invariant_under_row_permutation_with_nans(
        mut values in prop::collection::vec((-100.0f32..100.0, 0u8..10), 8..60),
        rotate in 0usize..60,
    ) {
        // ~10% of entries become NaN: the total_cmp sort must give NaNs
        // a fixed position, so fitted cuts cannot depend on row order.
        let as_rows = |vals: &[(f32, u8)]| -> Vec<Vec<f32>> {
            vals.iter()
                .map(|&(v, tag)| vec![if tag == 0 { f32::NAN } else { v }])
                .collect()
        };
        let a = Matrix::from_rows(&as_rows(&values)).expect("valid");
        let shift = rotate % values.len();
        values.rotate_left(shift);
        let b = Matrix::from_rows(&as_rows(&values)).expect("valid");
        let fit_cuts = |x: &Matrix| -> Vec<u32> {
            let binner = QuantileBinner::fit(x, 16).expect("fits");
            (0..binner.n_bins_for(0).saturating_sub(1))
                .map(|c| binner.threshold(0, c).to_bits())
                .collect()
        };
        prop_assert_eq!(fit_cuts(&a), fit_cuts(&b));
    }

    #[test]
    fn gbdt_probabilities_always_bounded(ds in dataset_strategy(60, 3)) {
        let mut m = Gbdt::new().n_trees(5).max_depth(3).min_samples_leaf(1);
        if m.fit(&ds, &mut obskit::Recorder::null()).is_ok() {
            for p in m.predict_proba(&ds).expect("predicts") {
                prop_assert!((0.0..=1.0).contains(&p), "probability {p}");
            }
        }
    }

    #[test]
    fn lr_predictions_are_binary(ds in dataset_strategy(60, 3)) {
        let mut m = LogisticRegression::new().epochs(5);
        if m.fit(&ds, &mut obskit::Recorder::null()).is_ok() {
            for p in m.predict(&ds).expect("predicts") {
                prop_assert!(p == 0.0 || p == 1.0);
            }
        }
    }

    #[test]
    fn dataset_select_preserves_class_counts(ds in dataset_strategy(60, 2)) {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let copy = ds.select(&idx);
        prop_assert_eq!(copy.n_positive(), ds.n_positive());
        prop_assert_eq!(copy.n_negative(), ds.n_negative());
        prop_assert_eq!(copy.x().as_slice(), ds.x().as_slice());
    }
}

// --- artifact envelope: lineage round-trip and corruption properties ---

fn lineage_strategy() -> impl Strategy<Value = mlkit::artifact::Lineage> {
    (
        0u64..u64::MAX,
        0u64..1_000_000,
        0u64..1_000_000,
        0u32..u32::MAX,
    )
        .prop_map(
            |(parent_checksum, from, span, generation)| mlkit::artifact::Lineage {
                parent_checksum,
                train_from_min: from,
                train_until_min: from + span,
                generation,
            },
        )
}

fn kind_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..24)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn envelope_round_trips_any_lineage(
        kind in kind_strategy(),
        schema_hash in 0u64..u64::MAX,
        lineage in lineage_strategy(),
        payload in prop::collection::vec((0u16..256u16).prop_map(|v| v as u8), 0..256),
    ) {
        let env = mlkit::artifact::Envelope::with_lineage(kind, schema_hash, lineage, payload);
        let bytes = env.encode().expect("encode");
        let back = mlkit::artifact::Envelope::decode(&bytes).expect("decode");
        prop_assert_eq!(back, env);
    }

    #[test]
    fn any_truncation_of_any_envelope_is_a_typed_error(
        lineage in lineage_strategy(),
        payload in prop::collection::vec((0u16..256u16).prop_map(|v| v as u8), 0..64),
        cut_seed in 0u64..u64::MAX,
    ) {
        let env = mlkit::artifact::Envelope::with_lineage("k/t", 7, lineage, payload);
        let bytes = env.encode().expect("encode");
        let n = (cut_seed % bytes.len() as u64) as usize;
        let truncated_is_typed = matches!(
            mlkit::artifact::Envelope::decode(&bytes[..n]),
            Err(mlkit::MlError::ArtifactCorrupt { .. })
        );
        prop_assert!(truncated_is_typed, "truncation at {} was not typed", n);
    }

    #[test]
    fn any_payload_bit_flip_fails_the_checksum(
        lineage in lineage_strategy(),
        payload in prop::collection::vec((0u16..256u16).prop_map(|v| v as u8), 1..64),
        which_seed in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let env = mlkit::artifact::Envelope::with_lineage("k/t", 7, lineage, payload);
        let mut bytes = env.encode().expect("encode");
        let start = bytes.len() - env.payload.len();
        let i = start + (which_seed % env.payload.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        let flip_is_typed = matches!(
            mlkit::artifact::Envelope::decode(&bytes),
            Err(mlkit::MlError::ArtifactCorrupt { .. })
        );
        prop_assert!(flip_is_typed, "payload flip at byte {} bit {} decoded", i, bit);
    }

    #[test]
    fn succession_accepts_exactly_the_direct_child(
        parent in 0u64..1024,
        claimed_parent in 0u64..1024,
        parent_generation in 0u32..64,
        claimed_generation in 0u32..64,
    ) {
        let lineage = mlkit::artifact::Lineage {
            parent_checksum: claimed_parent,
            train_from_min: 0,
            train_until_min: 1,
            generation: claimed_generation,
        };
        let ok = claimed_parent == parent
            && claimed_generation == parent_generation.wrapping_add(1);
        prop_assert_eq!(
            lineage.verify_succession(parent, parent_generation).is_ok(),
            ok
        );
    }
}
