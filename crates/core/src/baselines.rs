//! The Random and Basic A/B/C prediction schemes of Table I.
//!
//! * **Random** — flips a fair coin per sample,
//! * **Basic A** — predicts SBE for any run on a node that saw an SBE
//!   during training,
//! * **Basic B** — predicts SBE for any run of an application that was
//!   SBE-affected during training,
//! * **Basic C** — like B but restricted to the top 20% of SBE-affected
//!   applications by training-window SBE count.
//!
//! These simple schemes anchor the evaluation: Basic A achieves high
//! recall but poor precision, showing that the characterization insights
//! alone are insufficient and motivating the TwoStage learner.

use crate::datasets::DsSplit;
use crate::history::SbeHistory;
use crate::samples::LabeledSample;
use crate::Result;
use mlkit::metrics::ConfusionMatrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// The basic prediction schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasicScheme {
    /// Fair-coin classifier.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Offender-node scheme.
    A,
    /// Offender-application scheme.
    B,
    /// Top-20% offender-application scheme.
    C,
}

impl BasicScheme {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            BasicScheme::Random { .. } => "Random",
            BasicScheme::A => "Basic A",
            BasicScheme::B => "Basic B",
            BasicScheme::C => "Basic C",
        }
    }
}

/// Predicts labels for `test` samples under a scheme, using only history
/// observable within the split's training window.
///
/// # Errors
///
/// Infallible today; fallible for forward compatibility with schemes that
/// need trace lookups.
pub fn predict_scheme(
    scheme: BasicScheme,
    history: &SbeHistory,
    split: &DsSplit,
    test: &[LabeledSample],
) -> Result<Vec<f32>> {
    let (train_start, train_end) = split.train_window();
    match scheme {
        BasicScheme::Random { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            Ok(test
                .iter()
                .map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 })
                .collect())
        }
        BasicScheme::A => {
            let offenders: BTreeSet<u32> = history
                .offender_nodes_before(train_end)
                .into_iter()
                .map(|n| n.0)
                .collect();
            Ok(test
                .iter()
                .map(|s| {
                    if offenders.contains(&s.node.0) {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect())
        }
        BasicScheme::B => {
            let apps: BTreeSet<u32> = history
                .offender_apps_before(train_end)
                .into_iter()
                .filter(|&(app, _)| history.app_between(app, train_start, train_end) > 0)
                .map(|(app, _)| app.0)
                .collect();
            Ok(test
                .iter()
                .map(|s| if apps.contains(&s.app.0) { 1.0 } else { 0.0 })
                .collect())
        }
        BasicScheme::C => {
            // Rank SBE-affected apps by their training-window SBE count
            // and keep the top 20%.
            let mut apps: Vec<(u32, u64)> = history
                .offender_apps_before(train_end)
                .into_iter()
                .map(|(app, _)| (app.0, history.app_between(app, train_start, train_end)))
                .filter(|&(_, c)| c > 0)
                .collect();
            apps.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
            let keep = (apps.len() as f64 * 0.2).ceil() as usize;
            let top: BTreeSet<u32> = apps.into_iter().take(keep).map(|(a, _)| a).collect();
            Ok(test
                .iter()
                .map(|s| if top.contains(&s.app.0) { 1.0 } else { 0.0 })
                .collect())
        }
    }
}

/// Evaluates one scheme end to end, returning the confusion matrix over
/// all test samples.
///
/// # Errors
///
/// Propagates prediction and metric errors.
pub fn evaluate_scheme(
    scheme: BasicScheme,
    history: &SbeHistory,
    split: &DsSplit,
    test: &[LabeledSample],
) -> Result<ConfusionMatrix> {
    let pred = predict_scheme(scheme, history, split, test)?;
    let truth = crate::samples::labels(test);
    Ok(ConfusionMatrix::from_predictions(&truth, &pred)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::{build_samples, in_window};
    use titan_sim::config::SimConfig;
    use titan_sim::engine::generate;
    use titan_sim::trace::TraceSet;

    fn setup() -> (TraceSet, Vec<LabeledSample>, SbeHistory, DsSplit) {
        let t = generate(&SimConfig::tiny(3)).unwrap();
        let ss = build_samples(&t).unwrap();
        let h = SbeHistory::build(&t).unwrap();
        let split = DsSplit::ds1(&t).unwrap();
        (t, ss, h, split)
    }

    #[test]
    fn random_is_roughly_half_positive() {
        let (_, ss, h, split) = setup();
        let (ts, te) = split.test_window();
        let test = in_window(&ss, ts, te);
        let pred = predict_scheme(BasicScheme::Random { seed: 1 }, &h, &split, &test).unwrap();
        let pos = pred.iter().filter(|&&p| p == 1.0).count() as f64 / pred.len() as f64;
        assert!((pos - 0.5).abs() < 0.1, "positive fraction {pos}");
    }

    #[test]
    fn basic_a_flags_only_offender_nodes() {
        let (_, ss, h, split) = setup();
        let (ts, te) = split.test_window();
        let test = in_window(&ss, ts, te);
        let pred = predict_scheme(BasicScheme::A, &h, &split, &test).unwrap();
        let offenders: BTreeSet<u32> = h
            .offender_nodes_before(split.train_end_min())
            .into_iter()
            .map(|n| n.0)
            .collect();
        for (s, &p) in test.iter().zip(&pred) {
            assert_eq!(p == 1.0, offenders.contains(&s.node.0));
        }
    }

    #[test]
    fn basic_a_recall_beats_b_and_c() {
        // On our traces (like the paper's), node identity is the stronger
        // signal: Basic A should recall at least as much as C.
        let (_, ss, h, split) = setup();
        let (ts, te) = split.test_window();
        let test = in_window(&ss, ts, te);
        let a = evaluate_scheme(BasicScheme::A, &h, &split, &test).unwrap();
        let c = evaluate_scheme(BasicScheme::C, &h, &split, &test).unwrap();
        assert!(a.recall() >= c.recall());
    }

    #[test]
    fn basic_c_subset_of_b() {
        let (_, ss, h, split) = setup();
        let (ts, te) = split.test_window();
        let test = in_window(&ss, ts, te);
        let b = predict_scheme(BasicScheme::B, &h, &split, &test).unwrap();
        let c = predict_scheme(BasicScheme::C, &h, &split, &test).unwrap();
        for (pb, pc) in b.iter().zip(&c) {
            // C positive implies B positive.
            assert!(*pc <= *pb);
        }
    }

    #[test]
    fn scheme_names() {
        assert_eq!(BasicScheme::Random { seed: 0 }.name(), "Random");
        assert_eq!(BasicScheme::A.name(), "Basic A");
        assert_eq!(BasicScheme::B.name(), "Basic B");
        assert_eq!(BasicScheme::C.name(), "Basic C");
    }

    #[test]
    fn deterministic_random_given_seed() {
        let (_, ss, h, split) = setup();
        let (ts, te) = split.test_window();
        let test = in_window(&ss, ts, te);
        let a = predict_scheme(BasicScheme::Random { seed: 7 }, &h, &split, &test).unwrap();
        let b = predict_scheme(BasicScheme::Random { seed: 7 }, &h, &split, &test).unwrap();
        assert_eq!(a, b);
    }
}
