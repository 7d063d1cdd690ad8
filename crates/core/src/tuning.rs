//! Decision-threshold tuning.
//!
//! The paper's models threshold probability at 0.5, but operational
//! deployments (the ECC advisor) want either the F1-optimal threshold or
//! the most permissive threshold that still meets a precision floor.
//! Both sweeps run in `O(n log n)` by sorting the scores once.

use crate::{PredError, Result};
use mlkit::metrics::Prf;

/// One point of a threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    /// Scores `>= threshold` are predicted positive.
    pub threshold: f32,
    /// Metrics at this threshold.
    pub metrics: Prf,
}

/// The grain, in tie groups, of the sweep's two parallel passes
/// ([`parkit::Threads::for_work`]): they only pay off on large curves.
const PAR_SWEEP_MIN_GROUPS: usize = 4_096;

/// Sweeps every distinct score as a threshold, returning the metric curve
/// sorted by ascending threshold, and records sweep progress into `rec`:
/// samples scanned, tie-groups (= emitted curve points), and a
/// `tuning.sweep` span. Recording never changes the curve.
///
/// The sweep decomposes into: a serial sort, tie-group discovery, a
/// parallel per-group counting pass, a serial prefix sum over groups, and
/// a parallel point-emission pass. The counts are exact integers and the
/// prefix sum is serial, so every thread policy produces an identical
/// curve.
///
/// # Errors
///
/// Returns [`PredError::InvalidInput`] for empty or mismatched inputs, a
/// NaN score, or when a class is absent.
pub fn threshold_sweep(
    truth: &[f32],
    scores: &[f32],
    threads: parkit::Threads,
    rec: &mut obskit::Recorder,
) -> Result<Vec<ThresholdPoint>> {
    if truth.len() != scores.len() || truth.is_empty() {
        return Err(PredError::InvalidInput {
            reason: format!(
                "need equal non-empty truth/scores, got {} and {}",
                truth.len(),
                scores.len()
            ),
        });
    }
    // A NaN equals nothing, itself included, so it would never close its
    // tie group below.
    if let Some(i) = scores.iter().position(|s| s.is_nan()) {
        return Err(PredError::InvalidInput {
            reason: format!("score {i} is NaN"),
        });
    }
    let total_pos: u64 = truth.iter().filter(|&&t| t == 1.0).count() as u64;
    let total = truth.len() as u64;
    if total_pos == 0 || total_pos == total {
        return Err(PredError::InvalidInput {
            reason: "threshold sweep needs both classes".into(),
        });
    }
    // Sort by descending score; walking down the list moves the threshold
    // down, turning one more sample positive at a time.
    let mut order: Vec<usize> = (0..truth.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Tie-group boundaries: all samples with the same score flip together.
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let score = scores[order[i]];
        let start = i;
        while i < order.len() && scores[order[i]] == score {
            i += 1;
        }
        groups.push((start, i));
    }

    let span = rec.span_start("tuning.sweep");
    rec.incr("tuning.sweep.samples", total);
    rec.incr("tuning.sweep.points", groups.len() as u64);

    let threads = threads.for_work(groups.len(), PAR_SWEEP_MIN_GROUPS);

    // Pass 1 (parallel): per-group positive/total counts — exact integers,
    // so summation order cannot matter.
    let counts: Vec<(u64, u64)> = parkit::par_map(threads, &groups, |&(s, e)| {
        let pos = order[s..e].iter().filter(|&&i| truth[i] == 1.0).count() as u64;
        (pos, (e - s) as u64)
    });

    // Pass 2 (serial): prefix sums give cumulative tp / predicted-positive
    // at the end of each group.
    let mut prefix = Vec::with_capacity(groups.len());
    let mut tp = 0u64;
    let mut predicted_pos = 0u64;
    for &(pos, n) in &counts {
        tp += pos;
        predicted_pos += n;
        prefix.push((tp, predicted_pos));
    }

    // Pass 3 (parallel): emit the metric point of each group.
    let mut out = parkit::par_map_indexed(threads, &groups, |gi, &(s, _)| {
        let (tp, predicted_pos) = prefix[gi];
        let precision = tp as f64 / predicted_pos as f64;
        let recall = tp as f64 / total_pos as f64;
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        ThresholdPoint {
            threshold: scores[order[s]],
            metrics: Prf {
                precision,
                recall,
                f1,
            },
        }
    });
    out.reverse(); // ascending thresholds
    rec.span_end(span);
    Ok(out)
}

/// The threshold maximising F1.
///
/// # Errors
///
/// Same conditions as [`threshold_sweep`].
pub fn best_f1_threshold(truth: &[f32], scores: &[f32]) -> Result<ThresholdPoint> {
    let sweep = threshold_sweep(
        truth,
        scores,
        parkit::Threads::Auto,
        &mut obskit::Recorder::null(),
    )?;
    sweep
        .into_iter()
        .max_by(|a, b| {
            a.metrics
                .f1
                .partial_cmp(&b.metrics.f1)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .ok_or_else(|| PredError::InvalidInput {
            reason: "threshold sweep produced no candidate points".into(),
        })
}

/// The lowest threshold (maximum recall) whose precision is at least
/// `floor`. Returns `None` when no threshold meets the floor.
///
/// # Errors
///
/// Same conditions as [`threshold_sweep`]; additionally rejects a floor
/// outside `(0, 1]`.
pub fn max_recall_at_precision(
    truth: &[f32],
    scores: &[f32],
    floor: f64,
) -> Result<Option<ThresholdPoint>> {
    if !(floor > 0.0 && floor <= 1.0) {
        return Err(PredError::InvalidInput {
            reason: format!("precision floor must be in (0, 1], got {floor}"),
        });
    }
    let sweep = threshold_sweep(
        truth,
        scores,
        parkit::Threads::Auto,
        &mut obskit::Recorder::null(),
    )?;
    Ok(sweep
        .into_iter()
        .filter(|p| p.metrics.precision >= floor)
        .max_by(|a, b| {
            a.metrics
                .recall
                .partial_cmp(&b.metrics.recall)
                .unwrap_or(std::cmp::Ordering::Equal)
        }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep at the automatic thread policy, unrecorded.
    fn sweep(truth: &[f32], scores: &[f32]) -> Result<Vec<ThresholdPoint>> {
        threshold_sweep(
            truth,
            scores,
            parkit::Threads::Auto,
            &mut obskit::Recorder::null(),
        )
    }

    fn toy() -> (Vec<f32>, Vec<f32>) {
        // scores: positives cluster high with one hard negative at 0.9.
        let truth = vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let scores = vec![0.95, 0.8, 0.6, 0.9, 0.4, 0.3, 0.2, 0.1];
        (truth, scores)
    }

    #[test]
    fn sweep_covers_all_distinct_scores() {
        let (truth, scores) = toy();
        let curve = sweep(&truth, &scores).unwrap();
        assert_eq!(curve.len(), 8);
        // Ascending thresholds; recall non-increasing along them.
        for w in curve.windows(2) {
            assert!(w[0].threshold < w[1].threshold);
            assert!(w[0].metrics.recall >= w[1].metrics.recall);
        }
        // Lowest threshold predicts everything positive: recall 1.
        assert_eq!(curve[0].metrics.recall, 1.0);
    }

    #[test]
    fn best_f1_beats_midpoint() {
        let (truth, scores) = toy();
        let best = best_f1_threshold(&truth, &scores).unwrap();
        // At threshold 0.5: tp=3 (0.95, 0.8, 0.6), fp=1 (0.9) -> P=0.75,
        // R=1.0, F1=6/7. The sweep must do at least as well.
        assert!(best.metrics.f1 >= 6.0 / 7.0 - 1e-9);
    }

    #[test]
    fn precision_floor_query() {
        let (truth, scores) = toy();
        // Precision 1.0 requires excluding the 0.9 negative: threshold
        // above 0.9 keeps only the 0.95 positive.
        let p = max_recall_at_precision(&truth, &scores, 1.0)
            .unwrap()
            .unwrap();
        assert!(p.threshold > 0.9);
        assert!((p.metrics.recall - 1.0 / 3.0).abs() < 1e-9);
        // An unreachable floor on inverted scores returns None.
        let inverted: Vec<f32> = scores.iter().map(|s| 1.0 - s).collect();
        let q = max_recall_at_precision(&truth, &inverted, 0.99).unwrap();
        assert!(q.is_none() || q.unwrap().metrics.precision >= 0.99);
    }

    #[test]
    fn ties_flip_together() {
        let truth = vec![1.0, 0.0, 1.0, 0.0];
        let scores = vec![0.5, 0.5, 0.9, 0.1];
        let curve = sweep(&truth, &scores).unwrap();
        // Distinct scores: 0.1, 0.5, 0.9 -> 3 points.
        assert_eq!(curve.len(), 3);
    }

    #[test]
    fn observed_sweep_matches_plain_and_counts_points() {
        let (truth, scores) = toy();
        let plain = sweep(&truth, &scores).unwrap();
        let mut rec = obskit::Recorder::new();
        let observed = threshold_sweep(&truth, &scores, parkit::Threads::Serial, &mut rec).unwrap();
        assert_eq!(plain, observed);
        assert_eq!(rec.counter("tuning.sweep.samples"), truth.len() as u64);
        assert_eq!(rec.counter("tuning.sweep.points"), plain.len() as u64);
        assert_eq!(rec.span("tuning.sweep").unwrap().count, 1);
    }

    #[test]
    fn validates_inputs() {
        assert!(sweep(&[], &[]).is_err());
        assert!(sweep(&[1.0], &[0.5, 0.4]).is_err());
        assert!(sweep(&[1.0, 1.0], &[0.5, 0.4]).is_err());
        let (truth, scores) = toy();
        assert!(max_recall_at_precision(&truth, &scores, 0.0).is_err());
        assert!(max_recall_at_precision(&truth, &scores, 1.5).is_err());
    }

    #[test]
    fn nan_score_is_rejected() {
        let truth = [1.0, 0.0, 1.0, 0.0];
        let scores = [0.9, f32::NAN, 0.4, 0.1];
        assert!(sweep(&truth, &scores).is_err());
        assert!(best_f1_threshold(&truth, &scores).is_err());
        assert!(max_recall_at_precision(&truth, &scores, 0.5).is_err());
    }
}
