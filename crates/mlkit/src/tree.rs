//! Regression trees over quantile-binned features.
//!
//! These trees are the weak learners inside [`crate::gbdt::Gbdt`]. Features
//! are discretised once into at most 256 quantile bins
//! ([`QuantileBinner`]); split finding then scans per-bin gradient/hessian
//! histograms, which makes training cost linear in samples × features and
//! independent of the number of distinct feature values.

use crate::matrix::Matrix;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Maximum number of bins per feature (fits in a `u8`).
pub const MAX_BINS: usize = 256;

/// Quantile-based feature discretiser.
///
/// For each feature, up to `n_bins - 1` split thresholds are chosen at
/// evenly spaced quantiles of the training distribution. Values are mapped
/// to the index of the first threshold that exceeds them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileBinner {
    /// Per-feature ascending split thresholds.
    thresholds: Vec<Vec<f32>>,
    n_bins: usize,
}

impl QuantileBinner {
    /// Learns bin thresholds from a feature matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] when `n_bins` is not in
    /// `[2, 256]` or [`MlError::EmptyDataset`] for an empty matrix.
    pub fn fit(x: &Matrix, n_bins: usize) -> Result<QuantileBinner> {
        if !(2..=MAX_BINS).contains(&n_bins) {
            return Err(MlError::InvalidParameter {
                name: "n_bins",
                reason: format!("must be in [2, {MAX_BINS}], got {n_bins}"),
            });
        }
        if x.nrows() == 0 {
            return Err(MlError::EmptyDataset);
        }
        let mut thresholds = Vec::with_capacity(x.ncols());
        for j in 0..x.ncols() {
            let mut col = x.col(j);
            // Total order so cut selection is deterministic for any
            // input, NaNs included (they sort to the ends instead of
            // landing wherever the comparison sequence leaves them).
            col.sort_by(f32::total_cmp);
            col.dedup();
            let mut th = Vec::new();
            if col.len() > 1 {
                // Choose candidate cut points between consecutive quantiles
                // of the deduplicated values.
                let want = (n_bins - 1).min(col.len() - 1);
                for k in 1..=want {
                    let pos = k as f64 / (want + 1) as f64 * (col.len() - 1) as f64;
                    let i = pos.round() as usize;
                    // Cut midway between neighbouring distinct values so
                    // that binning is robust to exact-equality issues.
                    let cut = if i + 1 < col.len() {
                        (col[i] + col[i + 1]) / 2.0
                    } else {
                        col[i]
                    };
                    if th.last().is_none_or(|&last| cut > last) {
                        th.push(cut);
                    }
                }
            }
            thresholds.push(th);
        }
        Ok(QuantileBinner { thresholds, n_bins })
    }

    /// Number of features the binner was fitted on.
    pub fn n_features(&self) -> usize {
        self.thresholds.len()
    }

    /// Number of bins actually used for feature `j`
    /// (`thresholds + 1`, at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn n_bins_for(&self, j: usize) -> usize {
        // detlint: allow(D006) reason=hot-path callers iterate j over 0..n_features of the same fitted binner
        self.thresholds[j].len() + 1
    }

    /// Threshold value separating bins `b` and `b + 1` of feature `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` or `b` is out of range.
    pub fn threshold(&self, j: usize, b: usize) -> f32 {
        self.thresholds[j][b]
    }

    /// Maps one raw value of feature `j` to its bin index.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn bin_value(&self, j: usize, v: f32) -> u8 {
        let th = &self.thresholds[j];
        th.partition_point(|&t| v >= t) as u8
    }

    /// Bins a whole matrix into a row-major `u8` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when feature counts differ.
    pub fn transform(&self, x: &Matrix) -> Result<BinnedMatrix> {
        if x.ncols() != self.thresholds.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} features", self.thresholds.len()),
                found: format!("{} features", x.ncols()),
            });
        }
        let mut bins = vec![0u8; x.nrows() * x.ncols()];
        for (i, row) in x.rows_iter().enumerate() {
            let brow = &mut bins[i * x.ncols()..(i + 1) * x.ncols()];
            for (j, &v) in row.iter().enumerate() {
                brow[j] = self.bin_value(j, v);
            }
        }
        Ok(BinnedMatrix {
            rows: x.nrows(),
            cols: x.ncols(),
            bins,
        })
    }
}

/// A row-major matrix of bin indices produced by [`QuantileBinner`].
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    rows: usize,
    cols: usize,
    bins: Vec<u8>,
}

impl BinnedMatrix {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Bin index of sample `i`, feature `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u8 {
        self.bins[i * self.cols + j]
    }

    /// Contiguous bin-index row of sample `i` (all features), the unit
    /// the [`crate::hist`] gather copies from.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn binned_row(&self, i: usize) -> &[u8] {
        // detlint: allow(D006) reason=hot-path callers pass node indices validated against nrows at fit entry
        &self.bins[i * self.cols..(i + 1) * self.cols]
    }
}

/// Split/leaf node of a [`RegressionTree`], stored in a flat arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Split {
        feature: usize,
        /// Raw-value threshold; samples with `x[feature] < threshold` go left.
        threshold: f32,
        /// Bin-index threshold used during training-time routing.
        bin: u8,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f32,
    },
}

/// Hyper-parameters for growing a [`RegressionTree`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum loss reduction (gain) required to split.
    pub min_gain: f64,
    /// L2 regularisation added to the hessian in leaf values and gains.
    pub lambda: f64,
    /// Fraction of features considered at each split (`(0, 1]`).
    pub colsample: f64,
    /// Worker-thread policy for per-feature split evaluation. Execution
    /// detail only — any policy yields identical trees — so it is not
    /// serialized with fitted models.
    #[serde(skip)]
    pub threads: parkit::Threads,
    /// Split-finding engine (see [`crate::hist::TrainMode`]). Training
    /// detail only — both engines grow bit-identical trees, `Exact` (the
    /// default) through the histogram engine and `Reference` through the
    /// per-feature scan it replaced — so it is not serialized with
    /// fitted models.
    #[serde(skip)]
    pub mode: crate::hist::TrainMode,
}

impl Default for TreeParams {
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 5,
            min_samples_leaf: 10,
            min_gain: 1e-6,
            lambda: 1.0,
            colsample: 1.0,
            threads: parkit::Threads::Serial,
            mode: crate::hist::TrainMode::Exact,
        }
    }
}

/// A regression tree fit to per-sample gradients/hessians, as used in
/// second-order gradient boosting. Leaf values are Newton steps
/// `-G / (H + lambda)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

pub(crate) struct BuildCtx<'a> {
    pub(crate) binned: &'a BinnedMatrix,
    pub(crate) binner: &'a QuantileBinner,
    pub(crate) grad: &'a [f32],
    pub(crate) hess: &'a [f32],
    pub(crate) params: TreeParams,
}

impl RegressionTree {
    /// Grows a tree on the given sample indices.
    ///
    /// `grad`/`hess` are the per-sample first/second derivatives of the
    /// boosting loss; `indices` selects the (possibly subsampled) rows.
    /// The number of candidate cut points the split finder scanned is
    /// counted into `rec` (`mlkit.tree.split_candidates`); it is an exact
    /// property of the data and hyper-parameters, identical under any
    /// thread policy. `scratch` is a caller-owned
    /// [`TrainScratch`](crate::hist::TrainScratch), so a boosting loop
    /// pays histogram/gather allocations once (first tree) instead of per
    /// tree.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] when `indices` is empty and
    /// [`MlError::DimensionMismatch`] when gradient lengths differ from the
    /// binned matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn fit(
        binned: &BinnedMatrix,
        binner: &QuantileBinner,
        grad: &[f32],
        hess: &[f32],
        indices: &[usize],
        params: TreeParams,
        rng: &mut StdRng,
        rec: &mut obskit::Recorder,
        scratch: &mut crate::hist::TrainScratch,
    ) -> Result<RegressionTree> {
        if indices.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if grad.len() != binned.nrows() || hess.len() != binned.nrows() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} gradient entries", binned.nrows()),
                found: format!("{} / {}", grad.len(), hess.len()),
            });
        }
        scratch.sync_layout(binner);
        let ctx = BuildCtx {
            binned,
            binner,
            grad,
            hess,
            params,
        };
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: binned.ncols(),
        };
        let mut idx = indices.to_vec();
        let mut candidates = 0u64;
        tree.build(&ctx, &mut idx, 0, rng, &mut candidates, scratch);
        rec.incr("mlkit.tree.split_candidates", candidates);
        Ok(tree)
    }

    /// Recursively grows the subtree over `indices`; returns the node id.
    fn build(
        &mut self,
        ctx: &BuildCtx<'_>,
        indices: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
        candidates: &mut u64,
        scratch: &mut crate::hist::TrainScratch,
    ) -> usize {
        use crate::hist::TrainMode;
        let (g_sum, h_sum) = sums(ctx.grad, ctx.hess, indices);
        let leaf_value = (-g_sum / (h_sum + ctx.params.lambda)) as f32;

        if depth >= ctx.params.max_depth || indices.len() < 2 * ctx.params.min_samples_leaf {
            return self.push(Node::Leaf { value: leaf_value });
        }

        let (found, scanned) = match ctx.params.mode {
            TrainMode::Reference => find_best_split(ctx, indices, g_sum, h_sum, rng),
            TrainMode::Exact => {
                crate::hist::find_best_split_hist(ctx, indices, g_sum, h_sum, rng, scratch)
            }
        };
        *candidates += scanned;
        let Some(best) = found else {
            return self.push(Node::Leaf { value: leaf_value });
        };

        // Partition indices in place: left = bin < split bin.
        let mid = partition(indices, |&i| ctx.binned.get(i, best.feature) < best.bin);
        // Defensive: histogram said both sides are non-empty, but guard
        // against degenerate partitions anyway.
        if mid == 0 || mid == indices.len() {
            return self.push(Node::Leaf { value: leaf_value });
        }
        let threshold = ctx.binner.threshold(best.feature, best.bin as usize - 1);
        let node_id = self.push(Node::Split {
            feature: best.feature,
            threshold,
            bin: best.bin,
            left: usize::MAX,
            right: usize::MAX,
        });
        let (left_idx, right_idx) = indices.split_at_mut(mid);
        let left = self.build(ctx, left_idx, depth + 1, rng, candidates, scratch);
        let right = self.build(ctx, right_idx, depth + 1, rng, candidates, scratch);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_id]
        {
            *l = left;
            *r = right;
        }
        node_id
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Predicts the leaf value for one raw feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has fewer features than the tree expects.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        assert!(row.len() >= self.n_features, "feature row too short");
        let mut node = 0;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Appends this tree to a compiled ensemble's node arrays (see
    /// [`crate::fastpath`]), returning the number of predicated steps
    /// that guarantee a leaf (the maximum leaf depth).
    ///
    /// Nodes are re-laid-out in breadth-first order so the hot upper
    /// levels of every tree sit adjacently. Children are numbered *right
    /// first*, so a split's left child is always its right child plus
    /// one and one `kid` entry (the right child) stands for both:
    /// `next = kid + (v < t)`. A leaf parks a fixed-count walk: NaN
    /// threshold bits make `v < t` false for every `v`, and its `kid`
    /// is itself.
    pub(crate) fn flatten_into(
        &self,
        word: &mut Vec<u64>,
        kid: &mut Vec<u32>,
        value: &mut Vec<f32>,
    ) -> u32 {
        let base = word.len() as u32;
        let n = self.nodes.len();
        // BFS numbering: visiting order doubles as the new node id, so a
        // split's children always receive consecutive ids (right, left).
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut new_id = vec![0u32; n];
        let mut depth = vec![0u32; n];
        order.push(0);
        let mut head = 0;
        while head < order.len() {
            let old = order[head];
            if let Node::Split { left, right, .. } = &self.nodes[old] {
                new_id[*right] = order.len() as u32;
                depth[*right] = depth[old] + 1;
                order.push(*right);
                new_id[*left] = order.len() as u32;
                depth[*left] = depth[old] + 1;
                order.push(*left);
            }
            head += 1;
        }
        let mut max_leaf_depth = 0;
        for &old in &order {
            match &self.nodes[old] {
                Node::Leaf { value: v } => {
                    word.push(u64::from(f32::NAN.to_bits()) << 32);
                    kid.push(base + new_id[old]);
                    value.push(*v);
                    max_leaf_depth = max_leaf_depth.max(depth[old]);
                }
                Node::Split {
                    feature,
                    threshold,
                    right,
                    ..
                } => {
                    word.push(u64::from(threshold.to_bits()) << 32 | u64::from(*feature as u32));
                    kid.push(base + new_id[*right]);
                    value.push(0.0);
                }
            }
        }
        max_leaf_depth
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Accumulates split-gain-free usage counts per feature into `out`
    /// (a crude feature-importance measure).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < n_features`.
    pub fn accumulate_feature_counts(&self, out: &mut [u32]) {
        for n in &self.nodes {
            if let Node::Split { feature, .. } = n {
                out[*feature] += 1;
            }
        }
    }
}

pub(crate) struct SplitCandidate {
    pub(crate) feature: usize,
    /// First bin of the right child.
    pub(crate) bin: u8,
    pub(crate) gain: f64,
}

fn sums(grad: &[f32], hess: &[f32], indices: &[usize]) -> (f64, f64) {
    let mut g = 0.0f64;
    let mut h = 0.0f64;
    for &i in indices {
        g += grad[i] as f64;
        h += hess[i] as f64;
    }
    (g, h)
}

pub(crate) fn score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// The grain, in `samples × features` of a node, of split evaluation and
/// histogram builds ([`parkit::Threads::for_work`]): smaller nodes stay
/// inline, where thread spawns would dominate.
pub(crate) const PAR_SPLIT_MIN_WORK: usize = 32_768;

/// Best candidate split for a single feature: histogram the node's
/// gradients/hessians by bin, then scan cut points left to right.
///
/// Pure per feature, so features can be evaluated on any thread: the
/// result depends only on (`indices`, `j`) and the candidate kept under
/// the strict `gain >` rule is the first-best in bin order, exactly as
/// the serial scan keeps it.
fn best_split_for_feature(
    ctx: &BuildCtx<'_>,
    indices: &[usize],
    j: usize,
    g_total: f64,
    h_total: f64,
    parent_score: f64,
) -> Option<SplitCandidate> {
    let nb = ctx.binner.n_bins_for(j);
    if nb < 2 {
        return None;
    }
    let mut hg = [0.0f64; MAX_BINS];
    let mut hh = [0.0f64; MAX_BINS];
    let mut hc = [0u32; MAX_BINS];
    for &i in indices {
        let b = ctx.binned.get(i, j) as usize;
        hg[b] += ctx.grad[i] as f64;
        hh[b] += ctx.hess[i] as f64;
        hc[b] += 1;
    }
    let mut best: Option<SplitCandidate> = None;
    let mut gl = 0.0f64;
    let mut hl = 0.0f64;
    let mut cl = 0u32;
    for b in 0..nb - 1 {
        gl += hg[b];
        hl += hh[b];
        cl += hc[b];
        let cr = indices.len() as u32 - cl;
        if (cl as usize) < ctx.params.min_samples_leaf
            || (cr as usize) < ctx.params.min_samples_leaf
        {
            continue;
        }
        let gr = g_total - gl;
        let hr = h_total - hl;
        let gain =
            score(gl, hl, ctx.params.lambda) + score(gr, hr, ctx.params.lambda) - parent_score;
        if gain > ctx.params.min_gain && best.as_ref().is_none_or(|b2| gain > b2.gain) {
            best = Some(SplitCandidate {
                feature: j,
                bin: (b + 1) as u8,
                gain,
            });
        }
    }
    best
}

/// Returns the best candidate and the number of candidate cut points
/// scanned (an exact count: `Σ_j max(n_bins_j − 1, 0)` over the sampled
/// features, independent of the thread policy).
///
/// This is the [`crate::hist::TrainMode::Reference`] engine: the
/// pre-histogram-engine path, kept verbatim as the bench baseline and
/// the oracle for the differential suite.
pub(crate) fn find_best_split(
    ctx: &BuildCtx<'_>,
    indices: &[usize],
    g_total: f64,
    h_total: f64,
    rng: &mut StdRng,
) -> (Option<SplitCandidate>, u64) {
    let n_features = ctx.binned.ncols();
    let mut features: Vec<usize> = (0..n_features).collect();
    if ctx.params.colsample < 1.0 {
        let keep = ((n_features as f64 * ctx.params.colsample).ceil() as usize).max(1);
        features.shuffle(rng);
        features.truncate(keep);
    }
    let scanned: u64 = features
        .iter()
        .map(|&j| ctx.binner.n_bins_for(j).saturating_sub(1) as u64)
        .sum();

    let parent_score = score(g_total, h_total, ctx.params.lambda);

    // Per-feature evaluation is independent; fan out when the node is big
    // enough to pay for it. Either path reduces candidates in feature-list
    // order under the same strict `gain >` comparison, so the chosen split
    // (ties included) is identical to the serial scan.
    let threads = ctx
        .params
        .threads
        .for_work(indices.len() * features.len(), PAR_SPLIT_MIN_WORK);
    let candidates: Vec<Option<SplitCandidate>> = parkit::par_map(threads, &features, |&j| {
        best_split_for_feature(ctx, indices, j, g_total, h_total, parent_score)
    });

    let mut best: Option<SplitCandidate> = None;
    for cand in candidates.into_iter().flatten() {
        if best.as_ref().is_none_or(|b2| cand.gain > b2.gain) {
            best = Some(cand);
        }
    }
    (best, scanned)
}

/// Stable-ish in-place partition: elements satisfying `pred` move to the
/// front; returns the number of such elements.
fn partition<T, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut mid = 0;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs.swap(mid, i);
            mid += 1;
        }
    }
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn step_data(n: usize) -> (Matrix, Vec<f32>) {
        // target = 1 for x >= 0.5, else -1 (as gradients of a simple loss)
        let rows: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32 / n as f32]).collect();
        let targets: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] >= 0.5 { 1.0 } else { -1.0 })
            .collect();
        (Matrix::from_rows(&rows).unwrap(), targets)
    }

    #[test]
    fn binner_bins_are_monotone() {
        let (x, _) = step_data(100);
        let binner = QuantileBinner::fit(&x, 16).unwrap();
        let mut prev = 0u8;
        for i in 0..100 {
            let b = binner.bin_value(0, i as f32 / 100.0);
            assert!(b >= prev, "bins must be monotone in the value");
            prev = b;
        }
        assert!(binner.n_bins_for(0) > 1);
    }

    #[test]
    fn binner_constant_feature_single_bin() {
        let x = Matrix::from_rows(&[vec![3.0], vec![3.0], vec![3.0]]).unwrap();
        let binner = QuantileBinner::fit(&x, 8).unwrap();
        assert_eq!(binner.n_bins_for(0), 1);
    }

    #[test]
    fn binner_rejects_bad_bins() {
        let x = Matrix::zeros(2, 1);
        assert!(QuantileBinner::fit(&x, 1).is_err());
        assert!(QuantileBinner::fit(&x, 1000).is_err());
    }

    #[test]
    fn transform_shape_checked() {
        let (x, _) = step_data(10);
        let binner = QuantileBinner::fit(&x, 4).unwrap();
        let wrong = Matrix::zeros(3, 2);
        assert!(binner.transform(&wrong).is_err());
        let b = binner.transform(&x).unwrap();
        assert_eq!(b.nrows(), 10);
        assert_eq!(b.ncols(), 1);
    }

    #[test]
    fn tree_fits_step_function() {
        let (x, targets) = step_data(200);
        let binner = QuantileBinner::fit(&x, 32).unwrap();
        let binned = binner.transform(&x).unwrap();
        // Squared-error boosting: grad = -(target - 0), hess = 1.
        let grad: Vec<f32> = targets.iter().map(|&t| -t).collect();
        let hess = vec![1.0f32; 200];
        let idx: Vec<usize> = (0..200).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let params = TreeParams {
            lambda: 0.0,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(
            &binned,
            &binner,
            &grad,
            &hess,
            &idx,
            params,
            &mut rng,
            &mut obskit::Recorder::null(),
            &mut crate::hist::TrainScratch::for_binner(&binner),
        )
        .unwrap();
        // Predictions should be close to +-1 on the two plateaus.
        assert!(tree.predict_row(&[0.1]) < -0.8);
        assert!(tree.predict_row(&[0.9]) > 0.8);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn tree_respects_min_samples_leaf() {
        let (x, targets) = step_data(40);
        let binner = QuantileBinner::fit(&x, 32).unwrap();
        let binned = binner.transform(&x).unwrap();
        let grad: Vec<f32> = targets.iter().map(|&t| -t).collect();
        let hess = vec![1.0f32; 40];
        let idx: Vec<usize> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let params = TreeParams {
            min_samples_leaf: 30, // cannot split 40 into two sides of >= 30
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(
            &binned,
            &binner,
            &grad,
            &hess,
            &idx,
            params,
            &mut rng,
            &mut obskit::Recorder::null(),
            &mut crate::hist::TrainScratch::for_binner(&binner),
        )
        .unwrap();
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn tree_empty_indices_error() {
        let (x, _) = step_data(10);
        let binner = QuantileBinner::fit(&x, 4).unwrap();
        let binned = binner.transform(&x).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let err = RegressionTree::fit(
            &binned,
            &binner,
            &[0.0; 10],
            &[1.0; 10],
            &[],
            TreeParams::default(),
            &mut rng,
            &mut obskit::Recorder::null(),
            &mut crate::hist::TrainScratch::for_binner(&binner),
        );
        assert!(matches!(err, Err(MlError::EmptyDataset)));
    }

    #[test]
    fn partition_moves_matching_to_front() {
        let mut xs = vec![5, 1, 4, 2, 3];
        let mid = partition(&mut xs, |&v| v <= 2);
        assert_eq!(mid, 2);
        let (left, right) = xs.split_at(mid);
        assert!(left.iter().all(|&v| v <= 2));
        assert!(right.iter().all(|&v| v > 2));
    }

    #[test]
    fn feature_counts_accumulate() {
        let (x, targets) = step_data(100);
        let binner = QuantileBinner::fit(&x, 16).unwrap();
        let binned = binner.transform(&x).unwrap();
        let grad: Vec<f32> = targets.iter().map(|&t| -t).collect();
        let hess = vec![1.0f32; 100];
        let idx: Vec<usize> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = RegressionTree::fit(
            &binned,
            &binner,
            &grad,
            &hess,
            &idx,
            TreeParams::default(),
            &mut rng,
            &mut obskit::Recorder::null(),
            &mut crate::hist::TrainScratch::for_binner(&binner),
        )
        .unwrap();
        let mut counts = vec![0u32; 1];
        tree.accumulate_feature_counts(&mut counts);
        assert!(counts[0] >= 1);
    }
}
