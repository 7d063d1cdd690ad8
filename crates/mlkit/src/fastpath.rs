//! Compiled inference: flat, branch-free scoring for fitted models.
//!
//! The interpreted predictors walk each
//! [`RegressionTree`](crate::tree::RegressionTree)'s node arena — a
//! pointer-chasing, match-per-node loop whose cost is dominated by
//! branch mispredictions and cache misses. This module
//! *compiles* a fitted model into a contiguous struct-of-arrays form and
//! scores batches out of a reusable column-major [`FeatureFrame`], so the
//! hot loop is a fixed-count, predicated walk over flat arrays with
//! zero allocation per batch.
//!
//! Layout ([`CompiledGbdt`]): every tree's nodes are appended to one
//! shared set of arrays in breadth-first order (hot upper levels stay
//! adjacent), children numbered *right first* so every split's left
//! child is its right child plus one. Each node is stored once, as three
//! entries: a 64-bit word `threshold_bits << 32 | feature`, a `u32`
//! `kid` (the right child's id), and its leaf value. A step is two node
//! loads, one feature gather, and pure arithmetic:
//!
//! ```text
//! next = kid[n] + (row[feature[n]] < threshold[n])   // 0 → right, 1 → left
//! ```
//!
//! `v < t` is false for NaN, which lands on `kid` — the right child,
//! exactly like the interpreted `row[f] < t` comparison. Leaves store a
//! NaN threshold and `kid == self`, so the predicate is false for
//! *every* value (NaN included) and the walk parks. A tree's walk runs
//! exactly `depth` iterations regardless of where the row lands, so
//! there is no data-dependent control flow at all.
//!
//! Scoring has one entry per model, `predict_proba_into`: a batch (or a
//! one-row frame) scored into a caller-owned slice. The GBDT kernel
//! tiles the rows and walks eight rows in lockstep per tree. The
//! lockstep lanes are the decisive structure for large ensembles: once
//! the node arrays outgrow the upper cache levels, the interpreted walk
//! eats one serialized miss per step while the eight independent lane
//! chains keep eight misses in flight. Tiling bounds the feature working
//! set per ensemble sweep, and the [`FeatureFrame`] pads its column
//! stride away from 4 KiB multiples so tiled columns do not alias onto
//! the same cache sets.
//!
//! Bit-exactness is a hard contract, not an aspiration: compilation
//! stores the same `f32` thresholds and leaf values the interpreted
//! trees hold, accumulation runs in the same order with the same
//! operations (`score += learning_rate * leaf` per tree, then
//! [`sigmoid`]), and `tests/fastpath_equivalence.rs` holds the two paths
//! to identical bits across randomly generated ensembles.

use crate::gbdt::Gbdt;
use crate::linear::sigmoid;
use crate::{MlError, Result};

/// A fitted [`Gbdt`] flattened for branch-free batch scoring.
///
/// Built with [`Gbdt::compile`]; scores a whole [`FeatureFrame`] with
/// [`CompiledGbdt::predict_proba_into`], without allocating. Produces
/// bit-identical probabilities to the interpreted
/// [`Classifier::predict_proba`](crate::model::Classifier::predict_proba).
#[derive(Debug, Clone)]
pub struct CompiledGbdt {
    /// One word per node, `threshold_bits << 32 | feature`. Leaves carry
    /// NaN threshold bits so `v < t` is false for every `v`.
    word: Vec<u64>,
    /// Per node: the right child's id on a split (the left child is
    /// `kid + 1`), the node's own id on a leaf.
    kid: Vec<u32>,
    /// Per node: the leaf value (`0.0` on splits).
    value: Vec<f32>,
    /// Node id of each tree's root, in boosting order.
    roots: Vec<u32>,
    /// Per-tree walk length: the tree's maximum leaf depth.
    tree_steps: Vec<u32>,
    base_score: f32,
    learning_rate: f32,
    n_features: usize,
    threshold: f32,
}

/// Rows per scoring tile: bounds the feature working set (tile rows ×
/// all columns) while every tree of the ensemble walks it, so huge
/// batches do not stream the whole frame from memory once per tree.
const TILE: usize = 1024;
/// Rows walked in lockstep. Their independent gathers and node loads
/// overlap, which is where large ensembles win big: eight cache misses
/// in flight instead of the interpreted walk's one.
const LANES: usize = 8;

impl CompiledGbdt {
    /// Flattens a fitted ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] when the model holds no trees —
    /// the same error the interpreted `predict_proba` raises.
    pub(crate) fn from_gbdt(model: &Gbdt) -> Result<CompiledGbdt> {
        use crate::model::Classifier;
        let trees = model.fitted_trees();
        if trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let (mut word, mut kid, mut value) = (Vec::new(), Vec::new(), Vec::new());
        let mut roots = Vec::with_capacity(trees.len());
        let mut tree_steps = Vec::with_capacity(trees.len());
        for tree in trees {
            roots.push(word.len() as u32);
            tree_steps.push(tree.flatten_into(&mut word, &mut kid, &mut value));
        }
        if word.len() > u32::MAX as usize {
            return Err(MlError::InvalidParameter {
                name: "n_nodes",
                reason: format!("ensemble has {} nodes; node ids are u32", word.len()),
            });
        }
        Ok(CompiledGbdt {
            word,
            kid,
            value,
            roots,
            tree_steps,
            base_score: model.fitted_base_score(),
            learning_rate: model.shrinkage(),
            n_features: model.fitted_n_features(),
            threshold: model.threshold(),
        })
    }

    /// Number of features the model was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of trees in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all flattened trees.
    pub fn n_nodes(&self) -> usize {
        self.word.len()
    }

    /// The longest predicated walk any tree performs (max leaf depth).
    pub fn max_steps(&self) -> u32 {
        self.tree_steps.iter().copied().max().unwrap_or(0)
    }

    /// The decision threshold carried over from the interpreted model.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Adds one tree's shrunk leaf values into the tile `out`, which
    /// covers frame rows `row0 .. row0 + out.len()`. Walks [`LANES`]
    /// rows in lockstep so their independent gathers overlap; the rows
    /// past the last full group walk one at a time.
    fn score_tree_tile(
        &self,
        root: u32,
        steps: u32,
        frame: &FeatureFrame,
        row0: usize,
        out: &mut [f32],
    ) {
        let word = &self.word;
        let kid = &self.kid;
        let data = &frame.data;
        let stride = frame.cap_rows;
        let n = out.len();
        let mut i = 0;
        while i + LANES <= n {
            let mut cur = [root; LANES];
            for _ in 0..steps {
                for (lane, c) in cur.iter_mut().enumerate() {
                    let node = *c as usize;
                    let w = word[node];
                    let t = f32::from_bits((w >> 32) as u32);
                    let v = data[(w as u32) as usize * stride + row0 + i + lane];
                    *c = kid[node] + u32::from(v < t);
                }
            }
            for (lane, c) in cur.iter().enumerate() {
                out[i + lane] += self.learning_rate * self.value[*c as usize];
            }
            i += LANES;
        }
        while i < n {
            let mut node = root as usize;
            for _ in 0..steps {
                let w = word[node];
                let t = f32::from_bits((w >> 32) as u32);
                let v = data[(w as u32) as usize * stride + row0 + i];
                node = (kid[node] + u32::from(v < t)) as usize;
            }
            out[i] += self.learning_rate * self.value[node];
            i += 1;
        }
    }

    /// Scores every row of `frame` into `out` without allocating.
    ///
    /// `out` doubles as the raw-score accumulator: it is filled with the
    /// base score, the rows are processed in `TILE`-sized tiles whose
    /// feature columns stay cache-resident while every tree adds its
    /// shrunk leaf value in boosting order, and a final pass applies
    /// [`sigmoid`]. Per row that is the exact operation sequence of the
    /// interpreted path, so the result is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the frame width
    /// differs from the fitted feature count or `out.len()` differs from
    /// the frame's row count.
    pub fn predict_proba_into(&self, frame: &FeatureFrame, out: &mut [f32]) -> Result<()> {
        if frame.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} features", self.n_features),
                found: format!("{} features", frame.n_cols()),
            });
        }
        if out.len() != frame.n_rows() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} output slots", frame.n_rows()),
                found: format!("{} output slots", out.len()),
            });
        }
        out.fill(self.base_score);
        let n_rows = out.len();
        let mut row0 = 0;
        while row0 < n_rows {
            let end = (row0 + TILE).min(n_rows);
            for (k, &root) in self.roots.iter().enumerate() {
                self.score_tree_tile(root, self.tree_steps[k], frame, row0, &mut out[row0..end]);
            }
            row0 = end;
        }
        for o in out.iter_mut() {
            *o = sigmoid(*o);
        }
        Ok(())
    }
}

/// A fitted [`LogisticRegression`](crate::linear::LogisticRegression)
/// reduced to its weight vector, scoring out of a [`FeatureFrame`] with
/// the same multiply-accumulate order as the interpreted
/// [`dot`](crate::matrix::dot)-based path.
#[derive(Debug, Clone)]
pub struct CompiledLinear {
    weights: Vec<f32>,
    bias: f32,
    threshold: f32,
}

impl CompiledLinear {
    /// Wraps fitted weights. `threshold` is the decision threshold the
    /// interpreted model reports.
    pub fn new(weights: Vec<f32>, bias: f32, threshold: f32) -> CompiledLinear {
        CompiledLinear {
            weights,
            bias,
            threshold,
        }
    }

    /// Number of features the model was fitted on.
    pub fn n_features(&self) -> usize {
        self.weights.len()
    }

    /// The decision threshold carried over from the interpreted model.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Scores every row of `frame` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on frame-width or
    /// output-length mismatch.
    pub fn predict_proba_into(&self, frame: &FeatureFrame, out: &mut [f32]) -> Result<()> {
        if frame.n_cols() != self.weights.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} features", self.weights.len()),
                found: format!("{} features", frame.n_cols()),
            });
        }
        if out.len() != frame.n_rows() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} output slots", frame.n_rows()),
                found: format!("{} output slots", out.len()),
            });
        }
        for (i, o) in out.iter_mut().enumerate() {
            // Same left-to-right multiply-accumulate as `matrix::dot`.
            let mut acc = 0.0f32;
            for (j, &w) in self.weights.iter().enumerate() {
                acc += w * frame.get(i, j);
            }
            *o = sigmoid(acc + self.bias);
        }
        Ok(())
    }
}

/// A reusable column-major (struct-of-arrays) feature buffer.
///
/// Rows are pushed row-wise ([`FeatureFrame::push_row`]) but stored
/// column-contiguously with a fixed row capacity as the stride, so the
/// tree walk's per-feature gathers of neighbouring rows land in the same
/// cache lines. [`FeatureFrame::reset`] rewinds the frame without
/// releasing its allocation: a serve loop that resets and refills each
/// batch stops allocating once the largest batch has been seen.
#[derive(Debug, Clone, Default)]
pub struct FeatureFrame {
    /// Column-major storage: feature `j` occupies
    /// `data[j * cap_rows ..][.. n_rows]`.
    data: Vec<f32>,
    n_cols: usize,
    n_rows: usize,
    cap_rows: usize,
}

/// Nudges a row capacity so the column stride in bytes is not a
/// multiple of 4 KiB: power-of-two strides map every column of a row
/// tile onto the same cache sets, serialising the tree walk's gathers.
fn pad_stride(rows: usize) -> usize {
    if (rows * 4).is_multiple_of(4096) {
        rows + 8
    } else {
        rows
    }
}

impl FeatureFrame {
    /// An empty frame pre-sized for `n_cols` features × `rows` rows.
    pub fn with_capacity(n_cols: usize, rows: usize) -> FeatureFrame {
        let cap_rows = pad_stride(rows.max(1));
        FeatureFrame {
            data: vec![0.0; n_cols * cap_rows],
            n_cols,
            n_rows: 0,
            cap_rows,
        }
    }

    /// Rewinds to zero rows and `n_cols` features, keeping the
    /// allocation when it is already large enough.
    pub fn reset(&mut self, n_cols: usize) {
        self.n_cols = n_cols;
        self.n_rows = 0;
        let need = n_cols * self.cap_rows;
        if self.data.len() < need {
            self.data.resize(need, 0.0);
        }
    }

    /// Number of rows currently held.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether the frame holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Appends one feature row, scattering it across the columns.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `row` is not exactly
    /// `n_cols` wide.
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.n_cols {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} features", self.n_cols),
                found: format!("{} features", row.len()),
            });
        }
        if self.n_rows == self.cap_rows {
            self.grow();
        }
        for (j, &v) in row.iter().enumerate() {
            self.data[j * self.cap_rows + self.n_rows] = v;
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Doubles the row capacity, re-laying the columns out under the new
    /// stride.
    fn grow(&mut self) {
        let new_cap = pad_stride((self.cap_rows * 2).max(64));
        let mut data = vec![0.0f32; self.n_cols * new_cap];
        for j in 0..self.n_cols {
            let src = &self.data[j * self.cap_rows..j * self.cap_rows + self.n_rows];
            data[j * new_cap..j * new_cap + self.n_rows].copy_from_slice(src);
        }
        self.data = data;
        self.cap_rows = new_cap;
    }

    /// Value at row `i`, feature `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range (out-of-range `i` below the
    /// capacity reads stale storage and is a logic error; the scoring
    /// entry points validate row counts up front).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[j * self.cap_rows + i]
    }

    /// Builds a frame from row-major rows (test/bench convenience).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on ragged rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<FeatureFrame> {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut frame = FeatureFrame::with_capacity(n_cols, rows.len());
        for row in rows {
            frame.push_row(row)?;
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::linear::LogisticRegression;
    use crate::model::Classifier;

    /// A dataset whose single feature takes the values {0, 1, 2}, so a
    /// 2-bin quantile binner puts its only cut exactly at 1.5.
    fn three_level_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f32>> = (0..n).map(|i| vec![(i % 3) as f32]).collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] >= 1.5 { 1.0 } else { 0.0 })
            .collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    fn xor_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let a = (i % 2) as f32 + (i % 7) as f32 * 0.01;
                let b = ((i / 2) % 2) as f32 + (i % 5) as f32 * 0.01;
                vec![a, b]
            })
            .collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| {
                if (r[0] > 0.5) != (r[1] > 0.5) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    /// Scores a whole frame through `predict_proba_into`.
    fn proba(compiled: &CompiledGbdt, frame: &FeatureFrame) -> Result<Vec<f32>> {
        let mut out = vec![0.0f32; frame.n_rows()];
        compiled.predict_proba_into(frame, &mut out)?;
        Ok(out)
    }

    /// Scores one row as a one-row frame, which runs the kernel's lane
    /// tail.
    fn proba_one(compiled: &CompiledGbdt, row: &[f32]) -> f32 {
        let frame = FeatureFrame::from_rows(&[row.to_vec()]).unwrap();
        proba(compiled, &frame).unwrap()[0]
    }

    fn assert_bitwise_parity(model: &Gbdt, compiled: &CompiledGbdt, ds: &Dataset) {
        let interpreted = model.predict_proba(ds).unwrap();
        let frame = FeatureFrame::from_rows(
            &(0..ds.len())
                .map(|i| ds.x().row(i).to_vec())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let fast = proba(compiled, &frame).unwrap();
        for (i, (a, b)) in interpreted.iter().zip(&fast).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}: {a} vs {b}");
        }
        // A one-row frame agrees with the batch.
        for (i, f) in fast.iter().enumerate() {
            let p = proba_one(compiled, ds.x().row(i));
            assert_eq!(p.to_bits(), f.to_bits(), "one-row frame at {i}");
        }
    }

    #[test]
    fn empty_ensemble_is_not_fitted() {
        assert!(matches!(Gbdt::new().compile(), Err(MlError::NotFitted)));
    }

    #[test]
    fn stump_trees_have_zero_steps_and_match() {
        let ds = xor_dataset(60);
        // min_samples_leaf too large to ever split: every tree is a
        // single leaf.
        let mut model = Gbdt::new().n_trees(5).min_samples_leaf(100);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        assert_eq!(compiled.n_trees(), 5);
        assert_eq!(compiled.n_nodes(), 5);
        assert_eq!(compiled.max_steps(), 0);
        assert_bitwise_parity(&model, &compiled, &ds);
    }

    #[test]
    fn deep_trees_walk_their_full_depth_and_match() {
        // Pseudo-random labels force deep, unbalanced trees.
        let rows: Vec<Vec<f32>> = (0..256).map(|i| vec![i as f32]).collect();
        let y: Vec<f32> = (0..256u64)
            .map(|i| ((i.wrapping_mul(2654435761) >> 7) % 2) as f32)
            .collect();
        let ds = Dataset::from_rows(&rows, &y).unwrap();
        let mut model = Gbdt::new()
            .n_trees(4)
            .max_depth(7)
            .min_samples_leaf(1)
            .n_bins(256);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        assert!(
            compiled.max_steps() >= 3 && compiled.max_steps() <= 7,
            "expected a deep walk, got {} steps",
            compiled.max_steps()
        );
        assert_bitwise_parity(&model, &compiled, &ds);
    }

    #[test]
    fn threshold_boundary_routes_like_interpreted() {
        let ds = three_level_dataset(90);
        let mut model = Gbdt::new().n_trees(8).n_bins(2).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        assert_bitwise_parity(&model, &compiled, &ds);
        // The binner's only cut is (1 + 2) / 2 = 1.5. A value exactly on
        // the threshold must take the right branch (`v < t` is false) on
        // both paths.
        let queries = vec![vec![1.5f32], vec![1.5 - 1e-4], vec![2.0], vec![1.0]];
        let qds = Dataset::from_rows(&queries, &[0.0; 4]).unwrap();
        let interp = model.predict_proba(&qds).unwrap();
        for (q, want) in queries.iter().zip(&interp) {
            let got = proba_one(&compiled, q);
            assert_eq!(got.to_bits(), want.to_bits(), "query {q:?}");
        }
        // Tie goes right: exactly-on-threshold scores like the right
        // plateau, not the left one.
        assert_eq!(interp[0].to_bits(), interp[2].to_bits());
        assert_ne!(interp[0].to_bits(), interp[3].to_bits());
    }

    #[test]
    fn nan_features_take_the_right_branch_on_both_paths() {
        let ds = three_level_dataset(90);
        let mut model = Gbdt::new().n_trees(6).n_bins(2).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        // `NaN < t` is false on both paths, so a NaN row must score
        // exactly like an always-right row.
        let nan = proba_one(&compiled, &[f32::NAN]);
        let right = proba_one(&compiled, &[f32::INFINITY]);
        assert_eq!(nan.to_bits(), right.to_bits());
        let frame = FeatureFrame::from_rows(&[vec![f32::NAN], vec![f32::INFINITY]]).unwrap();
        let out = proba(&compiled, &frame).unwrap();
        assert_eq!(out[0].to_bits(), out[1].to_bits());
    }

    #[test]
    fn flattening_numbers_children_right_first() {
        let ds = xor_dataset(120);
        let mut model = Gbdt::new().n_trees(6).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        let n_nodes = compiled.n_nodes();
        assert_eq!(compiled.kid.len(), n_nodes);
        assert_eq!(compiled.value.len(), n_nodes);
        // Tree k owns the node ids from its root up to the next root.
        let mut ends: Vec<u32> = compiled.roots[1..].to_vec();
        ends.push(n_nodes as u32);
        let mut n_splits = 0;
        for (&root, &end) in compiled.roots.iter().zip(&ends) {
            for n in root..end {
                let (w, kid) = (compiled.word[n as usize], compiled.kid[n as usize]);
                let t = f32::from_bits((w >> 32) as u32);
                if t.is_nan() {
                    // Leaf: `v < NaN` is false for every v and the kid is
                    // the node itself, so the walk parks.
                    assert_eq!(kid, n, "leaf {n} parks on itself");
                    assert_eq!(w as u32, 0, "leaf {n} reads feature 0");
                } else {
                    // Split: the right child is `kid`, the left `kid + 1`,
                    // both inside this tree and after the split.
                    n_splits += 1;
                    assert!(kid > n && kid + 1 < end, "split {n} children in its tree");
                    assert!((w as u32 as usize) < compiled.n_features());
                    assert_eq!(compiled.value[n as usize], 0.0);
                }
            }
        }
        assert!(n_splits > 0, "the xor ensemble splits");
    }

    #[test]
    fn ensembles_past_sixteen_bit_node_ids_match() {
        // Past 2^16 nodes, node ids no longer fit in 16 bits. Many small
        // trees on a small dataset get there cheaply.
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![i as f32, ((i * 37) % 101) as f32, ((i * 11) % 7) as f32])
            .collect();
        let y: Vec<f32> = (0..200u64)
            .map(|i| ((i.wrapping_mul(2654435761) >> 9) % 2) as f32)
            .collect();
        let ds = Dataset::from_rows(&rows, &y).unwrap();
        let mut model = Gbdt::new()
            .n_trees(1500)
            .max_depth(6)
            .min_samples_leaf(1)
            .learning_rate(0.05)
            .seed(11);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        assert!(compiled.n_nodes() > 65_536, "{} nodes", compiled.n_nodes());
        // More than two tiles plus a ragged lane tail, reaching past the
        // training range on every feature; `assert_bitwise_parity` also
        // scores each row as a one-row frame.
        let probes: Vec<Vec<f32>> = (0..TILE * 2 + 13)
            .map(|i| {
                vec![
                    (i % 211) as f32 - 5.0,
                    ((i * 37) % 103) as f32,
                    (i % 9) as f32,
                ]
            })
            .collect();
        let probes = Dataset::from_rows(&probes, &vec![0.0; probes.len()]).unwrap();
        assert_bitwise_parity(&model, &compiled, &probes);
    }

    #[test]
    fn tiled_batches_cross_tile_boundaries_bit_exactly() {
        // More rows than two tiles plus a ragged lane tail, so the
        // batch kernel exercises tile and lane boundaries.
        let ds = xor_dataset(TILE * 2 + 17);
        let mut model = Gbdt::new().n_trees(12).min_samples_leaf(2).seed(3);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        assert_bitwise_parity(&model, &compiled, &ds);
    }

    #[test]
    fn compiled_metadata_matches_model() {
        let ds = xor_dataset(120);
        let mut model = Gbdt::new().n_trees(10).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        assert_eq!(compiled.n_trees(), 10);
        assert_eq!(compiled.n_features(), 2);
        assert_eq!(compiled.threshold(), model.threshold());
        assert!(compiled.n_nodes() >= 10);
        assert_bitwise_parity(&model, &compiled, &ds);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let ds = xor_dataset(60);
        let mut model = Gbdt::new().n_trees(3).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        let narrow = FeatureFrame::from_rows(&[vec![0.0]]).unwrap();
        assert!(matches!(
            proba(&compiled, &narrow),
            Err(MlError::DimensionMismatch { .. })
        ));
        let frame = FeatureFrame::from_rows(&[vec![0.0, 1.0]]).unwrap();
        let mut short_out = [0.0f32; 2];
        assert!(matches!(
            compiled.predict_proba_into(&frame, &mut short_out),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn compiled_linear_matches_interpreted() {
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32 / 40.0, ((i * 7) % 13) as f32 / 13.0])
            .collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let ds = Dataset::from_rows(&rows, &y).unwrap();
        let mut lr = LogisticRegression::new().epochs(80);
        lr.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = lr.compile().unwrap();
        assert_eq!(compiled.n_features(), 2);
        assert_eq!(compiled.threshold(), lr.threshold());
        let interp = lr.predict_proba(&ds).unwrap();
        let frame = FeatureFrame::from_rows(&rows).unwrap();
        let mut out = vec![0.0f32; rows.len()];
        compiled.predict_proba_into(&frame, &mut out).unwrap();
        for (i, (a, b)) in interp.iter().zip(&out).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            let frame = FeatureFrame::from_rows(&rows[i..=i]).unwrap();
            let mut single = [0.0f32];
            compiled.predict_proba_into(&frame, &mut single).unwrap();
            assert_eq!(single[0].to_bits(), a.to_bits(), "one-row frame at {i}");
        }
    }

    #[test]
    fn unfitted_linear_does_not_compile() {
        assert!(matches!(
            LogisticRegression::new().compile(),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn frame_reset_reuses_allocation_and_grow_preserves_rows() {
        let mut frame = FeatureFrame::with_capacity(2, 2);
        for i in 0..5 {
            // Forces one grow at the third push.
            frame.push_row(&[i as f32, -(i as f32)]).unwrap();
        }
        assert_eq!(frame.n_rows(), 5);
        for i in 0..5 {
            assert_eq!(frame.get(i, 0), i as f32);
            assert_eq!(frame.get(i, 1), -(i as f32));
        }
        frame.reset(2);
        assert!(frame.is_empty());
        frame.push_row(&[9.0, 8.0]).unwrap();
        assert_eq!(frame.get(0, 0), 9.0);
        assert_eq!(frame.get(0, 1), 8.0);
        assert!(frame.push_row(&[1.0]).is_err());
    }

    #[test]
    fn empty_frame_scores_empty() {
        let ds = xor_dataset(60);
        let mut model = Gbdt::new().n_trees(3).min_samples_leaf(2);
        model.fit(&ds, &mut obskit::Recorder::null()).unwrap();
        let compiled = model.compile().unwrap();
        let mut frame = FeatureFrame::default();
        frame.reset(2);
        assert_eq!(proba(&compiled, &frame).unwrap(), Vec::<f32>::new());
    }
}
