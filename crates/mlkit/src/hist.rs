//! Histogram training engine for [`crate::tree`].
//!
//! The reference split finder re-walks a node's index list once **per
//! feature** through indirect `grad[i]` / `binned.get(i, j)` accesses.
//! This module replaces that with a cache-friendly pipeline:
//!
//! 1. **Node scratch gather** (`gather_node`) — the node's gradients,
//!    hessians, and binned rows are packed into contiguous scratch once
//!    per node, so every later pass is a linear sweep.
//! 2. **Single-pass histogram build** (`accumulate_group`) — one sweep
//!    over the gathered rows fills the `(g, h, count)` histograms of a
//!    whole group of sampled features. A serial build is one group
//!    holding every sampled feature; a parallel build splits the
//!    features into groups of `FEATS_PER_GROUP` and fills each group's
//!    disjoint slab window on its own worker. Per-(feature, bin)
//!    accumulators are independent and see rows in index order, so the
//!    per-bin sums are **bit-identical** to the reference per-feature
//!    build, whatever the grouping.
//! 3. **Reusable scratch** ([`TrainScratch`]) — one slab, sized by
//!    [`TrainScratch::sync_layout`], and gather buffers that grow during
//!    the first tree (warm-up) and are reused for every later node and
//!    tree, so steady-state training is allocation-free.
//!
//! # Exactness contract
//!
//! * [`TrainMode::Reference`] is the pre-engine per-feature path, kept
//!   verbatim in `tree.rs`. It is the baseline for the training bench
//!   and the oracle for the differential suite.
//! * [`TrainMode::Exact`] (the default) uses the gather + single-pass
//!   build but keeps every floating-point accumulation in the same
//!   order as the reference path, so fitted trees are **bit-identical**
//!   to `Reference` — the pinned goldens do not move — and the thread
//!   policy cannot change a single bit either.

use crate::tree::{
    score, BinnedMatrix, BuildCtx, QuantileBinner, SplitCandidate, TreeParams, PAR_SPLIT_MIN_WORK,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Number of features handed to one parallel task when a histogram
/// build fans out by feature group.
const FEATS_PER_GROUP: usize = 8;

/// Which split-finding engine [`crate::tree::RegressionTree`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TrainMode {
    /// Pre-engine per-feature scan. Kept as the bench baseline and the
    /// oracle for the differential suite.
    Reference,
    /// Gathered single-pass histogram build; bit-identical to
    /// `Reference` (default — goldens are pinned against this).
    #[default]
    Exact,
}

/// One histogram slab: `(g, h, count)` for every (feature, bin) pair,
/// laid out feature-major with per-feature extents given by
/// [`TrainScratch`]'s offset table.
#[derive(Debug, Default)]
struct HistSlab {
    g: Vec<f64>,
    h: Vec<f64>,
    c: Vec<u32>,
}

impl HistSlab {
    fn sized(total_bins: usize) -> HistSlab {
        HistSlab {
            g: vec![0.0; total_bins],
            h: vec![0.0; total_bins],
            c: vec![0; total_bins],
        }
    }

    /// Zeroes the slab in place without touching capacity.
    fn fill_zero(&mut self) {
        self.g.iter_mut().for_each(|v| *v = 0.0);
        self.h.iter_mut().for_each(|v| *v = 0.0);
        self.c.iter_mut().for_each(|v| *v = 0);
    }
}

/// Reusable per-training-run scratch.
///
/// Create one per fitted binner with [`TrainScratch::for_binner`] and
/// reuse it across every tree of a boosting run: the slab is sized up
/// front and the gather buffers grow during the first tree (warm-up),
/// after which node gathers, histogram builds, and scans run entirely
/// in place.
#[derive(Debug, Default)]
pub struct TrainScratch {
    /// Prefix sums of per-feature bin counts; `offsets[n_features]` is
    /// the slab length. Entry `(j, b)` of the slab lives at
    /// `offsets[j] + b`.
    offsets: Vec<u32>,
    /// The histogram slab every node is built into and scanned from.
    slab: HistSlab,
    /// Gathered per-node gradients (`grad[indices[r]]`).
    gather_g: Vec<f32>,
    /// Gathered per-node hessians.
    gather_h: Vec<f32>,
    /// Gathered row-major binned rows of the node.
    gather_rows: Vec<u8>,
    /// Sampled feature list in RNG (tie-break) order.
    features: Vec<usize>,
    /// Sampled feature list in ascending order (build locality).
    sorted_feats: Vec<usize>,
}

impl TrainScratch {
    /// Builds scratch sized for `binner`'s bin layout.
    pub fn for_binner(binner: &QuantileBinner) -> TrainScratch {
        let mut s = TrainScratch::default();
        s.sync_layout(binner);
        s
    }

    /// Re-syncs the offset table and the slab to `binner`, reallocating
    /// only when the layout actually changed. A no-op (and
    /// allocation-free) when the layout matches, which is every call
    /// after the first.
    pub fn sync_layout(&mut self, binner: &QuantileBinner) {
        let n = binner.n_features();
        let matches = self.offsets.len() == n + 1
            && (0..n).all(|j| {
                self.offsets[j + 1].wrapping_sub(self.offsets[j]) == binner.n_bins_for(j) as u32
            });
        if matches {
            return;
        }
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.offsets.push(0);
        let mut acc = 0u32;
        for j in 0..n {
            acc += binner.n_bins_for(j) as u32;
            self.offsets.push(acc);
        }
        self.slab = HistSlab::sized(acc as usize);
    }
}

/// Packs the node's gradients, hessians, and binned rows into
/// contiguous scratch, replacing `features × indices` indirect accesses
/// with one gather per node.
fn gather_node(
    binned: &BinnedMatrix,
    grad: &[f32],
    hess: &[f32],
    indices: &[usize],
    gg: &mut Vec<f32>,
    gh: &mut Vec<f32>,
    grows: &mut Vec<u8>,
) {
    let cols = binned.ncols();
    let n = indices.len();
    gg.resize(n, 0.0);
    gh.resize(n, 0.0);
    grows.resize(n * cols, 0);
    for ((&i, dst), (gslot, hslot)) in indices
        .iter()
        .zip(grows.chunks_exact_mut(cols))
        .zip(gg.iter_mut().zip(gh.iter_mut()))
    {
        dst.copy_from_slice(binned.binned_row(i));
        *gslot = grad[i];
        *hslot = hess[i];
    }
}

/// The histogram kernel: one sweep over the gathered rows, adding each
/// row into its bin of every feature in `feats` (ascending), within a
/// slab window that starts at slab position `base`. The serial build
/// passes the whole slab (`base` 0); a parallel build passes each
/// feature group's disjoint window. Either way every (feature, bin)
/// sees the same adds in the same row order.
#[allow(clippy::too_many_arguments)]
fn accumulate_group(
    rows: &[u8],
    cols: usize,
    gg: &[f32],
    gh: &[f32],
    feats: &[usize],
    offsets: &[u32],
    base: usize,
    g_out: &mut [f64],
    h_out: &mut [f64],
    c_out: &mut [u32],
) {
    for (row, (&g, &h)) in rows.chunks_exact(cols).zip(gg.iter().zip(gh.iter())) {
        let (g, h) = (g as f64, h as f64);
        for &j in feats {
            let k = offsets[j] as usize - base + row[j] as usize;
            g_out[k] += g;
            h_out[k] += h;
            c_out[k] += 1;
        }
    }
}

/// Scans the sampled features' histograms for the best cut point.
///
/// Features are visited in `feats` (RNG) order and bins left to right
/// under the strict `gain >` rule, so the kept candidate is the first
/// occurrence of the maximum gain in (feature-position, bin) order —
/// exactly the candidate the reference per-feature scan + feature-order
/// reduce keeps, ties included.
#[allow(clippy::too_many_arguments)]
fn scan_features(
    slab: &HistSlab,
    offsets: &[u32],
    feats: &[usize],
    n_rows: usize,
    g_total: f64,
    h_total: f64,
    parent_score: f64,
    params: &TreeParams,
) -> Option<SplitCandidate> {
    let mut best: Option<SplitCandidate> = None;
    for &j in feats {
        let lo = offsets[j] as usize;
        let hi = offsets[j + 1] as usize;
        let nb = hi - lo;
        if nb < 2 {
            continue;
        }
        let hg = &slab.g[lo..hi];
        let hh = &slab.h[lo..hi];
        let hc = &slab.c[lo..hi];
        let mut gl = 0.0f64;
        let mut hl = 0.0f64;
        let mut cl = 0u32;
        for (b, ((&g, &h), &c)) in hg
            .iter()
            .zip(hh.iter())
            .zip(hc.iter())
            .take(nb - 1)
            .enumerate()
        {
            gl += g;
            hl += h;
            cl += c;
            let cr = n_rows as u32 - cl;
            if (cl as usize) < params.min_samples_leaf || (cr as usize) < params.min_samples_leaf {
                continue;
            }
            let gr = g_total - gl;
            let hr = h_total - hl;
            let gain = score(gl, hl, params.lambda) + score(gr, hr, params.lambda) - parent_score;
            if gain > params.min_gain && best.as_ref().is_none_or(|b2| gain > b2.gain) {
                best = Some(SplitCandidate {
                    feature: j,
                    bin: (b + 1) as u8,
                    gain,
                });
            }
        }
    }
    best
}

/// Builds the node's histograms over the sampled features.
///
/// Nodes below the parallel grain, or with at most `FEATS_PER_GROUP`
/// sampled features, take one [`accumulate_group`] sweep over the whole
/// slab; larger nodes under a parallel policy fan out by *feature
/// group*, which leaves every per-(feature, bin) accumulation order
/// untouched — both paths are bit-identical to each other and to the
/// reference build.
#[allow(clippy::too_many_arguments)]
fn build_hist(
    threads: parkit::Threads,
    rows: &[u8],
    cols: usize,
    gg: &[f32],
    gh: &[f32],
    offsets: &[u32],
    feats_sorted: &[usize],
    slab: &mut HistSlab,
) {
    slab.fill_zero();
    let threads = threads.for_work(gg.len() * feats_sorted.len(), PAR_SPLIT_MIN_WORK);
    if threads.is_serial() || feats_sorted.len() <= FEATS_PER_GROUP {
        let HistSlab { g, h, c } = slab;
        accumulate_group(rows, cols, gg, gh, feats_sorted, offsets, 0, g, h, c);
        return;
    }
    struct GroupTask<'a> {
        feats: &'a [usize],
        base: usize,
        g: &'a mut [f64],
        h: &'a mut [f64],
        c: &'a mut [u32],
    }
    // Slice the slab into disjoint per-group windows by walking the
    // (ascending) sampled features in chunks.
    let mut rem_g: &mut [f64] = slab.g.as_mut_slice();
    let mut rem_h: &mut [f64] = slab.h.as_mut_slice();
    let mut rem_c: &mut [u32] = slab.c.as_mut_slice();
    let mut consumed = 0usize;
    let mut tasks: Vec<GroupTask<'_>> =
        Vec::with_capacity(feats_sorted.len().div_ceil(FEATS_PER_GROUP));
    for chunk in feats_sorted.chunks(FEATS_PER_GROUP) {
        let lo = offsets[chunk[0]] as usize;
        let hi = offsets[chunk[chunk.len() - 1] + 1] as usize;
        let skip = lo - consumed;
        rem_g = std::mem::take(&mut rem_g).split_at_mut(skip).1;
        rem_h = std::mem::take(&mut rem_h).split_at_mut(skip).1;
        rem_c = std::mem::take(&mut rem_c).split_at_mut(skip).1;
        let (tg, rg) = std::mem::take(&mut rem_g).split_at_mut(hi - lo);
        let (th, rh) = std::mem::take(&mut rem_h).split_at_mut(hi - lo);
        let (tc, rc) = std::mem::take(&mut rem_c).split_at_mut(hi - lo);
        rem_g = rg;
        rem_h = rh;
        rem_c = rc;
        consumed = hi;
        tasks.push(GroupTask {
            feats: chunk,
            base: lo,
            g: tg,
            h: th,
            c: tc,
        });
    }
    parkit::par_apply_chunks(threads, &mut tasks, |_, tchunk| {
        for t in tchunk.iter_mut() {
            accumulate_group(rows, cols, gg, gh, t.feats, offsets, t.base, t.g, t.h, t.c);
        }
    });
}

/// Histogram-engine split finder: gathers the node, builds its
/// histograms in one pass, and scans the sampled features. Returns the
/// candidate and the scanned cut-point count, like the reference
/// `find_best_split`.
///
/// The RNG interaction (shuffle iff `colsample < 1.0`) is identical to
/// the reference path, so both engines consume the same random stream.
pub(crate) fn find_best_split_hist(
    ctx: &BuildCtx<'_>,
    indices: &[usize],
    g_total: f64,
    h_total: f64,
    rng: &mut StdRng,
    scratch: &mut TrainScratch,
) -> (Option<SplitCandidate>, u64) {
    let n_features = ctx.binned.ncols();
    let params = &ctx.params;
    scratch.features.clear();
    scratch.features.extend(0..n_features);
    if params.colsample < 1.0 {
        let keep = ((n_features as f64 * params.colsample).ceil() as usize).max(1);
        scratch.features.shuffle(rng);
        scratch.features.truncate(keep);
    }
    let scanned: u64 = scratch
        .features
        .iter()
        .map(|&j| ctx.binner.n_bins_for(j).saturating_sub(1) as u64)
        .sum();
    let parent_score = score(g_total, h_total, params.lambda);

    let TrainScratch {
        offsets,
        slab,
        gather_g,
        gather_h,
        gather_rows,
        features,
        sorted_feats,
    } = scratch;
    gather_node(
        ctx.binned,
        ctx.grad,
        ctx.hess,
        indices,
        gather_g,
        gather_h,
        gather_rows,
    );
    sorted_feats.clear();
    sorted_feats.extend_from_slice(features);
    sorted_feats.sort_unstable();
    build_hist(
        params.threads,
        gather_rows,
        ctx.binned.ncols(),
        gather_g,
        gather_h,
        offsets,
        sorted_feats,
        slab,
    );
    let best = scan_features(
        slab,
        offsets,
        features,
        indices.len(),
        g_total,
        h_total,
        parent_score,
        params,
    );
    (best, scanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_node(
        seed: u64,
        n_rows: usize,
        n_feats: usize,
        n_bins: usize,
    ) -> (BinnedMatrix, QuantileBinner, Vec<f32>, Vec<f32>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n_rows)
            .map(|_| (0..n_feats).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect())
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let binner = QuantileBinner::fit(&x, n_bins).unwrap();
        let binned = binner.transform(&x).unwrap();
        let grad: Vec<f32> = (0..n_rows).map(|_| rng.gen::<f32>() - 0.5).collect();
        let hess: Vec<f32> = (0..n_rows)
            .map(|_| rng.gen::<f32>() * 0.25 + 1e-3)
            .collect();
        // A strict subset of rows, shuffled, to model a real node.
        let mut idx: Vec<usize> = (0..n_rows).collect();
        idx.shuffle(&mut rng);
        idx.truncate(n_rows * 3 / 4);
        (binned, binner, grad, hess, idx)
    }

    /// Gathers `idx` into `scratch` and builds its histograms over
    /// `feats` (ascending) under `threads`; returns the slab.
    fn build_node(
        scratch: &mut TrainScratch,
        binned: &BinnedMatrix,
        grad: &[f32],
        hess: &[f32],
        idx: &[usize],
        feats: &[usize],
        threads: parkit::Threads,
    ) -> HistSlab {
        gather_node(
            binned,
            grad,
            hess,
            idx,
            &mut scratch.gather_g,
            &mut scratch.gather_h,
            &mut scratch.gather_rows,
        );
        build_hist(
            threads,
            &scratch.gather_rows,
            binned.ncols(),
            &scratch.gather_g,
            &scratch.gather_h,
            &scratch.offsets,
            feats,
            &mut scratch.slab,
        );
        let total = scratch.slab.g.len();
        std::mem::replace(&mut scratch.slab, HistSlab::sized(total))
    }

    fn slab_bits(slab: &HistSlab) -> Vec<u64> {
        let mut bits: Vec<u64> = slab.g.iter().map(|v| v.to_bits()).collect();
        bits.extend(slab.h.iter().map(|v| v.to_bits()));
        bits.extend(slab.c.iter().map(|&v| v as u64));
        bits
    }

    /// Reference per-feature histogram, lifted straight from the old
    /// `best_split_for_feature` accumulation loop.
    fn reference_feature_hist(
        binned: &BinnedMatrix,
        grad: &[f32],
        hess: &[f32],
        indices: &[usize],
        j: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
        let mut hg = vec![0.0f64; crate::tree::MAX_BINS];
        let mut hh = vec![0.0f64; crate::tree::MAX_BINS];
        let mut hc = vec![0u32; crate::tree::MAX_BINS];
        for &i in indices {
            let b = binned.get(i, j) as usize;
            hg[b] += grad[i] as f64;
            hh[b] += hess[i] as f64;
            hc[b] += 1;
        }
        (hg, hh, hc)
    }

    #[test]
    fn single_pass_build_bit_equal_to_per_feature_build() {
        for seed in [1u64, 7, 42] {
            let (binned, binner, grad, hess, idx) = random_node(seed, 500, 9, 16);
            let mut scratch = TrainScratch::for_binner(&binner);
            gather_node(
                &binned,
                &grad,
                &hess,
                &idx,
                &mut scratch.gather_g,
                &mut scratch.gather_h,
                &mut scratch.gather_rows,
            );
            let all: Vec<usize> = (0..binned.ncols()).collect();
            let HistSlab { g, h, c } = &mut scratch.slab;
            accumulate_group(
                &scratch.gather_rows,
                binned.ncols(),
                &scratch.gather_g,
                &scratch.gather_h,
                &all,
                &scratch.offsets,
                0,
                g,
                h,
                c,
            );
            let slab = &scratch.slab;
            for j in 0..binned.ncols() {
                let (hg, hh, hc) = reference_feature_hist(&binned, &grad, &hess, &idx, j);
                let lo = scratch.offsets[j] as usize;
                let nb = binner.n_bins_for(j);
                for b in 0..nb {
                    assert_eq!(
                        slab.g[lo + b].to_bits(),
                        hg[b].to_bits(),
                        "g mismatch seed={seed} j={j} b={b}"
                    );
                    assert_eq!(
                        slab.h[lo + b].to_bits(),
                        hh[b].to_bits(),
                        "h mismatch seed={seed} j={j} b={b}"
                    );
                    assert_eq!(
                        slab.c[lo + b],
                        hc[b],
                        "count mismatch seed={seed} j={j} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn subset_build_matches_full_build_on_sampled_features() {
        let (binned, binner, grad, hess, idx) = random_node(3, 400, 8, 12);
        let mut scratch = TrainScratch::for_binner(&binner);
        let all: Vec<usize> = (0..binned.ncols()).collect();
        let serial = parkit::Threads::Serial;
        let full = build_node(&mut scratch, &binned, &grad, &hess, &idx, &all, serial);
        let feats = vec![1usize, 4, 6];
        let sub = build_node(&mut scratch, &binned, &grad, &hess, &idx, &feats, serial);
        for j in 0..binned.ncols() {
            let lo = scratch.offsets[j] as usize;
            let hi = scratch.offsets[j + 1] as usize;
            if feats.contains(&j) {
                assert_eq!(
                    sub.g[lo..hi]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    full.g[lo..hi]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                );
                assert_eq!(&sub.c[lo..hi], &full.c[lo..hi]);
            } else {
                // An unsampled feature's bins stay zeroed.
                assert!(sub.c[lo..hi].iter().all(|&c| c == 0), "feature {j}");
            }
        }
    }

    #[test]
    fn feature_group_build_is_thread_invariant() {
        // More than one grain of work and more than one feature group,
        // so the parallel policies really fan out by feature group.
        let n_feats = 3 * FEATS_PER_GROUP + 5;
        let n_rows = PAR_SPLIT_MIN_WORK / n_feats * 3;
        let (binned, binner, grad, hess, idx) = random_node(11, n_rows, n_feats, 16);
        let mut scratch = TrainScratch::for_binner(&binner);
        let all: Vec<usize> = (0..n_feats).collect();
        // A column-subsampled list with gaps, so group windows skip bins.
        let sampled: Vec<usize> = (0..n_feats).filter(|j| j % 3 != 1).collect();
        assert!(sampled.len() > FEATS_PER_GROUP);
        assert!(idx.len() * sampled.len() > PAR_SPLIT_MIN_WORK);
        for feats in [&all, &sampled] {
            let out: Vec<Vec<u64>> = [
                parkit::Threads::Serial,
                parkit::Threads::Fixed(2),
                parkit::Threads::Fixed(8),
            ]
            .into_iter()
            .map(|threads| {
                let slab = build_node(&mut scratch, &binned, &grad, &hess, &idx, feats, threads);
                slab_bits(&slab)
            })
            .collect();
            assert_eq!(out[0], out[1]);
            assert_eq!(out[0], out[2]);
        }
    }

    #[test]
    fn scratch_layout_sync_is_stable() {
        let (_, binner, _, _, _) = random_node(23, 50, 4, 8);
        let mut scratch = TrainScratch::for_binner(&binner);
        let total = |b: &QuantileBinner| (0..b.n_features()).map(|j| b.n_bins_for(j)).sum();
        assert_eq!(scratch.slab.g.len(), total(&binner));
        let before = scratch.slab.g.as_ptr();
        scratch.sync_layout(&binner); // matching layout: a no-op
        assert_eq!(scratch.slab.g.as_ptr(), before);
        let (_, other, _, _, _) = random_node(29, 50, 6, 8);
        scratch.sync_layout(&other); // layout changed: slab resized
        assert_eq!(scratch.offsets.len(), 7);
        let want: usize = total(&other);
        assert_eq!(scratch.slab.g.len(), want);
        assert_eq!(scratch.slab.h.len(), want);
        assert_eq!(scratch.slab.c.len(), want);
    }
}
