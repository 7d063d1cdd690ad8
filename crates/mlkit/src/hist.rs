//! Cache-blocked histogram training engine for [`crate::tree`].
//!
//! The reference split finder re-walks a node's index list once **per
//! feature** through indirect `grad[i]` / `binned.get(i, j)` accesses.
//! This module replaces that with a cache-friendly pipeline:
//!
//! 1. **Node scratch gather** (`gather_node`) — the node's gradients,
//!    hessians, and binned rows are packed into contiguous scratch once
//!    per node, so every later pass is a linear sweep.
//! 2. **Single-pass histogram build** (`accumulate_all` /
//!    `accumulate_subset`) — one sweep over the gathered rows fills
//!    *all* features' `(g, h, count)` histograms. Per-(feature, bin)
//!    accumulators are independent and see rows in index order, so the
//!    per-bin sums are **bit-identical** to the reference per-feature
//!    build.
//! 3. **Sibling subtraction** (`derive_sibling`, [`TrainMode::Fast`]
//!    only) — only the smaller child's histograms are built from rows;
//!    the larger child's are derived as `parent − small`.
//! 4. **Row-block parallelism** ([`TrainMode::Fast`] only) — rows are
//!    cut into fixed [`ROW_BLOCK`]-sized blocks whose partial histograms
//!    are merged in block order, so results are bit-identical across
//!    `SBE_THREADS=1/2/8` (the block structure never depends on the
//!    thread count, only the dispatch does).
//! 5. **Reusable scratch arena** ([`TrainScratch`]) — slabs, partials,
//!    and gather buffers are allocated during the first tree (warm-up)
//!    and reused for every subsequent node and tree, so steady-state
//!    training is allocation-free.
//!
//! # Exactness contract
//!
//! * [`TrainMode::Reference`] is the pre-engine per-feature path, kept
//!   verbatim in `tree.rs`. It is the baseline for the training bench
//!   and the oracle for the differential suite.
//! * [`TrainMode::Exact`] (the default) uses the gather + single-pass
//!   build but keeps every floating-point accumulation in the same
//!   order as the reference path, so fitted trees are **bit-identical**
//!   to `Reference` — the pinned goldens do not move. When parallel,
//!   features are partitioned into groups; per-(feature, bin) sums are
//!   untouched by that partition, so the thread policy cannot change a
//!   single bit either.
//! * [`TrainMode::Fast`] adds sibling subtraction and row-block
//!   parallelism. Derived histograms and block-merged sums differ from
//!   directly-built ones in floating-point rounding, so `Fast` is *not*
//!   contractually bit-identical to `Exact`; it is locked instead by a
//!   differential suite (identical chosen splits on randomized
//!   ensembles, quality parity on the repro datasets) and is itself
//!   bit-identical across thread counts.

use crate::tree::{
    score, BinnedMatrix, BuildCtx, QuantileBinner, SplitCandidate, TreeParams, PAR_SPLIT_MIN_WORK,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Fixed row-block size for [`TrainMode::Fast`] partial histograms.
///
/// Blocks are cut by row position, never by thread count, so the
/// partial-sum merge order — and therefore every output bit — is
/// independent of `SBE_THREADS`.
pub const ROW_BLOCK: usize = 2048;

/// Number of features handed to one parallel task when an
/// [`TrainMode::Exact`] histogram build fans out by feature group.
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
    /// `Exact` plus sibling subtraction and row-block parallelism;
    /// split-identical in practice, not contractually bit-identical.
    Fast,
}

/// One histogram slab: `(g, h, count)` for every (feature, bin) pair,
/// laid out feature-major with per-feature extents given by
/// [`TrainScratch`]'s offset table.
#[derive(Debug)]
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

/// Where a node's histogram lives when [`crate::tree`] recurses.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NodeHist {
    /// No prebuilt histogram: build from rows on demand.
    Unbuilt,
    /// Histogram already resident in the scratch slab at this slot
    /// (built directly or derived by sibling subtraction).
    Ready(usize),
}

/// Reusable per-training-run scratch arena.
///
/// Create one per fitted binner with [`TrainScratch::for_binner`] and
/// reuse it across every tree of a boosting run: all growth happens
/// during the first tree (warm-up), after which node gathers, histogram
/// builds, and scans run entirely in place.
#[derive(Debug, Default)]
pub struct TrainScratch {
    /// Prefix sums of per-feature bin counts; `offsets[n_features]` is
    /// the slab length. Entry `(j, b)` of a slab lives at
    /// `offsets[j] + b`.
    offsets: Vec<u32>,
    /// Histogram slabs indexed by slot (`2 * depth + side` in `Fast`
    /// mode, always slot 0 in `Exact` mode), grown lazily.
    slabs: Vec<HistSlab>,
    /// Per-row-block partial histograms for the `Fast` build.
    partials: Vec<HistSlab>,
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

    /// Re-syncs the offset table to `binner`, discarding slabs only when
    /// the layout actually changed. A no-op (and allocation-free) when
    /// the layout matches, which is every call after the first.
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
        self.slabs.clear();
        self.partials.clear();
    }

    /// Slab length implied by the current offset table.
    fn total_bins(&self) -> usize {
        self.offsets.last().map_or(0, |&v| v as usize)
    }

    /// Grows the slab arena so `slot` exists (warm-up only).
    fn ensure_slab(&mut self, slot: usize) {
        let total = self.total_bins();
        while self.slabs.len() <= slot {
            self.slabs.push(HistSlab::sized(total));
        }
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

/// Single-pass histogram build over *all* features: one sweep over the
/// gathered rows, scattering into the slab at `offsets[j] + bin`.
///
/// Per-(feature, bin) accumulators are disjoint and see rows in gather
/// (= index) order, so the per-bin sums are bit-identical to the
/// reference per-feature build over the same rows.
fn accumulate_all(
    rows: &[u8],
    cols: usize,
    gg: &[f32],
    gh: &[f32],
    offsets: &[u32],
    slab: &mut HistSlab,
) {
    for (row, (&g, &h)) in rows.chunks_exact(cols).zip(gg.iter().zip(gh.iter())) {
        let (g, h) = (g as f64, h as f64);
        for (&b, &off) in row.iter().zip(offsets.iter()) {
            let k = off as usize + b as usize;
            slab.g[k] += g;
            slab.h[k] += h;
            slab.c[k] += 1;
        }
    }
}

/// Like [`accumulate_all`] but touching only the sampled features in
/// `feats` (the `Exact`-mode build under column subsampling).
fn accumulate_subset(
    rows: &[u8],
    cols: usize,
    gg: &[f32],
    gh: &[f32],
    feats: &[usize],
    offsets: &[u32],
    slab: &mut HistSlab,
) {
    for (row, (&g, &h)) in rows.chunks_exact(cols).zip(gg.iter().zip(gh.iter())) {
        let (g, h) = (g as f64, h as f64);
        for &j in feats {
            let k = offsets[j] as usize + row[j] as usize;
            slab.g[k] += g;
            slab.h[k] += h;
            slab.c[k] += 1;
        }
    }
}

/// Feature-group variant of [`accumulate_subset`] writing into a slab
/// *sub-slice* starting at slab position `base` — the unit of work for
/// the `Exact`-mode parallel build. Identical adds in identical row
/// order as the serial build, just restricted to one group's columns.
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

/// Adds per-block partial histograms into `slab` in block order —
/// parkit-style fixed-order merge, so the result is independent of
/// which thread filled which partial.
fn merge_partials(parts: &[HistSlab], slab: &mut HistSlab) {
    for p in parts {
        for (dst, &src) in slab.g.iter_mut().zip(p.g.iter()) {
            *dst += src;
        }
        for (dst, &src) in slab.h.iter_mut().zip(p.h.iter()) {
            *dst += src;
        }
        for (dst, &src) in slab.c.iter_mut().zip(p.c.iter()) {
            *dst += src;
        }
    }
}

/// Sibling subtraction: `out = parent − small`, per (feature, bin).
/// Counts are exact integers; gradient/hessian sums inherit one
/// subtraction's rounding, which is why this lives behind
/// [`TrainMode::Fast`].
fn derive_sibling(parent: &HistSlab, small: &HistSlab, out: &mut HistSlab) {
    for ((dst, &p), &s) in out.g.iter_mut().zip(parent.g.iter()).zip(small.g.iter()) {
        *dst = p - s;
    }
    for ((dst, &p), &s) in out.h.iter_mut().zip(parent.h.iter()).zip(small.h.iter()) {
        *dst = p - s;
    }
    for ((dst, &p), &s) in out.c.iter_mut().zip(parent.c.iter()).zip(small.c.iter()) {
        *dst = p.saturating_sub(s);
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

/// `Fast`-mode build over all features with fixed row blocks.
///
/// Nodes at or under [`ROW_BLOCK`] rows accumulate directly; larger
/// nodes always go through per-block partials merged in block order,
/// serial and parallel alike, so the summation tree — and every output
/// bit — is a function of the row count only, never of `SBE_THREADS`.
#[allow(clippy::too_many_arguments)]
fn build_hist_all(
    threads: parkit::Threads,
    rows: &[u8],
    cols: usize,
    gg: &[f32],
    gh: &[f32],
    offsets: &[u32],
    partials: &mut Vec<HistSlab>,
    slab: &mut HistSlab,
) {
    slab.fill_zero();
    let n = gg.len();
    if n <= ROW_BLOCK {
        accumulate_all(rows, cols, gg, gh, offsets, slab);
        return;
    }
    let n_blocks = n.div_ceil(ROW_BLOCK);
    let total = slab.g.len();
    while partials.len() < n_blocks {
        // Warm-up only: the arena retains its high-water mark across
        // nodes and trees.
        partials.push(HistSlab::sized(total));
    }
    let fill = |blk: usize, part: &mut HistSlab| {
        part.fill_zero();
        let r0 = blk * ROW_BLOCK;
        let r1 = (r0 + ROW_BLOCK).min(n);
        accumulate_all(
            &rows[r0 * cols..r1 * cols],
            cols,
            &gg[r0..r1],
            &gh[r0..r1],
            offsets,
            part,
        );
    };
    let threads = threads.for_work(n * cols, PAR_SPLIT_MIN_WORK);
    parkit::par_apply_chunks(threads, &mut partials[..n_blocks], |offset, chunk| {
        for (k, part) in chunk.iter_mut().enumerate() {
            fill(offset + k, part);
        }
    });
    merge_partials(&partials[..n_blocks], slab);
}

/// `Exact`-mode build over the sampled features.
///
/// Serial small nodes take one [`accumulate_subset`] sweep; large nodes
/// under a parallel policy fan out by *feature group*, which leaves
/// every per-(feature, bin) accumulation order untouched — both paths
/// are bit-identical to each other and to the reference build.
#[allow(clippy::too_many_arguments)]
fn build_hist_subset(
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
        accumulate_subset(rows, cols, gg, gh, feats_sorted, offsets, slab);
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

/// Histogram-engine split finder: gathers the node (when its histogram
/// is not already resident), builds the histograms in one pass, and
/// scans the sampled features. Returns the candidate, the scanned
/// cut-point count, and the slab slot holding this node's histogram.
///
/// The RNG interaction (shuffle iff `colsample < 1.0`) is identical to
/// the reference path, so both engines consume the same random stream.
#[allow(clippy::too_many_arguments)]
pub(crate) fn find_best_split_hist(
    ctx: &BuildCtx<'_>,
    indices: &[usize],
    g_total: f64,
    h_total: f64,
    rng: &mut StdRng,
    scratch: &mut TrainScratch,
    hist: NodeHist,
    depth: usize,
) -> (Option<SplitCandidate>, u64, usize) {
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

    let (slot, need_build) = match hist {
        NodeHist::Ready(s) => (s, false),
        NodeHist::Unbuilt => {
            let s = if params.mode == TrainMode::Fast {
                2 * depth
            } else {
                0
            };
            (s, true)
        }
    };
    scratch.ensure_slab(slot);
    let TrainScratch {
        offsets,
        slabs,
        partials,
        gather_g,
        gather_h,
        gather_rows,
        features,
        sorted_feats,
    } = scratch;
    let Some(slab) = slabs.get_mut(slot) else {
        return (None, scanned, slot);
    };
    if need_build {
        gather_node(
            ctx.binned,
            ctx.grad,
            ctx.hess,
            indices,
            gather_g,
            gather_h,
            gather_rows,
        );
        let cols = ctx.binned.ncols();
        if params.mode == TrainMode::Fast {
            build_hist_all(
                params.threads,
                gather_rows,
                cols,
                gather_g,
                gather_h,
                offsets,
                partials,
                slab,
            );
        } else {
            sorted_feats.clear();
            sorted_feats.extend_from_slice(features);
            sorted_feats.sort_unstable();
            build_hist_subset(
                params.threads,
                gather_rows,
                cols,
                gather_g,
                gather_h,
                offsets,
                sorted_feats,
                slab,
            );
        }
    }
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
    (best, scanned, slot)
}

/// `Fast`-mode child preparation: after a split partitions the node,
/// build only the *smaller* child's histogram from rows and derive the
/// larger child's by sibling subtraction from the parent's slab.
///
/// Slot discipline: the parent occupies `2·depth` or `2·depth + 1`; the
/// children take `2·(depth + 1)` (small) and `2·(depth + 1) + 1`
/// (large). A node's subtree only ever writes slots at depths ≥ two
/// below it, so the right sibling's slab survives the whole left-side
/// recursion — this is what makes one slab pair per depth sufficient.
pub(crate) fn prepare_children(
    ctx: &BuildCtx<'_>,
    scratch: &mut TrainScratch,
    parent_slot: usize,
    depth: usize,
    left: &[usize],
    right: &[usize],
) -> (NodeHist, NodeHist) {
    let params = &ctx.params;
    let child_depth = depth + 1;
    let needs =
        |n: usize| child_depth < params.max_depth && n >= 2 * params.min_samples_leaf && n >= 2;
    let need_l = needs(left.len());
    let need_r = needs(right.len());
    if !need_l && !need_r {
        return (NodeHist::Unbuilt, NodeHist::Unbuilt);
    }
    let small_is_left = left.len() <= right.len();
    let small = if small_is_left { left } else { right };
    let small_slot = 2 * child_depth;
    let large_slot = small_slot + 1;
    scratch.ensure_slab(large_slot);
    let TrainScratch {
        offsets,
        slabs,
        partials,
        gather_g,
        gather_h,
        gather_rows,
        ..
    } = scratch;
    let (head, tail) = slabs.split_at_mut(small_slot);
    let (Some(parent), Some((small_slab, tail2))) = (head.get(parent_slot), tail.split_first_mut())
    else {
        return (NodeHist::Unbuilt, NodeHist::Unbuilt);
    };
    let Some((large_slab, _)) = tail2.split_first_mut() else {
        return (NodeHist::Unbuilt, NodeHist::Unbuilt);
    };
    let cols = ctx.binned.ncols();
    gather_node(
        ctx.binned,
        ctx.grad,
        ctx.hess,
        small,
        gather_g,
        gather_h,
        gather_rows,
    );
    build_hist_all(
        params.threads,
        gather_rows,
        cols,
        gather_g,
        gather_h,
        offsets,
        partials,
        small_slab,
    );
    let need_large = if small_is_left { need_r } else { need_l };
    if need_large {
        derive_sibling(parent, small_slab, large_slab);
    }
    let small_hist = NodeHist::Ready(small_slot);
    let large_hist = if need_large {
        NodeHist::Ready(large_slot)
    } else {
        NodeHist::Unbuilt
    };
    if small_is_left {
        (small_hist, large_hist)
    } else {
        (large_hist, small_hist)
    }
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
            scratch.ensure_slab(0);
            let total = scratch.total_bins();
            let mut slab = HistSlab::sized(total);
            accumulate_all(
                &scratch.gather_rows,
                binned.ncols(),
                &scratch.gather_g,
                &scratch.gather_h,
                &scratch.offsets,
                &mut slab,
            );
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
        gather_node(
            &binned,
            &grad,
            &hess,
            &idx,
            &mut scratch.gather_g,
            &mut scratch.gather_h,
            &mut scratch.gather_rows,
        );
        let total = scratch.total_bins();
        let mut full = HistSlab::sized(total);
        accumulate_all(
            &scratch.gather_rows,
            binned.ncols(),
            &scratch.gather_g,
            &scratch.gather_h,
            &scratch.offsets,
            &mut full,
        );
        let feats = vec![1usize, 4, 6];
        let mut sub = HistSlab::sized(total);
        accumulate_subset(
            &scratch.gather_rows,
            binned.ncols(),
            &scratch.gather_g,
            &scratch.gather_h,
            &feats,
            &scratch.offsets,
            &mut sub,
        );
        for &j in &feats {
            let lo = scratch.offsets[j] as usize;
            let hi = scratch.offsets[j + 1] as usize;
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
        }
    }

    #[test]
    fn blocked_build_is_thread_invariant() {
        // > ROW_BLOCK rows so the partial-merge path engages; the block
        // structure (and thus every bit) must not depend on the policy.
        let (binned, binner, grad, hess, _) = random_node(11, 3 * ROW_BLOCK + 37, 6, 16);
        let idx: Vec<usize> = (0..binned.nrows()).collect();
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
        let total = scratch.total_bins();
        let mut out: Vec<Vec<u64>> = Vec::new();
        for threads in [
            parkit::Threads::Serial,
            parkit::Threads::Fixed(2),
            parkit::Threads::Fixed(8),
        ] {
            let mut slab = HistSlab::sized(total);
            let mut partials = Vec::new();
            build_hist_all(
                threads,
                &scratch.gather_rows,
                binned.ncols(),
                &scratch.gather_g,
                &scratch.gather_h,
                &scratch.offsets,
                &mut partials,
                &mut slab,
            );
            let mut bits: Vec<u64> = slab.g.iter().map(|v| v.to_bits()).collect();
            bits.extend(slab.h.iter().map(|v| v.to_bits()));
            bits.extend(slab.c.iter().map(|&v| v as u64));
            out.push(bits);
        }
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0], out[2]);
    }

    #[test]
    fn derive_sibling_counts_are_exact() {
        let (binned, binner, grad, hess, idx) = random_node(19, 600, 5, 10);
        let mut scratch = TrainScratch::for_binner(&binner);
        let total = scratch.total_bins();
        let (left, right) = idx.split_at(idx.len() / 3);
        let build = |rows: &[usize], scratch: &mut TrainScratch| {
            gather_node(
                &binned,
                &grad,
                &hess,
                rows,
                &mut scratch.gather_g,
                &mut scratch.gather_h,
                &mut scratch.gather_rows,
            );
            let mut slab = HistSlab::sized(total);
            accumulate_all(
                &scratch.gather_rows,
                binned.ncols(),
                &scratch.gather_g,
                &scratch.gather_h,
                &scratch.offsets,
                &mut slab,
            );
            slab
        };
        let parent = build(&idx, &mut scratch);
        let small = build(left, &mut scratch);
        let direct_large = build(right, &mut scratch);
        let mut derived = HistSlab::sized(total);
        derive_sibling(&parent, &small, &mut derived);
        // Counts are exact; g/h agree to f64 rounding of one subtraction.
        assert_eq!(derived.c, direct_large.c);
        for (d, e) in derived.g.iter().zip(direct_large.g.iter()) {
            assert!((d - e).abs() <= 1e-9 * (1.0 + e.abs()), "{d} vs {e}");
        }
    }

    #[test]
    fn scratch_layout_sync_is_stable() {
        let (_, binner, _, _, _) = random_node(23, 50, 4, 8);
        let mut scratch = TrainScratch::for_binner(&binner);
        scratch.ensure_slab(3);
        let slabs_before = scratch.slabs.len();
        scratch.sync_layout(&binner); // matching layout: a no-op
        assert_eq!(scratch.slabs.len(), slabs_before);
        let (_, other, _, _, _) = random_node(29, 50, 6, 8);
        scratch.sync_layout(&other); // layout changed: slabs discarded
        assert!(scratch.slabs.is_empty());
        assert_eq!(scratch.offsets.len(), 7);
    }
}
