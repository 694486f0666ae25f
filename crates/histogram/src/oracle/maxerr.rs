//! Maximum-absolute-error and maximum-absolute-relative-error bucket-cost
//! oracles (Section 3.6 of the paper, Theorem 6).
//!
//! The bucket cost is the *maximum over items* of the per-item expected
//! error, `max_{s ≤ i ≤ e} Σ_j w_{i,j} |v_j − b̂|`, where the weights are
//! `w_{i,j} = Pr[g_i = v_j]` (MAE) or `Pr[g_i = v_j]/max(c, v_j)` (MARE).
//! Every per-item function `f_i(b̂)` is convex piecewise linear with
//! breakpoints in `V`, so their upper envelope `E(b̂) = max_i f_i(b̂)` is
//! convex as well.  Following the paper's binary-search trick over the value
//! domain we
//!
//! 1. **binary-search the value grid** for the leftmost grid minimum of the
//!    (convex) sequence `E(v_0), …, E(v_{|V|−1})` — `O(log |V|)` probes, each
//!    an `O(1)` range-max lookup in block-decomposed tables of the
//!    precomputed per-item grid errors `f_i(v_l)`; then
//! 2. minimise the envelope **exactly** on the one or two grid segments
//!    adjacent to the grid minimum (the continuous optimum of a convex
//!    function with grid breakpoints lies there), via the upper envelope of
//!    the bucket's `n_b` linear pieces.
//!
//! The batched [`BucketCostOracle::costs_ending_at`] sweep maintains the grid
//! envelope incrementally while the bucket grows leftwards, so each start
//! pays only the `O(log |V|)` bracketing search plus the final segment
//! refinement — no per-probe rescans of the bucket.

use pds_core::model::ProbabilisticRelation;
use pds_core::values::ValueDomain;

use super::{BucketCostOracle, BucketSolution};

/// Items per block in the range-max decomposition of the grid-error tables.
const BLOCK: usize = 64;

/// Which maximum-error metric the oracle evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxMetricKind {
    /// Maximum absolute error.
    Mae,
    /// Maximum absolute relative error with the given sanity bound.
    Mare {
        /// Sanity bound.
        c: f64,
    },
}

/// Maximum-error bucket-cost oracle (MAE and MARE).
#[derive(Debug, Clone)]
pub struct MaxErrOracle {
    n: usize,
    kind: MaxMetricKind,
    domain: ValueDomain,
    /// `w_cum[i][l] = Σ_{r ≤ l} w_{i,r}` (per item, cumulative over values).
    w_cum: Vec<Vec<f64>>,
    /// `m_cum[i][l] = Σ_{r ≤ l} w_{i,r} v_r`.
    m_cum: Vec<Vec<f64>>,
    /// `Σ_r w_{i,r}` per item.
    total_w: Vec<f64>,
    /// `Σ_r w_{i,r} v_r` per item.
    total_m: Vec<f64>,
    /// `grid[i·|V| + l] = f_i(v_l)` — the per-item expected error at every
    /// grid value (row-major per item, for the incremental sweep).
    grid: Vec<f64>,
    /// The same values transposed (`grid_col[l·n + i]`), so the segment
    /// refinement filter streams items contiguously.
    grid_col: Vec<f64>,
    /// `pre[l·n + i]` = max of `f_j(v_l)` over `j` from the start of item
    /// `i`'s block through `i` (column-major per value index).
    pre: Vec<f64>,
    /// `suf[l·n + i]` = max of `f_j(v_l)` over `j` from `i` through the end
    /// of its block.
    suf: Vec<f64>,
    /// Sparse table over whole-block maxima: `sparse[(l·levels + lev)·nb + b]`
    /// = max over blocks `b .. b + 2^lev`.
    sparse: Vec<f64>,
    /// Number of blocks.
    nb: usize,
    /// Number of sparse-table levels.
    levels: usize,
}

impl MaxErrOracle {
    /// Builds the MAE oracle.
    pub fn mae(relation: &ProbabilisticRelation) -> Self {
        Self::with_kind(relation, MaxMetricKind::Mae)
    }

    /// Builds the MARE oracle with sanity bound `c > 0`.
    pub fn mare(relation: &ProbabilisticRelation, c: f64) -> Self {
        assert!(c > 0.0, "the sanity bound c must be positive");
        Self::with_kind(relation, MaxMetricKind::Mare { c })
    }

    /// Builds the oracle for an explicit metric kind.
    pub fn with_kind(relation: &ProbabilisticRelation, kind: MaxMetricKind) -> Self {
        let n = relation.n();
        let pdfs = relation.induced_value_pdfs();
        let domain = ValueDomain::from_value_pdfs(&pdfs);
        let dense = domain.dense_probabilities(&pdfs);
        let v = domain.values();
        let k = v.len();
        let weight = |value: f64| match kind {
            MaxMetricKind::Mae => 1.0,
            MaxMetricKind::Mare { c } => 1.0 / c.max(value.abs()),
        };
        let mut w_cum = vec![vec![0.0; k]; n];
        let mut m_cum = vec![vec![0.0; k]; n];
        let mut total_w = vec![0.0; n];
        let mut total_m = vec![0.0; n];
        let mut grid = vec![0.0; n * k];
        for i in 0..n {
            let mut wc = 0.0;
            let mut mc = 0.0;
            for j in 0..k {
                let w = dense[i][j] * weight(v[j]);
                wc += w;
                mc += w * v[j];
                w_cum[i][j] = wc;
                m_cum[i][j] = mc;
            }
            total_w[i] = wc;
            total_m[i] = mc;
            for l in 0..k {
                let a = 2.0 * w_cum[i][l] - wc;
                let c = mc - 2.0 * m_cum[i][l];
                grid[i * k + l] = a * v[l] + c;
            }
        }

        // Block range-max tables over items, one column per grid value: a
        // prefix/suffix max inside every block plus a sparse table over the
        // whole-block maxima give O(1) range-max queries.
        let nb = n.div_ceil(BLOCK);
        let levels = usize::BITS as usize - nb.leading_zeros() as usize;
        let mut grid_col = vec![0.0; k * n];
        for i in 0..n {
            for l in 0..k {
                grid_col[l * n + i] = grid[i * k + l];
            }
        }
        let mut pre = vec![f64::NEG_INFINITY; k * n];
        let mut suf = vec![f64::NEG_INFINITY; k * n];
        let mut sparse = vec![f64::NEG_INFINITY; k * levels * nb];
        for l in 0..k {
            let pre_col = &mut pre[l * n..(l + 1) * n];
            let suf_col = &mut suf[l * n..(l + 1) * n];
            for b in 0..nb {
                let start = b * BLOCK;
                let end = ((b + 1) * BLOCK).min(n);
                let mut acc = f64::NEG_INFINITY;
                for i in start..end {
                    acc = acc.max(grid[i * k + l]);
                    pre_col[i] = acc;
                }
                sparse[(l * levels) * nb + b] = acc;
                let mut acc = f64::NEG_INFINITY;
                for i in (start..end).rev() {
                    acc = acc.max(grid[i * k + l]);
                    suf_col[i] = acc;
                }
            }
            for lev in 1..levels {
                let half = 1usize << (lev - 1);
                for b in 0..nb {
                    let lo = sparse[(l * levels + lev - 1) * nb + b];
                    let hi = sparse[(l * levels + lev - 1) * nb + (b + half).min(nb - 1)];
                    sparse[(l * levels + lev) * nb + b] = lo.max(hi);
                }
            }
        }

        MaxErrOracle {
            n,
            kind,
            domain,
            w_cum,
            m_cum,
            total_w,
            total_m,
            grid,
            grid_col,
            pre,
            suf,
            sparse,
            nb,
            levels,
        }
    }

    /// The metric kind this oracle evaluates.
    pub fn kind(&self) -> MaxMetricKind {
        self.kind
    }

    /// The frequency value domain `V`.
    pub fn domain(&self) -> &ValueDomain {
        &self.domain
    }

    /// The per-item expected error `f_i(b̂) = Σ_j w_{i,j} |v_j − b̂|` as a
    /// linear function of `b̂` on the segment `[v_l, v_{l+1}]`, returned as
    /// `(slope, intercept)`.
    fn item_line(&self, i: usize, l: usize) -> (f64, f64) {
        let slope = 2.0 * self.w_cum[i][l] - self.total_w[i];
        let intercept = self.total_m[i] - 2.0 * self.m_cum[i][l];
        (slope, intercept)
    }

    /// `max_i f_i(v_l)` over the bucket `[s, e]` — an O(1) range-max query.
    fn envelope_at_value(&self, s: usize, e: usize, l: usize) -> f64 {
        let k = self.domain.len();
        let (bs, be) = (s / BLOCK, e / BLOCK);
        if bs == be {
            let mut m = f64::NEG_INFINITY;
            for i in s..=e {
                m = m.max(self.grid[i * k + l]);
            }
            return m;
        }
        let mut m = self.suf[l * self.n + s].max(self.pre[l * self.n + e]);
        if be > bs + 1 {
            let (lo, hi) = (bs + 1, be - 1);
            let lev = usize::BITS as usize - 1 - (hi - lo + 1).leading_zeros() as usize;
            let row = (l * self.levels + lev) * self.nb;
            m = m
                .max(self.sparse[row + lo])
                .max(self.sparse[row + hi + 1 - (1 << lev)]);
        }
        m
    }

    /// Leftmost grid argmin of the convex sequence `E(v_0) … E(v_{k−1})`,
    /// found by binary search on the sign of the forward difference.
    fn grid_argmin(&self, mut env: impl FnMut(usize) -> f64, k: usize) -> usize {
        if k == 1 {
            return 0;
        }
        // d(l) = E(v_{l+1}) − E(v_l) is sign-monotone (E is convex); find the
        // first l with d(l) ≥ 0 — the minimum sits at that l (or at k−1 when
        // E keeps decreasing).
        let (mut lo, mut hi) = (0usize, k - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if env(mid + 1) >= env(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Minimises `max_i f_i(b̂)` over `b̂ ∈ [v_l, v_{l+1}]` exactly, reusing
    /// `lines` as scratch.
    ///
    /// Before building the upper envelope, lines are filtered against the
    /// lower bound `LB = max_i min(f_i(v_l), f_i(v_{l+1}))`: the envelope is
    /// everywhere at least its own minimum, which is at least `LB`, so a line
    /// strictly below `LB` at both segment endpoints (hence, being linear,
    /// everywhere in between) can never attain the envelope on the segment.
    /// This keeps the refinement exact while the hull is built over a handful
    /// of survivors instead of the whole bucket.
    fn minimise_segment(
        &self,
        s: usize,
        e: usize,
        l: usize,
        lines: &mut Vec<(f64, f64)>,
    ) -> (f64, f64) {
        let k = self.domain.len();
        let lo = self.domain.value(l);
        let hi = self.domain.value((l + 1).min(k - 1));
        let col_l = &self.grid_col[l * self.n..][s..=e];
        let col_r = &self.grid_col[(l + 1) * self.n..][s..=e];
        let mut lb = f64::NEG_INFINITY;
        for (&fl, &fr) in col_l.iter().zip(col_r) {
            lb = lb.max(fl.min(fr));
        }
        lines.clear();
        for (i, (&fl, &fr)) in col_l.iter().zip(col_r).enumerate() {
            if fl.max(fr) >= lb {
                lines.push(self.item_line(s + i, l));
            }
        }
        minimise_max_of_lines(lines, lo, hi)
    }

    /// Exact bucket minimum given the grid argmin `a`: the continuous optimum
    /// of the convex envelope lies in `[v_{a−1}, v_{a+1}]`, so refine the one
    /// or two adjacent segments and keep the best of those and the grid point.
    fn refine_around(
        &self,
        s: usize,
        e: usize,
        a: usize,
        value_at_a: f64,
        lines: &mut Vec<(f64, f64)>,
    ) -> (f64, f64) {
        let k = self.domain.len();
        let mut best = (self.domain.value(a), value_at_a);
        let seg_lo = a.saturating_sub(1);
        let seg_hi = (a + 1).min(k - 1);
        for l in seg_lo..seg_hi {
            let (x, val) = self.minimise_segment(s, e, l, lines);
            if val < best.1 {
                best = (x, val);
            }
        }
        best
    }
}

/// Minimises the upper envelope `max_i (a_i x + c_i)` over `x ∈ [lo, hi]`,
/// returning `(argmin, min)`.  Exact: the minimum of a convex piecewise-linear
/// function over an interval is attained at an endpoint or at a breakpoint of
/// its upper envelope.
fn minimise_max_of_lines(lines: &[(f64, f64)], lo: f64, hi: f64) -> (f64, f64) {
    assert!(!lines.is_empty(), "at least one line is required");
    let eval = |x: f64| {
        lines
            .iter()
            .map(|&(a, c)| a * x + c)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    if hi <= lo {
        return (lo, eval(lo));
    }
    // Upper envelope via the convex-hull trick: sort by slope, drop dominated
    // lines, keep the hull of lines that attain the maximum somewhere.
    let mut sorted: Vec<(f64, f64)> = lines.to_vec();
    sorted.sort_by(|x, y| x.partial_cmp(y).expect("finite lines"));
    // For equal slopes only the largest intercept matters.
    let mut dedup: Vec<(f64, f64)> = Vec::with_capacity(sorted.len());
    for (a, c) in sorted {
        match dedup.last_mut() {
            Some(last) if (last.0 - a).abs() < 1e-15 => last.1 = last.1.max(c),
            _ => dedup.push((a, c)),
        }
    }
    let intersect = |l1: (f64, f64), l2: (f64, f64)| -> f64 {
        // x where a1 x + c1 == a2 x + c2 (slopes differ).
        (l2.1 - l1.1) / (l1.0 - l2.0)
    };
    let mut hull: Vec<(f64, f64)> = Vec::with_capacity(dedup.len());
    for line in dedup {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            // `b` is unnecessary if the new line already dominates it at the
            // point where `b` overtakes `a`.
            if intersect(a, line) <= intersect(a, b) {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(line);
    }
    // Candidate minimisers: the interval endpoints and every envelope
    // breakpoint inside the interval.
    let mut best_x = lo;
    let mut best = eval(lo);
    let consider = |x: f64, best_x: &mut f64, best: &mut f64| {
        let v = eval(x);
        if v < *best {
            *best = v;
            *best_x = x;
        }
    };
    consider(hi, &mut best_x, &mut best);
    for pair in hull.windows(2) {
        let x = intersect(pair[0], pair[1]);
        if x > lo && x < hi {
            consider(x, &mut best_x, &mut best);
        }
    }
    (best_x, best)
}

impl BucketCostOracle for MaxErrOracle {
    fn n(&self) -> usize {
        self.n
    }

    fn bucket(&self, s: usize, e: usize) -> BucketSolution {
        let k = self.domain.len();
        let a = self.grid_argmin(|l| self.envelope_at_value(s, e, l), k);
        let mut lines = Vec::with_capacity(e - s + 1);
        let at_a = self.envelope_at_value(s, e, a);
        let best = if k == 1 {
            (self.domain.value(0), at_a)
        } else {
            self.refine_around(s, e, a, at_a, &mut lines)
        };
        BucketSolution {
            representative: best.0,
            cost: best.1.max(0.0),
        }
    }

    fn costs_ending_at(&self, e: usize, starts: &[usize]) -> Vec<f64> {
        let k = self.domain.len();
        let mut out = vec![0.0; starts.len()];
        if starts.is_empty() {
            return out;
        }
        // Incremental envelope sweep: grow the bucket leftwards, folding each
        // item's grid-error row into `env` so every probe of the bracketing
        // binary search is a plain array read.
        let mut env = vec![f64::NEG_INFINITY; k];
        let mut lines: Vec<(f64, f64)> = Vec::new();
        let mut next = starts.len();
        for s in (starts[0]..=e).rev() {
            let row = &self.grid[s * k..(s + 1) * k];
            for (slot, &g) in env.iter_mut().zip(row) {
                if g > *slot {
                    *slot = g;
                }
            }
            while next > 0 && starts[next - 1] == s {
                next -= 1;
                let a = self.grid_argmin(|l| env[l], k);
                let cost = if k == 1 {
                    env[0]
                } else {
                    self.refine_around(s, e, a, env[a], &mut lines).1
                };
                out[next] = cost.max(0.0);
            }
        }
        out
    }

    fn costs_starting_at(&self, s: usize, ends: &[usize]) -> Vec<f64> {
        let k = self.domain.len();
        let mut out = vec![0.0; ends.len()];
        if ends.is_empty() {
            return out;
        }
        // Prefix-direction dual of the sweep above: grow the bucket
        // rightwards from the fixed start, folding each item's grid-error row
        // into the running envelope.
        let mut env = vec![f64::NEG_INFINITY; k];
        let mut lines: Vec<(f64, f64)> = Vec::new();
        let mut next = 0usize;
        for e in s..=ends[ends.len() - 1] {
            let row = &self.grid[e * k..(e + 1) * k];
            for (slot, &g) in env.iter_mut().zip(row) {
                if g > *slot {
                    *slot = g;
                }
            }
            while next < ends.len() && ends[next] == e {
                let a = self.grid_argmin(|l| env[l], k);
                let cost = if k == 1 {
                    env[0]
                } else {
                    self.refine_around(s, e, a, env[a], &mut lines).1
                };
                out[next] = cost.max(0.0);
                next += 1;
            }
        }
        out
    }

    fn is_cumulative(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::metrics::ErrorMetric;
    use pds_core::model::{BasicModel, TuplePdfModel, ValuePdf, ValuePdfModel};

    fn relations() -> Vec<ProbabilisticRelation> {
        vec![
            BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)])
                .unwrap()
                .into(),
            TuplePdfModel::from_alternatives(
                3,
                [vec![(0, 0.5), (1, 1.0 / 3.0)], vec![(1, 0.25), (2, 0.5)]],
            )
            .unwrap()
            .into(),
            ValuePdfModel::from_sparse(
                5,
                [
                    (0, ValuePdf::new([(1.0, 0.5)]).unwrap()),
                    (1, ValuePdf::new([(1.0, 1.0 / 3.0), (2.5, 0.25)]).unwrap()),
                    (2, ValuePdf::new([(6.0, 0.1)]).unwrap()),
                    (3, ValuePdf::new([(4.0, 0.75), (0.5, 0.2)]).unwrap()),
                ],
            )
            .unwrap()
            .into(),
        ]
    }

    fn metric_for(kind: MaxMetricKind) -> ErrorMetric {
        match kind {
            MaxMetricKind::Mae => ErrorMetric::Mae,
            MaxMetricKind::Mare { c } => ErrorMetric::Mare { c },
        }
    }

    /// Grid-scan reference: evaluate the per-item expected error at many
    /// candidate representatives and return the smallest maximum.
    fn grid_min(rel: &ProbabilisticRelation, s: usize, e: usize, kind: MaxMetricKind) -> f64 {
        let pdfs = rel.induced_value_pdfs();
        let metric = metric_for(kind);
        let mut best = f64::INFINITY;
        for step in 0..=6000 {
            let cand = step as f64 * 0.001 * 7.0; // covers [0, 7]
            let cost = (s..=e)
                .map(|i| metric.expected_point_error(pdfs.item(i), cand))
                .fold(0.0, f64::max);
            best = best.min(cost);
        }
        best
    }

    fn envelope_at(
        rel: &ProbabilisticRelation,
        s: usize,
        e: usize,
        kind: MaxMetricKind,
        rep: f64,
    ) -> f64 {
        let pdfs = rel.induced_value_pdfs();
        let metric = metric_for(kind);
        (s..=e)
            .map(|i| metric.expected_point_error(pdfs.item(i), rep))
            .fold(0.0, f64::max)
    }

    #[test]
    fn mae_cost_is_consistent_and_optimal_up_to_grid_resolution() {
        for rel in relations() {
            let oracle = MaxErrOracle::mae(&rel);
            for s in 0..rel.n() {
                for e in s..rel.n() {
                    let sol = oracle.bucket(s, e);
                    // The reported cost is exactly the envelope at the reported
                    // representative.
                    let at_rep = envelope_at(&rel, s, e, MaxMetricKind::Mae, sol.representative);
                    assert!(
                        (sol.cost - at_rep).abs() < 1e-9,
                        "{} [{s},{e}]",
                        rel.model_name()
                    );
                    // And no grid candidate does meaningfully better.
                    let grid = grid_min(&rel, s, e, MaxMetricKind::Mae);
                    assert!(
                        sol.cost <= grid + 1e-6,
                        "{} [{s},{e}]: {} vs grid {grid}",
                        rel.model_name(),
                        sol.cost
                    );
                }
            }
        }
    }

    #[test]
    fn mare_cost_is_consistent_and_optimal_up_to_grid_resolution() {
        for rel in relations() {
            for c in [0.5, 1.0] {
                let kind = MaxMetricKind::Mare { c };
                let oracle = MaxErrOracle::mare(&rel, c);
                for s in 0..rel.n() {
                    for e in s..rel.n() {
                        let sol = oracle.bucket(s, e);
                        let at_rep = envelope_at(&rel, s, e, kind, sol.representative);
                        assert!((sol.cost - at_rep).abs() < 1e-9);
                        let grid = grid_min(&rel, s, e, kind);
                        assert!(sol.cost <= grid + 1e-6);
                    }
                }
            }
        }
    }

    #[test]
    fn batched_sweep_matches_single_bucket_queries() {
        for rel in relations() {
            for oracle in [MaxErrOracle::mae(&rel), MaxErrOracle::mare(&rel, 0.5)] {
                for e in 0..rel.n() {
                    let starts: Vec<usize> = (0..=e).collect();
                    let out = oracle.costs_ending_at(e, &starts);
                    for (s, &cost) in out.iter().enumerate() {
                        assert!(
                            (cost - oracle.bucket(s, e).cost).abs() < 1e-9,
                            "{} [{s},{e}]",
                            rel.model_name()
                        );
                    }
                    // Sparse start subsets see identical values.
                    let sparse: Vec<usize> = (0..=e).step_by(2).collect();
                    let out = oracle.costs_ending_at(e, &sparse);
                    for (j, &s) in sparse.iter().enumerate() {
                        assert!((out[j] - oracle.bucket(s, e).cost).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_direction_sweep_matches_single_bucket_queries() {
        for rel in relations() {
            for oracle in [MaxErrOracle::mae(&rel), MaxErrOracle::mare(&rel, 0.5)] {
                for s in 0..rel.n() {
                    let ends: Vec<usize> = (s..rel.n()).collect();
                    let out = oracle.costs_starting_at(s, &ends);
                    for (j, &e) in ends.iter().enumerate() {
                        assert!(
                            (out[j] - oracle.bucket(s, e).cost).abs() < 1e-9,
                            "{} [{s},{e}]",
                            rel.model_name()
                        );
                    }
                    let sparse: Vec<usize> = (s..rel.n()).step_by(2).collect();
                    let out = oracle.costs_starting_at(s, &sparse);
                    for (j, &e) in sparse.iter().enumerate() {
                        assert!((out[j] - oracle.bucket(s, e).cost).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_data_reduces_to_midrange() {
        // For deterministic data the optimal max-absolute-error representative
        // is the midrange and the cost is half the spread.
        let freqs = [5.0, 1.0, 2.0, 9.0, 2.0];
        let rel: ProbabilisticRelation = ValuePdfModel::deterministic(&freqs).into();
        let oracle = MaxErrOracle::mae(&rel);
        for s in 0..freqs.len() {
            for e in s..freqs.len() {
                let max = freqs[s..=e]
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                let min = freqs[s..=e].iter().cloned().fold(f64::INFINITY, f64::min);
                let sol = oracle.bucket(s, e);
                assert!(
                    (sol.cost - (max - min) / 2.0).abs() < 1e-9,
                    "[{s},{e}] cost {} vs {}",
                    sol.cost,
                    (max - min) / 2.0
                );
                assert!((sol.representative - (max + min) / 2.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn wide_buckets_cross_block_boundaries_consistently() {
        // A domain wider than the RMQ block size exercises the
        // suffix/prefix/sparse-table composition of the envelope probes.
        let n = 3 * BLOCK + 17;
        let freqs: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64).collect();
        let rel: ProbabilisticRelation = ValuePdfModel::deterministic(&freqs).into();
        let oracle = MaxErrOracle::mae(&rel);
        for (s, e) in [
            (0, n - 1),
            (3, BLOCK + 5),
            (BLOCK - 1, 2 * BLOCK),
            (BLOCK, BLOCK + 3),
            (2 * BLOCK + 1, n - 1),
        ] {
            let max = freqs[s..=e]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            let min = freqs[s..=e].iter().cloned().fold(f64::INFINITY, f64::min);
            let sol = oracle.bucket(s, e);
            assert!(
                (sol.cost - (max - min) / 2.0).abs() < 1e-9,
                "[{s},{e}] cost {} vs {}",
                sol.cost,
                (max - min) / 2.0
            );
        }
        // The sweep agrees with single queries across block boundaries too.
        let starts: Vec<usize> = (0..n).step_by(7).collect();
        let out = oracle.costs_ending_at(n - 1, &starts);
        for (j, &s) in starts.iter().enumerate() {
            assert!((out[j] - oracle.bucket(s, n - 1).cost).abs() < 1e-9);
        }
    }

    #[test]
    fn minimise_max_of_lines_basic_cases() {
        // Two crossing lines: minimum of the max at their intersection.
        let (x, v) = minimise_max_of_lines(&[(1.0, 0.0), (-1.0, 4.0)], 0.0, 10.0);
        assert!((x - 2.0).abs() < 1e-12);
        assert!((v - 2.0).abs() < 1e-12);
        // Minimum clamped to the interval.
        let (x, v) = minimise_max_of_lines(&[(1.0, 0.0), (-1.0, 4.0)], 3.0, 10.0);
        assert!((x - 3.0).abs() < 1e-12);
        assert!((v - 3.0).abs() < 1e-12);
        // A dominated middle line does not affect the result.
        let (x, v) = minimise_max_of_lines(&[(1.0, 0.0), (0.0, 1.0), (-1.0, 4.0)], 0.0, 10.0);
        assert!((x - 2.0).abs() < 1e-12);
        assert!((v - 2.0).abs() < 1e-12);
        // A non-dominated middle line lifts the minimum to its own level.
        let (_, v) = minimise_max_of_lines(&[(-2.0, 10.0), (0.0, 6.0), (2.0, 0.0)], 0.0, 10.0);
        assert!((v - 6.0).abs() < 1e-12);
        // A single flat line.
        let (_, v) = minimise_max_of_lines(&[(0.0, 3.0)], -1.0, 1.0);
        assert!((v - 3.0).abs() < 1e-12);
        // Degenerate interval.
        let (x, v) = minimise_max_of_lines(&[(2.0, 1.0)], 5.0, 5.0);
        assert_eq!(x, 5.0);
        assert!((v - 11.0).abs() < 1e-12);
    }

    #[test]
    fn max_oracle_reports_non_cumulative() {
        let rel = &relations()[0];
        let oracle = MaxErrOracle::mae(rel);
        assert!(!oracle.is_cumulative());
        assert!(oracle.costs_monotone());
        assert_eq!(oracle.n(), 3);
        assert_eq!(oracle.kind(), MaxMetricKind::Mae);
    }

    #[test]
    fn singleton_bucket_cost_is_item_expected_error_minimum() {
        let rel = &relations()[2];
        let oracle = MaxErrOracle::mae(rel);
        // Item 2 has Pr[g=6] = 0.1, Pr[g=0] = 0.9: the optimal estimate
        // minimises 0.9|b| + 0.1|6-b|, optimum at b = 0 with cost 0.6.
        let sol = oracle.bucket(2, 2);
        assert!((sol.cost - 0.6).abs() < 1e-9);
        assert!(sol.representative.abs() < 1e-9);
    }
}
