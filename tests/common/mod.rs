//! Shared naive reference implementations for the integration test suites.
//!
//! [`ReferenceOracle`] re-derives every bucket cost straight from the
//! induced per-item frequency pdfs with `O(n_b · |V|)` scans (and an
//! `O(n_b² · |V|)` exhaustive envelope scan for the max-error metrics) —
//! no prefix arrays, no binary searches, no range-max tables, no sweeps.
//! The optimized oracles in `pds-histogram` are cross-checked against it by
//! `tests/oracle_reference.rs` and the property suites.
//! [`exact_expected_answer`] is the reference every served range count is
//! checked against by `tests/store_end_to_end.rs`.

#![allow(dead_code)]

use probsyn::prelude::*;

/// The exact expected range count `E_W[Σ_{lo ≤ i ≤ hi} g_i]`, `hi` clamped
/// to the domain.  Expectation is linear, so it needs only the per-item
/// expected frequencies.
pub fn exact_expected_answer(relation: &ProbabilisticRelation, lo: usize, hi: usize) -> f64 {
    let moments = item_moments(relation);
    moments[lo..=hi.min(moments.len() - 1)]
        .iter()
        .map(|m| m.mean)
        .sum()
}

/// A deliberately naive bucket-cost oracle used as ground truth.
pub struct ReferenceOracle {
    metric: ErrorMetric,
    pdfs: ValuePdfModel,
    values: Vec<f64>,
}

impl ReferenceOracle {
    /// Builds the reference for one metric over one relation.
    pub fn new(relation: &ProbabilisticRelation, metric: ErrorMetric) -> Self {
        let pdfs = relation.induced_value_pdfs();
        let values = ValueDomain::from_value_pdfs(&pdfs).values().to_vec();
        ReferenceOracle {
            metric,
            pdfs,
            values,
        }
    }

    /// The frequency value domain (sorted, zero included).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `Σ_i E[err(g_i, rep)]` (cumulative) or `max_i E[err(g_i, rep)]`
    /// (max-error) over the bucket, from the raw pdfs.
    pub fn error_at(&self, s: usize, e: usize, rep: f64) -> f64 {
        self.metric
            .combine((s..=e).map(|i| self.metric.expected_point_error(self.pdfs.item(i), rep)))
    }

    /// The naive bucket cost `min_rep` of [`ReferenceOracle::error_at`].
    ///
    /// For SSE the closed-form mean representative is used (exact for
    /// independent-item models; tuple-pdf SSE is cross-checked against
    /// possible-worlds enumeration instead).  For SSRE the weighted mean is
    /// accumulated directly from the pdf entries.  For SAE/SARE every value
    /// of `V` is tried (Theorem 3 guarantees the optimum lies there).  For
    /// MAE/MARE every grid value *and* every pairwise crossing of per-item
    /// error lines inside every grid segment is tried — the exhaustive
    /// envelope scan.
    pub fn cost(&self, s: usize, e: usize) -> f64 {
        match self.metric {
            ErrorMetric::Sse => self.sse_cost(s, e),
            ErrorMetric::Ssre { c } => self.ssre_cost(s, e, c),
            ErrorMetric::Sae | ErrorMetric::Sare { .. } => self.value_scan_cost(s, e),
            ErrorMetric::Mae | ErrorMetric::Mare { .. } => self.envelope_scan_cost(s, e),
        }
    }

    /// The paper's equation (5) for independent items:
    /// `Σ E[g²] − (mean_sum² + Σ Var[g]) / n_b`.
    fn sse_cost(&self, s: usize, e: usize) -> f64 {
        let nb = (e - s + 1) as f64;
        let mut ex2 = 0.0;
        let mut mean_sum = 0.0;
        let mut var_sum = 0.0;
        for i in s..=e {
            let pdf = self.pdfs.item(i);
            let mean = pdf.mean();
            let m2 = pdf.second_moment();
            ex2 += m2;
            mean_sum += mean;
            var_sum += m2 - mean * mean;
        }
        (ex2 - (mean_sum * mean_sum + var_sum) / nb).max(0.0)
    }

    fn ssre_cost(&self, s: usize, e: usize, c: f64) -> f64 {
        // Optimal representative is the weight-weighted mean (Theorem 2).
        let weight = |v: f64| 1.0 / c.max(v.abs()).powi(2);
        let mut sw = 0.0;
        let mut swv = 0.0;
        for i in s..=e {
            let full = self.pdfs.item(i).with_explicit_zero();
            for &(v, p) in full.entries() {
                let w = p * weight(v);
                sw += w;
                swv += w * v;
            }
        }
        let rep = if sw > 0.0 { swv / sw } else { 0.0 };
        self.error_at(s, e, rep).max(0.0)
    }

    fn value_scan_cost(&self, s: usize, e: usize) -> f64 {
        self.values
            .iter()
            .map(|&v| self.error_at(s, e, v))
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
    }

    /// The per-item expected error as a line `(slope, intercept)` on the
    /// grid segment `[v_l, v_{l+1}]`, from direct summation.
    fn item_line(&self, i: usize, l: usize) -> (f64, f64) {
        let vl = self.values[l];
        let full = self.pdfs.item(i).with_explicit_zero();
        let mut slope = 0.0;
        let mut intercept = 0.0;
        for &(v, p) in full.entries() {
            let w = p * self.metric.weight(v);
            if v <= vl + 1e-12 {
                slope += w;
                intercept -= w * v;
            } else {
                slope -= w;
                intercept += w * v;
            }
        }
        (slope, intercept)
    }

    /// Exhaustive exact minimum of the convex upper envelope
    /// `max_i E[err(g_i, x)]`: the optimum is a grid value or an interior
    /// crossing of two per-item lines, so try them all.
    fn envelope_scan_cost(&self, s: usize, e: usize) -> f64 {
        let mut best = self
            .values
            .iter()
            .map(|&v| self.error_at(s, e, v))
            .fold(f64::INFINITY, f64::min);
        for l in 0..self.values.len().saturating_sub(1) {
            let (lo, hi) = (self.values[l], self.values[l + 1]);
            let lines: Vec<(f64, f64)> = (s..=e).map(|i| self.item_line(i, l)).collect();
            for a in 0..lines.len() {
                for b in a + 1..lines.len() {
                    let (a1, c1) = lines[a];
                    let (a2, c2) = lines[b];
                    if (a1 - a2).abs() < 1e-12 {
                        continue;
                    }
                    let x = (c2 - c1) / (a1 - a2);
                    if x > lo && x < hi {
                        best = best.min(self.error_at(s, e, x));
                    }
                }
            }
        }
        best.max(0.0)
    }
}

/// The three small cross-model relations used by the reference comparisons.
pub fn reference_relations() -> Vec<ProbabilisticRelation> {
    vec![
        BasicModel::from_pairs(
            6,
            [
                (0, 0.5),
                (1, 1.0 / 3.0),
                (1, 0.25),
                (2, 0.5),
                (4, 0.8),
                (4, 0.4),
                (5, 0.9),
            ],
        )
        .unwrap()
        .into(),
        TuplePdfModel::from_alternatives(
            6,
            [
                vec![(0, 0.5), (1, 1.0 / 3.0)],
                vec![(1, 0.25), (2, 0.5)],
                vec![(3, 0.6), (4, 0.3)],
                vec![(4, 0.45), (5, 0.2)],
            ],
        )
        .unwrap()
        .into(),
        ValuePdfModel::from_sparse(
            6,
            [
                (0, ValuePdf::new([(1.0, 0.5)]).unwrap()),
                (1, ValuePdf::new([(1.0, 1.0 / 3.0), (2.5, 0.25)]).unwrap()),
                (2, ValuePdf::new([(6.0, 0.1)]).unwrap()),
                (3, ValuePdf::new([(4.0, 0.75), (0.5, 0.2)]).unwrap()),
                (5, ValuePdf::new([(2.0, 0.35), (3.5, 0.3)]).unwrap()),
            ],
        )
        .unwrap()
        .into(),
    ]
}
