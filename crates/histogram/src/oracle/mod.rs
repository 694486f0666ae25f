//! Bucket-cost oracles.
//!
//! The histogram dynamic program (Section 3 of the paper) is generic: all it
//! needs is, for any candidate bucket `[s, e]`, the optimal representative
//! value `b̂` and the corresponding (expected) error contribution
//! `min_{b̂} E_W[BERR([s, e], b̂)]`.  Each error metric gets its own oracle
//! that answers these queries after a preprocessing pass over the input:
//!
//! * [`sse::SseOracle`] — sum squared error (Section 3.1, Theorem 1);
//! * [`ssre::SsreOracle`] — sum squared relative error (Section 3.2, Theorem 2);
//! * [`abs::WeightedAbsOracle`] — sum absolute (relative) error
//!   (Sections 3.3–3.4, Theorems 3 and 4);
//! * [`maxerr::MaxErrOracle`] — maximum absolute (relative) error
//!   (Section 3.6, Theorem 6).
//!
//! ## Per-oracle cost contracts
//!
//! Both dynamic programs consume oracles through the batched
//! [`BucketCostOracle::costs_ending_at`] sweep (all requested buckets share
//! the right endpoint `e`), so the contracts below are what the `oracle_cost`
//! benchmark enforces; the approximate DP's level-0 column additionally uses
//! the prefix-direction dual [`BucketCostOracle::costs_starting_at`] (fixed
//! start, growing endpoint) with the same amortised per-bucket cost for the
//! incremental oracles.  `|V|` is the size of the frequency value domain and
//! `n_b` the bucket width.
//!
//! | oracle | preprocessing | single `bucket(s, e)` | per start in a sweep |
//! |---|---|---|---|
//! | SSE (prefix arrays) | `O(n)` | `O(1)` | `O(1)` |
//! | SSE (tuple-exact)   | `O(m)` | `O(n_b)` | `O(1)` amortised |
//! | SSRE | `O(n\|V\|)` | `O(1)` | `O(1)` |
//! | SAE / SARE | `O(n\|V\|)` | `O(log \|V\|)` | `O(log \|V\|)` |
//! | MAE / MARE | `O(n\|V\|)` | `O(log \|V\|)` probes + one exact segment refinement | `O(log \|V\|)` probes amortised |
//!
//! The max-error oracle locates the optimal representative by **binary search
//! over the value domain** (the envelope of the per-item expected errors is
//! convex, Section 3.6): each probe is an `O(1)` range-max lookup in
//! block-decomposed tables, and only the one or two grid segments adjacent to
//! the bracketed grid minimum are refined exactly.  Inside a sweep the grid
//! envelope is maintained incrementally instead, so probes never rescan the
//! bucket.

pub mod abs;
pub mod maxerr;
pub mod sse;
pub mod ssre;

use pds_core::metrics::ErrorMetric;
use pds_core::model::ProbabilisticRelation;

/// The answer to a single-bucket query: the optimal representative and the
/// bucket's error under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSolution {
    /// The optimal representative value `b̂` for the bucket.
    pub representative: f64,
    /// `min_{b̂} E_W[BERR(bucket, b̂)]`.
    pub cost: f64,
}

/// A bucket-cost oracle for one error metric over one probabilistic relation.
pub trait BucketCostOracle {
    /// Domain size `n` of the underlying relation.
    fn n(&self) -> usize;

    /// Optimal representative and cost of the bucket spanning the inclusive
    /// item range `[s, e]` (0-based, `s <= e < n`).
    ///
    /// The cost is finite and `≥ 0`.  The exact DP's pruned argmin scan
    /// relies on this and on nothing else about the costs (see
    /// [`crate::dp`]).
    fn bucket(&self, s: usize, e: usize) -> BucketSolution;

    /// Batched sweep: costs of every bucket `[starts[k], e]` for an
    /// ascending list of start positions (`starts[k] <= e` for all `k`);
    /// `out[k] == bucket(starts[k], e).cost`, so each is finite and `≥ 0`.
    ///
    /// Both dynamic programs call this once per right endpoint (the exact DP
    /// with every start, the approximate DP with its thinned candidate
    /// list), so oracles with cross-item interactions (the tuple-pdf SSE
    /// oracle, the max-error envelope) override it with an incremental sweep
    /// that amortises the per-start work — see the module-level cost table.
    fn costs_ending_at(&self, e: usize, starts: &[usize]) -> Vec<f64> {
        starts.iter().map(|&s| self.bucket(s, e).cost).collect()
    }

    /// Batched prefix-direction sweep: costs of every bucket
    /// `[s, ends[k]]` for an ascending list of end positions
    /// (`ends[k] >= s` for all `k`); `out[k] == bucket(s, ends[k]).cost`.
    ///
    /// This is the column-wise dual of [`BucketCostOracle::costs_ending_at`]:
    /// the bucket grows *rightwards* from a fixed start.  The approximate DP
    /// uses it for its level-0 column (`cost(0, j)` for every endpoint `j`),
    /// so the oracles whose single-bucket query is not `O(1)` — the
    /// tuple-exact SSE oracle and the max-error envelope — override it with
    /// an incremental sweep that amortises the per-endpoint work.
    fn costs_starting_at(&self, s: usize, ends: &[usize]) -> Vec<f64> {
        ends.iter().map(|&e| self.bucket(s, e).cost).collect()
    }

    /// Whether per-bucket costs combine additively (`true`, cumulative
    /// metrics) or by maximum (`false`, max-error metrics).
    fn is_cumulative(&self) -> bool {
        true
    }

    /// Whether bucket costs are monotone under containment (growing a bucket
    /// never decreases its cost — condition (4) of Section 3.5).
    ///
    /// This holds for every metric of the form `min_{b̂}` of a sum or maximum
    /// of non-negative per-item terms, and for the exact expected per-world
    /// sample variance.  The one exception is the paper's tuple-pdf SSE
    /// prefix-array *approximation*, whose covariance estimate can dip when a
    /// tuple straddles the bucket boundary.  Only the approximate DP reads
    /// this: it applies its cost-based early exit when it returns `true`.
    /// The exact DP's pruning needs no monotonicity.
    fn costs_monotone(&self) -> bool {
        true
    }
}

/// Builds the appropriate oracle for `metric` over `relation`.
///
/// This is the convenience entry point used by `optimal_histogram`; advanced
/// callers can construct the concrete oracles directly (e.g. to choose the
/// tuple-pdf SSE mode).
pub fn oracle_for_metric(
    relation: &ProbabilisticRelation,
    metric: ErrorMetric,
) -> Box<dyn BucketCostOracle> {
    match metric {
        ErrorMetric::Sse => Box::new(sse::SseOracle::new(relation, sse::SseObjective::PaperEq5)),
        ErrorMetric::Ssre { c } => Box::new(ssre::SsreOracle::new(relation, c)),
        ErrorMetric::Sae => Box::new(abs::WeightedAbsOracle::sae(relation)),
        ErrorMetric::Sare { c } => Box::new(abs::WeightedAbsOracle::sare(relation, c)),
        ErrorMetric::Mae => Box::new(maxerr::MaxErrOracle::mae(relation)),
        ErrorMetric::Mare { c } => Box::new(maxerr::MaxErrOracle::mare(relation, c)),
    }
}

impl BucketCostOracle for Box<dyn BucketCostOracle> {
    fn n(&self) -> usize {
        self.as_ref().n()
    }

    fn bucket(&self, s: usize, e: usize) -> BucketSolution {
        self.as_ref().bucket(s, e)
    }

    fn costs_ending_at(&self, e: usize, starts: &[usize]) -> Vec<f64> {
        self.as_ref().costs_ending_at(e, starts)
    }

    fn costs_starting_at(&self, s: usize, ends: &[usize]) -> Vec<f64> {
        self.as_ref().costs_starting_at(s, ends)
    }

    fn is_cumulative(&self) -> bool {
        self.as_ref().is_cumulative()
    }

    fn costs_monotone(&self) -> bool {
        self.as_ref().costs_monotone()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cuts::zero_runs;
    use crate::merge::{piece_runs, Piece};
    use pds_core::generator::{mystiq_like, MystiqLikeConfig};
    use pds_core::model::{BasicModel, TuplePdfModel, ValuePdf, ValuePdfModel};
    use pds_core::moments::item_moments;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sse::{SseObjective, SseOracle, TupleSseMode};

    /// Relations over `n` items that stress the cost contract: all zeros,
    /// runs of identical probabilistic items, piecewise-constant
    /// deterministic data, frequencies spanning 1e-12 to 1e12, tuple-pdf
    /// alternatives that straddle every bucket boundary, and a seeded
    /// `mystiq_like` input.
    pub(crate) fn adversarial_relations(
        n: usize,
        seed: u64,
    ) -> Vec<(&'static str, ProbabilisticRelation)> {
        let decade = |i: usize| 10f64.powi((i % 25) as i32 - 12);
        let mut rng = StdRng::seed_from_u64(seed);
        let straddling: Vec<Vec<(usize, f64)>> = (0..2 * n)
            .map(|t| {
                let item = t % n;
                let far = (item + rng.gen_range(1usize..5)).min(n - 1);
                vec![(item, rng.gen_range(0.1..0.5)), (far, 0.35)]
            })
            .collect();
        vec![
            ("zeros", ValuePdfModel::deterministic(&vec![0.0; n]).into()),
            (
                "runs",
                BasicModel::from_pairs(
                    n,
                    (0..n).flat_map(|i| {
                        let p = [0.2, 0.9, 0.5][(i / 7) % 3];
                        [(i, p), (i, p / 2.0)]
                    }),
                )
                .expect("valid basic tuples")
                .into(),
            ),
            (
                "piecewise",
                ValuePdfModel::deterministic(
                    &(0..n)
                        .map(|i| [3.0, 0.0, 11.0, 3.0][(i / 5) % 4])
                        .collect::<Vec<_>>(),
                )
                .into(),
            ),
            (
                "wide",
                ValuePdfModel::from_sparse(
                    n,
                    (0..n).map(|i| {
                        let pdf = ValuePdf::new([(decade(7 * i), 0.6), (decade(11 * i + 3), 0.3)]);
                        (i, pdf.expect("valid value pdf"))
                    }),
                )
                .expect("valid value pdfs")
                .into(),
            ),
            (
                "straddling",
                TuplePdfModel::from_alternatives(n, straddling)
                    .expect("valid tuples")
                    .into(),
            ),
            (
                "mystiq",
                mystiq_like(MystiqLikeConfig {
                    n,
                    avg_tuples_per_item: 2.5,
                    skew: 0.8,
                    seed,
                })
                .into(),
            ),
        ]
    }

    /// Every oracle of the crate over `relation`: SSE under both objectives
    /// and both tuple modes, SSRE, SAE, SARE, MAE, MARE, and the SSE oracle
    /// over runs as the merge builds it (the relation's expected
    /// frequencies cut into pieces of widths 1, 2, 3, 1, 2, 3, …) and as the
    /// seal builds it (one run per atom of the relation's item moments).
    pub(crate) fn every_oracle(
        relation: &ProbabilisticRelation,
    ) -> Vec<(&'static str, Box<dyn BucketCostOracle>)> {
        let mut pieces = Vec::new();
        let mut values = relation.expected_frequencies().into_iter().peekable();
        while values.peek().is_some() {
            let run: Vec<f64> = values.by_ref().take(pieces.len() % 3 + 1).collect();
            pieces.push(Piece {
                width: run.len(),
                value: run.iter().sum::<f64>() / run.len() as f64,
            });
        }
        let mut oracles: Vec<(&'static str, Box<dyn BucketCostOracle>)> = vec![
            (
                "sse-exact",
                Box::new(SseOracle::with_tuple_mode(
                    relation,
                    SseObjective::PaperEq5,
                    TupleSseMode::Exact,
                )),
            ),
            (
                "sse-fixed",
                Box::new(SseOracle::new(relation, SseObjective::FixedRepresentative)),
            ),
            (
                "piecewise",
                Box::new(piece_runs(&pieces).expect("finite pieces")),
            ),
            (
                "sse-cuts",
                Box::new(zero_runs(&item_moments(relation), SseObjective::PaperEq5)),
            ),
        ];
        for (name, metric) in [
            ("sse", ErrorMetric::Sse),
            ("ssre", ErrorMetric::Ssre { c: 0.5 }),
            ("sae", ErrorMetric::Sae),
            ("sare", ErrorMetric::Sare { c: 1.0 }),
            ("mae", ErrorMetric::Mae),
            ("mare", ErrorMetric::Mare { c: 0.5 }),
        ] {
            oracles.push((name, oracle_for_metric(relation, metric)));
        }
        oracles
    }

    #[test]
    fn every_oracle_returns_finite_non_negative_costs_on_adversarial_relations() {
        for n in [1, 40] {
            for (relation_name, relation) in adversarial_relations(n, 7) {
                for (name, oracle) in every_oracle(&relation) {
                    for e in 0..oracle.n() {
                        let starts: Vec<usize> = (0..=e).collect();
                        let swept = oracle.costs_ending_at(e, &starts);
                        for (s, &swept_cost) in swept.iter().enumerate() {
                            let cost = oracle.bucket(s, e).cost;
                            for c in [cost, swept_cost] {
                                assert!(
                                    c.is_finite() && c >= 0.0,
                                    "{name} on {relation_name} (n={n}) [{s},{e}]: {c}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
