//! # pds-histogram
//!
//! Optimal and approximate **histogram synopses on probabilistic data**,
//! reproducing Section 3 of *Cormode & Garofalakis, "Histograms and Wavelets
//! on Probabilistic Data", ICDE 2009*.
//!
//! The construction problem: given a probabilistic relation over the ordered
//! domain `[0, n)` and a budget of `B` buckets, choose bucket boundaries and
//! one representative value per bucket minimising the expected error over
//! possible worlds.  Supported error objectives:
//!
//! | metric | oracle | paper |
//! |---|---|---|
//! | sum squared error (SSE) | [`oracle::sse::SseOracle`] | §3.1, Thm 1 |
//! | sum squared relative error (SSRE) | [`oracle::ssre::SsreOracle`] | §3.2, Thm 2 |
//! | sum absolute error (SAE) | [`oracle::abs::WeightedAbsOracle`] | §3.3, Thm 3 |
//! | sum absolute relative error (SARE) | [`oracle::abs::WeightedAbsOracle`] | §3.4, Thm 4 |
//! | maximum absolute error (MAE) | [`oracle::maxerr::MaxErrOracle`] | §3.6, Thm 6 |
//! | maximum absolute relative error (MARE) | [`oracle::maxerr::MaxErrOracle`] | §3.6, Thm 6 |
//!
//! On top of the oracles sit the exact dynamic program ([`dp`]) — which a
//! seal ([`sse_histogram_from_moments`]) and a merge ([`merge`]) both run
//! over runs of items through the SSE oracle — the `(1 + ε)`-approximate
//! construction ([`approx`], §3.5), the deterministic
//! heuristics used as experimental baselines ([`baselines`]) and the
//! expected-cost evaluator ([`evaluate`]).
//!
//! ## Example
//!
//! ```
//! use pds_core::generator::{mystiq_like, MystiqLikeConfig};
//! use pds_core::metrics::ErrorMetric;
//! use pds_core::model::ProbabilisticRelation;
//! use pds_histogram::{build_histogram, evaluate::expected_cost};
//!
//! let relation: ProbabilisticRelation = mystiq_like(MystiqLikeConfig {
//!     n: 64,
//!     avg_tuples_per_item: 3.0,
//!     skew: 0.8,
//!     seed: 1,
//! })
//! .into();
//!
//! let metric = ErrorMetric::Ssre { c: 1.0 };
//! let histogram = build_histogram(&relation, metric, 8).unwrap();
//! assert_eq!(histogram.num_buckets(), 8);
//! let cost = expected_cost(&relation, metric, &histogram);
//! assert!(cost.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod approx;
pub mod baselines;
mod cuts;
pub mod dp;
pub mod equidepth;
pub mod evaluate;
pub mod histogram;
pub mod merge;
pub mod oracle;

pub use approx::{approx_histogram, ApproxHistogram, ApproxStats};
pub use baselines::{
    baseline_histogram, deterministic_histogram, expectation_histogram, sampled_world_histogram,
    BaselineKind,
};
pub use cuts::sse_histogram_from_moments;
pub use dp::{optimal_histogram, DpTables};
pub use equidepth::equidepth_histogram;
pub use evaluate::{error_percentage, expected_cost, sse_paper_cost};
pub use histogram::{Bucket, Histogram};
pub use merge::{merge_histograms, optimal_piecewise_histogram, pieces_of, sum_pieces, Piece};
pub use oracle::{oracle_for_metric, BucketCostOracle, BucketSolution};

use pds_core::error::Result;
use pds_core::metrics::ErrorMetric;
use pds_core::model::ProbabilisticRelation;

/// Builds the optimal `b`-bucket histogram of `relation` under `metric`.
///
/// This is the high-level entry point; it instantiates the metric's bucket
/// cost oracle ([`oracle_for_metric`]) and runs the exact dynamic program.
pub fn build_histogram(
    relation: &ProbabilisticRelation,
    metric: ErrorMetric,
    b: usize,
) -> Result<Histogram> {
    let oracle = oracle_for_metric(relation, metric);
    optimal_histogram(&oracle, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::generator::test_workloads;

    #[test]
    fn build_histogram_works_for_every_metric_and_model() {
        for workload in test_workloads(24, 3) {
            for metric in [
                ErrorMetric::Sse,
                ErrorMetric::Ssre { c: 0.5 },
                ErrorMetric::Sae,
                ErrorMetric::Sare { c: 1.0 },
                ErrorMetric::Mae,
                ErrorMetric::Mare { c: 1.0 },
            ] {
                let h = build_histogram(&workload.relation, metric, 5).unwrap();
                assert_eq!(h.num_buckets(), 5, "{} {metric}", workload.name);
                assert_eq!(h.n(), 24);
                assert!(h.total_cost().is_finite());
            }
        }
    }

    #[test]
    fn more_buckets_never_increase_the_optimal_cost() {
        for workload in test_workloads(16, 5) {
            for metric in [
                ErrorMetric::Ssre { c: 1.0 },
                ErrorMetric::Sae,
                ErrorMetric::Mae,
            ] {
                let mut prev = f64::INFINITY;
                for b in 1..=8 {
                    let h = build_histogram(&workload.relation, metric, b).unwrap();
                    let cost = evaluate::expected_cost(&workload.relation, metric, &h);
                    assert!(
                        cost <= prev + 1e-9,
                        "{} {metric} b={b}: {cost} > {prev}",
                        workload.name
                    );
                    prev = cost;
                }
            }
        }
    }
}
