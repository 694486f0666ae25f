//! # pds-wavelet
//!
//! **Haar wavelet synopses on probabilistic data**, reproducing Section 4 of
//! *Cormode & Garofalakis, "Histograms and Wavelets on Probabilistic Data",
//! ICDE 2009*.
//!
//! * [`haar`] — the Haar DWT (orthonormal and unnormalised conventions) and
//!   the coefficient error tree of Figure 1;
//! * [`sse`] — the expected-SSE-optimal synopsis (Theorem 7): keep the `B`
//!   coefficients with the largest absolute expected normalised value, i.e.
//!   the transform of the expected frequencies, in linear time;
//! * [`nonsse`] — the restricted error-tree dynamic program for non-SSE
//!   metrics (Theorem 8), with expected point errors at the leaves;
//! * [`baselines`] — the sampled-world heuristic of the experimental study;
//! * [`synopsis`] — the sparse coefficient synopsis type and reconstruction.
//!
//! ## Example
//!
//! ```
//! use pds_core::generator::{mystiq_like, MystiqLikeConfig};
//! use pds_core::model::ProbabilisticRelation;
//! use pds_wavelet::{build_sse_wavelet, sse::expected_sse};
//!
//! let relation: ProbabilisticRelation = mystiq_like(MystiqLikeConfig {
//!     n: 128,
//!     avg_tuples_per_item: 3.0,
//!     skew: 0.8,
//!     seed: 1,
//! })
//! .into();
//!
//! let synopsis = build_sse_wavelet(&relation, 16).unwrap();
//! assert!(synopsis.len() <= 16);
//! assert!(expected_sse(&relation, &synopsis).is_finite());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod haar;
pub mod nonsse;
pub mod sse;
pub mod synopsis;

pub use baselines::{sampled_world_selection, sampled_world_wavelet, synopsis_from_selection};
pub use haar::{ErrorTree, HaarTransform};
pub use nonsse::{build_restricted_wavelet, expected_wavelet_cost, RestrictedWavelet};
pub use sse::{
    build_sse_wavelet, build_sse_wavelet_from_means, selection_error_percentage,
    ExpectedCoefficients,
};
pub use synopsis::{RetainedCoefficient, WaveletSynopsis};

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::generator::test_workloads;
    use pds_core::metrics::ErrorMetric;

    #[test]
    fn sse_and_restricted_builders_work_for_every_model() {
        for w in test_workloads(16, 8) {
            let sse = build_sse_wavelet(&w.relation, 4).unwrap();
            assert!(sse.len() <= 4, "{}", w.name);
            let restricted = build_restricted_wavelet(&w.relation, ErrorMetric::Sae, 4).unwrap();
            assert!(restricted.synopsis.len() <= 4, "{}", w.name);
            assert!(restricted.objective.is_finite());
        }
    }
}
