//! The experimental workloads of Section 5, at paper scale and at a reduced
//! default scale suitable for quick regeneration of every figure.
//!
//! * the **movie** workload stands in for the MystiQ movie-link data
//!   (basic model, ~127k tuples over ~27.7k items in the paper);
//! * the **tpch** workload stands in for the MayBMS uncertain TPC-H
//!   `lineitem-partkey` relation (tuple pdf model with uniform alternatives).
//!
//! The generators ([`pds_core::generator`]) keep what the experiments
//! exercise: a heavy-tailed, skewed expected-frequency vector and, for tpch,
//! x-tuples whose alternatives straddle bucket boundaries.

use pds_core::generator::{mystiq_like, tpch_like, MystiqLikeConfig, TpchLikeConfig};
use pds_core::model::ProbabilisticRelation;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced scale: every figure regenerates in seconds to a few minutes on
    /// a laptop.  This is the default.
    Reduced,
    /// The paper's scale (n = 10^4 histogram items, n = 2^15 wavelet items,
    /// up to 1000 buckets).  The histogram DP is O(Bn²); expect hours.
    Paper,
}

impl Scale {
    /// Parses `--full` style flags.
    pub fn from_flag(full: bool) -> Self {
        if full {
            Scale::Paper
        } else {
            Scale::Reduced
        }
    }

    /// Histogram domain size for Figure 2 / Figure 3.
    pub fn histogram_n(self) -> usize {
        match self {
            Scale::Reduced => 2_048,
            Scale::Paper => 10_000,
        }
    }

    /// Largest bucket budget for Figure 2.
    pub fn histogram_b_max(self) -> usize {
        match self {
            Scale::Reduced => 200,
            Scale::Paper => 1_000,
        }
    }

    /// Wavelet domain size for Figure 4 (the paper uses n = 2^15).
    pub fn wavelet_n(self) -> usize {
        match self {
            Scale::Reduced => 1 << 15,
            Scale::Paper => 1 << 15,
        }
    }

    /// Largest coefficient budget for Figure 4.
    pub fn wavelet_b_max(self, movie: bool) -> usize {
        match (self, movie) {
            (_, true) => 5_000,
            (_, false) => 1_000,
        }
    }
}

/// The movie-link (MystiQ-like, basic model) workload.
pub fn movie_workload(n: usize, seed: u64) -> ProbabilisticRelation {
    mystiq_like(MystiqLikeConfig {
        n,
        avg_tuples_per_item: 4.6,
        skew: 0.8,
        seed,
    })
    .into()
}

/// The uncertain TPC-H (MayBMS-like, tuple pdf model) workload.
///
/// Line items concentrate on popular part keys (Zipf-skewed centres with a
/// narrow locality window), giving the skewed frequency vector the paper's
/// synthetic data exhibits.
pub fn tpch_workload(n: usize, seed: u64) -> ProbabilisticRelation {
    tpch_like(TpchLikeConfig {
        n,
        tuples: n * 4,
        max_alternatives: 4,
        locality_window: 8,
        skew: 1.0,
        seed,
    })
    .into()
}

/// Named workload selector used by the figure binaries.
pub fn workload_by_name(name: &str, n: usize, seed: u64) -> Option<ProbabilisticRelation> {
    match name {
        "movie" | "mystiq" => Some(movie_workload(n, seed)),
        "tpch" | "maybms" => Some(tpch_workload(n, seed)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_expose_paper_parameters() {
        assert_eq!(Scale::Paper.histogram_n(), 10_000);
        assert_eq!(Scale::Paper.histogram_b_max(), 1_000);
        assert_eq!(Scale::Reduced.wavelet_n(), 1 << 15);
        assert_eq!(Scale::from_flag(true), Scale::Paper);
        assert_eq!(Scale::from_flag(false), Scale::Reduced);
        assert_eq!(Scale::Paper.wavelet_b_max(true), 5_000);
        assert_eq!(Scale::Paper.wavelet_b_max(false), 1_000);
    }

    #[test]
    fn workloads_have_the_requested_model_and_size() {
        let movie = movie_workload(256, 1);
        assert_eq!(movie.model_name(), "basic");
        assert_eq!(movie.n(), 256);
        let tpch = tpch_workload(256, 1);
        assert_eq!(tpch.model_name(), "tuple-pdf");
        assert_eq!(tpch.n(), 256);
        assert!(workload_by_name("movie", 64, 0).is_some());
        assert!(workload_by_name("maybms", 64, 0).is_some());
        assert!(workload_by_name("bogus", 64, 0).is_none());
    }
}
