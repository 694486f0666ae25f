//! Approximate query processing (AQP) on top of the synopses.
//!
//! The paper motivates probabilistic-data synopses precisely because exact
//! query evaluation over a probabilistic database is `#P`-hard: "it is then
//! feasible to run more expensive algorithms over the much compressed
//! representation, and still obtain a fast and accurate answer".  This module
//! provides that last step for the two workhorse query shapes over a
//! frequency distribution — point lookups and range aggregates — answering
//! them from a histogram or wavelet synopsis and, for validation, from the
//! exact per-item expectations.

use pds_core::model::ProbabilisticRelation;
use pds_core::moments::item_moments;
use pds_histogram::Histogram;
use pds_store::SynopsisStore;
use pds_wavelet::WaveletSynopsis;

/// A query over the (random) frequency vector `g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequencyQuery {
    /// The frequency of a single item, `g_i`.
    Point {
        /// The item queried.
        item: usize,
    },
    /// The total frequency over an inclusive item range, `Σ_{a ≤ i ≤ b} g_i`.
    RangeSum {
        /// First item of the range (inclusive).
        start: usize,
        /// Last item of the range (inclusive).
        end: usize,
    },
}

impl FrequencyQuery {
    /// The inclusive item range touched by the query.
    pub fn range(&self) -> (usize, usize) {
        match *self {
            FrequencyQuery::Point { item } => (item, item),
            FrequencyQuery::RangeSum { start, end } => (start, end),
        }
    }

    /// Evaluates the query on a concrete frequency vector.
    pub fn evaluate(&self, frequencies: &[f64]) -> f64 {
        let (s, e) = self.range();
        frequencies[s..=e.min(frequencies.len() - 1)].iter().sum()
    }
}

/// A query answer together with the synopsis it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryAnswer {
    /// The estimated expected value of the query.
    pub estimate: f64,
}

/// The exact expected answer `E_W[q(g)]`, computable in closed form because
/// expectation is linear: it only needs the per-item expected frequencies.
pub fn exact_expected_answer(relation: &ProbabilisticRelation, query: FrequencyQuery) -> f64 {
    let moments = item_moments(relation);
    let (s, e) = query.range();
    moments[s..=e.min(moments.len() - 1)]
        .iter()
        .map(|m| m.mean)
        .sum()
}

/// Answers the query from a histogram synopsis: every item in the range is
/// estimated by its bucket representative.
pub fn answer_with_histogram(histogram: &Histogram, query: FrequencyQuery) -> QueryAnswer {
    let (s, e) = query.range();
    let e = e.min(histogram.n() - 1);
    // Walk the buckets overlapping the range instead of iterating items, so a
    // wide range over a narrow synopsis costs O(#buckets).
    let mut estimate = 0.0;
    for bucket in histogram.buckets() {
        if bucket.end < s || bucket.start > e {
            continue;
        }
        let overlap = bucket.end.min(e) - bucket.start.max(s) + 1;
        estimate += overlap as f64 * bucket.representative;
    }
    QueryAnswer { estimate }
}

/// Answers the query from a wavelet synopsis by reconstructing the retained
/// coefficients over the queried range.
pub fn answer_with_wavelet(synopsis: &WaveletSynopsis, query: FrequencyQuery) -> QueryAnswer {
    let reconstruction = synopsis.reconstruct();
    QueryAnswer {
        estimate: query.evaluate(&reconstruction),
    }
}

/// Answers the query from a partitioned synopsis store, routing it across
/// every live memtable (exact running expectations) and sealed segment
/// (histogram bucket walks or wavelet reconstructions) overlapping the
/// queried range.
///
/// The store may be serving mid-lifecycle — seals and compactions in
/// flight, or freshly reopened after a crash.  A crash-durable store
/// (`SynopsisStore::open_with_wal`) reopened from its manifest, segment
/// blobs and WAL tail answers **bit-identically** to the uninterrupted
/// run (pinned by `tests/store_end_to_end.rs` and the crash-injection
/// matrix in `crates/store/tests/store_crash_matrix.rs`), so AQP callers
/// need no special restart handling.
pub fn answer_with_store(store: &SynopsisStore, query: FrequencyQuery) -> QueryAnswer {
    let (s, e) = query.range();
    QueryAnswer {
        estimate: store.range_estimate(s, e),
    }
}

/// Relative deviation of an estimate from a reference value, with a sanity
/// bound on the denominator (same convention as the paper's relative error
/// metrics).
pub fn relative_deviation(estimate: f64, reference: f64, sanity: f64) -> f64 {
    (estimate - reference).abs() / sanity.max(reference.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn workload() -> ProbabilisticRelation {
        mystiq_like(MystiqLikeConfig {
            n: 64,
            avg_tuples_per_item: 3.0,
            skew: 0.8,
            seed: 77,
        })
        .into()
    }

    #[test]
    fn exact_answers_match_possible_world_expectations() {
        let rel: ProbabilisticRelation =
            BasicModel::from_pairs(6, [(0, 0.5), (1, 0.25), (1, 0.5), (3, 0.9), (5, 0.4)])
                .unwrap()
                .into();
        let worlds = PossibleWorlds::enumerate(&rel).unwrap();
        for query in [
            FrequencyQuery::Point { item: 1 },
            FrequencyQuery::RangeSum { start: 0, end: 3 },
            FrequencyQuery::RangeSum { start: 2, end: 5 },
        ] {
            let exact = exact_expected_answer(&rel, query);
            let brute = worlds.expectation(|w| query.evaluate(w));
            assert!((exact - brute).abs() < 1e-12);
        }
    }

    #[test]
    fn full_resolution_synopses_answer_exactly() {
        let rel = workload();
        let metric = ErrorMetric::Sse;
        let histogram = build_histogram(&rel, metric, rel.n()).unwrap();
        let wavelet = build_sse_wavelet(&rel, rel.n()).unwrap();
        for query in [
            FrequencyQuery::Point { item: 17 },
            FrequencyQuery::RangeSum { start: 0, end: 63 },
            FrequencyQuery::RangeSum { start: 8, end: 40 },
        ] {
            let exact = exact_expected_answer(&rel, query);
            assert!((answer_with_histogram(&histogram, query).estimate - exact).abs() < 1e-9);
            assert!((answer_with_wavelet(&wavelet, query).estimate - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn compressed_synopses_stay_close_on_wide_ranges() {
        // Wide range sums average out per-item errors, so even a strongly
        // compressed synopsis should land within a few percent.
        let rel = workload();
        let histogram = build_histogram(&rel, ErrorMetric::Sse, 8).unwrap();
        let wavelet = build_sse_wavelet(&rel, 8).unwrap();
        let query = FrequencyQuery::RangeSum { start: 0, end: 63 };
        let exact = exact_expected_answer(&rel, query);
        let h = answer_with_histogram(&histogram, query).estimate;
        let w = answer_with_wavelet(&wavelet, query).estimate;
        assert!(
            relative_deviation(h, exact, 1.0) < 0.05,
            "histogram {h} vs {exact}"
        );
        assert!(
            relative_deviation(w, exact, 1.0) < 0.05,
            "wavelet {w} vs {exact}"
        );
    }

    #[test]
    fn histogram_range_walk_matches_item_by_item_evaluation() {
        let rel = workload();
        let histogram = build_histogram(&rel, ErrorMetric::Sae, 7).unwrap();
        for (s, e) in [(0usize, 5usize), (3, 3), (10, 45), (40, 63), (0, 63)] {
            let query = FrequencyQuery::RangeSum { start: s, end: e };
            let walked = answer_with_histogram(&histogram, query).estimate;
            let item_by_item: f64 = (s..=e).map(|i| histogram.estimate(i)).sum();
            assert!((walked - item_by_item).abs() < 1e-9);
        }
    }

    #[test]
    fn point_queries_return_bucket_representatives() {
        let rel = workload();
        let histogram = build_histogram(&rel, ErrorMetric::Sse, 5).unwrap();
        for item in [0usize, 13, 31, 63] {
            let query = FrequencyQuery::Point { item };
            assert_eq!(
                answer_with_histogram(&histogram, query).estimate,
                histogram.estimate(item)
            );
            assert_eq!(query.range(), (item, item));
        }
    }

    #[test]
    fn store_answers_combine_memtable_and_segments() {
        use pds_core::stream::records_of;

        let rel = workload();
        let store = SynopsisStore::new(StoreConfig::new(
            PartitionSpec::uniform(64, 4).unwrap(),
            1_000_000, // manual sealing
            64,        // full budget: segments are exact
            SynopsisKind::Histogram(ErrorMetric::Sse),
        ))
        .unwrap();
        store.ingest_batch(records_of(&rel)).unwrap();
        // Seal half the partitions; the rest stays live in memtables.
        store.seal_partition(0).unwrap();
        store.seal_partition(2).unwrap();
        for query in [
            FrequencyQuery::Point { item: 5 },
            FrequencyQuery::RangeSum { start: 0, end: 63 },
            FrequencyQuery::RangeSum { start: 10, end: 40 },
        ] {
            let exact = exact_expected_answer(&rel, query);
            let got = answer_with_store(&store, query).estimate;
            assert!((got - exact).abs() < 1e-9, "{query:?}: {got} vs {exact}");
        }
    }

    #[test]
    fn relative_deviation_uses_the_sanity_bound() {
        assert_eq!(relative_deviation(3.0, 2.0, 1.0), 0.5);
        assert_eq!(relative_deviation(1.0, 0.0, 0.5), 2.0);
        assert_eq!(relative_deviation(5.0, 5.0, 1.0), 0.0);
    }
}
