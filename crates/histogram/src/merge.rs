//! Partition-merge dynamic program: recombining per-partition histogram
//! synopses into one global `B`-bucket histogram.
//!
//! A sharded deployment builds a histogram per item-range partition (and,
//! with LSM-style ingest, several per partition over time).  Concatenating
//! those synopses yields a **piecewise-constant summary** of the global
//! expected-frequency vector: one piece per source bucket, carrying its
//! width and representative.  The merge problem is then a weighted V-optimal
//! histogram over the pieces — the candidate cut points are exactly the
//! partition/bucket boundaries, so the DP runs over `k = Σ Bᵢ` pieces
//! instead of `n` items: [`SseOracle`] over one run per piece under
//! [`SseObjective::FixedRepresentative`], the zero-variance case of the
//! seal's oracle, through the seal's own DP entry.
//!
//! **Cost contract.**  Piece costs are the *merge-stage* SSE: the
//! squared-error mass of replacing each piece value by the merged bucket's
//! representative, weighted by piece width.  The recorded bucket costs (and
//! the merged histogram's `total_cost`) therefore measure the additional
//! error introduced by re-bucketing the summary, **not** the end-to-end
//! error against the original probabilistic data.  The two do not add: with
//! `g` the data, `h` the summary and `m` the merged histogram, the cross
//! term `2⟨E[g] − h, h − m⟩` of the squared error vanishes only when `h` is
//! the bucket-mean projection of `E[g]`, which a compacted sum of segments
//! is not.  What holds is Minkowski's inequality,
//! `√E‖g − m‖² ≤ √E‖g − h‖² + ‖h − m‖`: the roots add.  The
//! merged-vs-monolithic integration check exercises the end-to-end error.

use pds_core::error::{PdsError, Result};
use pds_core::moments::ItemMoments;

use crate::cuts::histogram_over_runs;
use crate::histogram::Histogram;
use crate::oracle::sse::{SseObjective, SseOracle};

/// One piece of a piecewise-constant summary: `width` consecutive items
/// sharing the value `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Piece {
    /// Number of consecutive items the piece covers (must be positive).
    pub width: usize,
    /// The constant value over the piece.
    pub value: f64,
}

/// Builds the optimal `b`-bucket histogram of a piecewise-constant summary,
/// returned in **item coordinates** (bucket boundaries are piece boundaries,
/// so every cut is one of the candidate partition/bucket edges).
pub fn optimal_piecewise_histogram(pieces: &[Piece], b: usize) -> Result<Histogram> {
    histogram_over_runs(&piece_runs(pieces)?, b)
}

/// [`SseOracle`] over one run per piece: `w` items of the deterministic
/// value `v` sum to the moments `(w·v, 0, (w·v)·v)`.
pub(crate) fn piece_runs(pieces: &[Piece]) -> Result<SseOracle> {
    if pieces.is_empty() {
        return Err(PdsError::InvalidParameter {
            message: "a piecewise summary needs at least one piece".into(),
        });
    }
    for (i, p) in pieces.iter().enumerate() {
        if p.width == 0 || !p.value.is_finite() {
            return Err(PdsError::InvalidParameter {
                message: format!("piece {i} needs a positive width and a finite value: {p:?}"),
            });
        }
    }
    let runs = pieces.iter().map(|p| {
        let mean = p.width as f64 * p.value;
        let moments = ItemMoments {
            mean,
            variance: 0.0,
            second_moment: mean * p.value,
        };
        (p.width, moments)
    });
    Ok(SseOracle::from_runs(
        runs,
        SseObjective::FixedRepresentative,
    ))
}

/// The pieces of one histogram: its buckets, in order.
pub fn pieces_of(histogram: &Histogram) -> Vec<Piece> {
    histogram
        .buckets()
        .iter()
        .map(|b| Piece {
            width: b.width(),
            value: b.representative,
        })
        .collect()
}

/// Merges consecutive per-partition histograms (partition `i + 1` starts
/// where partition `i` ends) into one global `b`-bucket histogram via the
/// partition-merge DP.
pub fn merge_histograms(parts: &[Histogram], b: usize) -> Result<Histogram> {
    if parts.is_empty() {
        return Err(PdsError::InvalidParameter {
            message: "merging needs at least one input histogram".into(),
        });
    }
    let pieces: Vec<Piece> = parts.iter().flat_map(pieces_of).collect();
    optimal_piecewise_histogram(&pieces, b)
}

/// Sums overlapping piecewise-constant summaries over a **common item
/// range** (LSM compaction of same-partition segments): the result is
/// piecewise constant on the union of the input boundaries, with each output
/// piece valued at the sum of the covering input values.
pub fn sum_pieces(layers: &[Vec<Piece>]) -> Result<Vec<Piece>> {
    let total = |pieces: &[Piece]| pieces.iter().map(|p| p.width).sum::<usize>();
    let Some(first) = layers.first() else {
        return Err(PdsError::InvalidParameter {
            message: "summing needs at least one piece layer".into(),
        });
    };
    let n = total(first);
    for (i, layer) in layers.iter().enumerate() {
        if total(layer) != n {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "piece layer {i} covers {} items but layer 0 covers {n}",
                    total(layer)
                ),
            });
        }
    }
    // Walk all layers in lockstep over item positions.
    let mut cursor: Vec<(usize, usize)> = vec![(0, 0); layers.len()]; // (piece idx, items used)
    let mut out: Vec<Piece> = Vec::new();
    let mut pos = 0usize;
    while pos < n {
        let mut value = 0.0;
        let mut step = n - pos;
        for (layer, cur) in layers.iter().zip(&cursor) {
            let piece = layer[cur.0];
            value += piece.value;
            step = step.min(piece.width - cur.1);
        }
        out.push(Piece { width: step, value });
        pos += step;
        for (layer, cur) in layers.iter().zip(cursor.iter_mut()) {
            cur.1 += step;
            if cur.1 == layer[cur.0].width {
                cur.0 += 1;
                cur.1 = 0;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_histogram;
    use crate::oracle::BucketCostOracle;
    use pds_core::metrics::ErrorMetric;
    use pds_core::model::{ProbabilisticRelation, ValuePdfModel};

    fn pieces(spec: &[(usize, f64)]) -> Vec<Piece> {
        spec.iter()
            .map(|&(width, value)| Piece { width, value })
            .collect()
    }

    #[test]
    fn piece_oracle_matches_item_level_sse_on_expanded_data() {
        let ps = pieces(&[(2, 1.0), (3, 4.0), (1, 0.5), (2, 2.0)]);
        let dense: Vec<ItemMoments> = ps
            .iter()
            .flat_map(|p| {
                std::iter::repeat_n(ItemMoments::from_mean_variance(p.value, 0.0), p.width)
            })
            .collect();
        let item_oracle = SseOracle::from_moments(&dense, SseObjective::FixedRepresentative);
        let piece_oracle = piece_runs(&ps).unwrap();
        let starts: Vec<usize> = (0..=ps.len()).map(|r| piece_oracle.run_start(r)).collect();
        assert_eq!(starts, [0, 2, 5, 6, 8]);
        for s in 0..ps.len() {
            for e in s..ps.len() {
                let a = piece_oracle.bucket(s, e);
                let b = item_oracle.bucket(starts[s], starts[e + 1] - 1);
                assert!((a.cost - b.cost).abs() < 1e-9, "pieces [{s},{e}]");
                assert!((a.representative - b.representative).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn merging_a_single_histogram_rebuckets_it_optimally() {
        // A 6-bucket histogram merged down to 2 buckets equals the V-optimal
        // 2-bucket histogram of its estimate vector.
        let dense = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0];
        let rel: ProbabilisticRelation = ValuePdfModel::deterministic(&dense).into();
        let fine = build_histogram(&rel, ErrorMetric::Sse, 6).unwrap();
        let merged = merge_histograms(std::slice::from_ref(&fine), 2).unwrap();
        assert_eq!(merged.boundaries(), vec![2, 5]);
        assert!(merged.total_cost().abs() < 1e-12);
        assert_eq!(merged.n(), 6);
    }

    #[test]
    fn merge_concatenates_partitions_in_item_coordinates() {
        let left = Histogram::from_boundaries(4, &[1, 3], &[2.0, 5.0]).unwrap();
        let right = Histogram::from_boundaries(3, &[0, 2], &[5.0, 1.0]).unwrap();
        let merged = merge_histograms(&[left, right], 3).unwrap();
        assert_eq!(merged.n(), 7);
        // The middle bucket can fuse the matching 5.0 runs across the
        // partition edge.
        let estimates = merged.estimates();
        assert_eq!(estimates[2], 5.0);
        assert_eq!(estimates[4], 5.0);
        assert!(merged.total_cost() < 1e-12);
        assert_eq!(merged.num_buckets(), 3);
    }

    #[test]
    fn merged_cost_never_beats_more_pieces() {
        // Monotonicity in the merge budget: more output buckets, less error.
        let ps = pieces(&[(3, 1.0), (2, 7.0), (4, 3.0), (1, 9.0), (5, 2.0)]);
        let mut prev = f64::INFINITY;
        for b in 1..=5 {
            let h = optimal_piecewise_histogram(&ps, b).unwrap();
            assert!(h.total_cost() <= prev + 1e-9);
            prev = h.total_cost();
        }
        // With as many buckets as pieces the merge is lossless.
        assert!(prev.abs() < 1e-12);
    }

    #[test]
    fn sum_pieces_aligns_boundaries_and_adds_values() {
        let a = pieces(&[(2, 1.0), (2, 3.0)]);
        let b = pieces(&[(1, 10.0), (3, 20.0)]);
        let sum = sum_pieces(&[a, b]).unwrap();
        assert_eq!(sum, pieces(&[(1, 11.0), (1, 21.0), (2, 23.0)]));
        // Mismatched spans are rejected.
        assert!(sum_pieces(&[pieces(&[(2, 1.0)]), pieces(&[(3, 1.0)])]).is_err());
        assert!(sum_pieces(&[]).is_err());
    }

    #[test]
    fn invalid_pieces_are_rejected() {
        assert!(optimal_piecewise_histogram(&[], 2).is_err());
        assert!(optimal_piecewise_histogram(&pieces(&[(0, 1.0)]), 2).is_err());
        assert!(optimal_piecewise_histogram(&pieces(&[(1, 1.0), (1, f64::NAN)]), 2).is_err());
        assert!(optimal_piecewise_histogram(&pieces(&[(1, f64::INFINITY)]), 2).is_err());
        assert!(optimal_piecewise_histogram(&pieces(&[(1, 1.0)]), 0).is_err());
        assert!(merge_histograms(&[], 2).is_err());
    }
}
