//! Bitwise pin of the two SSE histogram entries the store calls: the
//! partition-merge DP ([`optimal_piecewise_histogram`], behind every MERGE
//! and compaction) and the seal DP ([`sse_histogram_from_moments`]).
//!
//! Seeded inputs shaped like the store's — piece sets with ~30 % zero
//! values, supports with ~60 % zero items — are built at several budgets,
//! and the `to_binary()` bytes of every histogram (boundaries,
//! representatives and per-bucket costs) are folded into one FNV-1a
//! digest.  A refactor of either entry must leave the digest unchanged; a
//! change that means to move these bits updates the constant and says why.

use pds_core::moments::ItemMoments;
use pds_histogram::oracle::sse::SseObjective;
use pds_histogram::{optimal_piecewise_histogram, sse_histogram_from_moments, Histogram, Piece};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a, folded over every histogram's binary encoding in order.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, histogram: &Histogram) {
        for byte in histogram.to_binary().unwrap() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A piece set: 1–60 pieces of widths 1–8, ~30 % of them valued 0.
fn pieces(rng: &mut StdRng) -> Vec<Piece> {
    (0..rng.gen_range(1..61))
        .map(|_| Piece {
            width: rng.gen_range(1..9),
            value: if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(0.0..10.0)
            },
        })
        .collect()
}

/// Moments of 1–96 items, ~60 % of them zero, the rest carrying 1–3 basic
/// tuples each.
fn support(rng: &mut StdRng) -> Vec<ItemMoments> {
    (0..rng.gen_range(1..97))
        .map(|_| {
            let (mut mean, mut variance) = (0.0, 0.0);
            if !rng.gen_bool(0.6) {
                for _ in 0..rng.gen_range(1..4) {
                    let p: f64 = rng.gen_range(0.05..0.95);
                    mean += p;
                    variance += p * (1.0 - p);
                }
            }
            ItemMoments::from_mean_variance(mean, variance)
        })
        .collect()
}

#[test]
fn merge_and_seal_histograms_keep_their_bits() {
    let mut digest = Digest::new();
    for round in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(round);
        let pieces = pieces(&mut rng);
        for b in [1, 2, 7, 16, 64] {
            digest.add(&optimal_piecewise_histogram(&pieces, b).unwrap());
        }
        let moments = support(&mut rng);
        for objective in [SseObjective::PaperEq5, SseObjective::FixedRepresentative] {
            for b in [1, 3, 16, moments.len()] {
                digest.add(&sse_histogram_from_moments(&moments, objective, b).unwrap());
            }
        }
    }
    assert_eq!(format!("{:016x}", digest.0), "3c8a325c570b91b9");
}
