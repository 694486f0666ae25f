//! The SSE histogram of independent per-item moments, built by the exact
//! dynamic program over the cuts of the zero runs instead of over every
//! item: a store seal costs what its support holds, not the width of its
//! partition.

use pds_core::error::Result;
use pds_core::moments::ItemMoments;

use crate::dp::DpTables;
use crate::histogram::{Bucket, Histogram};
use crate::oracle::sse::{SseObjective, SseOracle};
use crate::oracle::{BucketCostOracle, BucketSolution};

/// The optimal `b`-bucket SSE histogram of items with mutually independent
/// frequencies, given their moments: the cost of
/// `optimal_histogram(&SseOracle::from_moments(moments, objective), b)`,
/// with `min(b, n)` buckets, from a dynamic program over the `m` cuts of
/// the zero runs instead of the `n` items — `O(m²)` bucket costs, not
/// `O(n²)`.
///
/// # Why the cuts suffice
///
/// Call an item whose mean, variance and second moment are all 0 a *zero
/// item*.  Under either objective a bucket of width `t` costs `Q − K/t`,
/// with `Q = Σ E[g²]` and `K ≥ 0`: `K = (Σ E[g])² + Σ Var[g]` for
/// [`SseObjective::PaperEq5`], `(Σ E[g])²` for
/// [`SseObjective::FixedRepresentative`].  A zero item adds nothing to `Q`
/// or `K`.  Three facts follow.
///
/// 1. Removing zero items from a bucket shrinks `t` and keeps `Q` and `K`,
///    so its cost never rises; a bucket of zero items costs 0.
/// 2. Moving one boundary through a zero run of `r` items, `x` of them
///    left of it, makes the total `C − K_L/(t_L + x) − K_R/(t_R + r − x)`
///    for constants `C`, `K_L, K_R ≥ 0`, `t_L`, `t_R` (an empty side
///    contributes 0).  That is concave in `x`, so `x = 0` or `x = r` is at
///    least as good.
/// 3. Splitting a bucket never raises the SSE: `(M_L + M_R)²/(t_L + t_R) ≤
///    M_L²/t_L + M_R²/t_R` (Cauchy–Schwarz) and `(V_L + V_R)/(t_L + t_R) ≤
///    V_L/t_L + V_R/t_R` for `V ≥ 0`.
///
/// Take an optimal histogram with at most `b` buckets.  Where a zero run
/// holds two or more bucket starts, the buckets between them cost 0:
/// replace them by the whole run as one bucket and strip the run's items
/// from the two buckets that overlapped it — no more buckets and, by 1, no
/// more cost.  Where a run holds one bucket start, move it to the better
/// end by 2.  Every bucket now starts at a *cut*: an item `s` with `s = 0`,
/// or item `s − 1` or item `s` non-zero.  Between consecutive cuts lies one
/// *atom* — a non-zero item or a whole zero run.  By 3, splitting at cuts
/// up to `min(b, m)` buckets costs nothing more, so the optimum over atom
/// boundaries, which [`DpTables::build`] finds through a private adapter
/// oracle (its bucket `[a, c]` is the item bucket
/// `[cuts[a], cuts[c + 1] − 1]`), is an optimum over item boundaries.
///
/// When `m < min(b, n)` that optimum is every atom on its own, and the
/// histogram is padded to exactly `min(b, n)` buckets by splitting zero-run
/// buckets — leftmost first, one leading item at a time, each piece costing
/// 0.  That is the item-level DP's own tie-break (it keeps each final
/// bucket as long as it can), so where the item-level DP has a unique
/// optimum up to splitting zero runs, both return the same boundaries;
/// where it has other ties they may differ, at equal cost.
pub fn sse_histogram_from_moments(
    moments: &[ItemMoments],
    objective: SseObjective,
    b: usize,
) -> Result<Histogram> {
    let atoms = ZeroRunCuts::new(moments, objective);
    let tables = DpTables::build(&atoms, b)?;
    let histogram = to_item_coordinates(&tables.extract(b, &atoms)?, &atoms.cuts)?;
    let mut spare = b.min(histogram.n()) - histogram.num_buckets();
    let mut buckets = Vec::with_capacity(histogram.num_buckets() + spare);
    for bucket in histogram.buckets() {
        let mut start = bucket.start;
        if spare > 0 && moments[bucket.start..=bucket.end].iter().all(is_zero) {
            while spare > 0 && start < bucket.end {
                buckets.push(atoms.item_bucket(start, start));
                start += 1;
                spare -= 1;
            }
        }
        buckets.push(atoms.item_bucket(start, bucket.end));
    }
    Histogram::new(histogram.n(), buckets)
}

fn is_zero(moments: &ItemMoments) -> bool {
    moments.mean == 0.0 && moments.variance == 0.0 && moments.second_moment == 0.0
}

/// [`SseOracle`] over atoms: its domain is the atom index `[0, m)`, atom
/// `a` covering the items `cuts[a] ..= cuts[a + 1] − 1`.
pub(crate) struct ZeroRunCuts {
    items: SseOracle,
    /// The cuts in ascending order, then `n`.
    cuts: Vec<usize>,
}

impl ZeroRunCuts {
    pub(crate) fn new(moments: &[ItemMoments], objective: SseObjective) -> Self {
        let n = moments.len();
        let non_zero = |i: usize| !is_zero(&moments[i]);
        let cuts = (0..n)
            .filter(|&s| s == 0 || non_zero(s - 1) || non_zero(s))
            .chain(std::iter::once(n))
            .collect();
        ZeroRunCuts {
            items: SseOracle::from_moments(moments, objective),
            cuts,
        }
    }

    fn item_bucket(&self, start: usize, end: usize) -> Bucket {
        let solution = self.items.bucket(start, end);
        Bucket {
            start,
            end,
            representative: solution.representative,
            cost: solution.cost,
        }
    }
}

impl BucketCostOracle for ZeroRunCuts {
    fn n(&self) -> usize {
        self.cuts.len() - 1
    }

    fn bucket(&self, a: usize, c: usize) -> BucketSolution {
        self.items.bucket(self.cuts[a], self.cuts[c + 1] - 1)
    }

    fn costs_ending_at(&self, c: usize, starts: &[usize]) -> Vec<f64> {
        let starts: Vec<usize> = starts.iter().map(|&a| self.cuts[a]).collect();
        self.items.costs_ending_at(self.cuts[c + 1] - 1, &starts)
    }
}

/// Re-expresses a histogram over atoms — consecutive item ranges, atom `a`
/// covering the items `starts[a] ..= starts[a + 1] − 1` — in item
/// coordinates, keeping every representative and cost.
pub(crate) fn to_item_coordinates(atom_level: &Histogram, starts: &[usize]) -> Result<Histogram> {
    let buckets = atom_level
        .buckets()
        .iter()
        .map(|bucket| Bucket {
            start: starts[bucket.start],
            end: starts[bucket.end + 1] - 1,
            ..*bucket
        })
        .collect();
    Histogram::new(starts[atom_level.n()], buckets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::optimal_histogram;
    use crate::dp::tests::{banded_seal_moments, full_scan_count};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Moments over `n` items with seeded basic-tuple mass on `support`.
    fn moments_on(
        n: usize,
        support: impl IntoIterator<Item = usize>,
        seed: u64,
    ) -> Vec<ItemMoments> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mean = vec![0.0; n];
        let mut variance = vec![0.0; n];
        for item in support {
            for _ in 0..rng.gen_range(1..4) {
                let p: f64 = rng.gen_range(0.05..0.95);
                mean[item] += p;
                variance[item] += p * (1.0 - p);
            }
        }
        mean.iter()
            .zip(&variance)
            .map(|(&m, &v)| ItemMoments::from_mean_variance(m, v))
            .collect()
    }

    /// The identity inputs: 64-item supports of every shape a zero run can
    /// take, and the seal-shaped 1 024-item bands of the DP tests (the one
    /// at 950 wraps the partition edge).
    fn inputs() -> Vec<(String, Vec<ItemMoments>)> {
        let mut rng = StdRng::seed_from_u64(31);
        let short_runs: Vec<usize> = (0..64).filter(|_| rng.gen_bool(0.5)).collect();
        let mut inputs = vec![
            ("all zeros".to_string(), moments_on(64, [], 1)),
            ("one item".to_string(), moments_on(64, [37], 2)),
            ("left edge".to_string(), moments_on(64, 0..10, 3)),
            ("right edge".to_string(), moments_on(64, 54..64, 4)),
            (
                "both edges".to_string(),
                moments_on(64, (0..6).chain(58..64), 5),
            ),
            ("short runs".to_string(), moments_on(64, short_runs, 6)),
            (
                "wrapping band".to_string(),
                moments_on(64, (50..64).chain(0..12).filter(|i| i % 5 != 2), 7),
            ),
        ];
        for band_start in [0, 400, 800, 950] {
            inputs.push((
                format!("seal band at {band_start}"),
                banded_seal_moments(band_start),
            ));
        }
        inputs
    }

    #[test]
    fn cuts_dp_is_the_item_level_dp() {
        let (mut compared, mut differ) = (0, 0);
        for (name, moments) in inputs() {
            let n = moments.len();
            let m = ZeroRunCuts::new(&moments, SseObjective::PaperEq5).n();
            // The item-level DP is O(b n²): on the seal bands stop at the
            // store's seal budget.
            let budgets = if n > 64 {
                vec![1, 2, 3, 5, 8, 16]
            } else {
                vec![1, 2, 3, 5, 8, 16, 40, m + 1, n - 1, n]
            };
            for objective in [SseObjective::PaperEq5, SseObjective::FixedRepresentative] {
                let oracle = SseOracle::from_moments(&moments, objective);
                for &b in &budgets {
                    let what = format!("{name} (m = {m}) {objective:?} b = {b}");
                    let item = optimal_histogram(&oracle, b).unwrap();
                    let cuts = sse_histogram_from_moments(&moments, objective, b).unwrap();
                    assert_eq!(cuts.num_buckets(), b.min(n), "{what}");
                    let (a, c) = (item.total_cost(), cuts.total_cost());
                    assert!(
                        (a - c).abs() <= 1e-12 * a.abs().max(c.abs()),
                        "{what}: {a} vs {c}"
                    );
                    compared += 1;
                    if cuts.boundaries() != item.boundaries() {
                        differ += 1;
                        eprintln!("{what}: boundaries differ at equal cost (a tie)");
                    }
                    if b == n {
                        assert_eq!(cuts.boundaries(), (0..n).collect::<Vec<_>>(), "{what}");
                    }
                }
            }
        }
        eprintln!("{differ} of {compared} histograms differ from the item-level DP");
        assert_eq!(differ, 0);
    }

    #[test]
    fn seal_shaped_bands_scan_a_twentieth_of_the_item_dp() {
        let n = 1024;
        for band_start in [0, 400, 800, 950] {
            let atoms = ZeroRunCuts::new(&banded_seal_moments(band_start), SseObjective::PaperEq5);
            let tables = DpTables::build(&atoms, 16).unwrap();
            let what = format!("band at {band_start} (m = {})", atoms.n());
            assert!(
                tables.candidates_scanned() as f64 <= 0.05 * full_scan_count(n, 16) as f64,
                "{what}: {} candidates",
                tables.candidates_scanned()
            );
            assert!(
                tables.bucket_evaluations() as f64 <= 0.06 * (n * (n + 1) / 2) as f64,
                "{what}: {} evaluations",
                tables.bucket_evaluations()
            );
        }
    }
}
