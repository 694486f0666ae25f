//! Sum-squared-error bucket-cost oracle (Section 3.1 of the paper).
//!
//! Two flavours of the single-bucket SSE objective are supported (see
//! DESIGN.md, "Faithfulness notes"):
//!
//! * [`SseObjective::PaperEq5`] — the paper's equation (5):
//!   `Σ_i E[g_i²] − E[(Σ_i g_i)²]/n_b`, i.e. `n_b` times the expected
//!   *per-world* sample variance of the bucket.  For the tuple-pdf model this
//!   requires the within-bucket covariance of item frequencies; the paper's
//!   `A`/`B`/`C` prefix arrays give it in `O(1)` per bucket (exact for the
//!   basic model, an approximation when a tuple's alternatives straddle a
//!   bucket boundary), and [`TupleSseMode::Exact`] resolves straddling tuples
//!   exactly with an incremental sweep.
//! * [`SseObjective::FixedRepresentative`] — the literal Section 2.3
//!   objective `min_{b̂} E_W[Σ_i (g_i − b̂)²]`, which only needs per-item
//!   moments: `Σ_i E[g_i²] − (Σ_i E[g_i])²/n_b`.
//!
//! In both cases the optimal representative is the bucket's mean expected
//! frequency `b̄ = Σ_i E[g_i]/n_b` (Fact 1).

use pds_core::model::ProbabilisticRelation;
use pds_core::moments::{item_moments, ItemMoments};

use super::{BucketCostOracle, BucketSolution};

/// Which single-bucket SSE objective the oracle evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SseObjective {
    /// `min_{b̂} E_W[Σ (g_i − b̂)²]` with a single fixed representative.
    FixedRepresentative,
    /// The paper's equation (5): `Σ E[g_i²] − E[(Σ g_i)²]/n_b`.
    PaperEq5,
}

/// How the tuple-pdf covariance term of [`SseObjective::PaperEq5`] is
/// computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleSseMode {
    /// The paper's `B[e]`/`C[e]` prefix arrays: `O(1)` per bucket, exact for
    /// the basic model, approximate when tuple alternatives straddle a bucket
    /// boundary.
    PrefixArrays,
    /// Exact covariance via an incremental sweep over the tuples overlapping
    /// the bucket (`O(m)` amortised per right endpoint).
    Exact,
}

#[derive(Debug, Clone)]
struct TupleArrays {
    mode: TupleSseMode,
    /// `B[e+1] = Σ_t Pr[t ≤ e]` (1-indexed prefix).
    prefix_b: Vec<f64>,
    /// `C[e+1] = Σ_t Pr[t ≤ e]²` (1-indexed prefix).
    prefix_c: Vec<f64>,
    /// For every item, the `(tuple index, probability)` pairs mentioning it.
    by_item: Vec<Vec<(u32, f64)>>,
    /// Number of tuples.
    tuple_count: usize,
}

/// Sum-squared-error bucket-cost oracle.
#[derive(Debug, Clone)]
pub struct SseOracle {
    n: usize,
    objective: SseObjective,
    /// `prefix_mean[e+1] = Σ_{i ≤ e} E[g_i]`.
    prefix_mean: Vec<f64>,
    /// `prefix_ex2[e+1] = Σ_{i ≤ e} E[g_i²]` (the paper's array `A`).
    prefix_ex2: Vec<f64>,
    /// `prefix_var[e+1] = Σ_{i ≤ e} Var[g_i]` — valid for the per-item
    /// independent models (basic, value pdf).
    prefix_var: Vec<f64>,
    /// Tuple-pdf specific machinery, present only when the relation is a
    /// genuine tuple-pdf input and the objective is `PaperEq5`.
    tuple: Option<TupleArrays>,
}

impl SseOracle {
    /// Builds the oracle with the default tuple-pdf mode
    /// ([`TupleSseMode::PrefixArrays`], the paper's formulation).
    pub fn new(relation: &ProbabilisticRelation, objective: SseObjective) -> Self {
        Self::with_tuple_mode(relation, objective, TupleSseMode::PrefixArrays)
    }

    /// Builds the oracle from per-item moments alone, for items whose
    /// frequencies are mutually independent (the basic and value pdf
    /// models): Eq. (5)'s `Var[Σ g_i]` is then `Σ Var[g_i]`, so no tuple
    /// structure is needed.
    pub fn from_moments(moments: &[ItemMoments], objective: SseObjective) -> Self {
        let n = moments.len();
        let mut prefix_mean = vec![0.0; n + 1];
        let mut prefix_ex2 = vec![0.0; n + 1];
        let mut prefix_var = vec![0.0; n + 1];
        for (i, m) in moments.iter().enumerate() {
            prefix_mean[i + 1] = prefix_mean[i] + m.mean;
            prefix_ex2[i + 1] = prefix_ex2[i] + m.second_moment;
            prefix_var[i + 1] = prefix_var[i] + m.variance;
        }
        SseOracle {
            n,
            objective,
            prefix_mean,
            prefix_ex2,
            prefix_var,
            tuple: None,
        }
    }

    /// Builds the oracle choosing how tuple-pdf covariances are handled.
    pub fn with_tuple_mode(
        relation: &ProbabilisticRelation,
        objective: SseObjective,
        mode: TupleSseMode,
    ) -> Self {
        let n = relation.n();
        let mut oracle = Self::from_moments(&item_moments(relation), objective);
        oracle.tuple = match (objective, relation) {
            (SseObjective::PaperEq5, ProbabilisticRelation::TuplePdf(m))
                if !relation.items_independent() =>
            {
                // Pr[t ≤ e] accumulated item by item.
                let mut prefix_b = vec![0.0; n + 1];
                let mut prefix_c = vec![0.0; n + 1];
                let mut cum_per_tuple = vec![0.0; m.tuple_count()];
                let by_item = m.tuple_probabilities_by_item();
                for i in 0..n {
                    let mut b = prefix_b[i];
                    let mut c = prefix_c[i];
                    for &(t, p) in &by_item[i] {
                        let old = cum_per_tuple[t];
                        let new = old + p;
                        b += p;
                        c += new * new - old * old;
                        cum_per_tuple[t] = new;
                    }
                    prefix_b[i + 1] = b;
                    prefix_c[i + 1] = c;
                }
                Some(TupleArrays {
                    mode,
                    prefix_b,
                    prefix_c,
                    by_item: by_item
                        .into_iter()
                        .map(|v| v.into_iter().map(|(t, p)| (t as u32, p)).collect())
                        .collect(),
                    tuple_count: m.tuple_count(),
                })
            }
            _ => None,
        };
        oracle
    }

    /// The objective this oracle evaluates.
    pub fn objective(&self) -> SseObjective {
        self.objective
    }

    fn mean_sum(&self, s: usize, e: usize) -> f64 {
        self.prefix_mean[e + 1] - self.prefix_mean[s]
    }

    fn cost_with_sum_q2(&self, s: usize, e: usize, sum_q2: Option<f64>) -> f64 {
        let nb = (e - s + 1) as f64;
        let ex2 = self.prefix_ex2[e + 1] - self.prefix_ex2[s];
        let mean = self.mean_sum(s, e);
        let cost = match self.objective {
            SseObjective::FixedRepresentative => ex2 - mean * mean / nb,
            SseObjective::PaperEq5 => {
                // E[(Σ g)²] = (E[Σ g])² + Var[Σ g].
                let var_sum = match (&self.tuple, sum_q2) {
                    (Some(t), Some(q2)) => {
                        let bd = t.prefix_b[e + 1] - t.prefix_b[s];
                        bd - q2
                    }
                    (Some(t), None) => {
                        // Paper's prefix-array formula: Σ q_t² ≈ C[e] − C[s−1].
                        let bd = t.prefix_b[e + 1] - t.prefix_b[s];
                        let cd = t.prefix_c[e + 1] - t.prefix_c[s];
                        bd - cd
                    }
                    (None, _) => self.prefix_var[e + 1] - self.prefix_var[s],
                };
                ex2 - (mean * mean + var_sum) / nb
            }
        };
        cost.max(0.0)
    }

    fn exact_sum_q2(&self, s: usize, e: usize) -> Option<f64> {
        let tuple = self.tuple.as_ref()?;
        if tuple.mode != TupleSseMode::Exact {
            return None;
        }
        let mut q = std::collections::HashMap::new();
        for i in s..=e {
            for &(t, p) in &tuple.by_item[i] {
                *q.entry(t).or_insert(0.0) += p;
            }
        }
        Some(q.values().map(|&v: &f64| v * v).sum())
    }
}

impl BucketCostOracle for SseOracle {
    fn n(&self) -> usize {
        self.n
    }

    fn bucket(&self, s: usize, e: usize) -> BucketSolution {
        let nb = (e - s + 1) as f64;
        let representative = self.mean_sum(s, e) / nb;
        let cost = self.cost_with_sum_q2(s, e, self.exact_sum_q2(s, e));
        BucketSolution {
            representative,
            cost,
        }
    }

    fn costs_ending_at(&self, e: usize, starts: &[usize]) -> Vec<f64> {
        match &self.tuple {
            Some(t) if t.mode == TupleSseMode::Exact => {
                // Incremental sweep: grow the bucket leftwards from [e, e]
                // down to the smallest requested start, maintaining Σ_t q_t²
                // exactly and emitting a cost at every requested start.
                let mut out = vec![0.0; starts.len()];
                if starts.is_empty() {
                    return out;
                }
                let mut q = vec![0.0f64; t.tuple_count];
                let mut touched: Vec<u32> = Vec::new();
                let mut sum_q2 = 0.0;
                let mut next = starts.len();
                for s in (starts[0]..=e).rev() {
                    for &(tid, p) in &t.by_item[s] {
                        let old = q[tid as usize];
                        if old == 0.0 {
                            touched.push(tid);
                        }
                        let new = old + p;
                        sum_q2 += new * new - old * old;
                        q[tid as usize] = new;
                    }
                    while next > 0 && starts[next - 1] == s {
                        next -= 1;
                        out[next] = self.cost_with_sum_q2(s, e, Some(sum_q2));
                    }
                }
                for tid in touched {
                    q[tid as usize] = 0.0;
                }
                out
            }
            _ => starts
                .iter()
                .map(|&s| self.cost_with_sum_q2(s, e, None))
                .collect(),
        }
    }

    fn costs_starting_at(&self, s: usize, ends: &[usize]) -> Vec<f64> {
        match &self.tuple {
            Some(t) if t.mode == TupleSseMode::Exact => {
                // Prefix-direction dual of the sweep above: grow the bucket
                // rightwards from [s, s] up to the largest requested end,
                // maintaining Σ_t q_t² incrementally.
                let mut out = vec![0.0; ends.len()];
                if ends.is_empty() {
                    return out;
                }
                let mut q = vec![0.0f64; t.tuple_count];
                let mut touched: Vec<u32> = Vec::new();
                let mut sum_q2 = 0.0;
                let mut next = 0usize;
                for e in s..=ends[ends.len() - 1] {
                    for &(tid, p) in &t.by_item[e] {
                        let old = q[tid as usize];
                        if old == 0.0 {
                            touched.push(tid);
                        }
                        let new = old + p;
                        sum_q2 += new * new - old * old;
                        q[tid as usize] = new;
                    }
                    while next < ends.len() && ends[next] == e {
                        out[next] = self.cost_with_sum_q2(s, e, Some(sum_q2));
                        next += 1;
                    }
                }
                for tid in touched {
                    q[tid as usize] = 0.0;
                }
                out
            }
            _ => ends
                .iter()
                .map(|&e| self.cost_with_sum_q2(s, e, None))
                .collect(),
        }
    }

    fn costs_monotone(&self) -> bool {
        // The prefix-array covariance approximation for straddling tuples is
        // the only mode that can violate containment monotonicity.
        self.tuple
            .as_ref()
            .is_none_or(|t| t.mode == TupleSseMode::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::model::{BasicModel, TuplePdfModel, ValuePdf, ValuePdfModel};
    use pds_core::worlds::PossibleWorlds;

    fn tuple_example() -> ProbabilisticRelation {
        TuplePdfModel::from_alternatives(
            3,
            [vec![(0, 0.5), (1, 1.0 / 3.0)], vec![(1, 0.25), (2, 0.5)]],
        )
        .unwrap()
        .into()
    }

    fn basic_example() -> ProbabilisticRelation {
        BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)])
            .unwrap()
            .into()
    }

    fn value_example() -> ProbabilisticRelation {
        ValuePdfModel::from_sparse(
            4,
            [
                (0, ValuePdf::new([(1.0, 0.5)]).unwrap()),
                (1, ValuePdf::new([(1.0, 1.0 / 3.0), (2.0, 0.25)]).unwrap()),
                (2, ValuePdf::new([(3.0, 0.5)]).unwrap()),
            ],
        )
        .unwrap()
        .into()
    }

    /// The paper's worked example (Section 3.1): the SSE of the bucket
    /// spanning the whole 3-item domain of the tuple-pdf input is
    /// 252/144 − (1/3)·136/48 = 29/36.
    #[test]
    fn paper_worked_example_bucket_cost() {
        let rel = tuple_example();
        for mode in [TupleSseMode::PrefixArrays, TupleSseMode::Exact] {
            let oracle = SseOracle::with_tuple_mode(&rel, SseObjective::PaperEq5, mode);
            let sol = oracle.bucket(0, 2);
            assert!(
                (sol.cost - 29.0 / 36.0).abs() < 1e-12,
                "mode {mode:?}: cost {}",
                sol.cost
            );
            // Representative is the bucket mean (5/6 + 3/4)/3 = 19/36.
            assert!((sol.representative - 19.0 / 36.0).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_eq5_matches_expected_sample_variance_by_brute_force() {
        for rel in [basic_example(), tuple_example(), value_example()] {
            let worlds = PossibleWorlds::enumerate(&rel).unwrap();
            let oracle =
                SseOracle::with_tuple_mode(&rel, SseObjective::PaperEq5, TupleSseMode::Exact);
            for s in 0..rel.n() {
                for e in s..rel.n() {
                    let nb = (e - s + 1) as f64;
                    let brute = worlds.expectation(|w| {
                        let mean: f64 = w[s..=e].iter().sum::<f64>() / nb;
                        w[s..=e].iter().map(|&g| (g - mean) * (g - mean)).sum()
                    });
                    let cost = oracle.bucket(s, e).cost;
                    assert!(
                        (cost - brute).abs() < 1e-9,
                        "{} bucket [{s},{e}]: {cost} vs {brute}",
                        rel.model_name()
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_representative_matches_brute_force_and_is_minimal() {
        for rel in [basic_example(), tuple_example(), value_example()] {
            let worlds = PossibleWorlds::enumerate(&rel).unwrap();
            let oracle = SseOracle::new(&rel, SseObjective::FixedRepresentative);
            for s in 0..rel.n() {
                for e in s..rel.n() {
                    let sol = oracle.bucket(s, e);
                    let cost_at = |rep: f64| {
                        worlds
                            .expectation(|w| w[s..=e].iter().map(|&g| (g - rep) * (g - rep)).sum())
                    };
                    assert!((sol.cost - cost_at(sol.representative)).abs() < 1e-9);
                    // Perturbing the representative can only increase the cost.
                    assert!(cost_at(sol.representative + 0.05) >= sol.cost - 1e-12);
                    assert!(cost_at(sol.representative - 0.05) >= sol.cost - 1e-12);
                }
            }
        }
    }

    #[test]
    fn fixed_rep_cost_upper_bounds_eq5_cost() {
        // E[min over worlds] <= min over fixed representative.
        for rel in [basic_example(), tuple_example(), value_example()] {
            let eq5 = SseOracle::with_tuple_mode(&rel, SseObjective::PaperEq5, TupleSseMode::Exact);
            let fixed = SseOracle::new(&rel, SseObjective::FixedRepresentative);
            for s in 0..rel.n() {
                for e in s..rel.n() {
                    assert!(fixed.bucket(s, e).cost >= eq5.bucket(s, e).cost - 1e-12);
                }
            }
        }
    }

    #[test]
    fn prefix_arrays_are_exact_for_basic_model() {
        // In the basic model every tuple mentions a single item, so the
        // paper's B/C arrays compute the covariance term exactly.
        let rel = basic_example();
        let worlds = PossibleWorlds::enumerate(&rel).unwrap();
        let oracle = SseOracle::new(&rel, SseObjective::PaperEq5);
        for s in 0..rel.n() {
            for e in s..rel.n() {
                let nb = (e - s + 1) as f64;
                let brute = worlds.expectation(|w| {
                    let mean: f64 = w[s..=e].iter().sum::<f64>() / nb;
                    w[s..=e].iter().map(|&g| (g - mean) * (g - mean)).sum()
                });
                assert!((oracle.bucket(s, e).cost - brute).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prefix_arrays_approximate_straddling_tuples() {
        // Bucket [1, 2] of the tuple-pdf example: tuple 1's alternatives
        // straddle the left bucket boundary, so the prefix-array formula
        // deviates from the exact covariance (documented approximation).
        let rel = tuple_example();
        let exact = SseOracle::with_tuple_mode(&rel, SseObjective::PaperEq5, TupleSseMode::Exact);
        let approx =
            SseOracle::with_tuple_mode(&rel, SseObjective::PaperEq5, TupleSseMode::PrefixArrays);
        let worlds = PossibleWorlds::enumerate(&rel).unwrap();
        let brute = worlds.expectation(|w| {
            let mean: f64 = w[1..=2].iter().sum::<f64>() / 2.0;
            w[1..=2].iter().map(|&g| (g - mean) * (g - mean)).sum()
        });
        assert!((exact.bucket(1, 2).cost - brute).abs() < 1e-9);
        assert!((approx.bucket(1, 2).cost - brute).abs() > 1e-6);
    }

    #[test]
    fn costs_ending_at_agrees_with_single_bucket_queries() {
        for rel in [basic_example(), tuple_example(), value_example()] {
            for (objective, mode) in [
                (SseObjective::PaperEq5, TupleSseMode::Exact),
                (SseObjective::PaperEq5, TupleSseMode::PrefixArrays),
                (
                    SseObjective::FixedRepresentative,
                    TupleSseMode::PrefixArrays,
                ),
            ] {
                let oracle = SseOracle::with_tuple_mode(&rel, objective, mode);
                for e in 0..rel.n() {
                    let starts: Vec<usize> = (0..=e).collect();
                    let out = oracle.costs_ending_at(e, &starts);
                    for (s, &cost) in out.iter().enumerate() {
                        assert!(
                            (cost - oracle.bucket(s, e).cost).abs() < 1e-12,
                            "{objective:?} {mode:?} [{s},{e}]"
                        );
                    }
                    // A sparse subset of starts is answered identically.
                    let sparse: Vec<usize> = (0..=e).step_by(2).collect();
                    let out = oracle.costs_ending_at(e, &sparse);
                    for (k, &s) in sparse.iter().enumerate() {
                        assert!((out[k] - oracle.bucket(s, e).cost).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn costs_starting_at_agrees_with_single_bucket_queries() {
        for rel in [basic_example(), tuple_example(), value_example()] {
            for (objective, mode) in [
                (SseObjective::PaperEq5, TupleSseMode::Exact),
                (SseObjective::PaperEq5, TupleSseMode::PrefixArrays),
            ] {
                let oracle = SseOracle::with_tuple_mode(&rel, objective, mode);
                for s in 0..rel.n() {
                    let ends: Vec<usize> = (s..rel.n()).collect();
                    let out = oracle.costs_starting_at(s, &ends);
                    for (k, &e) in ends.iter().enumerate() {
                        assert!(
                            (out[k] - oracle.bucket(s, e).cost).abs() < 1e-12,
                            "{objective:?} {mode:?} [{s},{e}]"
                        );
                    }
                    // A sparse subset of ends is answered identically.
                    let sparse: Vec<usize> = (s..rel.n()).step_by(2).collect();
                    let out = oracle.costs_starting_at(s, &sparse);
                    for (k, &e) in sparse.iter().enumerate() {
                        assert!((out[k] - oracle.bucket(s, e).cost).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_data_reduces_to_classic_v_optimal_cost() {
        let freqs = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let rel: ProbabilisticRelation = ValuePdfModel::deterministic(&freqs).into();
        for objective in [SseObjective::FixedRepresentative, SseObjective::PaperEq5] {
            let oracle = SseOracle::new(&rel, objective);
            for s in 0..freqs.len() {
                for e in s..freqs.len() {
                    let nb = (e - s + 1) as f64;
                    let mean: f64 = freqs[s..=e].iter().sum::<f64>() / nb;
                    let classic: f64 = freqs[s..=e].iter().map(|&g| (g - mean) * (g - mean)).sum();
                    assert!((oracle.bucket(s, e).cost - classic).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn singleton_buckets_of_deterministic_data_cost_zero() {
        let rel: ProbabilisticRelation = ValuePdfModel::deterministic(&[1.0, 4.0, 2.0]).into();
        let oracle = SseOracle::new(&rel, SseObjective::PaperEq5);
        for i in 0..3 {
            assert_eq!(oracle.bucket(i, i).cost, 0.0);
        }
    }
}
