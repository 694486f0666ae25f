//! Sum-absolute-error and sum-absolute-relative-error bucket-cost oracles
//! (Sections 3.3 and 3.4 of the paper, Theorems 3 and 4).
//!
//! Both metrics are instances of one weighted problem: approximate the items
//! of a bucket by a single representative `b̂` minimising
//! `Σ_{i∈b} Σ_{v_j∈V} w_{i,j} |v_j − b̂|`, where
//!
//! * SAE:  `w_{i,j} = Pr[g_i = v_j]`;
//! * SARE: `w_{i,j} = Pr[g_i = v_j] / max(c, v_j)`.
//!
//! The paper shows the optimal representative is always one of the frequency
//! values `v_j ∈ V` and that the cost, as a function of the chosen value
//! index, decreases then increases (it is unimodal with a monotone discrete
//! derivative).  Precomputing, for every value index and every domain prefix,
//! the cumulative-weight sums `Σ_{j<l} P_{j,s,e}(v_{j+1}−v_j)` and
//! `Σ_{j≥l} P*_{j,s,e}(v_{j+1}−v_j)` lets us evaluate any candidate in `O(1)`
//! and locate the optimum by binary search on the discrete derivative in
//! `O(log |V|)` per bucket.

use pds_core::model::ProbabilisticRelation;
use pds_core::values::ValueDomain;

use super::{BucketCostOracle, BucketSolution};

/// Which weighted-absolute metric the oracle evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbsMetricKind {
    /// Sum absolute error.
    Sae,
    /// Sum absolute relative error with the given sanity bound.
    Sare {
        /// Sanity bound.
        c: f64,
    },
}

/// Weighted sum-absolute-error bucket-cost oracle (SAE and SARE).
#[derive(Debug, Clone)]
pub struct WeightedAbsOracle {
    n: usize,
    kind: AbsMetricKind,
    domain: ValueDomain,
    /// `below[l][e+1] = Σ_{i ≤ e} Σ_{j < l} W_{i,j} (v_{j+1} − v_j)` where
    /// `W_{i,j} = Σ_{r ≤ j} w_{i,r}`.
    below: Vec<Vec<f64>>,
    /// `above[l][e+1] = Σ_{i ≤ e} Σ_{j ≥ l} W*_{i,j} (v_{j+1} − v_j)` where
    /// `W*_{i,j} = Σ_{r > j} w_{i,r}`.
    above: Vec<Vec<f64>>,
}

impl WeightedAbsOracle {
    /// Builds the SAE oracle.
    pub fn sae(relation: &ProbabilisticRelation) -> Self {
        Self::with_kind(relation, AbsMetricKind::Sae)
    }

    /// Builds the SARE oracle with sanity bound `c > 0`.
    pub fn sare(relation: &ProbabilisticRelation, c: f64) -> Self {
        assert!(c > 0.0, "the sanity bound c must be positive");
        Self::with_kind(relation, AbsMetricKind::Sare { c })
    }

    /// Builds the oracle for an explicit metric kind.
    pub fn with_kind(relation: &ProbabilisticRelation, kind: AbsMetricKind) -> Self {
        let n = relation.n();
        let pdfs = relation.induced_value_pdfs();
        let domain = ValueDomain::from_value_pdfs(&pdfs);
        let dense = domain.dense_probabilities(&pdfs);
        let v = domain.values();
        let k = v.len();
        let gap: Vec<f64> = (0..k)
            .map(|j| if j + 1 < k { v[j + 1] - v[j] } else { 0.0 })
            .collect();
        let weight = |value: f64| match kind {
            AbsMetricKind::Sae => 1.0,
            AbsMetricKind::Sare { c } => 1.0 / c.max(value.abs()),
        };

        // below[l][i+1], above[l][i+1], cumulated over items.
        let mut below = vec![vec![0.0; n + 1]; k + 1];
        let mut above = vec![vec![0.0; n + 1]; k + 1];
        let mut w_row = vec![0.0; k];
        for i in 0..n {
            for (j, w) in w_row.iter_mut().enumerate() {
                *w = dense[i][j] * weight(v[j]);
            }
            // Cumulative weights W_{i,j} (from below) and W*_{i,j} (from above).
            let mut cum = 0.0;
            let mut below_item = vec![0.0; k + 1]; // Σ_{j<l} W_{i,j} gap_j
            for l in 0..k {
                below_item[l + 1] = below_item[l] + cum_gap(&mut cum, w_row[l], gap[l]);
            }
            let mut cum_above = 0.0;
            let mut above_item = vec![0.0; k + 1]; // Σ_{j>=l} W*_{i,j} gap_j
            for l in (0..k).rev() {
                // W*_{i,l} = Σ_{r > l} w_{i,r}; accumulate r from the top.
                above_item[l] = above_item[l + 1] + cum_above * gap[l];
                cum_above += w_row[l];
            }
            for l in 0..=k {
                below[l][i + 1] = below[l][i] + below_item[l];
                above[l][i + 1] = above[l][i] + above_item[l];
            }
        }

        WeightedAbsOracle {
            n,
            kind,
            domain,
            below,
            above,
        }
    }

    /// The metric kind this oracle evaluates.
    pub fn kind(&self) -> AbsMetricKind {
        self.kind
    }

    /// The frequency value domain `V`.
    pub fn domain(&self) -> &ValueDomain {
        &self.domain
    }

    /// Bucket cost when the representative is pinned to the `l`-th value of
    /// `V` (`0 ≤ l < |V|`).
    fn cost_at_value_index(&self, s: usize, e: usize, l: usize) -> f64 {
        (self.below[l][e + 1] - self.below[l][s]) + (self.above[l][e + 1] - self.above[l][s])
    }

    fn best_value_index(&self, s: usize, e: usize) -> usize {
        let k = self.domain.len();
        if k <= 1 {
            return 0;
        }
        // The discrete derivative D(l) = cost(l+1) − cost(l) changes sign at
        // most once (negative then non-negative); the optimum is the first l
        // with D(l) >= 0, or the last index if D stays negative.
        let mut lo = 0usize;
        let mut hi = k - 1; // candidate answer range over l
        while lo < hi {
            let mid = (lo + hi) / 2;
            let d = self.cost_at_value_index(s, e, mid + 1) - self.cost_at_value_index(s, e, mid);
            if d >= 0.0 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

fn cum_gap(cum: &mut f64, w: f64, gap: f64) -> f64 {
    *cum += w;
    *cum * gap
}

impl BucketCostOracle for WeightedAbsOracle {
    fn n(&self) -> usize {
        self.n
    }

    fn bucket(&self, s: usize, e: usize) -> BucketSolution {
        let l = self.best_value_index(s, e);
        BucketSolution {
            representative: self.domain.value(l),
            cost: self.cost_at_value_index(s, e, l).max(0.0),
        }
    }

    fn costs_ending_at(&self, e: usize, starts: &[usize]) -> Vec<f64> {
        // The prefix-moment accumulators `below`/`above` already answer any
        // candidate value in O(1); per start the optimum is located by the
        // same binary search on the discrete derivative as `bucket`, giving
        // O(log |V|) per start with no per-call setup.
        starts
            .iter()
            .map(|&s| {
                let l = self.best_value_index(s, e);
                self.cost_at_value_index(s, e, l).max(0.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::model::{BasicModel, TuplePdfModel, ValuePdf, ValuePdfModel};
    use pds_core::worlds::PossibleWorlds;

    fn relations() -> Vec<ProbabilisticRelation> {
        vec![
            BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)])
                .unwrap()
                .into(),
            TuplePdfModel::from_alternatives(
                3,
                [vec![(0, 0.5), (1, 1.0 / 3.0)], vec![(1, 0.25), (2, 0.5)]],
            )
            .unwrap()
            .into(),
            ValuePdfModel::from_sparse(
                4,
                [
                    (0, ValuePdf::new([(1.0, 0.5)]).unwrap()),
                    (1, ValuePdf::new([(1.0, 1.0 / 3.0), (2.5, 0.25)]).unwrap()),
                    (3, ValuePdf::new([(4.0, 0.75), (0.5, 0.2)]).unwrap()),
                ],
            )
            .unwrap()
            .into(),
        ]
    }

    fn brute_force_cost(
        worlds: &PossibleWorlds,
        s: usize,
        e: usize,
        rep: f64,
        weight: impl Fn(f64) -> f64,
    ) -> f64 {
        worlds.expectation(|w| w[s..=e].iter().map(|&g| weight(g) * (g - rep).abs()).sum())
    }

    #[test]
    fn sae_cost_matches_brute_force_at_its_representative() {
        for rel in relations() {
            let worlds = PossibleWorlds::enumerate(&rel).unwrap();
            let oracle = WeightedAbsOracle::sae(&rel);
            for s in 0..rel.n() {
                for e in s..rel.n() {
                    let sol = oracle.bucket(s, e);
                    let brute = brute_force_cost(&worlds, s, e, sol.representative, |_| 1.0);
                    assert!(
                        (sol.cost - brute).abs() < 1e-9,
                        "{} [{s},{e}]: {} vs {brute}",
                        rel.model_name(),
                        sol.cost
                    );
                }
            }
        }
    }

    #[test]
    fn sare_cost_matches_brute_force_at_its_representative() {
        for rel in relations() {
            let worlds = PossibleWorlds::enumerate(&rel).unwrap();
            for c in [0.5, 1.0] {
                let oracle = WeightedAbsOracle::sare(&rel, c);
                for s in 0..rel.n() {
                    for e in s..rel.n() {
                        let sol = oracle.bucket(s, e);
                        let brute = brute_force_cost(&worlds, s, e, sol.representative, |g| {
                            1.0 / c.max(g.abs())
                        });
                        assert!(
                            (sol.cost - brute).abs() < 1e-9,
                            "{} c={c} [{s},{e}]",
                            rel.model_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn representative_beats_every_candidate_value() {
        for rel in relations() {
            let worlds = PossibleWorlds::enumerate(&rel).unwrap();
            let oracle = WeightedAbsOracle::sae(&rel);
            let candidates: Vec<f64> = (0..=80).map(|i| i as f64 * 0.1).collect();
            for s in 0..rel.n() {
                for e in s..rel.n() {
                    let sol = oracle.bucket(s, e);
                    for &cand in &candidates {
                        let cost = brute_force_cost(&worlds, s, e, cand, |_| 1.0);
                        assert!(
                            cost >= sol.cost - 1e-9,
                            "{} [{s},{e}] candidate {cand} beats the oracle: {cost} < {}",
                            rel.model_name(),
                            sol.cost
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sare_representative_beats_every_candidate_value() {
        for rel in relations() {
            let worlds = PossibleWorlds::enumerate(&rel).unwrap();
            let c = 0.5;
            let oracle = WeightedAbsOracle::sare(&rel, c);
            let candidates: Vec<f64> = (0..=80).map(|i| i as f64 * 0.1).collect();
            for s in 0..rel.n() {
                for e in s..rel.n() {
                    let sol = oracle.bucket(s, e);
                    for &cand in &candidates {
                        let cost = brute_force_cost(&worlds, s, e, cand, |g| 1.0 / c.max(g.abs()));
                        assert!(cost >= sol.cost - 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_data_reduces_to_weighted_median() {
        // For deterministic data the optimal SAE representative is a median
        // of the bucket values and the cost is the sum of absolute deviations.
        let freqs = [5.0, 1.0, 2.0, 9.0, 2.0, 2.0];
        let rel: ProbabilisticRelation = ValuePdfModel::deterministic(&freqs).into();
        let oracle = WeightedAbsOracle::sae(&rel);
        for s in 0..freqs.len() {
            for e in s..freqs.len() {
                let sol = oracle.bucket(s, e);
                let mut vals: Vec<f64> = freqs[s..=e].to_vec();
                vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let best: f64 = vals
                    .iter()
                    .map(|&m| freqs[s..=e].iter().map(|&g| (g - m).abs()).sum::<f64>())
                    .fold(f64::INFINITY, f64::min);
                assert!((sol.cost - best).abs() < 1e-9, "[{s},{e}]");
            }
        }
    }

    #[test]
    fn representative_always_belongs_to_the_value_domain() {
        for rel in relations() {
            let oracle = WeightedAbsOracle::sae(&rel);
            let values = oracle.domain().values().to_vec();
            for s in 0..rel.n() {
                for e in s..rel.n() {
                    let rep = oracle.bucket(s, e).representative;
                    assert!(values.iter().any(|&v| (v - rep).abs() < 1e-12));
                }
            }
        }
    }

    #[test]
    fn costs_ending_at_matches_bucket() {
        let rel = &relations()[1];
        let oracle = WeightedAbsOracle::sare(rel, 1.0);
        for e in 0..rel.n() {
            let starts: Vec<usize> = (0..=e).collect();
            let out = oracle.costs_ending_at(e, &starts);
            for (s, &cost) in out.iter().enumerate() {
                assert!((cost - oracle.bucket(s, e).cost).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sanity bound")]
    fn invalid_sanity_bound_panics() {
        let rel = &relations()[0];
        let _ = WeightedAbsOracle::sare(rel, -1.0);
    }
}
