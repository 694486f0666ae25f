//! Possible-worlds semantics (Definition 4 and Example 1 of the paper).
//!
//! A probabilistic relation is a compact encoding of a probability
//! distribution over *possible worlds*, each of which is an ordinary
//! deterministic frequency vector `g ∈ R^n`.  This module provides
//!
//! * exhaustive enumeration of all possible worlds with their probabilities
//!   (feasible only for small inputs; used throughout the test suites to
//!   validate the closed-form cost expressions of the synopsis algorithms),
//! * Monte-Carlo sampling of a single possible world (the "Sampled World"
//!   baseline of the paper's experiments).

use rand::Rng;

use crate::error::{PdsError, Result};
use crate::model::ProbabilisticRelation;

/// Default cap on the number of enumerated worlds (not input size) —
/// enumeration beyond a few million worlds is pointless for testing.
pub const DEFAULT_WORLD_LIMIT: usize = 1 << 22;

/// The exhaustive set of possible worlds of a (small) probabilistic relation.
#[derive(Debug, Clone)]
pub struct PossibleWorlds {
    n: usize,
    worlds: Vec<(Vec<f64>, f64)>,
}

impl PossibleWorlds {
    /// Enumerates every possible world of `relation` together with its
    /// probability, failing if more than `limit` worlds would be produced.
    fn enumerate_with_limit(relation: &ProbabilisticRelation, limit: usize) -> Result<Self> {
        let n = relation.n();
        // Each "component" is an independent random choice with a small set of
        // outcomes; a world is one outcome per component.  Outcome = set of
        // (item, frequency increment) pairs.
        type Outcome = (Vec<(usize, f64)>, f64);
        let components: Vec<Vec<Outcome>> = match relation {
            ProbabilisticRelation::Basic(m) => m
                .tuples()
                .iter()
                .map(|t| vec![(vec![(t.item, 1.0)], t.prob), (vec![], 1.0 - t.prob)])
                .collect(),
            ProbabilisticRelation::TuplePdf(m) => m
                .tuples()
                .iter()
                .map(|t| {
                    let mut outcomes: Vec<(Vec<(usize, f64)>, f64)> = t
                        .alternatives()
                        .iter()
                        .map(|&(item, p)| (vec![(item, 1.0)], p))
                        .collect();
                    let null = t.null_probability();
                    if null > 0.0 {
                        outcomes.push((vec![], null));
                    }
                    outcomes
                })
                .collect(),
            ProbabilisticRelation::ValuePdf(m) => m
                .items()
                .iter()
                .enumerate()
                .map(|(i, pdf)| {
                    pdf.with_explicit_zero()
                        .entries()
                        .iter()
                        .map(|&(v, p)| (vec![(i, v)], p))
                        .collect()
                })
                .collect(),
        };

        // Estimate the number of worlds before materialising them.
        let mut estimate: usize = 1;
        for c in &components {
            estimate = estimate.saturating_mul(c.len().max(1));
            if estimate > limit {
                return Err(PdsError::TooManyWorlds {
                    components: components.len(),
                    limit,
                });
            }
        }

        let mut worlds: Vec<(Vec<f64>, f64)> = vec![(vec![0.0; n], 1.0)];
        for component in &components {
            let mut next = Vec::with_capacity(worlds.len() * component.len());
            for (freqs, prob) in &worlds {
                for (outcome, p) in component {
                    if *p <= 0.0 {
                        continue;
                    }
                    let mut f = freqs.clone();
                    for &(item, inc) in outcome {
                        f[item] += inc;
                    }
                    next.push((f, prob * p));
                }
            }
            worlds = next;
        }
        Ok(PossibleWorlds { n, worlds })
    }

    /// Enumerates with the [`DEFAULT_WORLD_LIMIT`].
    pub fn enumerate(relation: &ProbabilisticRelation) -> Result<Self> {
        Self::enumerate_with_limit(relation, DEFAULT_WORLD_LIMIT)
    }

    /// Domain size of the underlying relation.
    pub fn n(&self) -> usize {
        self.n
    }

    /// All `(frequency vector, probability)` pairs.  Worlds produced by
    /// different component outcomes are *not* merged even when their
    /// frequency vectors coincide, mirroring the paper's remark that
    /// indistinguishable worlds are treated as identical (probabilities of
    /// identical vectors simply add up in every expectation).
    pub fn worlds(&self) -> &[(Vec<f64>, f64)] {
        &self.worlds
    }

    /// Number of enumerated worlds.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// Whether no world was enumerated (only possible for an empty relation).
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Total probability mass — should always be 1 up to rounding.
    pub fn total_probability(&self) -> f64 {
        self.worlds.iter().map(|&(_, p)| p).sum()
    }

    /// The expectation `E_W[f]` of an arbitrary world functional (equation (1)
    /// of the paper).
    pub fn expectation<F: Fn(&[f64]) -> f64>(&self, f: F) -> f64 {
        self.worlds.iter().map(|(w, p)| p * f(w)).sum()
    }

    /// Per-item expected frequencies computed by brute force.
    pub fn expected_frequencies(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.expectation(|w| w[i])).collect()
    }
}

/// Draws one possible world (a deterministic frequency vector) at random,
/// according to the relation's distribution.  This is the "Sampled World"
/// heuristic input of Section 5.
pub fn sample_world<R: Rng + ?Sized>(relation: &ProbabilisticRelation, rng: &mut R) -> Vec<f64> {
    let n = relation.n();
    let mut freqs = vec![0.0; n];
    match relation {
        ProbabilisticRelation::Basic(m) => {
            for t in m.tuples() {
                if rng.gen::<f64>() < t.prob {
                    freqs[t.item] += 1.0;
                }
            }
        }
        ProbabilisticRelation::TuplePdf(m) => {
            for t in m.tuples() {
                let mut u = rng.gen::<f64>();
                for &(item, p) in t.alternatives() {
                    if u < p {
                        freqs[item] += 1.0;
                        break;
                    }
                    u -= p;
                }
            }
        }
        ProbabilisticRelation::ValuePdf(m) => {
            for (i, pdf) in m.items().iter().enumerate() {
                freqs[i] = pdf.sample_with(rng.gen::<f64>());
            }
        }
    }
    freqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BasicModel, TuplePdfModel, ValuePdf, ValuePdfModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability that the frequency vector equals `target` exactly (merging
    /// indistinguishable worlds).
    fn probability_of_world(worlds: &PossibleWorlds, target: &[f64]) -> f64 {
        worlds
            .worlds()
            .iter()
            .filter(|(w, _)| w.iter().zip(target).all(|(a, b)| (a - b).abs() < 1e-12))
            .map(|&(_, p)| p)
            .sum()
    }

    fn basic_example() -> ProbabilisticRelation {
        BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)])
            .unwrap()
            .into()
    }

    fn tuple_example() -> ProbabilisticRelation {
        TuplePdfModel::from_alternatives(
            3,
            [vec![(0, 0.5), (1, 1.0 / 3.0)], vec![(1, 0.25), (2, 0.5)]],
        )
        .unwrap()
        .into()
    }

    fn value_example() -> ProbabilisticRelation {
        ValuePdfModel::from_sparse(
            3,
            [
                (0, ValuePdf::new([(1.0, 0.5)]).unwrap()),
                (1, ValuePdf::new([(1.0, 1.0 / 3.0), (2.0, 0.25)]).unwrap()),
                (2, ValuePdf::new([(1.0, 0.5)]).unwrap()),
            ],
        )
        .unwrap()
        .into()
    }

    #[test]
    fn basic_model_worlds_match_paper_example() {
        let worlds = PossibleWorlds::enumerate(&basic_example()).unwrap();
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        // Paper: Pr[∅] = 1/8, Pr[{1}] = 1/8, Pr[{1,2}] = 5/48, Pr[{1,2,2}] = 1/48.
        assert!((probability_of_world(&worlds, &[0.0, 0.0, 0.0]) - 1.0 / 8.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[1.0, 0.0, 0.0]) - 1.0 / 8.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[1.0, 1.0, 0.0]) - 5.0 / 48.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[1.0, 2.0, 0.0]) - 1.0 / 48.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[0.0, 1.0, 1.0]) - 5.0 / 48.0).abs() < 1e-12);
        // E[g1] = 1/2, E[g2] = 7/12 (paper notation; our items 0 and 1).
        let freqs = worlds.expected_frequencies();
        assert!((freqs[0] - 0.5).abs() < 1e-12);
        assert!((freqs[1] - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn tuple_model_worlds_match_paper_example() {
        let worlds = PossibleWorlds::enumerate(&tuple_example()).unwrap();
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        // Paper: Pr[∅] = 1/24, Pr[{1}] = 1/8, Pr[{2}] = 1/8, Pr[{3}] = 1/12,
        // Pr[{1,2}] = 1/8, Pr[{1,3}] = 1/4, Pr[{2,2}] = 1/12, Pr[{2,3}] = 1/6.
        assert!((probability_of_world(&worlds, &[0.0, 0.0, 0.0]) - 1.0 / 24.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[1.0, 0.0, 0.0]) - 1.0 / 8.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[0.0, 1.0, 0.0]) - 1.0 / 8.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[0.0, 0.0, 1.0]) - 1.0 / 12.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[1.0, 1.0, 0.0]) - 1.0 / 8.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[1.0, 0.0, 1.0]) - 1.0 / 4.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[0.0, 2.0, 0.0]) - 1.0 / 12.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[0.0, 1.0, 1.0]) - 1.0 / 6.0).abs() < 1e-12);
        let freqs = worlds.expected_frequencies();
        assert!((freqs[0] - 0.5).abs() < 1e-12);
        assert!((freqs[1] - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn value_model_worlds_match_paper_example() {
        let worlds = PossibleWorlds::enumerate(&value_example()).unwrap();
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        // Paper: Pr[∅] = 5/48, Pr[{1,2,2}] = 1/16, E[g2] = 5/6.
        assert!((probability_of_world(&worlds, &[0.0, 0.0, 0.0]) - 5.0 / 48.0).abs() < 1e-12);
        assert!((probability_of_world(&worlds, &[1.0, 2.0, 0.0]) - 1.0 / 16.0).abs() < 1e-12);
        let freqs = worlds.expected_frequencies();
        assert!((freqs[0] - 0.5).abs() < 1e-12);
        assert!((freqs[1] - 5.0 / 6.0).abs() < 1e-12);
        assert!((freqs[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn enumeration_respects_limit() {
        let big = BasicModel::from_pairs(4, (0..40).map(|i| (i % 4, 0.5))).unwrap();
        let res = PossibleWorlds::enumerate_with_limit(&big.into(), 1 << 10);
        assert!(matches!(res, Err(PdsError::TooManyWorlds { .. })));
    }

    #[test]
    fn expectation_matches_analytic_moments() {
        for rel in [basic_example(), tuple_example(), value_example()] {
            let worlds = PossibleWorlds::enumerate(&rel).unwrap();
            let pdfs = rel.induced_value_pdfs();
            for i in 0..rel.n() {
                let brute_mean = worlds.expectation(|w| w[i]);
                let brute_ex2 = worlds.expectation(|w| w[i] * w[i]);
                assert!((brute_mean - pdfs.item(i).mean()).abs() < 1e-12);
                assert!((brute_ex2 - pdfs.item(i).second_moment()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sampled_worlds_have_unbiased_means() {
        let rel = tuple_example();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 40_000;
        let mut sums = vec![0.0; rel.n()];
        for _ in 0..trials {
            let w = sample_world(&rel, &mut rng);
            for (s, f) in sums.iter_mut().zip(&w) {
                *s += f;
            }
        }
        let expected = rel.expected_frequencies();
        for i in 0..rel.n() {
            let mean = sums[i] / trials as f64;
            assert!(
                (mean - expected[i]).abs() < 0.02,
                "item {i}: sampled mean {mean} vs expected {}",
                expected[i]
            );
        }
    }
}
