//! SSE-optimal wavelet synopses on probabilistic data (Section 4.1 of the
//! paper, Theorem 7).
//!
//! Because the Haar transform is linear, the expected value of every wavelet
//! coefficient is the transform of the expected frequencies,
//! `μ_c = H(E[g])`.  By Parseval and linearity of expectation the expected
//! SSE of a synopsis that retains index set `I` with values `ĉ_i` is
//! `Σ_{i∈I} E[(c_i − ĉ_i)²] + Σ_{i∉I} E[c_i²]`; retaining a coefficient is
//! best done at its expected value (benefit `μ_{c_i}²`), so the optimal
//! strategy is simply to keep the `B` coefficients with the largest absolute
//! expected *normalised* value — a linear-time computation.

use pds_core::error::Result;
use pds_core::model::ProbabilisticRelation;
use pds_core::moments::item_moments;

use crate::haar::HaarTransform;
use crate::synopsis::{RetainedCoefficient, WaveletSynopsis};

/// The expected Haar coefficients of a probabilistic relation, in both
/// conventions, computed from the expected frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedCoefficients {
    transform: HaarTransform,
}

impl ExpectedCoefficients {
    /// Computes `μ_c = H(E[g])` for the relation.
    pub fn of(relation: &ProbabilisticRelation) -> Self {
        let means = relation.expected_frequencies();
        ExpectedCoefficients {
            transform: HaarTransform::forward(&means),
        }
    }

    /// Expected normalised coefficients (used for SSE thresholding).
    pub fn normalised(&self) -> &[f64] {
        self.transform.normalised()
    }

    /// Expected unnormalised coefficients (used for reconstruction and the
    /// non-SSE error-tree DP).
    pub fn unnormalised(&self) -> &[f64] {
        self.transform.unnormalised()
    }

    /// The underlying transform of the expected frequencies.
    pub fn transform(&self) -> &HaarTransform {
        &self.transform
    }

    /// The indices of the `b` coefficients with the largest absolute expected
    /// normalised value (ties broken towards smaller indices for
    /// determinism).
    pub fn top_indices(&self, b: usize) -> Vec<usize> {
        top_indices_by_magnitude(self.normalised(), b)
    }
}

/// Indices of the `b` largest-magnitude entries of `values`, in ascending
/// index order, deterministic under ties.
///
/// The order `|value|` descending, then index ascending, is a strict total
/// order, so a linear-time selection of the `b` first indices followed by a
/// sort of only those `b` yields exactly what a full sort would.
pub fn top_indices_by_magnitude(values: &[f64], b: usize) -> Vec<usize> {
    if b == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    if b < idx.len() {
        idx.select_nth_unstable_by(b - 1, |&a, &bi| {
            values[bi]
                .abs()
                .partial_cmp(&values[a].abs())
                .expect("finite coefficients")
                .then(a.cmp(&bi))
        });
        idx.truncate(b);
        idx.sort_unstable();
    }
    idx
}

/// Builds the expected-SSE-optimal `b`-term wavelet synopsis of `relation`
/// (Theorem 7): the `b` largest expected normalised coefficients, retained at
/// their expected (unnormalised) values.
pub fn build_sse_wavelet(relation: &ProbabilisticRelation, b: usize) -> Result<WaveletSynopsis> {
    build_sse_wavelet_from_means(&relation.expected_frequencies(), b)
}

/// [`build_sse_wavelet`] from the expected frequencies alone: Theorem 7
/// reads nothing else of the relation, so a caller that keeps `E[g_i]`
/// incrementally never materialises one.
pub fn build_sse_wavelet_from_means(means: &[f64], b: usize) -> Result<WaveletSynopsis> {
    let transform = HaarTransform::forward(means);
    let unnorm = transform.unnormalised();
    let retained = top_indices_by_magnitude(transform.normalised(), b)
        .into_iter()
        .map(|index| RetainedCoefficient {
            index,
            value: unnorm[index],
        })
        .collect();
    WaveletSynopsis::new(means.len(), retained)
}

/// The exact expected SSE of an arbitrary wavelet synopsis over the relation,
/// evaluated in data space: `E_W[Σ_i (g_i − ĝ_i)²] = Σ_i (E[g_i²] − 2 ĝ_i
/// E[g_i] + ĝ_i²)`, which only needs per-item moments and therefore holds for
/// every uncertainty model.
pub fn expected_sse(relation: &ProbabilisticRelation, synopsis: &WaveletSynopsis) -> f64 {
    let moments = item_moments(relation);
    let estimates = synopsis.reconstruct();
    moments
        .iter()
        .zip(&estimates)
        .map(|(m, &g_hat)| m.second_moment - 2.0 * g_hat * m.mean + g_hat * g_hat)
        .sum()
}

/// The retained-energy error percentage used in Figure 4 of the paper: the
/// squared expected normalised coefficients *not* captured by `indices`, as a
/// percentage of the total `Σ_i μ_{c_i}²`.
pub fn selection_error_percentage(normalised_mu: &[f64], indices: &[usize]) -> f64 {
    let total: f64 = normalised_mu.iter().map(|c| c * c).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let kept: f64 = indices
        .iter()
        .map(|&i| normalised_mu[i] * normalised_mu[i])
        .sum();
    (100.0 * (total - kept) / total).clamp(0.0, 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::generator::{mystiq_like, test_workloads, MystiqLikeConfig};
    use pds_core::model::ValuePdfModel;

    #[test]
    fn expected_coefficients_are_the_transform_of_expected_frequencies() {
        for w in test_workloads(32, 2) {
            let coeffs = ExpectedCoefficients::of(&w.relation);
            let manual = HaarTransform::forward(&w.relation.expected_frequencies());
            assert_eq!(coeffs.normalised(), manual.normalised());
            assert_eq!(coeffs.unnormalised(), manual.unnormalised());
        }
    }

    #[test]
    fn top_indices_selects_largest_magnitudes() {
        let values = [0.5, -3.0, 2.0, 0.0, -2.5];
        assert_eq!(top_indices_by_magnitude(&values, 2), vec![1, 4]);
        assert_eq!(top_indices_by_magnitude(&values, 0), Vec::<usize>::new());
        assert_eq!(top_indices_by_magnitude(&values, 10).len(), 5);
    }

    #[test]
    fn selection_equals_the_full_sort_under_ties_and_zeros() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let full_sort = |values: &[f64], b: usize| {
            let mut idx: Vec<usize> = (0..values.len()).collect();
            idx.sort_by(|&a, &bi| {
                values[bi]
                    .abs()
                    .partial_cmp(&values[a].abs())
                    .unwrap()
                    .then(a.cmp(&bi))
            });
            idx.truncate(b.min(values.len()));
            idx.sort_unstable();
            idx
        };
        let mut rng = StdRng::seed_from_u64(29);
        for case in 0..10_000 {
            let len = rng.gen_range(0..40usize);
            // Few distinct magnitudes of both signs, plus zeros: ties
            // everywhere, so the index tie-break decides most selections.
            let values: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => -(rng.gen_range(1..4u32) as f64),
                    2 => rng.gen_range(1..4u32) as f64,
                    _ => rng.gen::<f64>() - 0.5,
                })
                .collect();
            let b = rng.gen_range(0..len + 3);
            assert_eq!(
                top_indices_by_magnitude(&values, b),
                full_sort(&values, b),
                "case {case}: b={b} values={values:?}"
            );
        }
    }

    #[test]
    fn greedy_selection_is_sse_optimal_among_expected_value_synopses() {
        // For every subset of the same size built from expected coefficient
        // values, the greedy top-|μ| selection has the smallest expected SSE.
        let rel: ProbabilisticRelation = mystiq_like(MystiqLikeConfig {
            n: 8,
            avg_tuples_per_item: 2.0,
            skew: 0.7,
            seed: 4,
        })
        .into();
        let coeffs = ExpectedCoefficients::of(&rel);
        let unnorm = coeffs.unnormalised();
        let b = 3;
        let greedy = build_sse_wavelet(&rel, b).unwrap();
        let greedy_sse = expected_sse(&rel, &greedy);
        // Enumerate all 3-subsets of the 8 coefficient indices.
        for i in 0..8 {
            for j in (i + 1)..8 {
                for k in (j + 1)..8 {
                    let syn = WaveletSynopsis::new(
                        8,
                        vec![i, j, k]
                            .into_iter()
                            .map(|index| RetainedCoefficient {
                                index,
                                value: unnorm[index],
                            })
                            .collect(),
                    )
                    .unwrap();
                    assert!(
                        expected_sse(&rel, &syn) >= greedy_sse - 1e-9,
                        "subset {{{i},{j},{k}}} beats the greedy selection"
                    );
                }
            }
        }
    }

    #[test]
    fn retaining_all_coefficients_leaves_only_the_intrinsic_variance() {
        // With every coefficient kept the reconstruction equals E[g], so the
        // expected SSE is exactly Σ Var[g_i] — the irreducible error of any
        // fixed synopsis.
        let rel: ProbabilisticRelation = mystiq_like(MystiqLikeConfig {
            n: 16,
            avg_tuples_per_item: 2.0,
            skew: 0.7,
            seed: 9,
        })
        .into();
        let syn = build_sse_wavelet(&rel, 16).unwrap();
        let total_var: f64 = item_moments(&rel).iter().map(|m| m.variance).sum();
        assert!((expected_sse(&rel, &syn) - total_var).abs() < 1e-9);
    }

    #[test]
    fn deterministic_data_reduces_to_classic_wavelet_thresholding() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let rel: ProbabilisticRelation = ValuePdfModel::deterministic(&data).into();
        let syn = build_sse_wavelet(&rel, 8).unwrap();
        // Retaining everything reconstructs the data exactly: zero SSE.
        assert!(expected_sse(&rel, &syn) < 1e-18);
        // Retaining B terms: SSE equals the energy of the dropped normalised
        // coefficients (Parseval).
        let t = HaarTransform::forward(&data);
        for b in 0..8 {
            let syn = build_sse_wavelet(&rel, b).unwrap();
            let kept = syn.indices();
            let dropped_energy: f64 = (0..8)
                .filter(|i| !kept.contains(i))
                .map(|i| t.normalised()[i] * t.normalised()[i])
                .sum();
            assert!(
                (expected_sse(&rel, &syn) - dropped_energy).abs() < 1e-9,
                "b={b}"
            );
        }
    }

    #[test]
    fn error_percentage_is_monotone_in_the_budget() {
        let rel: ProbabilisticRelation = mystiq_like(MystiqLikeConfig {
            n: 64,
            avg_tuples_per_item: 3.0,
            skew: 0.9,
            seed: 12,
        })
        .into();
        let coeffs = ExpectedCoefficients::of(&rel);
        let mut prev = 100.0;
        for b in 0..=64 {
            let pct = selection_error_percentage(coeffs.normalised(), &coeffs.top_indices(b));
            assert!(pct <= prev + 1e-9);
            prev = pct;
        }
        assert!(prev.abs() < 1e-9, "keeping everything leaves zero error");
        assert_eq!(selection_error_percentage(coeffs.normalised(), &[]), 100.0);
    }

    #[test]
    fn expected_sse_decreases_with_budget_for_greedy_selection() {
        let rel: ProbabilisticRelation = mystiq_like(MystiqLikeConfig {
            n: 32,
            avg_tuples_per_item: 2.5,
            skew: 0.8,
            seed: 3,
        })
        .into();
        let mut prev = f64::INFINITY;
        for b in 0..=32 {
            let syn = build_sse_wavelet(&rel, b).unwrap();
            let sse = expected_sse(&rel, &syn);
            assert!(sse <= prev + 1e-9, "b={b}");
            prev = sse;
        }
    }
}
