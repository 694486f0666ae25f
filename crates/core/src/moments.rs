//! Per-item frequency moments used throughout the synopsis algorithms.
//!
//! For every model the mean, variance and second moment of each item's
//! frequency `g_i` admit closed forms computable in `O(m)` total time
//! (Section 3.1 of the paper):
//!
//! * value pdf model — directly from the per-item pdf;
//! * basic / tuple pdf model — `g_i` is a sum of independent Bernoulli
//!   contributions, so `E[g_i] = Σ_t Pr[t_j = i]`,
//!   `Var[g_i] = Σ_t Pr[t_j = i](1 − Pr[t_j = i])` and
//!   `E[g_i²] = Var[g_i] + E[g_i]²`.

use serde::{Deserialize, Serialize};

use crate::model::ProbabilisticRelation;

/// First and second moments of a single item's frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ItemMoments {
    /// `E[g_i]`.
    pub mean: f64,
    /// `Var[g_i]`.
    pub variance: f64,
    /// `E[g_i^2]`.
    pub second_moment: f64,
}

impl ItemMoments {
    /// Builds the moments from a mean and a variance.
    pub fn from_mean_variance(mean: f64, variance: f64) -> Self {
        ItemMoments {
            mean,
            variance,
            second_moment: variance + mean * mean,
        }
    }
}

/// Computes the moments of every item's frequency in `O(m)` time using the
/// model-specific closed forms (no possible-world enumeration, no pdf
/// convolution).
pub fn item_moments(relation: &ProbabilisticRelation) -> Vec<ItemMoments> {
    let n = relation.n();
    match relation {
        ProbabilisticRelation::Basic(m) => {
            let mut mean = vec![0.0; n];
            let mut var = vec![0.0; n];
            for t in m.tuples() {
                mean[t.item] += t.prob;
                var[t.item] += t.prob * (1.0 - t.prob);
            }
            mean.into_iter()
                .zip(var)
                .map(|(mu, v)| ItemMoments::from_mean_variance(mu, v))
                .collect()
        }
        ProbabilisticRelation::TuplePdf(m) => {
            let mut mean = vec![0.0; n];
            let mut var = vec![0.0; n];
            for t in m.tuples() {
                for &(item, p) in t.alternatives() {
                    mean[item] += p;
                    var[item] += p * (1.0 - p);
                }
            }
            mean.into_iter()
                .zip(var)
                .map(|(mu, v)| ItemMoments::from_mean_variance(mu, v))
                .collect()
        }
        ProbabilisticRelation::ValuePdf(m) => m
            .items()
            .iter()
            .map(|pdf| ItemMoments {
                mean: pdf.mean(),
                variance: pdf.variance(),
                second_moment: pdf.second_moment(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BasicModel, TuplePdfModel, ValuePdf, ValuePdfModel};
    use crate::worlds::PossibleWorlds;

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
                3,
                [
                    (0, ValuePdf::new([(1.0, 0.5)]).unwrap()),
                    (1, ValuePdf::new([(1.0, 1.0 / 3.0), (2.0, 0.25)]).unwrap()),
                    (2, ValuePdf::new([(1.5, 0.5)]).unwrap()),
                ],
            )
            .unwrap()
            .into(),
        ]
    }

    #[test]
    fn closed_forms_match_brute_force_enumeration() {
        for rel in relations() {
            let moments = item_moments(&rel);
            let worlds = PossibleWorlds::enumerate(&rel).unwrap();
            for i in 0..rel.n() {
                let mean = worlds.expectation(|w| w[i]);
                let ex2 = worlds.expectation(|w| w[i] * w[i]);
                assert!(
                    (moments[i].mean - mean).abs() < 1e-12,
                    "{} item {i} mean",
                    rel.model_name()
                );
                assert!(
                    (moments[i].second_moment - ex2).abs() < 1e-12,
                    "{} item {i} second moment",
                    rel.model_name()
                );
                assert!((moments[i].variance - (ex2 - mean * mean)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn closed_forms_match_induced_pdfs() {
        for rel in relations() {
            let moments = item_moments(&rel);
            let pdfs = rel.induced_value_pdfs();
            for (i, m) in moments.iter().enumerate() {
                assert!((m.mean - pdfs.item(i).mean()).abs() < 1e-12);
                assert!((m.second_moment - pdfs.item(i).second_moment()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tuple_pdf_example_matches_paper_section_3_1() {
        // The paper computes Σ E[g_i²] = 252/144 for the tuple pdf example.
        let rel = &relations()[1];
        let total: f64 = item_moments(rel).iter().map(|m| m.second_moment).sum();
        assert!((total - 252.0 / 144.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_data_has_zero_variance() {
        let rel: ProbabilisticRelation = ValuePdfModel::deterministic(&[2.0, 0.0, 3.0]).into();
        let moments = item_moments(&rel);
        for m in &moments {
            assert_eq!(m.variance, 0.0);
        }
        let energy: f64 = moments.iter().map(|m| m.second_moment).sum();
        assert!((energy - 13.0).abs() < 1e-12);
    }
}
