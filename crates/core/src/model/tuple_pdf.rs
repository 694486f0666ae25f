//! The *tuple pdf* model (Definition 2 of the paper).
//!
//! Each input tuple carries a small pdf over mutually-exclusive alternative
//! items: `<(t_{j1}, p_{j1}), ..., (t_{jl}, p_{jl})>` with the probabilities
//! summing to at most one (any remainder is the probability that the tuple
//! contributes no item at all).  Different tuples are independent, but the
//! alternatives *within* a tuple are exclusive, which introduces negative
//! correlations between item frequencies.  This is the model used by Trio and
//! by the MayBMS TPC-H generator in the paper's experiments.

use serde::{Deserialize, Serialize};

use crate::error::{PdsError, Result, PROB_TOLERANCE};
use crate::model::basic::{BasicModel, BasicTuple};
use crate::model::value_pdf::{ValuePdf, ValuePdfModel};

/// One uncertain tuple: a set of mutually-exclusive `(item, probability)`
/// alternatives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TupleAlternatives {
    alternatives: Vec<(usize, f64)>,
}

/// The normal form's alternatives, without copying them.
impl From<TupleAlternatives> for Vec<(usize, f64)> {
    fn from(tuple: TupleAlternatives) -> Self {
        tuple.alternatives
    }
}

impl TupleAlternatives {
    /// Builds a tuple from its alternatives.  Alternatives for the same item
    /// are merged.  Returns an error for invalid probabilities or a total
    /// mass above one.
    pub fn new(alternatives: impl IntoIterator<Item = (usize, f64)>) -> Result<Self> {
        let mut alts: Vec<(usize, f64)> = Vec::new();
        for (item, prob) in alternatives {
            if !(0.0..=1.0 + PROB_TOLERANCE).contains(&prob) || !prob.is_finite() {
                return Err(PdsError::InvalidProbability {
                    context: format!("tuple alternative for item {item}"),
                    value: prob,
                });
            }
            if prob > 0.0 {
                if let Some(existing) = alts.iter_mut().find(|(i, _)| *i == item) {
                    existing.1 += prob;
                } else {
                    alts.push((item, prob.min(1.0)));
                }
            }
        }
        let total: f64 = alts.iter().map(|&(_, p)| p).sum();
        if total > 1.0 + PROB_TOLERANCE {
            return Err(PdsError::InvalidProbability {
                context: "tuple alternatives total mass".into(),
                value: total,
            });
        }
        alts.sort_by_key(|&(item, _)| item);
        Ok(TupleAlternatives { alternatives: alts })
    }

    /// The `(item, probability)` alternatives, sorted by item.
    pub fn alternatives(&self) -> &[(usize, f64)] {
        &self.alternatives
    }

    /// Probability that this tuple realises item `item`.
    pub fn probability_of(&self, item: usize) -> f64 {
        self.alternatives
            .iter()
            .find(|&&(i, _)| i == item)
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }

    /// Probability that this tuple realises no item at all.
    pub fn null_probability(&self) -> f64 {
        (1.0 - self.alternatives.iter().map(|&(_, p)| p).sum::<f64>()).max(0.0)
    }

    /// Number of explicit alternatives.
    pub fn len(&self) -> usize {
        self.alternatives.len()
    }

    /// Whether the tuple has no explicit alternatives.
    pub fn is_empty(&self) -> bool {
        self.alternatives.is_empty()
    }
}

/// A probabilistic relation in the tuple pdf model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuplePdfModel {
    n: usize,
    tuples: Vec<TupleAlternatives>,
}

impl TuplePdfModel {
    /// Builds a tuple-pdf relation over the domain `[0, n)`.
    pub fn new(n: usize, tuples: Vec<TupleAlternatives>) -> Result<Self> {
        for (idx, t) in tuples.iter().enumerate() {
            for &(item, _) in t.alternatives() {
                if item >= n {
                    return Err(PdsError::ItemOutOfDomain { item, domain: n });
                }
            }
            let _ = idx;
        }
        Ok(TuplePdfModel { n, tuples })
    }

    /// Convenience constructor: each inner vector is one tuple's alternatives.
    pub fn from_alternatives(
        n: usize,
        tuples: impl IntoIterator<Item = Vec<(usize, f64)>>,
    ) -> Result<Self> {
        let tuples = tuples
            .into_iter()
            .map(TupleAlternatives::new)
            .collect::<Result<Vec<_>>>()?;
        Self::new(n, tuples)
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of `(item, probability)` pairs in the input (the paper's
    /// parameter `m`).
    pub fn m(&self) -> usize {
        self.tuples.iter().map(|t| t.len()).sum()
    }

    /// Number of uncertain tuples.
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// The uncertain tuples.
    pub fn tuples(&self) -> &[TupleAlternatives] {
        &self.tuples
    }

    /// Expected frequency `E[g_i]` for every item.
    pub fn expected_frequencies(&self) -> Vec<f64> {
        let mut freqs = vec![0.0; self.n];
        for t in &self.tuples {
            for &(item, prob) in t.alternatives() {
                freqs[item] += prob;
            }
        }
        freqs
    }

    /// The *induced value pdf* of every item (Section 2.1 of the paper): the
    /// exact marginal distribution of each item's frequency.
    ///
    /// Note that, unlike in the genuine value pdf model, these marginals are
    /// **not** independent (alternatives of the same tuple are exclusive);
    /// the induced pdfs are nevertheless sufficient for every per-item-linear
    /// error objective (SSRE, SAE, SARE, MAE, MARE) and for per-item moments.
    pub fn induced_value_pdfs(&self) -> ValuePdfModel {
        let mut pdfs = vec![ValuePdf::zero(); self.n];
        for t in &self.tuples {
            for &(item, prob) in t.alternatives() {
                pdfs[item] = pdfs[item].convolve_bernoulli(prob);
            }
        }
        ValuePdfModel::new(pdfs)
    }

    /// Groups, for every item, the probabilities with which each input tuple
    /// realises that item (`item -> [(tuple index, probability)]`).
    pub fn tuple_probabilities_by_item(&self) -> Vec<Vec<(usize, f64)>> {
        let mut by_item = vec![Vec::new(); self.n];
        for (j, t) in self.tuples.iter().enumerate() {
            for &(item, prob) in t.alternatives() {
                by_item[item].push((j, prob));
            }
        }
        by_item
    }

    /// Interprets a basic-model relation as a tuple-pdf relation with a single
    /// alternative per tuple (the basic model is a special case of this model).
    pub fn from_basic(basic: &BasicModel) -> Self {
        let tuples = basic
            .tuples()
            .iter()
            .map(|&BasicTuple { item, prob }| TupleAlternatives {
                alternatives: vec![(item, prob)],
            })
            .collect();
        TuplePdfModel {
            n: basic.n(),
            tuples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tuple pdf input of Example 1 in the paper:
    /// `<(1, 1/2), (2, 1/3)>, <(2, 1/4), (3, 1/2)>`, re-indexed to `{0,1,2}`.
    pub fn paper_example() -> TuplePdfModel {
        TuplePdfModel::from_alternatives(
            3,
            [vec![(0, 0.5), (1, 1.0 / 3.0)], vec![(1, 0.25), (2, 0.5)]],
        )
        .unwrap()
    }

    #[test]
    fn expected_frequencies_match_paper_example() {
        let model = paper_example();
        let freqs = model.expected_frequencies();
        assert!((freqs[0] - 0.5).abs() < 1e-12);
        assert!((freqs[1] - 7.0 / 12.0).abs() < 1e-12);
        assert!((freqs[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn induced_pdfs_match_hand_computation() {
        let model = paper_example();
        let pdfs = model.induced_value_pdfs();
        let item1 = pdfs.item(1);
        // g_1 = Bernoulli(1/3) + Bernoulli(1/4) marginally.
        assert!((item1.probability_of(0.0) - (2.0 / 3.0) * 0.75).abs() < 1e-12);
        assert!((item1.probability_of(2.0) - (1.0 / 3.0) * 0.25).abs() < 1e-12);
        assert!((item1.mean() - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn range_and_null_probabilities() {
        let model = paper_example();
        let t0 = &model.tuples()[0];
        assert!((t0.null_probability() - (1.0 - 0.5 - 1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(t0.probability_of(2), 0.0);
    }

    #[test]
    fn duplicate_alternatives_merge_and_invalid_masses_reject() {
        let t = TupleAlternatives::new([(0, 0.2), (0, 0.3)]).unwrap();
        assert!((t.probability_of(0) - 0.5).abs() < 1e-12);
        assert!(TupleAlternatives::new([(0, 0.7), (1, 0.6)]).is_err());
        assert!(TupleAlternatives::new([(0, -0.1)]).is_err());
        assert!(TuplePdfModel::from_alternatives(2, [vec![(5, 0.5)]]).is_err());
    }

    #[test]
    fn from_basic_preserves_marginals() {
        let basic =
            BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)]).unwrap();
        let tuple = TuplePdfModel::from_basic(&basic);
        assert_eq!(tuple.tuple_count(), 4);
        assert_eq!(tuple.m(), 4);
        let a = basic.induced_value_pdfs();
        let b = tuple.induced_value_pdfs();
        for i in 0..3 {
            for v in a.item(i).support() {
                assert!((a.item(i).probability_of(v) - b.item(i).probability_of(v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn by_item_index_is_consistent() {
        let model = paper_example();
        let by_item = model.tuple_probabilities_by_item();
        assert_eq!(by_item[0], vec![(0, 0.5)]);
        assert_eq!(by_item[1], vec![(0, 1.0 / 3.0), (1, 0.25)]);
        assert_eq!(by_item[2], vec![(1, 0.5)]);
    }
}
