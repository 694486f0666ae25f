//! The *basic* uncertainty model (Definition 1 of the paper).
//!
//! The input is a sequence of `m` tuples `<t_j, p_j>`: item `t_j` (drawn from
//! the ordered domain `[0, n)`) appears in a possible world independently with
//! probability `p_j`.  Several tuples may refer to the same item, in which
//! case the item's frequency is the number of its tuples that materialise.

use serde::{Deserialize, Serialize};

use crate::error::{PdsError, Result, PROB_TOLERANCE};
use crate::model::value_pdf::{ValuePdf, ValuePdfModel};

/// A single uncertain tuple of the basic model: `item` exists with
/// probability `prob`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BasicTuple {
    /// The item of the ordered domain this tuple refers to.
    pub item: usize,
    /// The probability that the tuple is present in a possible world.
    pub prob: f64,
}

/// A probabilistic relation in the basic model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicModel {
    n: usize,
    tuples: Vec<BasicTuple>,
}

impl BasicModel {
    /// Builds a basic-model relation over the domain `[0, n)`.
    ///
    /// Returns an error if any tuple references an item outside the domain or
    /// carries an invalid probability.
    pub fn new(n: usize, tuples: Vec<BasicTuple>) -> Result<Self> {
        for (idx, t) in tuples.iter().enumerate() {
            if t.item >= n {
                return Err(PdsError::ItemOutOfDomain {
                    item: t.item,
                    domain: n,
                });
            }
            if !(0.0..=1.0 + PROB_TOLERANCE).contains(&t.prob) || !t.prob.is_finite() {
                return Err(PdsError::InvalidProbability {
                    context: format!("basic tuple {idx}"),
                    value: t.prob,
                });
            }
        }
        Ok(BasicModel { n, tuples })
    }

    /// Convenience constructor from `(item, probability)` pairs.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, f64)>) -> Result<Self> {
        Self::new(
            n,
            pairs
                .into_iter()
                .map(|(item, prob)| BasicTuple { item, prob })
                .collect(),
        )
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of uncertain tuples `m`.
    pub fn m(&self) -> usize {
        self.tuples.len()
    }

    /// The uncertain tuples.
    pub fn tuples(&self) -> &[BasicTuple] {
        &self.tuples
    }

    /// Expected frequency `E[g_i]` for every item: the sum of the presence
    /// probabilities of the tuples referring to it.
    pub fn expected_frequencies(&self) -> Vec<f64> {
        let mut freqs = vec![0.0; self.n];
        for t in &self.tuples {
            freqs[t.item] += t.prob;
        }
        freqs
    }

    /// The exact per-item frequency distribution (a Poisson-binomial pdf per
    /// item).  Tuples are independent, so the induced pdfs are independent as
    /// well and the result is an equivalent relation in the value pdf model.
    pub fn induced_value_pdfs(&self) -> ValuePdfModel {
        let mut pdfs = vec![ValuePdf::zero(); self.n];
        for t in &self.tuples {
            pdfs[t.item] = pdfs[t.item].convolve_bernoulli(t.prob);
        }
        ValuePdfModel::new(pdfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The basic-model input of Example 1 in the paper:
    /// `<1, 1/2>, <2, 1/3>, <2, 1/4>, <3, 1/2>` over domain {1, 2, 3},
    /// re-indexed here to {0, 1, 2}.
    pub fn paper_example() -> BasicModel {
        BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)]).unwrap()
    }

    #[test]
    fn expected_frequencies_match_paper_example() {
        let model = paper_example();
        let freqs = model.expected_frequencies();
        assert!((freqs[0] - 0.5).abs() < 1e-12);
        // E[g2] = 1/3 + 1/4 = 7/12 in the basic model example.
        assert!((freqs[1] - 7.0 / 12.0).abs() < 1e-12);
        assert!((freqs[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn induced_pdf_is_poisson_binomial() {
        let model = paper_example();
        let pdfs = model.induced_value_pdfs();
        let item1 = pdfs.item(1);
        // Pr[g=0] = (2/3)(3/4) = 1/2, Pr[g=1] = 1/3*3/4 + 2/3*1/4 = 5/12,
        // Pr[g=2] = 1/12.
        assert!((item1.probability_of(0.0) - 0.5).abs() < 1e-12);
        assert!((item1.probability_of(1.0) - 5.0 / 12.0).abs() < 1e-12);
        assert!((item1.probability_of(2.0) - 1.0 / 12.0).abs() < 1e-12);
        assert!((item1.mean() - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_out_of_domain_items_and_bad_probabilities() {
        assert!(BasicModel::from_pairs(2, [(2, 0.5)]).is_err());
        assert!(BasicModel::from_pairs(2, [(0, 1.5)]).is_err());
        assert!(BasicModel::from_pairs(2, [(0, -0.1)]).is_err());
        assert!(BasicModel::from_pairs(2, [(0, f64::NAN)]).is_err());
    }

    #[test]
    fn counts_are_consistent() {
        let model = paper_example();
        assert_eq!(model.n(), 3);
        assert_eq!(model.m(), 4);
        assert_eq!(model.tuples().len(), 4);
    }
}
