//! The frequency value domain `V` (Section 2.1 of the paper).
//!
//! Several of the histogram and wavelet algorithms search over the finite set
//! `V` of frequency values that any item can take with non-zero probability
//! (`|V| ≤ m`).  [`ValueDomain`] maintains that set sorted and deduplicated
//! and provides the index arithmetic used by the prefix-sum tables of the
//! SAE/SARE/MAE/MARE bucket-cost oracles.

use serde::{Deserialize, Serialize};

use crate::model::{ProbabilisticRelation, ValuePdfModel};

/// The sorted set of distinct frequency values appearing in a relation
/// (always containing zero, the implicit "absent" frequency).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueDomain {
    values: Vec<f64>,
}

impl ValueDomain {
    /// Builds the value domain from per-item frequency pdfs.
    pub fn from_value_pdfs(pdfs: &ValuePdfModel) -> Self {
        let mut values: Vec<f64> = vec![0.0];
        for pdf in pdfs.items() {
            for &(v, p) in pdf.entries() {
                if p > 0.0 {
                    values.push(v);
                }
            }
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite frequencies"));
        values.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        ValueDomain { values }
    }

    /// Builds the value domain of any probabilistic relation (via its induced
    /// value pdfs).
    pub fn from_relation(relation: &ProbabilisticRelation) -> Self {
        Self::from_value_pdfs(&relation.induced_value_pdfs())
    }

    /// The sorted distinct values `v_1 < v_2 < ... < v_{|V|}`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `|V|`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty (never true after construction — zero is
    /// always present).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at index `j` (0-based).
    pub fn value(&self, j: usize) -> f64 {
        self.values[j]
    }

    /// Index of the given value, if it belongs to the domain.
    fn index_of(&self, value: f64) -> Option<usize> {
        self.values
            .binary_search_by(|v| v.partial_cmp(&value).expect("finite frequencies"))
            .ok()
            .or_else(|| self.values.iter().position(|&v| (v - value).abs() < 1e-12))
    }

    /// Dense per-item probability rows: `rows[i][j] = Pr[g_i = v_j]`.
    ///
    /// Every row sums to one (the implicit zero mass is materialised).  This
    /// is the `O(n · |V|)` table underlying the SAE/SARE/MAE/MARE oracles.
    pub fn dense_probabilities(&self, pdfs: &ValuePdfModel) -> Vec<Vec<f64>> {
        pdfs.items()
            .iter()
            .map(|pdf| {
                let mut row = vec![0.0; self.values.len()];
                let full = pdf.with_explicit_zero();
                for &(v, p) in full.entries() {
                    let j = self
                        .index_of(v)
                        .expect("pdf value must belong to the value domain");
                    row[j] += p;
                }
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BasicModel, ValuePdf};

    #[test]
    fn domain_of_paper_example_is_0_1_2() {
        let rel: ProbabilisticRelation =
            BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)])
                .unwrap()
                .into();
        let dom = ValueDomain::from_relation(&rel);
        assert_eq!(dom.values(), &[0.0, 1.0, 2.0]);
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn index_arithmetic() {
        let dom = ValueDomain::from_value_pdfs(&ValuePdfModel::new(vec![
            ValuePdf::new([(3.0, 0.25), (1.0, 0.25)]).unwrap(),
            ValuePdf::new([(2.0, 0.5), (1.0, 0.5)]).unwrap(),
        ]));
        assert_eq!(dom.values(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(dom.index_of(2.0), Some(2));
        assert_eq!(dom.index_of(2.5), None);
    }

    #[test]
    fn dense_probabilities_rows_sum_to_one() {
        let pdfs = ValuePdfModel::new(vec![
            ValuePdf::new([(1.0, 0.5)]).unwrap(),
            ValuePdf::new([(1.0, 1.0 / 3.0), (2.0, 0.25)]).unwrap(),
            ValuePdf::zero(),
        ]);
        let dom = ValueDomain::from_value_pdfs(&pdfs);
        let dense = dom.dense_probabilities(&pdfs);
        assert_eq!(dense.len(), 3);
        for row in &dense {
            assert_eq!(row.len(), dom.len());
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
        assert!((dense[1][dom.index_of(2.0).unwrap()] - 0.25).abs() < 1e-12);
        assert!((dense[2][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_is_always_present() {
        let pdfs = ValuePdfModel::new(vec![ValuePdf::new([(5.0, 0.5), (7.0, 0.5)]).unwrap()]);
        assert_eq!(ValueDomain::from_value_pdfs(&pdfs).values()[0], 0.0);
        let empty = ValueDomain::from_value_pdfs(&ValuePdfModel::new(vec![ValuePdf::zero()]));
        assert_eq!(empty.values(), &[0.0]);
        assert!(!empty.is_empty());
    }
}
