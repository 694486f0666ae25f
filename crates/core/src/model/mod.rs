//! Probabilistic data models (Section 2.1 of the paper).
//!
//! Three models are provided, mirroring Definitions 1–3:
//!
//! * [`BasicModel`] — independent `(item, probability)` tuples;
//! * [`TuplePdfModel`] — independent tuples, each with mutually-exclusive
//!   alternatives (Trio-style x-tuples);
//! * [`ValuePdfModel`] — an independent frequency pdf per item.
//!
//! [`ProbabilisticRelation`] wraps the three behind a single interface used by
//! the synopsis construction algorithms.

pub mod basic;
pub mod tuple_pdf;
pub mod value_pdf;

pub use basic::{BasicModel, BasicTuple};
pub use tuple_pdf::{TupleAlternatives, TuplePdfModel};
pub use value_pdf::{ValuePdf, ValuePdfModel};

use serde::{Deserialize, Serialize};

/// A probabilistic relation in any of the three uncertainty models.
///
/// All synopsis algorithms take a `ProbabilisticRelation`; model-specific fast
/// paths (e.g. the tuple-pdf SSE prefix arrays) downcast through the enum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProbabilisticRelation {
    /// Basic model (Definition 1).
    Basic(BasicModel),
    /// Tuple pdf model (Definition 2).
    TuplePdf(TuplePdfModel),
    /// Value pdf model (Definition 3).
    ValuePdf(ValuePdfModel),
}

impl ProbabilisticRelation {
    /// Domain size `n`.
    pub fn n(&self) -> usize {
        match self {
            ProbabilisticRelation::Basic(m) => m.n(),
            ProbabilisticRelation::TuplePdf(m) => m.n(),
            ProbabilisticRelation::ValuePdf(m) => m.n(),
        }
    }

    /// Number of `(item/value, probability)` pairs in the input (the paper's
    /// `m`).
    pub fn m(&self) -> usize {
        match self {
            ProbabilisticRelation::Basic(m) => m.m(),
            ProbabilisticRelation::TuplePdf(m) => m.m(),
            ProbabilisticRelation::ValuePdf(m) => m.m(),
        }
    }

    /// Expected frequency `E[g_i]` of every item.
    pub fn expected_frequencies(&self) -> Vec<f64> {
        match self {
            ProbabilisticRelation::Basic(m) => m.expected_frequencies(),
            ProbabilisticRelation::TuplePdf(m) => m.expected_frequencies(),
            ProbabilisticRelation::ValuePdf(m) => m.expected_frequencies(),
        }
    }

    /// The exact per-item marginal frequency pdfs (the *induced value pdf* of
    /// Section 2.1).  For a relation already in the value pdf model this is a
    /// clone of the per-item pdfs.
    pub fn induced_value_pdfs(&self) -> ValuePdfModel {
        match self {
            ProbabilisticRelation::Basic(m) => m.induced_value_pdfs(),
            ProbabilisticRelation::TuplePdf(m) => m.induced_value_pdfs(),
            ProbabilisticRelation::ValuePdf(m) => m.clone(),
        }
    }

    /// Whether the per-item frequencies are mutually independent.  True for
    /// the basic and value pdf models; false in general for the tuple pdf
    /// model (alternatives of a tuple are exclusive).
    pub fn items_independent(&self) -> bool {
        match self {
            ProbabilisticRelation::Basic(_) | ProbabilisticRelation::ValuePdf(_) => true,
            ProbabilisticRelation::TuplePdf(m) => m.tuples().iter().all(|t| t.len() <= 1),
        }
    }

    /// Short human-readable name of the model, used in benchmark reports.
    pub fn model_name(&self) -> &'static str {
        match self {
            ProbabilisticRelation::Basic(_) => "basic",
            ProbabilisticRelation::TuplePdf(_) => "tuple-pdf",
            ProbabilisticRelation::ValuePdf(_) => "value-pdf",
        }
    }
}

impl From<BasicModel> for ProbabilisticRelation {
    fn from(m: BasicModel) -> Self {
        ProbabilisticRelation::Basic(m)
    }
}

impl From<TuplePdfModel> for ProbabilisticRelation {
    fn from(m: TuplePdfModel) -> Self {
        ProbabilisticRelation::TuplePdf(m)
    }
}

impl From<ValuePdfModel> for ProbabilisticRelation {
    fn from(m: ValuePdfModel) -> Self {
        ProbabilisticRelation::ValuePdf(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic_example() -> BasicModel {
        BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)]).unwrap()
    }

    fn value_example() -> ValuePdfModel {
        ValuePdfModel::from_sparse(
            3,
            [
                (0, ValuePdf::new([(1.0, 0.5)]).unwrap()),
                (1, ValuePdf::new([(1.0, 1.0 / 3.0), (2.0, 0.25)]).unwrap()),
                (2, ValuePdf::new([(1.0, 0.5)]).unwrap()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn wrapper_delegates_sizes_and_expectations() {
        let rel: ProbabilisticRelation = basic_example().into();
        assert_eq!(rel.n(), 3);
        assert_eq!(rel.m(), 4);
        assert_eq!(rel.model_name(), "basic");
        assert!((rel.expected_frequencies()[1] - 7.0 / 12.0).abs() < 1e-12);

        let rel: ProbabilisticRelation = value_example().into();
        assert_eq!(rel.n(), 3);
        assert_eq!(rel.m(), 4);
        assert_eq!(rel.model_name(), "value-pdf");
        assert!((rel.expected_frequencies()[1] - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn induced_pdfs_agree_with_model_specific_paths() {
        let basic = basic_example();
        let rel: ProbabilisticRelation = basic.clone().into();
        let a = basic.induced_value_pdfs();
        let b = rel.induced_value_pdfs();
        for i in 0..3 {
            assert_eq!(a.item(i), b.item(i));
        }
    }

    #[test]
    fn independence_flag() {
        let rel: ProbabilisticRelation = basic_example().into();
        assert!(rel.items_independent());
        let rel: ProbabilisticRelation = value_example().into();
        assert!(rel.items_independent());
        let tuple = TuplePdfModel::from_alternatives(
            3,
            [vec![(0, 0.5), (1, 1.0 / 3.0)], vec![(1, 0.25), (2, 0.5)]],
        )
        .unwrap();
        let rel: ProbabilisticRelation = tuple.into();
        assert!(!rel.items_independent());
    }

    #[test]
    fn serde_round_trip() {
        let rel: ProbabilisticRelation = value_example().into();
        let json = serde_json::to_string(&rel).unwrap();
        let back: ProbabilisticRelation = serde_json::from_str(&json).unwrap();
        assert_eq!(rel, back);
    }
}
