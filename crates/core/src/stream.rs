//! Streaming-ingest records: one arriving probabilistic tuple in any of the
//! three uncertainty models.
//!
//! The synopsis-construction crates consume whole
//! [`ProbabilisticRelation`]s; a production ingest path instead sees tuples
//! *arrive one at a time*.  A [`StreamRecord`] is the unit of arrival:
//!
//! * [`StreamRecord::Basic`] — one basic-model tuple `(item, probability)`;
//! * [`StreamRecord::Alternatives`] — one tuple-pdf x-tuple with
//!   mutually-exclusive alternatives;
//! * [`StreamRecord::ValueDistribution`] — one item's explicit frequency pdf
//!   (value-pdf model).
//!
//! [`records_of`] decomposes an existing relation into its stream of records
//! (so any relation can be replayed into an ingest path), and
//! [`BasicStreamConfig`]/[`basic_stream`] generate an unbounded seeded
//! synthetic stream directly, without materialising a relation first —
//! the shape matches [`crate::generator::mystiq_like`] (Zipf-skewed item
//! popularity, beta-like match confidences).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::{PdsError, Result, PROB_TOLERANCE};
use crate::model::{ProbabilisticRelation, TupleAlternatives, ValuePdf};

/// One arriving probabilistic tuple, in any of the three uncertainty models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamRecord {
    /// A basic-model tuple: `item` is present with probability `prob`.
    Basic {
        /// The item the tuple contributes to.
        item: usize,
        /// Existence probability.
        prob: f64,
    },
    /// A tuple-pdf x-tuple: at most one of the `(item, probability)`
    /// alternatives materialises.
    Alternatives(Vec<(usize, f64)>),
    /// An explicit frequency pdf for one item (value-pdf model); remaining
    /// mass is implicit at frequency zero.
    ValueDistribution {
        /// The item the pdf describes.
        item: usize,
        /// `(frequency, probability)` entries.
        entries: Vec<(f64, f64)>,
    },
}

impl StreamRecord {
    /// Validates probabilities and returns the record's item span
    /// `(min_item, max_item)`.
    pub fn validate(&self) -> Result<(usize, usize)> {
        match self {
            StreamRecord::Basic { item, prob } => {
                if !(*prob > 0.0 && *prob <= 1.0 + PROB_TOLERANCE) {
                    return Err(PdsError::InvalidProbability {
                        context: format!("stream record for item {item}"),
                        value: *prob,
                    });
                }
                Ok((*item, *item))
            }
            StreamRecord::Alternatives(alts) => {
                // Delegate mass/probability validation to the model type.
                let t = TupleAlternatives::new(alts.iter().copied())?;
                let lo = t.alternatives().iter().map(|&(i, _)| i).min();
                let hi = t.alternatives().iter().map(|&(i, _)| i).max();
                match (lo, hi) {
                    (Some(lo), Some(hi)) => Ok((lo, hi)),
                    _ => Err(PdsError::InvalidParameter {
                        message: "an x-tuple record needs at least one alternative".into(),
                    }),
                }
            }
            StreamRecord::ValueDistribution { item, entries } => {
                ValuePdf::new(entries.iter().copied())?;
                Ok((*item, *item))
            }
        }
    }
}

/// Decomposes a relation into the stream of records that reproduces it: the
/// arrival order is item order (basic/value pdf) or tuple order (tuple pdf).
pub fn records_of(relation: &ProbabilisticRelation) -> Vec<StreamRecord> {
    match relation {
        ProbabilisticRelation::Basic(m) => m
            .tuples()
            .iter()
            .map(|t| StreamRecord::Basic {
                item: t.item,
                prob: t.prob,
            })
            .collect(),
        ProbabilisticRelation::TuplePdf(m) => m
            .tuples()
            .iter()
            .map(|t| StreamRecord::Alternatives(t.alternatives().to_vec()))
            .collect(),
        ProbabilisticRelation::ValuePdf(m) => m
            .items()
            .iter()
            .enumerate()
            .filter(|(_, pdf)| !pdf.entries().is_empty())
            .map(|(item, pdf)| StreamRecord::ValueDistribution {
                item,
                entries: pdf.entries().to_vec(),
            })
            .collect(),
    }
}

/// Parameters of the seeded basic-model record stream.
#[derive(Debug, Clone, Copy)]
pub struct BasicStreamConfig {
    /// Domain size (items are drawn from `[0, n)`).
    pub n: usize,
    /// Zipf skew of item popularity (0 = uniform).
    pub skew: f64,
    /// Random seed.
    pub seed: u64,
}

/// An unbounded seeded iterator of basic-model stream records; take as many
/// as the experiment needs.  Item popularity is Zipf-skewed with the heavy
/// items spread over the domain, probabilities cluster around moderate
/// confidence like the MystiQ-shaped generator.
pub fn basic_stream(config: BasicStreamConfig) -> impl Iterator<Item = StreamRecord> {
    let n = config.n.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Inverse-CDF Zipf sampling over ranks, then a fixed multiplicative shuffle
    // so the popular items are not clustered at the start of the domain.
    let cdf: Vec<f64> = {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(config.skew.max(0.0));
                acc
            })
            .collect();
        let total = *cdf.last().unwrap_or(&1.0);
        for v in &mut cdf {
            *v /= total;
        }
        cdf
    };
    std::iter::from_fn(move || {
        let u: f64 = rng.gen();
        let rank = match cdf.binary_search_by(|v| v.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(n - 1),
        };
        let item = ((rank + 1) * (2654435761 % n)) % n;
        let prob: f64 = (0.05 + 0.9 * rng.gen::<f64>() * rng.gen::<f64>()).clamp(0.01, 1.0);
        Some(StreamRecord::Basic { item, prob })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::test_workloads;

    #[test]
    fn records_of_preserves_mass_and_span() {
        for w in test_workloads(24, 3) {
            let records = records_of(&w.relation);
            assert_eq!(
                records.len(),
                match &w.relation {
                    ProbabilisticRelation::TuplePdf(m) => m.tuple_count(),
                    _ => records.len(),
                }
            );
            let mass: f64 = records
                .iter()
                .map(|r| match r {
                    StreamRecord::Basic { prob, .. } => *prob,
                    StreamRecord::Alternatives(alts) => alts.iter().map(|&(_, p)| p).sum(),
                    StreamRecord::ValueDistribution { entries, .. } => {
                        entries.iter().map(|&(v, p)| v * p).sum()
                    }
                })
                .sum();
            let expected: f64 = w.relation.expected_frequencies().iter().sum();
            assert!((mass - expected).abs() < 1e-9, "{}", w.name);
            for r in &records {
                let (lo, hi) = r.validate().unwrap();
                assert!(lo <= hi && hi < 24);
            }
        }
    }

    #[test]
    fn invalid_records_are_rejected() {
        assert!(StreamRecord::Basic { item: 0, prob: 1.5 }
            .validate()
            .is_err());
        assert!(StreamRecord::Basic { item: 0, prob: 0.0 }
            .validate()
            .is_err());
        assert!(StreamRecord::Alternatives(vec![]).validate().is_err());
        assert!(
            StreamRecord::Alternatives(vec![(0, 0.7), (1, 0.7)]) // mass > 1
                .validate()
                .is_err()
        );
        assert!(StreamRecord::ValueDistribution {
            item: 2,
            entries: vec![(-1.0, 0.5)],
        }
        .validate()
        .is_err());
    }

    #[test]
    fn basic_stream_is_deterministic_and_valid() {
        let config = BasicStreamConfig {
            n: 64,
            skew: 0.8,
            seed: 11,
        };
        let a: Vec<StreamRecord> = basic_stream(config).take(500).collect();
        let b: Vec<StreamRecord> = basic_stream(config).take(500).collect();
        assert_eq!(a, b);
        for r in &a {
            let (lo, hi) = r.validate().unwrap();
            assert!(lo == hi && hi < 64);
        }
        // Skew shows: some item receives several records.
        let mut counts = vec![0usize; 64];
        for r in &a {
            if let StreamRecord::Basic { item, .. } = r {
                counts[*item] += 1;
            }
        }
        assert!(counts.iter().any(|&c| c > 10));
    }
}
