//! The mutable ingest buffer of one partition.
//!
//! A [`Memtable`] keeps three things, all maintained at insert:
//!
//! * the buffered **records** in arrival order, item ids localised to the
//!   partition — what a WAL replay must reproduce, and what the seals that
//!   need the full uncertainty model read;
//! * two per-item **moment sums**: `E[g_i]` (which also answers live range
//!   queries) and `Var[g_i]` with every record folded as independent of
//!   the others — a basic record adds `p(1−p)`, an x-tuple `p(1−p)` per
//!   item of its normal form (an item's exclusive alternatives merged into
//!   one Bernoulli), a value pdf `Σv²p − (Σvp)²`.  That is exactly the
//!   fold [`Memtable::to_relation`] performs once a value pdf is present;
//! * **counts** of the value-pdf and x-tuple records, which name the model
//!   the buffer needs.
//!
//! **One seal `match`** on (synopsis kind, buffer content) turns a frozen
//! memtable into a segment (`Memtable::build_segment`):
//!
//! | kind | buffer | built from |
//! |---|---|---|
//! | `Wavelet` | any | `E[g_i]` alone (Theorem 7 reads nothing else) |
//! | `Histogram(Sse)` | a value-pdf record, or no x-tuple | the moment sums, through `sse_histogram_from_moments`: Eq. (5) over independent items, the DP over one run per zero run or non-zero item |
//! | everything else | x-tuples without a value pdf (Eq. (5) needs their covariance arrays); the non-SSE metrics | [`Memtable::to_relation`] and [`Segment::build`] |
//!
//! The first two rows read what the relation would have yielded: bitwise
//! for basic-only buffers, and up to rounding otherwise (a convolved pdf
//! sums the same moments in another order).  A seal thus costs what its
//! synopsis reads, not one pdf convolution per buffered record.

use pds_core::error::{PdsError, Result};
use pds_core::metrics::ErrorMetric;
use pds_core::model::{
    BasicModel, ProbabilisticRelation, TupleAlternatives, TuplePdfModel, ValuePdf, ValuePdfModel,
};
use pds_core::moments::ItemMoments;
use pds_core::stream::StreamRecord;
use pds_histogram::oracle::sse::SseObjective;
use pds_histogram::sse_histogram_from_moments;
use pds_wavelet::build_sse_wavelet_from_means;

use crate::segment::{Segment, SegmentSynopsis, SynopsisKind};

/// The in-memory write buffer of one item-range partition: arriving records
/// are appended (with their global item ids localised to the partition) and
/// the per-item expected frequencies and variances are maintained
/// incrementally, so live un-sealed data answers range queries without
/// scanning the buffer and most seals never revisit it (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct Memtable {
    /// First global item of the partition.
    start: usize,
    /// Buffered records, item ids localised to `[0, width)`.
    records: Vec<StreamRecord>,
    /// Exact expected frequency per local item (expectation is linear, so
    /// every record kind contributes a closed-form increment).
    expected: Vec<f64>,
    /// Frequency variance per local item, every contribution independent.
    variance: Vec<f64>,
    /// Number of buffered value-pdf records.
    value_records: usize,
    /// Number of buffered x-tuple records.
    tuple_records: usize,
}

impl Memtable {
    /// Creates an empty memtable for the partition covering the global item
    /// range `[start, start + width)`.
    pub fn new(start: usize, width: usize) -> Self {
        Memtable {
            start,
            records: Vec::new(),
            expected: vec![0.0; width],
            variance: vec![0.0; width],
            value_records: 0,
            tuple_records: 0,
        }
    }

    /// First global item of the partition.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of items in the partition.
    pub fn width(&self) -> usize {
        self.expected.len()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The exact expected frequency of every item in the partition (local
    /// indexing).
    pub fn expected_frequencies(&self) -> &[f64] {
        &self.expected
    }

    /// The per-item moments the SSE seal reads (local indexing): the
    /// expected frequency and the variance sum of the module docs, with
    /// `E[g_i²] = Var[g_i] + E[g_i]²`.
    pub fn moments(&self) -> Vec<ItemMoments> {
        self.expected
            .iter()
            .zip(&self.variance)
            .map(|(&mean, &variance)| ItemMoments::from_mean_variance(mean, variance))
            .collect()
    }

    /// The buffered records in arrival order (item ids localised to the
    /// partition) — what a WAL replay must reproduce exactly, which the
    /// durability suites assert against.
    pub fn records(&self) -> &[StreamRecord] {
        &self.records
    }

    /// Appends a record.  The record is validated and every item it touches
    /// must fall inside this partition's range (the store splits
    /// cross-partition x-tuples before routing).  An x-tuple is buffered and
    /// folded in [`TupleAlternatives`]' normal form — alternatives of one
    /// item merged, zero masses dropped, sorted by item — so an item named
    /// twice is one Bernoulli of the summed mass, as its alternatives are
    /// mutually exclusive.
    pub fn insert(&mut self, mut record: StreamRecord) -> Result<()> {
        let (lo, hi) = match &mut record {
            StreamRecord::Alternatives(alts) => {
                *alts = TupleAlternatives::new(std::mem::take(alts))?.into();
                match (alts.first(), alts.last()) {
                    (Some(&(lo, _)), Some(&(hi, _))) => (lo, hi),
                    _ => {
                        return Err(PdsError::InvalidParameter {
                            message: "an x-tuple record needs at least one alternative".into(),
                        })
                    }
                }
            }
            _ => record.validate()?,
        };
        let end = self.start + self.width();
        if lo < self.start || hi >= end {
            return Err(PdsError::ItemOutOfDomain {
                item: if lo < self.start { lo } else { hi },
                domain: end,
            });
        }
        let local = match record {
            StreamRecord::Basic { item, prob } => StreamRecord::Basic {
                item: item - self.start,
                prob,
            },
            StreamRecord::Alternatives(mut alts) => {
                alts.iter_mut().for_each(|(item, _)| *item -= self.start);
                StreamRecord::Alternatives(alts)
            }
            StreamRecord::ValueDistribution { item, entries } => StreamRecord::ValueDistribution {
                item: item - self.start,
                entries,
            },
        };
        self.push(local);
        Ok(())
    }

    /// Folds a validated, localised record into the sums and counts, then
    /// appends it.
    fn push(&mut self, record: StreamRecord) {
        match &record {
            StreamRecord::Basic { item, prob } => self.add_bernoulli(*item, *prob),
            StreamRecord::Alternatives(alts) => {
                self.tuple_records += 1;
                for &(item, prob) in alts {
                    self.add_bernoulli(item, prob);
                }
            }
            StreamRecord::ValueDistribution { item, entries } => {
                self.value_records += 1;
                let mean = entries.iter().map(|&(v, p)| v * p).sum::<f64>();
                let second = entries.iter().map(|&(v, p)| v * v * p).sum::<f64>();
                self.expected[*item] += mean;
                self.variance[*item] += (second - mean * mean).max(0.0);
            }
        }
        self.records.push(record);
    }

    fn add_bernoulli(&mut self, item: usize, prob: f64) {
        self.expected[item] += prob;
        self.variance[item] += prob * (1.0 - prob);
    }

    /// Exact expected total frequency over the **global** inclusive item
    /// range `[lo, hi]`, counting only this partition's overlap.
    pub fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        let end = self.start + self.width();
        if hi < self.start || lo >= end {
            return 0.0;
        }
        let from = lo.max(self.start) - self.start;
        let to = hi.min(end - 1) - self.start;
        self.expected[from..=to].iter().sum()
    }

    /// Materialises the buffered records as a probabilistic relation over
    /// the partition's local domain, picking the tightest of the three
    /// uncertainty models that can represent the buffer:
    ///
    /// * only basic records → basic model;
    /// * basic and/or x-tuple records → tuple pdf model;
    /// * any value-pdf record → value pdf model, folding every contribution
    ///   into per-item pdfs by convolution (an x-tuple's items are folded as
    ///   independent Bernoullis, each of its merged mass — the same
    ///   within-tuple boundary approximation as cross-partition splitting,
    ///   documented at the crate level).
    pub fn to_relation(&self) -> Result<ProbabilisticRelation> {
        let n = self.width();
        if self.value_records > 0 {
            let mut pdfs = vec![ValuePdf::zero(); n];
            for record in &self.records {
                match record {
                    StreamRecord::Basic { item, prob } => {
                        pdfs[*item] = pdfs[*item].convolve_bernoulli(*prob);
                    }
                    StreamRecord::Alternatives(alts) => {
                        for &(item, prob) in alts {
                            pdfs[item] = pdfs[item].convolve_bernoulli(prob);
                        }
                    }
                    StreamRecord::ValueDistribution { item, entries } => {
                        pdfs[*item] = pdfs[*item].convolve(&ValuePdf::new(entries.clone())?);
                    }
                }
            }
            Ok(ValuePdfModel::new(pdfs).into())
        } else if self.tuple_records > 0 {
            let tuples = self.records.iter().map(|record| match record {
                StreamRecord::Basic { item, prob } => vec![(*item, *prob)],
                StreamRecord::Alternatives(alts) => alts.clone(),
                StreamRecord::ValueDistribution { .. } => unreachable!("handled above"),
            });
            Ok(TuplePdfModel::from_alternatives(n, tuples)?.into())
        } else {
            let pairs = self.records.iter().map(|record| match record {
                StreamRecord::Basic { item, prob } => (*item, *prob),
                _ => unreachable!("handled above"),
            });
            Ok(BasicModel::from_pairs(n, pairs)?.into())
        }
    }

    /// Seals the buffer into a segment of `kind` with `budget`
    /// buckets/coefficients — the one seal `match` of the module docs.
    pub(crate) fn build_segment(&self, kind: SynopsisKind, budget: usize) -> Result<Segment> {
        let records = self.len() as u64;
        let synopsis = match kind {
            SynopsisKind::Wavelet => {
                SegmentSynopsis::Wavelet(build_sse_wavelet_from_means(&self.expected, budget)?)
            }
            SynopsisKind::Histogram(ErrorMetric::Sse)
                if self.value_records > 0 || self.tuple_records == 0 =>
            {
                SegmentSynopsis::Histogram(sse_histogram_from_moments(
                    &self.moments(),
                    SseObjective::PaperEq5,
                    budget,
                )?)
            }
            _ => return Segment::build(self.start, records, &self.to_relation()?, kind, budget),
        };
        Segment::new(self.start, records, synopsis)
    }

    /// Empties the buffer (called after the records were sealed into a
    /// segment), keeping the partition range.
    pub fn clear(&mut self) {
        self.records.clear();
        self.expected.iter_mut().for_each(|v| *v = 0.0);
        self.variance.iter_mut().for_each(|v| *v = 0.0);
        self.value_records = 0;
        self.tuple_records = 0;
    }

    /// Prepends an `older` buffer of the same partition (its records come
    /// first, as they arrived first) — the undo path when a frozen memtable
    /// could not be sealed and its records must rejoin the live buffer.
    /// This buffer's records are refolded after the older ones, so every
    /// sum is bitwise what inserting the whole sequence in order (a WAL
    /// replay) produces.
    ///
    /// # Panics
    ///
    /// Panics when the two memtables cover different partition ranges.
    pub fn absorb_front(&mut self, older: Memtable) {
        assert_eq!(
            (self.start, self.width()),
            (older.start, older.width()),
            "absorb_front requires matching partition ranges"
        );
        let newer = std::mem::replace(self, older);
        for record in newer.records {
            self.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::moments::item_moments;
    use pds_histogram::oracle::sse::SseOracle;
    use pds_histogram::{evaluate::expected_cost, optimal_histogram, Histogram};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn expected_frequencies_track_all_record_kinds() {
        let mut m = Memtable::new(10, 4);
        m.insert(StreamRecord::Basic {
            item: 10,
            prob: 0.5,
        })
        .unwrap();
        m.insert(StreamRecord::Alternatives(vec![(11, 0.25), (13, 0.75)]))
            .unwrap();
        m.insert(StreamRecord::ValueDistribution {
            item: 11,
            entries: vec![(2.0, 0.5), (4.0, 0.25)],
        })
        .unwrap();
        assert_eq!(m.len(), 3);
        let e = m.expected_frequencies();
        assert!((e[0] - 0.5).abs() < 1e-12);
        assert!((e[1] - (0.25 + 2.0)).abs() < 1e-12);
        assert!((e[3] - 0.75).abs() < 1e-12);
        // Global range sums clip to the partition.
        assert!((m.range_sum(0, 100) - 3.5).abs() < 1e-12);
        assert!((m.range_sum(11, 11) - 2.25).abs() < 1e-12);
        assert_eq!(m.range_sum(0, 9), 0.0);
        assert_eq!(m.range_sum(14, 20), 0.0);
    }

    #[test]
    fn out_of_range_and_invalid_records_are_rejected() {
        let mut m = Memtable::new(10, 4);
        assert!(m
            .insert(StreamRecord::Basic { item: 9, prob: 0.5 })
            .is_err());
        assert!(m
            .insert(StreamRecord::Basic {
                item: 14,
                prob: 0.5
            })
            .is_err());
        assert!(m
            .insert(StreamRecord::Basic {
                item: 10,
                prob: 1.5
            })
            .is_err());
        assert!(m
            .insert(StreamRecord::Alternatives(vec![(10, 0.2), (14, 0.2)]))
            .is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn relation_model_matches_buffer_contents() {
        // Basic only.
        let mut m = Memtable::new(0, 3);
        m.insert(StreamRecord::Basic { item: 0, prob: 0.5 })
            .unwrap();
        assert_eq!(m.to_relation().unwrap().model_name(), "basic");
        // Adding an x-tuple upgrades to tuple pdf.
        m.insert(StreamRecord::Alternatives(vec![(1, 0.5), (2, 0.5)]))
            .unwrap();
        let rel = m.to_relation().unwrap();
        assert_eq!(rel.model_name(), "tuple-pdf");
        assert!((rel.expected_frequencies()[1] - 0.5).abs() < 1e-12);
        // Adding a value pdf upgrades to value pdf and keeps expectations.
        m.insert(StreamRecord::ValueDistribution {
            item: 2,
            entries: vec![(3.0, 0.5)],
        })
        .unwrap();
        let rel = m.to_relation().unwrap();
        assert_eq!(rel.model_name(), "value-pdf");
        for (i, &e) in m.expected_frequencies().iter().enumerate() {
            assert!((rel.expected_frequencies()[i] - e).abs() < 1e-9, "item {i}");
        }
    }

    /// A seeded buffer of `records` records drawn from `kinds` (0 basic, 1
    /// x-tuple, 2 value pdf) over `width` items starting at global item 5.
    /// A mix with x-tuples also gets one naming an item twice, and a mix
    /// with value pdfs one repeating a value.
    fn seeded_buffer(seed: u64, kinds: &[u32], width: usize, records: usize) -> Memtable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Memtable::new(5, width);
        let item = |rng: &mut StdRng| 5 + rng.gen_range(0..width);
        for _ in 0..records {
            let record = match kinds[rng.gen_range(0..kinds.len())] {
                0 => StreamRecord::Basic {
                    item: item(&mut rng),
                    prob: if rng.gen_bool(0.1) {
                        1.0
                    } else {
                        rng.gen_range(0.01..1.0)
                    },
                },
                1 => {
                    let (a, b) = (item(&mut rng), item(&mut rng));
                    StreamRecord::Alternatives(vec![
                        (a, rng.gen_range(0.01..0.5)),
                        (b, rng.gen_range(0.01..0.5)),
                    ])
                }
                _ => StreamRecord::ValueDistribution {
                    item: item(&mut rng),
                    entries: vec![
                        (rng.gen_range(1..4u32) as f64, rng.gen_range(0.01..0.4)),
                        (
                            rng.gen_range(4..7u32) as f64 / 2.0,
                            rng.gen_range(0.01..0.4),
                        ),
                    ],
                },
            };
            m.insert(record).unwrap();
        }
        if kinds.contains(&1) {
            m.insert(StreamRecord::Alternatives(vec![(5, 0.25), (5, 0.375)]))
                .unwrap();
        }
        if kinds.contains(&2) {
            m.insert(StreamRecord::ValueDistribution {
                item: 5 + width - 1,
                entries: vec![(2.0, 0.25), (2.0, 0.125), (3.0, 0.25)],
            })
            .unwrap();
        }
        m
    }

    fn relation_path(m: &Memtable, kind: SynopsisKind, budget: usize) -> Segment {
        Segment::build(
            m.start(),
            m.len() as u64,
            &m.to_relation().unwrap(),
            kind,
            budget,
        )
        .unwrap()
    }

    fn histogram(segment: &Segment) -> &Histogram {
        match segment.synopsis() {
            SegmentSynopsis::Histogram(h) => h,
            SegmentSynopsis::Wavelet(_) => panic!("expected a histogram segment"),
        }
    }

    const SSE: SynopsisKind = SynopsisKind::Histogram(ErrorMetric::Sse);

    #[test]
    fn basic_only_seals_are_bitwise_the_relation_path() {
        for (seed, width) in [(1u64, 1usize), (2, 7), (3, 16), (4, 37)] {
            let m = seeded_buffer(seed, &[0], width, 6 * width);
            assert_eq!(m.to_relation().unwrap().model_name(), "basic");
            for kind in [SSE, SynopsisKind::Wavelet] {
                for budget in [1, 3, 8, width] {
                    let budget = budget.min(width);
                    let sealed = m.build_segment(kind, budget).unwrap();
                    assert_eq!(
                        sealed.to_binary().unwrap(),
                        relation_path(&m, kind, budget).to_binary().unwrap(),
                        "seed {seed} {kind:?} budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_buffer_moments_match_the_relation_moments() {
        for seed in 0..20u64 {
            let m = seeded_buffer(seed, &[0, 1, 2], 12, 60);
            let relation = m.to_relation().unwrap();
            assert_eq!(relation.model_name(), "value-pdf");
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
            for (i, (mine, theirs)) in m.moments().iter().zip(item_moments(&relation)).enumerate() {
                assert!(close(mine.mean, theirs.mean), "seed {seed} item {i}");
                assert!(
                    close(mine.variance, theirs.variance),
                    "seed {seed} item {i}"
                );
                assert!(
                    close(mine.second_moment, theirs.second_moment),
                    "seed {seed} item {i}"
                );
            }
        }
    }

    #[test]
    fn mixed_buffer_seals_match_the_relation_path_in_cost_and_boundaries() {
        for seed in 0..20u64 {
            let m = seeded_buffer(seed, &[0, 1, 2], 24, 80);
            let relation = m.to_relation().unwrap();
            for budget in [2, 5, 9] {
                let sealed = m.build_segment(SSE, budget).unwrap();
                let reference = relation_path(&m, SSE, budget);
                let (new, old) = (histogram(&sealed), histogram(&reference));
                let span = |h: &Histogram| -> Vec<(usize, usize)> {
                    h.buckets().iter().map(|b| (b.start, b.end)).collect()
                };
                assert_eq!(span(new), span(old), "seed {seed} budget {budget}");
                let new_cost = expected_cost(&relation, ErrorMetric::Sse, new);
                let old_cost = expected_cost(&relation, ErrorMetric::Sse, old);
                assert!(
                    (new_cost - old_cost).abs() <= 1e-9 * old_cost.abs(),
                    "seed {seed} budget {budget}: {new_cost} vs {old_cost}"
                );
            }
            // The non-SSE metrics are the relation path itself.
            let sae = SynopsisKind::Histogram(ErrorMetric::Sae);
            assert_eq!(
                m.build_segment(sae, 4).unwrap().to_binary().unwrap(),
                relation_path(&m, sae, 4).to_binary().unwrap()
            );
        }
    }

    #[test]
    fn banded_seals_are_bitwise_the_item_level_dp() {
        for seed in 0..10u64 {
            // Two copies of a mixed 40-item band in a 256-item partition:
            // zero runs before, between and after them.
            let band = seeded_buffer(seed, &[0, 1, 2], 40, 120);
            let mut m = Memtable::new(5, 256);
            for offset in [30, 170] {
                for record in band.records() {
                    m.push(match record.clone() {
                        StreamRecord::Basic { item, prob } => StreamRecord::Basic {
                            item: item + offset,
                            prob,
                        },
                        StreamRecord::Alternatives(alts) => StreamRecord::Alternatives(
                            alts.into_iter().map(|(i, p)| (i + offset, p)).collect(),
                        ),
                        StreamRecord::ValueDistribution { item, entries } => {
                            StreamRecord::ValueDistribution {
                                item: item + offset,
                                entries,
                            }
                        }
                    });
                }
            }
            let item_dp = SseOracle::from_moments(&m.moments(), SseObjective::PaperEq5);
            // Below the support's cuts, above them (padded), and one bucket
            // per item.
            for budget in [1, 4, 9, 32, 120, 256] {
                let synopsis =
                    SegmentSynopsis::Histogram(optimal_histogram(&item_dp, budget).unwrap());
                let reference = Segment::new(m.start(), m.len() as u64, synopsis).unwrap();
                assert_eq!(
                    m.build_segment(SSE, budget).unwrap().to_binary().unwrap(),
                    reference.to_binary().unwrap(),
                    "seed {seed} budget {budget}"
                );
            }
        }
    }

    #[test]
    fn tuple_buffers_without_value_pdfs_seal_through_the_relation_path() {
        for seed in 0..10u64 {
            let m = seeded_buffer(seed, &[0, 1], 16, 50);
            assert_eq!(m.to_relation().unwrap().model_name(), "tuple-pdf");
            for budget in [1, 4, 16] {
                assert_eq!(
                    m.build_segment(SSE, budget).unwrap().to_binary().unwrap(),
                    relation_path(&m, SSE, budget).to_binary().unwrap(),
                    "seed {seed} budget {budget}"
                );
            }
        }
    }

    /// Bit patterns of every moment, for bitwise comparisons.
    fn moment_bits(m: &Memtable) -> Vec<[u64; 3]> {
        m.moments()
            .iter()
            .map(|x| {
                [
                    x.mean.to_bits(),
                    x.variance.to_bits(),
                    x.second_moment.to_bits(),
                ]
            })
            .collect()
    }

    #[test]
    fn absorb_front_prepends_records_and_sums_expectations() {
        let mut older = Memtable::new(4, 4);
        older
            .insert(StreamRecord::Basic { item: 4, prob: 0.5 })
            .unwrap();
        let mut newer = Memtable::new(4, 4);
        newer
            .insert(StreamRecord::Basic {
                item: 5,
                prob: 0.25,
            })
            .unwrap();
        newer.absorb_front(older);
        assert_eq!(newer.len(), 2);
        // Older record first (localised item 0), newer second (item 1).
        assert_eq!(newer.records[0], StreamRecord::Basic { item: 0, prob: 0.5 });
        assert_eq!(
            newer.records[1],
            StreamRecord::Basic {
                item: 1,
                prob: 0.25
            }
        );
        assert!((newer.range_sum(4, 7) - 0.75).abs() < 1e-12);
        assert_eq!(newer.variance, [0.25, 0.1875, 0.0, 0.0]);

        // Mixed buffers: the absorbed sums and counts are bitwise those of
        // one memtable that took every record in order.
        let all = seeded_buffer(7, &[0, 1, 2], 8, 40);
        let (first, second) = all.records().split_at(17);
        let refill = |records: &[StreamRecord]| {
            let mut m = Memtable::new(all.start(), all.width());
            records.iter().for_each(|r| m.push(r.clone()));
            m
        };
        let mut absorbed = refill(second);
        absorbed.absorb_front(refill(first));
        assert_eq!(absorbed.records(), all.records());
        assert_eq!(moment_bits(&absorbed), moment_bits(&all));
        assert_eq!(
            (absorbed.value_records, absorbed.tuple_records),
            (all.value_records, all.tuple_records)
        );
    }

    #[test]
    fn an_x_tuple_naming_an_item_twice_folds_as_its_merged_twin() {
        // Alternatives of one x-tuple are exclusive, so `(1, 0.5) (1, 0.4)`
        // is the single Bernoulli `(1, 0.9)`: Var[g_1] = 0.09, E[g_1²] = 0.9.
        let pairs = [
            (vec![(6, 0.5), (6, 0.4)], vec![(6, 0.5 + 0.4)]),
            (
                vec![(8, 0.25), (5, 0.0), (6, 0.5), (8, 0.125)],
                vec![(6, 0.5), (8, 0.25 + 0.125)],
            ),
        ];
        for (repeated, merged) in pairs {
            let fill = |alts: &Vec<(usize, f64)>, with_value_pdf: bool| {
                let mut m = Memtable::new(5, 4);
                m.insert(StreamRecord::Basic { item: 6, prob: 0.5 })
                    .unwrap();
                m.insert(StreamRecord::Alternatives(alts.clone())).unwrap();
                if with_value_pdf {
                    m.insert(StreamRecord::ValueDistribution {
                        item: 7,
                        entries: vec![(2.0, 0.5)],
                    })
                    .unwrap();
                }
                m
            };
            for with_value_pdf in [false, true] {
                let (a, b) = (
                    fill(&repeated, with_value_pdf),
                    fill(&merged, with_value_pdf),
                );
                assert_eq!(a.records(), b.records());
                assert_eq!(moment_bits(&a), moment_bits(&b));
                assert_eq!(a.to_relation().unwrap(), b.to_relation().unwrap());
                for kind in [SSE, SynopsisKind::Histogram(ErrorMetric::Sae)] {
                    for budget in [1, 2, 4] {
                        assert_eq!(
                            a.build_segment(kind, budget).unwrap().to_binary().unwrap(),
                            b.build_segment(kind, budget).unwrap().to_binary().unwrap(),
                            "{kind:?} budget {budget}"
                        );
                    }
                }
            }
        }
        let mut m = Memtable::new(0, 2);
        m.insert(StreamRecord::Alternatives(vec![(1, 0.5), (1, 0.4)]))
            .unwrap();
        let g1 = m.moments()[1];
        assert!((g1.variance - 0.09).abs() < 1e-15, "{g1:?}");
        assert!((g1.second_moment - 0.9).abs() < 1e-15, "{g1:?}");
    }

    #[test]
    fn moments_match_possible_worlds_on_buffers_with_repeated_items() {
        // Small seeded buffers of basic records and x-tuples whose
        // alternatives often name one item twice; the reference enumerates
        // every possible world of the same records as a tuple-pdf relation.
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (start, width) = (3, 4);
            let mut m = Memtable::new(start, width);
            let mut tuples = Vec::new();
            for _ in 0..6 {
                let alts: Vec<(usize, f64)> = if rng.gen_bool(0.3) {
                    vec![(rng.gen_range(0..width), rng.gen_range(0.05..1.0))]
                } else {
                    (0..rng.gen_range(2..4))
                        .map(|_| (rng.gen_range(0..2), rng.gen_range(0.01..0.33)))
                        .collect()
                };
                let record = match alts[..] {
                    [(item, prob)] => StreamRecord::Basic {
                        item: start + item,
                        prob,
                    },
                    _ => StreamRecord::Alternatives(
                        alts.iter().map(|&(i, p)| (start + i, p)).collect(),
                    ),
                };
                m.insert(record).unwrap();
                tuples.push(alts);
            }
            let relation: ProbabilisticRelation = TuplePdfModel::from_alternatives(width, tuples)
                .unwrap()
                .into();
            let worlds = pds_core::worlds::PossibleWorlds::enumerate(&relation).unwrap();
            for (i, mine) in m.moments().iter().enumerate() {
                let mean = worlds.expectation(|w| w[i]);
                let variance = worlds.expectation(|w| (w[i] - mean) * (w[i] - mean));
                assert!((mine.mean - mean).abs() < 1e-12, "seed {seed} item {i}");
                assert!(
                    (mine.variance - variance).abs() < 1e-12,
                    "seed {seed} item {i}: {} vs {variance}",
                    mine.variance
                );
            }
        }
    }

    #[test]
    fn clear_resets_the_buffer_but_keeps_the_range() {
        let mut m = seeded_buffer(3, &[0, 1, 2], 2, 10);
        assert!(m.value_records > 0 && m.tuple_records > 0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.start(), 5);
        assert_eq!(m.width(), 2);
        assert_eq!(m.range_sum(0, 100), 0.0);
        assert_eq!(m.variance, [0.0, 0.0]);
        assert_eq!((m.value_records, m.tuple_records), (0, 0));
        assert_eq!(m.to_relation().unwrap().model_name(), "basic");
    }
}
