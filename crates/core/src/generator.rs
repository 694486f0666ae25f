//! Synthetic workload generators mirroring the data sets of the paper's
//! experimental evaluation (Section 5).
//!
//! The paper uses two data sets that are not redistributable:
//!
//! * the MystiQ movie-link data — ~127,000 basic-model tuples over ~27,700
//!   distinct items, where each item's tuples describe uncertain matches
//!   between a movie database and an e-commerce inventory;
//! * an uncertain TPC-H `lineitem-partkey` relation produced by the MayBMS
//!   generator, interpreted as tuple-pdf tuples with uniform probabilities
//!   over each tuple's alternatives.
//!
//! [`mystiq_like`] and [`tpch_like`] generate data with the same shape
//! (heavy-tailed per-item duplication, uniform-alternative x-tuples) and the
//! same scale parameters (each config's `Default`).  Additional generators
//! produce value-pdf inputs and deterministic Zipf data used by unit tests,
//! examples and ablation benchmarks.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{BasicModel, ProbabilisticRelation, TuplePdfModel, ValuePdf, ValuePdfModel};

/// Parameters of the MystiQ-like basic-model generator.
#[derive(Debug, Clone, Copy)]
pub struct MystiqLikeConfig {
    /// Domain size (number of distinct items).
    pub n: usize,
    /// Average number of uncertain tuples (candidate matches) per item.
    pub avg_tuples_per_item: f64,
    /// Zipf-like skew of the per-item tuple counts (0 = uniform, larger =
    /// heavier tail).
    pub skew: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for MystiqLikeConfig {
    fn default() -> Self {
        // Defaults scaled to the paper: m ≈ 127k tuples over 27.7k items
        // gives ~4.6 tuples/item on average.
        MystiqLikeConfig {
            n: 27_700,
            avg_tuples_per_item: 4.6,
            skew: 0.8,
            seed: 42,
        }
    }
}

/// Generates a basic-model relation shaped like the MystiQ movie-link data:
/// every item has a heavy-tailed number of candidate-match tuples, each
/// present with an independent match probability.
pub fn mystiq_like(config: MystiqLikeConfig) -> BasicModel {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n.max(1);
    let mut tuples = Vec::new();
    // Per-item tuple counts follow a truncated power law so that a few items
    // have many candidate matches while most have a handful, as in record
    // linkage outputs.
    let zipf_weights: Vec<f64> = (1..=n)
        .map(|r| 1.0 / (r as f64).powf(config.skew))
        .collect();
    let mean_weight: f64 = zipf_weights.iter().sum::<f64>() / n as f64;
    for item in 0..n {
        // Shuffle which rank each item gets so the heavy items are spread over
        // the domain rather than clustered at the start.
        let rank = rng.gen_range(0..n);
        let scaled = config.avg_tuples_per_item * zipf_weights[rank] / mean_weight;
        let count = sample_poisson(&mut rng, scaled.max(0.05)).min(64);
        for _ in 0..count {
            // Match probabilities cluster around moderate confidence.
            let prob: f64 = sample_beta_like(&mut rng, 2.0, 3.0);
            tuples.push((item, prob.clamp(0.01, 1.0)));
        }
    }
    BasicModel::from_pairs(n, tuples).expect("generated probabilities are valid")
}

/// Parameters of the TPC-H/MayBMS-like tuple-pdf generator.
#[derive(Debug, Clone, Copy)]
pub struct TpchLikeConfig {
    /// Domain size (number of distinct part keys).
    pub n: usize,
    /// Number of uncertain tuples (line items).
    pub tuples: usize,
    /// Maximum number of alternatives per tuple (each tuple draws between one
    /// and this many, uniform probability over the chosen alternatives).
    pub max_alternatives: usize,
    /// Locality of the alternatives: each tuple's alternatives are drawn from
    /// a window of this width around a random centre, mimicking the
    /// correlated key ranges of the MayBMS generator.  `0` means alternatives
    /// are spread over the whole domain.
    pub locality_window: usize,
    /// Zipf skew of the tuple centres over the domain.
    pub skew: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for TpchLikeConfig {
    fn default() -> Self {
        TpchLikeConfig {
            n: 10_000,
            tuples: 60_000,
            max_alternatives: 4,
            locality_window: 32,
            skew: 0.5,
            seed: 7,
        }
    }
}

/// Generates a tuple-pdf relation shaped like the MayBMS uncertain TPC-H
/// `lineitem-partkey` relation: each uncertain line item has a handful of
/// alternative part keys, all equally likely.
pub fn tpch_like(config: TpchLikeConfig) -> TuplePdfModel {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n.max(1);
    let zipf = ZipfSampler::new(n, config.skew);
    let mut tuples = Vec::with_capacity(config.tuples);
    for _ in 0..config.tuples {
        let k = rng.gen_range(1..=config.max_alternatives.max(1));
        let centre = zipf.sample(&mut rng);
        let mut alternatives = Vec::with_capacity(k);
        let mut used = std::collections::BTreeSet::new();
        for _ in 0..k {
            let item = if config.locality_window == 0 {
                rng.gen_range(0..n)
            } else {
                let w = config.locality_window as i64;
                let off = rng.gen_range(-w..=w);
                ((centre as i64 + off).rem_euclid(n as i64)) as usize
            };
            if used.insert(item) {
                alternatives.push(item);
            }
        }
        let p = 1.0 / alternatives.len() as f64;
        tuples.push(alternatives.into_iter().map(|i| (i, p)).collect::<Vec<_>>());
    }
    TuplePdfModel::from_alternatives(n, tuples).expect("generated probabilities are valid")
}

/// Parameters of the value-pdf generator.
#[derive(Debug, Clone, Copy)]
pub struct ValuePdfConfig {
    /// Domain size.
    pub n: usize,
    /// Maximum number of explicit `(frequency, probability)` entries per item.
    pub max_entries_per_item: usize,
    /// Largest frequency value generated.
    pub max_frequency: f64,
    /// Zipf skew of the per-item expected frequencies.
    pub skew: f64,
    /// Probability mass left implicit (assigned to frequency zero) on average.
    pub zero_mass: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for ValuePdfConfig {
    fn default() -> Self {
        ValuePdfConfig {
            n: 10_000,
            max_entries_per_item: 4,
            max_frequency: 16.0,
            skew: 1.0,
            zero_mass: 0.2,
            seed: 11,
        }
    }
}

/// Generates a value-pdf relation: sensor-style readings where each item's
/// frequency concentrates around a Zipf-decaying level with a few support
/// points.
pub fn zipf_value_pdf(config: ValuePdfConfig) -> ValuePdfModel {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n.max(1);
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        let rank = (i + 1) as f64;
        let level = (config.max_frequency / rank.powf(config.skew)).max(0.5);
        let entries = rng.gen_range(1..=config.max_entries_per_item.max(1));
        let zero = (config.zero_mass * rng.gen::<f64>() * 2.0).min(0.95);
        let mut remaining = 1.0 - zero;
        let mut pairs = Vec::with_capacity(entries);
        for e in 0..entries {
            let p = if e + 1 == entries {
                remaining
            } else {
                let share = remaining * rng.gen_range(0.2..0.8);
                remaining -= share;
                share
            };
            // Frequencies jitter around the item's level; rounded to a small
            // grid so that |V| stays comparable to the integer-count models.
            let freq = (level * rng.gen_range(0.5..1.5) * 2.0).round() / 2.0;
            pairs.push((freq.max(0.0), p));
        }
        items.push(ValuePdf::new(pairs).expect("generated pdf is valid"));
    }
    ValuePdfModel::new(items)
}

/// Deterministic Zipf-distributed frequencies (useful for testing the
/// deterministic code paths and the wavelet transform on certain data).
pub fn deterministic_zipf(n: usize, max_frequency: f64, skew: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut freqs: Vec<f64> = (0..n)
        .map(|i| (max_frequency / ((i + 1) as f64).powf(skew)).round())
        .collect();
    // Random permutation so buckets are not trivially prefix-shaped.
    for i in (1..freqs.len()).rev() {
        let j = rng.gen_range(0..=i);
        freqs.swap(i, j);
    }
    freqs
}

/// A small named workload bundle used by examples, integration tests and the
/// benchmark harness.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable workload name.
    pub name: String,
    /// The generated relation.
    pub relation: ProbabilisticRelation,
}

/// Standard workloads at a reduced scale suitable for tests (small `n`).
pub fn test_workloads(n: usize, seed: u64) -> Vec<Workload> {
    vec![
        Workload {
            name: format!("mystiq-like(n={n})"),
            relation: mystiq_like(MystiqLikeConfig {
                n,
                avg_tuples_per_item: 3.0,
                skew: 0.8,
                seed,
            })
            .into(),
        },
        Workload {
            name: format!("tpch-like(n={n})"),
            relation: tpch_like(TpchLikeConfig {
                n,
                tuples: n * 3,
                max_alternatives: 3,
                locality_window: 8,
                skew: 0.5,
                seed,
            })
            .into(),
        },
        Workload {
            name: format!("zipf-value-pdf(n={n})"),
            relation: zipf_value_pdf(ValuePdfConfig {
                n,
                max_entries_per_item: 3,
                max_frequency: 8.0,
                skew: 1.0,
                zero_mass: 0.3,
                seed,
            })
            .into(),
        },
    ]
}

fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    // Knuth's algorithm; lambda values here are small (< 100).
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k;
        }
    }
}

fn sample_beta_like<R: Rng + ?Sized>(rng: &mut R, alpha: f64, beta: f64) -> f64 {
    // Approximate Beta(alpha, beta) sampling via the ratio of Gamma-like
    // sums of exponentials; adequate for workload shaping.
    let a = sample_gamma_like(rng, alpha);
    let b = sample_gamma_like(rng, beta);
    if a + b == 0.0 {
        0.5
    } else {
        a / (a + b)
    }
}

fn sample_gamma_like<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    let whole = shape.floor() as usize;
    let frac = shape - whole as f64;
    let mut total = 0.0;
    for _ in 0..whole {
        total += -(rng.gen::<f64>().max(1e-12)).ln();
    }
    if frac > 0.0 {
        total += -(rng.gen::<f64>().max(1e-12)).ln() * frac;
    }
    total
}

/// Zipf-distributed index sampler with a precomputed cumulative distribution,
/// so drawing a sample is a binary search rather than a linear scan.
struct ZipfSampler {
    n: usize,
    skew: f64,
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, skew: f64) -> Self {
        let mut cdf = Vec::new();
        if skew > 0.0 {
            cdf.reserve(n);
            let mut acc = 0.0;
            for r in 1..=n {
                acc += 1.0 / (r as f64).powf(skew);
                cdf.push(acc);
            }
            let total = *cdf.last().unwrap_or(&1.0);
            for v in &mut cdf {
                *v /= total;
            }
        }
        ZipfSampler { n, skew, cdf }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.skew <= 0.0 || self.cdf.is_empty() {
            return rng.gen_range(0..self.n);
        }
        let u: f64 = rng.gen();
        let rank = match self.cdf.binary_search_by(|v| v.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(self.n - 1),
        };
        // Spread ranks over the domain deterministically so the heavy items
        // are not clustered at the start.
        ((rank + 1) * (2654435761 % self.n.max(1))) % self.n
    }
}

impl Distribution<f64> for ValuePdf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_with(rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mystiq_like_has_expected_scale() {
        let config = MystiqLikeConfig {
            n: 500,
            avg_tuples_per_item: 4.0,
            skew: 0.8,
            seed: 1,
        };
        let data = mystiq_like(config);
        assert_eq!(data.n(), 500);
        // Average tuples per item within a factor of two of the target.
        let avg = data.m() as f64 / 500.0;
        assert!(avg > 1.0 && avg < 10.0, "avg tuples/item {avg}");
        for t in data.tuples() {
            assert!(t.prob > 0.0 && t.prob <= 1.0);
            assert!(t.item < 500);
        }
    }

    #[test]
    fn mystiq_like_is_deterministic_per_seed() {
        let c = MystiqLikeConfig {
            n: 200,
            avg_tuples_per_item: 2.0,
            skew: 0.5,
            seed: 99,
        };
        assert_eq!(mystiq_like(c), mystiq_like(c));
        let other = MystiqLikeConfig { seed: 100, ..c };
        assert_ne!(mystiq_like(c), mystiq_like(other));
    }

    #[test]
    fn tpch_like_tuples_are_uniform_and_local() {
        let config = TpchLikeConfig {
            n: 1000,
            tuples: 2000,
            max_alternatives: 4,
            locality_window: 16,
            skew: 0.5,
            seed: 3,
        };
        let data = tpch_like(config);
        assert_eq!(data.tuple_count(), 2000);
        for t in data.tuples() {
            let k = t.len();
            assert!((1..=4).contains(&k));
            for &(item, p) in t.alternatives() {
                assert!(item < 1000);
                assert!((p - 1.0 / k as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zipf_value_pdf_masses_are_valid() {
        let data = zipf_value_pdf(ValuePdfConfig {
            n: 300,
            max_entries_per_item: 4,
            max_frequency: 10.0,
            skew: 1.0,
            zero_mass: 0.3,
            seed: 5,
        });
        assert_eq!(data.n(), 300);
        for pdf in data.items() {
            assert!(pdf.explicit_mass() <= 1.0 + 1e-9);
            for &(v, p) in pdf.entries() {
                assert!(v >= 0.0);
                assert!(p > 0.0 && p <= 1.0);
            }
        }
        // Expected frequencies decay overall (first decile mean > last decile mean).
        let freqs = data.expected_frequencies();
        let head: f64 = freqs[..30].iter().sum::<f64>() / 30.0;
        let tail: f64 = freqs[270..].iter().sum::<f64>() / 30.0;
        assert!(head > tail);
    }

    #[test]
    fn deterministic_zipf_contains_expected_values() {
        let f = deterministic_zipf(64, 100.0, 1.0, 9);
        assert_eq!(f.len(), 64);
        assert!(f.contains(&100.0));
        assert!(f.iter().all(|&x| (0.0..=100.0).contains(&x)));
        // Deterministic per seed.
        assert_eq!(f, deterministic_zipf(64, 100.0, 1.0, 9));
    }

    #[test]
    fn test_workloads_cover_all_models() {
        let ws = test_workloads(64, 13);
        assert_eq!(ws.len(), 3);
        let names: Vec<&str> = ws.iter().map(|w| w.relation.model_name()).collect();
        assert!(names.contains(&"basic"));
        assert!(names.contains(&"tuple-pdf"));
        assert!(names.contains(&"value-pdf"));
        for w in &ws {
            assert_eq!(w.relation.n(), 64);
            assert!(w.relation.m() > 0);
        }
    }
}
