//! The *value pdf* model (Definition 3 of the paper) and the per-item
//! frequency distribution type shared by all models.
//!
//! In the value pdf model every item `i` of the ordered domain `[0, n)` comes
//! with a small discrete probability density function over its frequency
//! `g_i`: a list of `(frequency, probability)` pairs whose probabilities sum
//! to at most one.  Any missing probability mass is implicitly assigned to
//! frequency zero, which makes the model a strict generalisation of the basic
//! model.  Items are mutually independent.

use serde::{Deserialize, Serialize};

use crate::error::{PdsError, Result, PROB_TOLERANCE};

/// A discrete probability density function over the frequency of a single
/// item.
///
/// Entries are kept sorted by frequency value and deduplicated; the implicit
/// probability of frequency zero is *not* stored unless it was given
/// explicitly (use [`ValuePdf::probability_of`] at zero or
/// [`ValuePdf::with_explicit_zero`] to materialise it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ValuePdf {
    entries: Vec<(f64, f64)>,
}

impl ValuePdf {
    /// Builds a pdf from `(frequency, probability)` pairs.
    ///
    /// Pairs with the same frequency are merged.  Returns an error if any
    /// probability is outside `[0, 1]`, any frequency is negative or not
    /// finite, or the total mass exceeds one (beyond tolerance).
    pub fn new(pairs: impl IntoIterator<Item = (f64, f64)>) -> Result<Self> {
        let mut entries: Vec<(f64, f64)> = Vec::new();
        for (value, prob) in pairs {
            if !value.is_finite() || value < 0.0 {
                return Err(PdsError::InvalidFrequency {
                    context: "value pdf entry".into(),
                    value,
                });
            }
            if !(0.0..=1.0 + PROB_TOLERANCE).contains(&prob) || !prob.is_finite() {
                return Err(PdsError::InvalidProbability {
                    context: format!("value pdf entry for frequency {value}"),
                    value: prob,
                });
            }
            if prob > 0.0 {
                entries.push((value, prob.min(1.0)));
            }
        }
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite frequencies"));
        // Merge duplicate frequency values.
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(entries.len());
        for (value, prob) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == value => last.1 += prob,
                _ => merged.push((value, prob)),
            }
        }
        let total: f64 = merged.iter().map(|&(_, p)| p).sum();
        if total > 1.0 + PROB_TOLERANCE {
            return Err(PdsError::InvalidProbability {
                context: "value pdf total mass".into(),
                value: total,
            });
        }
        Ok(ValuePdf { entries: merged })
    }

    /// A pdf that is deterministically equal to `value` (probability one).
    pub fn deterministic(value: f64) -> Self {
        if value == 0.0 {
            return ValuePdf { entries: vec![] };
        }
        ValuePdf {
            entries: vec![(value, 1.0)],
        }
    }

    /// A pdf describing a certainly-absent item (frequency zero with
    /// probability one).
    pub fn zero() -> Self {
        ValuePdf { entries: vec![] }
    }

    /// The explicit `(frequency, probability)` entries, sorted by frequency.
    /// The implicit zero-frequency remainder is not included.
    pub fn entries(&self) -> &[(f64, f64)] {
        &self.entries
    }

    /// Total probability mass of the explicit entries.
    pub fn explicit_mass(&self) -> f64 {
        self.entries.iter().map(|&(_, p)| p).sum()
    }

    /// Probability that the frequency is zero, including the implicit
    /// remainder mass.
    fn zero_probability(&self) -> f64 {
        let explicit_zero: f64 = self
            .entries
            .iter()
            .filter(|&&(v, _)| v == 0.0)
            .map(|&(_, p)| p)
            .sum();
        let remainder = (1.0 - self.explicit_mass()).max(0.0);
        explicit_zero + remainder
    }

    /// Returns a copy whose entries explicitly include frequency zero with the
    /// full remainder mass, so that the entries sum to exactly one.
    pub fn with_explicit_zero(&self) -> Self {
        let zero = self.zero_probability();
        let mut entries: Vec<(f64, f64)> = Vec::with_capacity(self.entries.len() + 1);
        if zero > 0.0 {
            entries.push((0.0, zero));
        }
        for &(v, p) in &self.entries {
            if v != 0.0 {
                entries.push((v, p));
            }
        }
        ValuePdf { entries }
    }

    /// `Pr[g = value]`, including the implicit zero mass when `value == 0`.
    pub fn probability_of(&self, value: f64) -> f64 {
        if value == 0.0 {
            return self.zero_probability();
        }
        self.entries
            .iter()
            .find(|&&(v, _)| v == value)
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }

    /// `Pr[g <= value]`.
    pub fn cdf(&self, value: f64) -> f64 {
        let mut total = if value >= 0.0 {
            (1.0 - self.explicit_mass()).max(0.0)
        } else {
            0.0
        };
        for &(v, p) in &self.entries {
            if v <= value {
                total += p;
            } else {
                break;
            }
        }
        total.min(1.0)
    }

    /// `Pr[g > value]`.
    pub fn tail(&self, value: f64) -> f64 {
        (1.0 - self.cdf(value)).max(0.0)
    }

    /// Expected frequency `E[g]`.
    pub fn mean(&self) -> f64 {
        self.entries.iter().map(|&(v, p)| v * p).sum()
    }

    /// Second moment `E[g^2]`.
    pub fn second_moment(&self) -> f64 {
        self.entries.iter().map(|&(v, p)| v * v * p).sum()
    }

    /// Variance `Var[g] = E[g^2] - E[g]^2`.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        (self.second_moment() - mean * mean).max(0.0)
    }

    /// Expected value of an arbitrary point function of the frequency,
    /// `E[f(g)]`, evaluated over the full support including the implicit zero.
    pub fn expect<F: Fn(f64) -> f64>(&self, f: F) -> f64 {
        let mut total = self.zero_probability() * f(0.0);
        for &(v, p) in &self.entries {
            if v != 0.0 {
                total += p * f(v);
            }
        }
        total
    }

    /// Draws a frequency according to this pdf using the supplied uniform
    /// random number in `[0, 1)`.
    pub fn sample_with(&self, mut u: f64) -> f64 {
        for &(v, p) in &self.entries {
            if u < p {
                return v;
            }
            u -= p;
        }
        0.0
    }

    /// The set of frequency values this item can take with non-zero
    /// probability (always includes zero when any mass is implicit).
    pub fn support(&self) -> Vec<f64> {
        self.with_explicit_zero()
            .entries
            .iter()
            .map(|&(v, _)| v)
            .collect()
    }

    /// Convolution with another independent pdf: the distribution of the sum
    /// of the two frequencies.  Used to build induced value pdfs from the
    /// basic and tuple pdf models.
    pub fn convolve(&self, other: &ValuePdf) -> ValuePdf {
        let a = self.with_explicit_zero();
        let b = other.with_explicit_zero();
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(a.entries.len() * b.entries.len());
        for &(va, pa) in &a.entries {
            for &(vb, pb) in &b.entries {
                out.push((va + vb, pa * pb));
            }
        }
        out.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite frequencies"));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(out.len());
        for (v, p) in out {
            match merged.last_mut() {
                Some(last) if (last.0 - v).abs() < 1e-12 => last.1 += p,
                _ => merged.push((v, p)),
            }
        }
        ValuePdf { entries: merged }
    }

    /// Convolution with an independent Bernoulli contribution: with
    /// probability `prob` the frequency increases by one.  This is the basic
    /// building block of the Poisson-binomial induced pdf of the basic and
    /// tuple pdf models and is much faster than a general [`convolve`].
    ///
    /// [`convolve`]: ValuePdf::convolve
    pub fn convolve_bernoulli(&self, prob: f64) -> ValuePdf {
        if prob <= 0.0 {
            return self.clone();
        }
        let full = self.with_explicit_zero();
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(full.entries.len() + 1);
        for &(v, p) in &full.entries {
            // stays
            push_merge(&mut out, v, p * (1.0 - prob));
            // increments
            push_merge(&mut out, v + 1.0, p * prob);
        }
        out.retain(|&(_, p)| p > 0.0);
        out.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite frequencies"));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(out.len());
        for (v, p) in out {
            match merged.last_mut() {
                Some(last) if (last.0 - v).abs() < 1e-12 => last.1 += p,
                _ => merged.push((v, p)),
            }
        }
        ValuePdf { entries: merged }
    }
}

fn push_merge(out: &mut Vec<(f64, f64)>, value: f64, prob: f64) {
    if prob <= 0.0 {
        return;
    }
    if let Some(entry) = out.iter_mut().find(|e| (e.0 - value).abs() < 1e-12) {
        entry.1 += prob;
    } else {
        out.push((value, prob));
    }
}

/// A probabilistic relation in the value pdf model: one independent frequency
/// pdf per item of the ordered domain `[0, n)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValuePdfModel {
    items: Vec<ValuePdf>,
}

impl ValuePdfModel {
    /// Builds a value pdf relation from one pdf per item.
    pub fn new(items: Vec<ValuePdf>) -> Self {
        ValuePdfModel { items }
    }

    /// Builds the relation from sparse input: the domain size and a list of
    /// `(item, pdf)` pairs.  Unlisted items are certainly absent.
    pub fn from_sparse(
        n: usize,
        pairs: impl IntoIterator<Item = (usize, ValuePdf)>,
    ) -> Result<Self> {
        let mut items = vec![ValuePdf::zero(); n];
        for (item, pdf) in pairs {
            if item >= n {
                return Err(PdsError::ItemOutOfDomain { item, domain: n });
            }
            items[item] = pdf;
        }
        Ok(ValuePdfModel { items })
    }

    /// Builds a deterministic relation (probability one for each frequency),
    /// used to run the very same synopsis code on certain data.
    pub fn deterministic(frequencies: &[f64]) -> Self {
        ValuePdfModel {
            items: frequencies
                .iter()
                .map(|&f| ValuePdf::deterministic(f))
                .collect(),
        }
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.items.len()
    }

    /// Number of `(frequency, probability)` pairs in the input (the paper's
    /// parameter `m`).
    pub fn m(&self) -> usize {
        self.items.iter().map(|p| p.entries().len()).sum()
    }

    /// The per-item pdfs.
    pub fn items(&self) -> &[ValuePdf] {
        &self.items
    }

    /// The pdf of item `i`.
    pub fn item(&self, i: usize) -> &ValuePdf {
        &self.items[i]
    }

    /// Expected frequency of every item.
    pub fn expected_frequencies(&self) -> Vec<f64> {
        self.items.iter().map(|p| p.mean()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_pdf() -> ValuePdf {
        // Item 2 of Example 1 in the paper: Pr[g=1]=1/3, Pr[g=2]=1/4, rest 0.
        ValuePdf::new([(1.0, 1.0 / 3.0), (2.0, 0.25)]).unwrap()
    }

    #[test]
    fn zero_probability_accounts_for_remainder() {
        let pdf = example_pdf();
        assert!((pdf.zero_probability() - 5.0 / 12.0).abs() < 1e-12);
        assert!((pdf.explicit_mass() - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn mean_matches_paper_example() {
        // E[g2] = 5/6 in the value pdf example of the paper.
        let pdf = example_pdf();
        assert!((pdf.mean() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn second_moment_and_variance() {
        let pdf = example_pdf();
        let ex2 = 1.0 / 3.0 + 4.0 * 0.25;
        assert!((pdf.second_moment() - ex2).abs() < 1e-12);
        assert!((pdf.variance() - (ex2 - (5.0f64 / 6.0).powi(2))).abs() < 1e-12);
    }

    #[test]
    fn cdf_and_tail_are_complementary() {
        let pdf = example_pdf();
        for v in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
            assert!((pdf.cdf(v) + pdf.tail(v) - 1.0).abs() < 1e-12);
        }
        assert!((pdf.cdf(0.0) - 5.0 / 12.0).abs() < 1e-12);
        assert!((pdf.cdf(1.0) - 0.75).abs() < 1e-12);
        assert!((pdf.cdf(2.0) - 1.0).abs() < 1e-12);
        assert_eq!(pdf.cdf(-1.0), 0.0);
    }

    #[test]
    fn duplicate_values_are_merged() {
        let pdf = ValuePdf::new([(1.0, 0.25), (1.0, 0.25), (2.0, 0.1)]).unwrap();
        assert_eq!(pdf.entries().len(), 2);
        assert!((pdf.probability_of(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(ValuePdf::new([(1.0, 1.2)]).is_err());
        assert!(ValuePdf::new([(-1.0, 0.2)]).is_err());
        assert!(ValuePdf::new([(f64::NAN, 0.2)]).is_err());
        assert!(ValuePdf::new([(1.0, 0.7), (2.0, 0.7)]).is_err());
    }

    #[test]
    fn deterministic_pdf_has_unit_mass() {
        let pdf = ValuePdf::deterministic(3.5);
        assert!((pdf.mean() - 3.5).abs() < 1e-12);
        assert_eq!(pdf.zero_probability(), 0.0);
        let zero = ValuePdf::deterministic(0.0);
        assert_eq!(zero.zero_probability(), 1.0);
    }

    #[test]
    fn expect_covers_implicit_zero() {
        let pdf = example_pdf();
        // E[|g - 1|] = Pr[0]*1 + Pr[1]*0 + Pr[2]*1
        let expected = 5.0 / 12.0 + 0.25;
        assert!((pdf.expect(|g| (g - 1.0).abs()) - expected).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_masses() {
        let pdf = example_pdf();
        assert_eq!(pdf.sample_with(0.0), 1.0);
        assert_eq!(pdf.sample_with(0.34), 2.0);
        assert_eq!(pdf.sample_with(0.99), 0.0);
    }

    #[test]
    fn convolve_bernoulli_matches_general_convolution() {
        let pdf = example_pdf();
        let bern = ValuePdf::new([(1.0, 0.3)]).unwrap();
        let a = pdf.convolve(&bern);
        let b = pdf.convolve_bernoulli(0.3);
        assert_eq!(a.support(), b.support());
        for v in a.support() {
            assert!((a.probability_of(v) - b.probability_of(v)).abs() < 1e-12);
        }
        // Mass still sums to one.
        let total: f64 = b
            .with_explicit_zero()
            .entries()
            .iter()
            .map(|&(_, p)| p)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_constructor_validates_domain() {
        assert!(ValuePdfModel::from_sparse(3, [(5, ValuePdf::deterministic(1.0))]).is_err());
        let m = ValuePdfModel::from_sparse(3, [(1, example_pdf())]).unwrap();
        assert_eq!(m.n(), 3);
        assert_eq!(m.item(0).zero_probability(), 1.0);
        assert!((m.expected_frequencies()[1] - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_model_round_trips_frequencies() {
        let freqs = [2.0, 0.0, 3.0, 1.0];
        let m = ValuePdfModel::deterministic(&freqs);
        assert_eq!(m.expected_frequencies(), freqs.to_vec());
        assert_eq!(m.m(), 3); // zero entries are implicit
    }
}
