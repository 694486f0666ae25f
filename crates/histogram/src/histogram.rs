//! The histogram synopsis type: a partition of the ordered domain into
//! buckets, each with a single representative value.

use serde::{Deserialize, Serialize};

use pds_core::binio::{ByteReader, ByteWriter};
use pds_core::error::{PdsError, Result};

/// One histogram bucket: the inclusive span `[start, end]` of domain items it
/// covers and the representative value used to approximate every frequency in
/// the span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// First item of the span (inclusive, 0-based).
    pub start: usize,
    /// Last item of the span (inclusive, 0-based).
    pub end: usize,
    /// Representative value `b̂` approximating every item in the span.
    pub representative: f64,
    /// The (expected) error contribution of this bucket under the metric the
    /// histogram was built for.
    pub cost: f64,
}

impl Bucket {
    /// Number of distinct items in the span (the paper's `n_b`).
    pub fn width(&self) -> usize {
        self.end - self.start + 1
    }

    /// Whether the bucket spans item `i`.
    pub fn contains(&self, i: usize) -> bool {
        i >= self.start && i <= self.end
    }
}

/// A `B`-bucket histogram synopsis over the domain `[0, n)`.
///
/// Buckets are contiguous, non-overlapping and cover the whole domain
/// (`s_1 = 0`, `e_B = n − 1`, `s_{k+1} = e_k + 1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    n: usize,
    buckets: Vec<Bucket>,
    total_cost: f64,
}

impl Histogram {
    /// Builds a histogram from buckets, validating that they partition
    /// `[0, n)`.
    pub fn new(n: usize, buckets: Vec<Bucket>) -> Result<Self> {
        if buckets.is_empty() || n == 0 {
            return Err(PdsError::InvalidParameter {
                message: "histogram needs a non-empty domain and at least one bucket".into(),
            });
        }
        let mut expected_start = 0usize;
        for b in &buckets {
            if b.start != expected_start || b.end < b.start || b.end >= n {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "bucket [{}, {}] does not continue the partition of [0, {})",
                        b.start, b.end, n
                    ),
                });
            }
            expected_start = b.end + 1;
        }
        if expected_start != n {
            return Err(PdsError::InvalidParameter {
                message: format!("buckets cover [0, {expected_start}) but the domain is [0, {n})"),
            });
        }
        let total_cost = buckets.iter().map(|b| b.cost).sum();
        Ok(Histogram {
            n,
            buckets,
            total_cost,
        })
    }

    /// Builds a histogram from bucket boundaries (the end index of every
    /// bucket) and representative values; costs are set to zero.
    pub fn from_boundaries(n: usize, ends: &[usize], representatives: &[f64]) -> Result<Self> {
        if ends.len() != representatives.len() {
            return Err(PdsError::InvalidParameter {
                message: "one representative per bucket is required".into(),
            });
        }
        let mut buckets = Vec::with_capacity(ends.len());
        let mut start = 0usize;
        for (&end, &rep) in ends.iter().zip(representatives) {
            buckets.push(Bucket {
                start,
                end,
                representative: rep,
                cost: 0.0,
            });
            start = end + 1;
        }
        Histogram::new(n, buckets)
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The buckets, in domain order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Number of buckets `B`.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Sum of the per-bucket costs recorded at construction time (the DP
    /// objective value for cumulative metrics).
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Maximum of the per-bucket costs (the DP objective value for
    /// maximum-error metrics).
    pub fn max_bucket_cost(&self) -> f64 {
        self.buckets.iter().map(|b| b.cost).fold(0.0, f64::max)
    }

    /// The estimated frequency `ĝ_i` of item `i` (the representative of the
    /// bucket containing it).
    pub fn estimate(&self, i: usize) -> f64 {
        let idx = self
            .buckets
            .partition_point(|b| b.end < i)
            .min(self.buckets.len() - 1);
        self.buckets[idx].representative
    }

    /// All estimated frequencies as a dense vector.
    pub fn estimates(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n);
        for b in &self.buckets {
            out.extend(std::iter::repeat_n(b.representative, b.width()));
        }
        out
    }

    /// The bucket end boundaries.
    pub fn boundaries(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.end).collect()
    }

    /// The histogram JSON envelope version written by [`Histogram::to_json`].
    pub const FORMAT_VERSION: u32 = 1;

    /// Re-checks every structural invariant: buckets partition `[0, n)`,
    /// costs and representatives are finite, costs are non-negative, and the
    /// recorded total matches the per-bucket sum.
    ///
    /// `Histogram::new` establishes these at construction time; this is the
    /// entry point for histograms that arrived from outside (deserialised
    /// from a catalog, handed over a process boundary) where the invariants
    /// cannot be assumed.
    pub fn validate(&self) -> Result<()> {
        // Partition checks are identical to construction.
        Histogram::new(self.n, self.buckets.clone())?;
        for b in &self.buckets {
            if !b.cost.is_finite() || b.cost < 0.0 {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "bucket [{}, {}] has invalid cost {}",
                        b.start, b.end, b.cost
                    ),
                });
            }
            if !b.representative.is_finite() {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "bucket [{}, {}] has non-finite representative {}",
                        b.start, b.end, b.representative
                    ),
                });
            }
        }
        let sum: f64 = self.buckets.iter().map(|b| b.cost).sum();
        if !self.total_cost.is_finite() || (self.total_cost - sum).abs() > 1e-6 * (1.0 + sum.abs())
        {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "recorded total cost {} disagrees with the bucket sum {sum}",
                    self.total_cost
                ),
            });
        }
        Ok(())
    }

    /// Serialises the histogram into a versioned JSON envelope.
    ///
    /// Unlike the raw serde implementation, this returns a [`PdsError`] on
    /// unserialisable values (e.g. NaN costs) instead of panicking, and
    /// stamps the format version plus the bucket count so that
    /// [`Histogram::from_json`] can detect skew and truncation.
    pub fn to_json(&self) -> Result<String> {
        // Symmetric with `from_json`: refuse to persist a histogram that the
        // reader would reject, so corruption surfaces at the writer.
        self.validate()?;
        let envelope = HistogramEnvelope {
            version: Self::FORMAT_VERSION,
            num_buckets: self.buckets.len(),
            histogram: self.clone(),
        };
        serde_json::to_string(&envelope).map_err(|e| PdsError::InvalidParameter {
            message: format!("histogram serialisation failed: {e}"),
        })
    }

    /// Parses a histogram from the versioned JSON envelope, rejecting
    /// truncated input, version skew, bucket-count mismatches and structurally
    /// invalid histograms with a [`PdsError`] — never a panic.
    pub fn from_json(text: &str) -> Result<Self> {
        let envelope: HistogramEnvelope =
            serde_json::from_str(text).map_err(|e| PdsError::InvalidParameter {
                message: format!("histogram deserialisation failed: {e}"),
            })?;
        if envelope.version != Self::FORMAT_VERSION {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "histogram envelope version {} is not supported (expected {})",
                    envelope.version,
                    Self::FORMAT_VERSION
                ),
            });
        }
        if envelope.num_buckets != envelope.histogram.buckets.len() {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "envelope declares {} buckets but the histogram carries {}",
                    envelope.num_buckets,
                    envelope.histogram.buckets.len()
                ),
            });
        }
        envelope.histogram.validate()?;
        Ok(envelope.histogram)
    }

    /// Magic bytes of the compact binary encoding.
    pub const BINARY_MAGIC: [u8; 4] = *b"PDSH";

    /// Version stamp of the compact binary encoding written by
    /// [`Histogram::to_binary`].
    pub const BINARY_VERSION: u16 = 1;

    /// Flag bit of the binary encoding: per-bucket costs are present.
    const BINARY_FLAG_COSTS: u8 = 1;

    /// Serialises the histogram into the compact binary format: a versioned
    /// envelope, a flags byte, the domain size, then one record per bucket
    /// holding the bucket *width* as a varint (starts are implied by the
    /// partition invariant), the representative as a raw IEEE-754 double,
    /// and — when the costs flag is set — the cost double.
    ///
    /// `to_binary` keeps the per-bucket cost diagnostics (full fidelity for
    /// persisted DP results); [`Histogram::to_binary_compact`] drops them
    /// for serving-grade artefacts like store segments.  Both are 5–7x
    /// smaller than the JSON envelope of [`Histogram::to_json`], which
    /// spells out field names and full-precision decimal floats; JSON stays
    /// available as the debug encoding.  Like `to_json`, an invalid
    /// histogram is refused at the writer so corruption surfaces early.
    pub fn to_binary(&self) -> Result<Vec<u8>> {
        self.encode_binary(true)
    }

    /// Serialises like [`Histogram::to_binary`] but without the per-bucket
    /// cost diagnostics: decoding yields the same bucketing and
    /// representatives with all costs zero (use
    /// [`Histogram::without_costs`] to produce the matching in-memory
    /// value).
    pub fn to_binary_compact(&self) -> Result<Vec<u8>> {
        self.encode_binary(false)
    }

    fn encode_binary(&self, with_costs: bool) -> Result<Vec<u8>> {
        self.validate()?;
        let mut w = ByteWriter::envelope(Self::BINARY_MAGIC, Self::BINARY_VERSION);
        w.put_u8(if with_costs {
            Self::BINARY_FLAG_COSTS
        } else {
            0
        });
        w.put_varint(self.n as u64);
        w.put_varint(self.buckets.len() as u64);
        for b in &self.buckets {
            w.put_varint(b.width() as u64);
            w.put_f64(b.representative);
            if with_costs {
                w.put_f64(b.cost);
            }
        }
        Ok(w.into_bytes())
    }

    /// Parses a histogram from the compact binary format, turning truncated
    /// input, bad magic, version skew, absurd declared sizes and structurally
    /// invalid histograms into [`PdsError`]s — never a panic.
    pub fn from_binary(bytes: &[u8]) -> Result<Self> {
        let (mut r, version) = ByteReader::envelope(bytes, "histogram", Self::BINARY_MAGIC)?;
        if version != Self::BINARY_VERSION {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "histogram binary version {version} is not supported (expected {})",
                    Self::BINARY_VERSION
                ),
            });
        }
        let flags = r.get_u8()?;
        if flags & !Self::BINARY_FLAG_COSTS != 0 {
            return Err(PdsError::InvalidParameter {
                message: format!("histogram: unknown binary flags {flags:#x}"),
            });
        }
        let with_costs = flags & Self::BINARY_FLAG_COSTS != 0;
        let n = r.get_len(u32::MAX as usize)?;
        let num_buckets = r.get_len(n)?;
        let mut buckets = Vec::with_capacity(num_buckets);
        let mut start = 0usize;
        for _ in 0..num_buckets {
            let width = r.get_len(n)?;
            let representative = r.get_f64()?;
            let cost = if with_costs { r.get_f64()? } else { 0.0 };
            let end = start
                .checked_add(width)
                .and_then(|e| e.checked_sub(1))
                .ok_or_else(|| PdsError::InvalidParameter {
                    message: "histogram: bucket width 0 in binary input".into(),
                })?;
            buckets.push(Bucket {
                start,
                end,
                representative,
                cost,
            });
            start = end + 1;
        }
        r.finish()?;
        let histogram = Histogram::new(n, buckets)?;
        histogram.validate()?;
        Ok(histogram)
    }

    /// A copy with every per-bucket cost (and hence the recorded total)
    /// zeroed — the serving-grade shape used by store segments, where the
    /// build-time error diagnostics are not persisted.
    pub fn without_costs(&self) -> Self {
        let buckets = self
            .buckets
            .iter()
            .map(|b| Bucket { cost: 0.0, ..*b })
            .collect();
        Histogram::new(self.n, buckets).expect("structure unchanged")
    }
}

/// Versioned wire envelope for [`Histogram::to_json`] / [`Histogram::from_json`].
#[derive(Serialize, Deserialize)]
struct HistogramEnvelope {
    version: u32,
    num_buckets: usize,
    histogram: Histogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Histogram {
        Histogram::new(
            6,
            vec![
                Bucket {
                    start: 0,
                    end: 1,
                    representative: 2.0,
                    cost: 0.5,
                },
                Bucket {
                    start: 2,
                    end: 4,
                    representative: 5.0,
                    cost: 1.5,
                },
                Bucket {
                    start: 5,
                    end: 5,
                    representative: 0.0,
                    cost: 0.0,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn estimates_follow_bucket_representatives() {
        let h = sample();
        assert_eq!(h.estimate(0), 2.0);
        assert_eq!(h.estimate(1), 2.0);
        assert_eq!(h.estimate(2), 5.0);
        assert_eq!(h.estimate(4), 5.0);
        assert_eq!(h.estimate(5), 0.0);
        assert_eq!(h.estimates(), vec![2.0, 2.0, 5.0, 5.0, 5.0, 0.0]);
    }

    #[test]
    fn totals_and_shape() {
        let h = sample();
        assert_eq!(h.num_buckets(), 3);
        assert_eq!(h.n(), 6);
        assert!((h.total_cost() - 2.0).abs() < 1e-12);
        assert!((h.max_bucket_cost() - 1.5).abs() < 1e-12);
        assert_eq!(h.boundaries(), vec![1, 4, 5]);
        assert_eq!(h.buckets()[1].width(), 3);
        assert!(h.buckets()[1].contains(3));
        assert!(!h.buckets()[1].contains(5));
    }

    #[test]
    fn invalid_partitions_are_rejected() {
        // Gap between buckets.
        assert!(Histogram::new(
            4,
            vec![
                Bucket {
                    start: 0,
                    end: 1,
                    representative: 0.0,
                    cost: 0.0
                },
                Bucket {
                    start: 3,
                    end: 3,
                    representative: 0.0,
                    cost: 0.0
                },
            ],
        )
        .is_err());
        // Does not reach the end of the domain.
        assert!(Histogram::new(
            4,
            vec![Bucket {
                start: 0,
                end: 2,
                representative: 0.0,
                cost: 0.0
            }],
        )
        .is_err());
        // Beyond the domain.
        assert!(Histogram::new(
            2,
            vec![Bucket {
                start: 0,
                end: 2,
                representative: 0.0,
                cost: 0.0
            }],
        )
        .is_err());
        // Empty.
        assert!(Histogram::new(2, vec![]).is_err());
    }

    #[test]
    fn from_boundaries_and_refit() {
        let h = Histogram::from_boundaries(5, &[1, 4], &[1.0, 2.0]).unwrap();
        assert_eq!(h.num_buckets(), 2);
        assert_eq!(h.estimate(3), 2.0);
        assert!(Histogram::from_boundaries(5, &[1, 4], &[1.0]).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let h = sample();
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let h = sample();
        let bytes = h.to_binary().unwrap();
        let back = Histogram::from_binary(&bytes).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn compact_binary_drops_costs_but_keeps_the_bucketing() {
        let h = sample();
        let compact = h.to_binary_compact().unwrap();
        assert!(compact.len() < h.to_binary().unwrap().len());
        let back = Histogram::from_binary(&compact).unwrap();
        assert_eq!(back, h.without_costs());
        assert_eq!(back.estimates(), h.estimates());
        assert_eq!(back.total_cost(), 0.0);
        // Unknown flag bits are rejected.
        let mut bad_flags = h.to_binary().unwrap();
        bad_flags[6] |= 0x80;
        assert!(Histogram::from_binary(&bad_flags).is_err());
    }

    #[test]
    fn binary_rejects_truncation_version_skew_and_garbage() {
        let h = sample();
        let bytes = h.to_binary().unwrap();
        // Every strict prefix fails cleanly.
        for cut in 0..bytes.len() {
            assert!(
                Histogram::from_binary(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes should fail"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Histogram::from_binary(&long).is_err());
        // Version skew.
        let mut skewed = bytes.clone();
        skewed[4] = 99;
        assert!(Histogram::from_binary(&skewed).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Histogram::from_binary(&bad).is_err());
        // NaN cost is refused by the writer.
        let mut nan = sample();
        nan.buckets[0].cost = f64::NAN;
        assert!(nan.to_binary().is_err());
    }
}
