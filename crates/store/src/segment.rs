//! Immutable sealed segments and their synopses.

use pds_core::binio::{ByteReader, ByteWriter};
use pds_core::error::{PdsError, Result};
use pds_core::metrics::ErrorMetric;
use pds_core::model::ProbabilisticRelation;
use pds_histogram::merge::{pieces_of, Piece};
use pds_histogram::{build_histogram, Histogram};
use pds_wavelet::{build_sse_wavelet, WaveletSynopsis};

/// Which synopsis a sealed segment is summarised with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SynopsisKind {
    /// An optimal `B`-bucket histogram under the given error metric, built
    /// with the batched-sweep dynamic program.
    Histogram(ErrorMetric),
    /// An SSE-optimal `B`-term Haar wavelet synopsis.
    Wavelet,
}

/// The synopsis stored inside a segment.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentSynopsis {
    /// Histogram synopsis over the segment's local domain.
    Histogram(Histogram),
    /// Wavelet synopsis over the segment's local domain.
    Wavelet(WaveletSynopsis),
}

impl SegmentSynopsis {
    /// Local domain size the synopsis covers.
    pub fn n(&self) -> usize {
        match self {
            SegmentSynopsis::Histogram(h) => h.n(),
            SegmentSynopsis::Wavelet(w) => w.n(),
        }
    }
}

/// One immutable sealed unit of a partition: the synopsis of a batch of
/// ingested records over the global item range `[start, start + width)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    start: usize,
    width: usize,
    records: u64,
    synopsis: SegmentSynopsis,
}

impl Segment {
    /// Magic bytes of the compact binary encoding.
    pub const BINARY_MAGIC: [u8; 4] = *b"PDSG";

    /// Version stamp of the compact binary encoding written by
    /// [`Segment::to_binary`].
    pub const BINARY_VERSION: u16 = 1;

    /// Wraps a synopsis as a segment over the global range starting at
    /// `start`.
    ///
    /// Segments are serving artefacts: a histogram's per-bucket build-cost
    /// diagnostics are stripped on entry (they are recomputable and are not
    /// persisted by the compact binary encoding), so the in-memory segment
    /// always equals its decoded form.
    pub fn new(start: usize, records: u64, synopsis: SegmentSynopsis) -> Result<Self> {
        let synopsis = match synopsis {
            SegmentSynopsis::Histogram(h) => SegmentSynopsis::Histogram(h.without_costs()),
            wavelet => wavelet,
        };
        let segment = Segment {
            start,
            width: synopsis.n(),
            records,
            synopsis,
        };
        segment.validate()?;
        Ok(segment)
    }

    /// Seals a relation into a segment by building the configured synopsis
    /// with `budget` buckets/coefficients.
    ///
    /// A store seal comes here only for the buffers whose synopsis needs
    /// the full model — x-tuples without a value pdf, and the non-SSE
    /// metrics; the SSE histogram and the wavelet over everything else are
    /// built from the memtable's moment sums (see the memtable module's
    /// seal `match`), which this function's output is the reference for.
    pub fn build(
        start: usize,
        records: u64,
        relation: &ProbabilisticRelation,
        kind: SynopsisKind,
        budget: usize,
    ) -> Result<Self> {
        let synopsis = match kind {
            SynopsisKind::Histogram(metric) => {
                SegmentSynopsis::Histogram(build_histogram(relation, metric, budget)?)
            }
            SynopsisKind::Wavelet => SegmentSynopsis::Wavelet(build_sse_wavelet(relation, budget)?),
        };
        Segment::new(start, records, synopsis)
    }

    /// First global item covered.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of items covered.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Last global item covered (inclusive).
    pub fn end(&self) -> usize {
        self.start + self.width - 1
    }

    /// Number of records sealed into this segment.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The stored synopsis.
    pub fn synopsis(&self) -> &SegmentSynopsis {
        &self.synopsis
    }

    /// Re-checks the structural invariants (synopsis span matches the
    /// declared width, inner synopsis valid) — the entry point for segments
    /// that arrived from outside a builder.
    pub fn validate(&self) -> Result<()> {
        if self.width == 0 || self.width != self.synopsis.n() {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "segment declares width {} but its synopsis covers {} items",
                    self.width,
                    self.synopsis.n()
                ),
            });
        }
        match &self.synopsis {
            SegmentSynopsis::Histogram(h) => h.validate(),
            SegmentSynopsis::Wavelet(w) => w.validate(),
        }
    }

    /// The estimated expected frequency of one **global** item.
    pub fn estimate(&self, item: usize) -> f64 {
        if item < self.start || item > self.end() {
            return 0.0;
        }
        match &self.synopsis {
            SegmentSynopsis::Histogram(h) => h.estimate(item - self.start),
            SegmentSynopsis::Wavelet(w) => w.estimate(item - self.start),
        }
    }

    /// Estimated expected total frequency over the **global** inclusive item
    /// range `[lo, hi]`, counting only this segment's overlap.  Histogram
    /// segments walk their overlapping buckets (`O(#buckets)`); wavelet
    /// segments reconstruct their span.
    pub fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        if hi < self.start || lo > self.end() {
            return 0.0;
        }
        let from = lo.max(self.start) - self.start;
        let to = hi.min(self.end()) - self.start;
        match &self.synopsis {
            SegmentSynopsis::Histogram(h) => {
                let mut total = 0.0;
                for b in h.buckets() {
                    if b.end < from || b.start > to {
                        continue;
                    }
                    let overlap = b.end.min(to) - b.start.max(from) + 1;
                    total += overlap as f64 * b.representative;
                }
                total
            }
            SegmentSynopsis::Wavelet(w) => w.reconstruct()[from..=to].iter().sum(),
        }
    }

    /// The segment's estimate vector as a piecewise-constant summary (the
    /// input shape of the compaction/merge DP).  Histogram segments yield
    /// one piece per bucket; wavelet segments yield maximal constant runs of
    /// their reconstruction.
    pub fn pieces(&self) -> Vec<Piece> {
        match &self.synopsis {
            SegmentSynopsis::Histogram(h) => pieces_of(h),
            SegmentSynopsis::Wavelet(w) => {
                let dense = w.reconstruct();
                let mut out: Vec<Piece> = Vec::new();
                for &value in &dense {
                    match out.last_mut() {
                        Some(last) if last.value == value => last.width += 1,
                        _ => out.push(Piece { width: 1, value }),
                    }
                }
                out
            }
        }
    }

    /// Serialises the segment into the compact binary format (header plus
    /// the embedded synopsis's own binary envelope, length-prefixed).
    pub fn to_binary(&self) -> Result<Vec<u8>> {
        self.validate()?;
        let mut w = ByteWriter::envelope(Self::BINARY_MAGIC, Self::BINARY_VERSION);
        w.put_varint(self.start as u64);
        w.put_varint(self.records);
        let (tag, payload) = match &self.synopsis {
            // Costs were already stripped on construction; the compact
            // encoding skips the cost slots entirely.
            SegmentSynopsis::Histogram(h) => (0u8, h.to_binary_compact()?),
            SegmentSynopsis::Wavelet(wav) => (1u8, wav.to_binary()?),
        };
        w.put_u8(tag);
        w.put_varint(payload.len() as u64);
        w.put_bytes(&payload);
        Ok(w.into_bytes())
    }

    /// Parses a segment from the compact binary format; truncation, bad
    /// magic, version skew and invalid payloads surface as [`PdsError`]s.
    pub fn from_binary(bytes: &[u8]) -> Result<Self> {
        let (mut r, version) = ByteReader::envelope(bytes, "segment", Self::BINARY_MAGIC)?;
        if version != Self::BINARY_VERSION {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "segment binary version {version} is not supported (expected {})",
                    Self::BINARY_VERSION
                ),
            });
        }
        let start = r.get_len(u32::MAX as usize)?;
        let records = r.get_varint()?;
        let tag = r.get_u8()?;
        let len = r.get_len(r.remaining())?;
        let payload = r.get_bytes(len)?;
        r.finish()?;
        let synopsis = match tag {
            0 => SegmentSynopsis::Histogram(Histogram::from_binary(payload)?),
            1 => SegmentSynopsis::Wavelet(WaveletSynopsis::from_binary(payload)?),
            other => {
                return Err(PdsError::InvalidParameter {
                    message: format!("segment: unknown synopsis tag {other}"),
                })
            }
        };
        Segment::new(start, records, synopsis)
    }

    /// Serialises the segment as a **durable blob** — the exact bytes of
    /// an install-time `seg-<p>-<seq>.bin` file: the block-structured
    /// [`blob`](crate::blob) container (`PDSB`):
    /// prune metadata in a front block, the compact binary encoding
    /// ([`Segment::to_binary`]) as a lazily-loadable synopsis block, and
    /// a CRC'd index footer.
    pub fn to_blob(&self) -> Result<Vec<u8>> {
        crate::blob::encode_blob(self)
    }

    /// Parses a durable blob written by [`Segment::to_blob`]: every block
    /// CRC-verified, prune metadata recomputed and cross-checked.  Bit rot
    /// and truncation surface as [`PdsError`]s before any payload is
    /// trusted; bytes that do not even start with the `PDSB` magic — the
    /// retired `PDSG`-headed v1 layout included — are rejected by name.
    pub fn from_blob(bytes: &[u8]) -> Result<Self> {
        if !bytes.starts_with(&crate::blob::BLOB_MAGIC) {
            return Err(PdsError::InvalidParameter {
                message: "segment blob: v1 / unframed blob (no PDSB header); only the \
                          block-structured v2 container decodes"
                    .into(),
            });
        }
        Ok(crate::blob::decode_blob(bytes)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::generator::{mystiq_like, MystiqLikeConfig};

    fn relation(n: usize) -> ProbabilisticRelation {
        mystiq_like(MystiqLikeConfig {
            n,
            avg_tuples_per_item: 3.0,
            skew: 0.8,
            seed: 7,
        })
        .into()
    }

    #[test]
    fn histogram_segment_estimates_match_its_histogram() {
        let rel = relation(32);
        let seg = Segment::build(
            100,
            rel.m() as u64,
            &rel,
            SynopsisKind::Histogram(ErrorMetric::Sse),
            6,
        )
        .unwrap();
        assert_eq!(seg.start(), 100);
        assert_eq!(seg.width(), 32);
        assert_eq!(seg.end(), 131);
        let SegmentSynopsis::Histogram(h) = seg.synopsis() else {
            panic!("expected a histogram synopsis");
        };
        for item in [100usize, 111, 131] {
            assert_eq!(seg.estimate(item), h.estimate(item - 100));
        }
        assert_eq!(seg.estimate(99), 0.0);
        assert_eq!(seg.estimate(132), 0.0);
        // Range sums agree with item-by-item estimates and clip correctly.
        let walked = seg.range_sum(90, 115);
        let item_by_item: f64 = (100..=115).map(|i| seg.estimate(i)).sum();
        assert!((walked - item_by_item).abs() < 1e-9);
        assert_eq!(seg.pieces().len(), h.num_buckets());
    }

    #[test]
    fn wavelet_segment_round_trips_and_sums() {
        let rel = relation(16);
        let seg = Segment::build(8, rel.m() as u64, &rel, SynopsisKind::Wavelet, 5).unwrap();
        let total: f64 = (8..24).map(|i| seg.estimate(i)).sum();
        assert!((seg.range_sum(0, 100) - total).abs() < 1e-9);
        // Pieces cover the whole width.
        assert_eq!(seg.pieces().iter().map(|p| p.width).sum::<usize>(), 16);
        let bytes = seg.to_binary().unwrap();
        assert_eq!(Segment::from_binary(&bytes).unwrap(), seg);
    }

    #[test]
    fn blob_round_trips_and_crc_catches_every_bit_flip() {
        let rel = relation(16);
        let seg = Segment::build(4, 9, &rel, SynopsisKind::Wavelet, 5).unwrap();
        let blob = seg.to_blob().unwrap();
        assert_eq!(Segment::from_blob(&blob).unwrap(), seg);
        for pos in 0..blob.len() {
            let mut bad = blob.clone();
            bad[pos] ^= 0x10;
            assert!(Segment::from_blob(&bad).is_err(), "flip at byte {pos}");
        }
        for cut in 0..blob.len() {
            assert!(Segment::from_blob(&blob[..cut]).is_err(), "cut at {cut}");
        }
        // The retired v1 layout (compact binary + CRC-32 trailer) is
        // rejected by name, never decoded.
        let mut v1 = seg.to_binary().unwrap();
        pds_core::binio::append_crc32(&mut v1);
        let err = Segment::from_blob(&v1).unwrap_err().to_string();
        assert!(err.contains("v1 / unframed blob"), "{err}");
    }

    #[test]
    fn binary_rejects_corruption_truncation_and_skew() {
        let rel = relation(16);
        let seg = Segment::build(
            0,
            9,
            &rel,
            SynopsisKind::Histogram(ErrorMetric::Ssre { c: 0.5 }),
            4,
        )
        .unwrap();
        let bytes = seg.to_binary().unwrap();
        for cut in 0..bytes.len() {
            assert!(Segment::from_binary(&bytes[..cut]).is_err());
        }
        let mut skewed = bytes.clone();
        skewed[4] = 77;
        assert!(Segment::from_binary(&skewed).is_err());
        let mut bad_tag = bytes.clone();
        // magic (4) + version (2) + start varint `0` (1) + records varint
        // `9` (1) put the synopsis tag byte at offset 8.
        assert_eq!(bad_tag[8], 0, "histogram tag");
        bad_tag[8] = 9;
        assert!(Segment::from_binary(&bad_tag).is_err());
        let mut long = bytes.clone();
        long.push(1);
        assert!(Segment::from_binary(&long).is_err());
    }
}
