//! The block-structured durable segment blob (`PDSB` v2).
//!
//! A v2 blob is one `seg-<p>-<seq>.bin` file laid out so a reopen can map
//! *only its metadata* and defer the synopsis bytes until a query first
//! touches them:
//!
//! ```text
//! offset 0   ┌──────────────────────────────────────────────┐
//!            │ header: magic "PDSB" + u16 version (6 bytes) │
//! offset 6   ├──────────────────────────────────────────────┤
//!            │ meta block (meta_len bytes):                 │
//!            │   start · width · records (varints)          │
//!            │   prune fence  (tag, local lo/hi varints)    │
//!            │   presence filter (tag, k, u64 words)        │
//!            ├──────────────────────────────────────────────┤
//!            │ synopsis block (syn_len bytes):              │
//!            │   the exact `Segment::to_binary` (`PDSG`)    │
//!            │   bytes — loaded lazily on first touch       │
//!            ├──────────────────────────────────────────────┤
//!            │ footer (36 bytes, fixed):                    │
//!            │   meta_len u32 · syn_len u64                 │
//!            │   meta_crc u32 · syn_crc u32                 │
//!            │   total_len u64 · magic "PDSF" · crc u32     │
//! file end   └──────────────────────────────────────────────┘
//! ```
//!
//! **Every byte is covered**: the meta block by `meta_crc`, the synopsis
//! block by `syn_crc`, the footer's first 32 bytes by its own trailing
//! CRC, and the 6 header bytes by the magic/version checks (no single-bit
//! flip maps `PDSB`/version 2 onto another accepted value).  The footer's
//! `total_len` and the `6 + meta_len + syn_len + 36 == file_len` identity
//! pin the three regions contiguously, so truncation or splicing is
//! detected before any region is parsed.  A full decode additionally
//! recomputes the prune metadata from the decoded synopsis and rejects
//! any mismatch — the lazily-read meta block can never disagree with the
//! synopsis it fences.
//!
//! This is the **only** blob layout: the pre-block v1 blob (`PDSG` bytes
//! and a CRC-32 trailer) is no longer accepted —
//! [`Segment::from_blob`](crate::Segment::from_blob) and
//! [`SynopsisStore::open_with_wal`](crate::SynopsisStore::open_with_wal)
//! reject it with an error naming it a "v1 / unframed blob".

use pds_core::binio::{crc32, ByteReader, ByteWriter};
use pds_core::error::{PdsError, Result};

use crate::segment::{Segment, SegmentSynopsis};

/// Magic bytes of the block-structured blob container.
pub const BLOB_MAGIC: [u8; 4] = *b"PDSB";

/// Container version written by [`encode_blob`].
pub const BLOB_VERSION: u16 = 2;

/// Magic bytes inside the fixed footer.
const FOOTER_MAGIC: [u8; 4] = *b"PDSF";

/// Bytes of the envelope header (magic + version).
pub const HEADER_LEN: usize = 6;

/// Bytes of the fixed footer at the end of every v2 blob.
pub const FOOTER_LEN: usize = 36;

/// Presence filters are only built while the synopsis support stays at or
/// below this many items — larger segments rely on the fence alone (a
/// filter over a huge support set filters nothing and bloats the meta
/// block every reopen must read).
const FILTER_CAP: usize = 4096;

/// Filter bits budgeted per support item (~1% false positives at k=7).
const FILTER_BITS_PER_KEY: usize = 10;

/// Derived hash probes per filter lookup.
const FILTER_HASHES: u32 = 7;

fn corrupt(message: String) -> PdsError {
    PdsError::InvalidParameter { message }
}

/// A small Bloom-style presence filter over the **local** item indices a
/// segment's synopsis supports (values ≠ 0.0).  False positives only make
/// a point query visit a segment it could have skipped; false negatives
/// are impossible, so pruning through the filter is answer-preserving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresenceFilter {
    k: u32,
    words: Vec<u64>,
}

/// One multiply-xorshift avalanche (the splitmix64 finalizer) — cheap,
/// deterministic, dependency-free.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// Two independent hashes of an index; probes use double hashing
/// `h1 + i·h2` (`h2` forced odd so consecutive probes never collapse).
fn hash_pair(item: u64) -> (u64, u64) {
    let h1 = mix64(item ^ 0x9E37_79B9_7F4A_7C15);
    let h2 = mix64(item ^ 0xD1B5_4A32_D192_ED03) | 1;
    (h1, h2)
}

impl PresenceFilter {
    fn bits(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// Builds a filter sized for `support` local indices and inserts them.
    fn build(support: &[usize]) -> PresenceFilter {
        let bits = (support.len().max(1) * FILTER_BITS_PER_KEY).max(64);
        let words = vec![0u64; bits.div_ceil(64)];
        let mut filter = PresenceFilter {
            k: FILTER_HASHES,
            words,
        };
        for &item in support {
            filter.insert(item);
        }
        filter
    }

    fn insert(&mut self, item: usize) {
        let m = self.bits();
        let (h1, h2) = hash_pair(item as u64);
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            if let Some(word) = self.words.get_mut((bit / 64) as usize) {
                *word |= 1u64 << (bit % 64);
            }
        }
    }

    /// Whether the filter may contain the **local** index `item` (`true`
    /// is "must visit", `false` is "provably absent").
    fn may_contain(&self, item: usize) -> bool {
        let m = self.bits();
        if m == 0 {
            return true;
        }
        let (h1, h2) = hash_pair(item as u64);
        (0..u64::from(self.k)).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.words
                .get((bit / 64) as usize)
                .is_some_and(|word| word >> (bit % 64) & 1 == 1)
        })
    }
}

/// Query-pruning metadata derived deterministically from a segment's
/// synopsis: the fence is the inclusive local index range with nonzero
/// synopsis support, the filter (when present) covers exactly the support
/// indices.  A segment whose fence misses a query window contributes an
/// exact `±0.0` to the estimate, and the query accumulators never hold
/// `-0.0`, so skipping it is **bitwise** answer-preserving — the contract
/// the `store_read_path` equivalence suite pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneMeta {
    fence: Option<(usize, usize)>,
    filter: Option<PresenceFilter>,
}

/// Maximal runs of local indices whose synopsis value is nonzero
/// (`-0.0 == 0.0`, so signed zeros count as zero support — their
/// contribution to any sum is still an exact zero).
fn support_runs(segment: &Segment) -> Vec<(usize, usize)> {
    match segment.synopsis() {
        SegmentSynopsis::Histogram(h) => h
            .buckets()
            .iter()
            .filter(|b| b.representative != 0.0)
            .map(|b| (b.start, b.end))
            .collect(),
        SegmentSynopsis::Wavelet(w) => {
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for (i, &value) in w.reconstruct().iter().enumerate() {
                if value != 0.0 {
                    match runs.last_mut() {
                        Some((_, end)) if *end + 1 == i => *end = i,
                        _ => runs.push((i, i)),
                    }
                }
            }
            runs
        }
    }
}

impl PruneMeta {
    /// Computes the prune metadata of a segment — a pure function of the
    /// synopsis bytes, so the persisted copy is recomputable (and is
    /// verified against the synopsis on every full blob decode).
    pub fn of(segment: &Segment) -> PruneMeta {
        let runs = support_runs(segment);
        let Some(&(first_lo, first_hi)) = runs.first() else {
            return PruneMeta {
                fence: None,
                filter: None,
            };
        };
        let hi = runs.last().map_or(first_hi, |&(_, end)| end);
        let count: usize = runs.iter().map(|&(a, b)| b - a + 1).sum();
        let filter = if count <= FILTER_CAP {
            let mut support = Vec::with_capacity(count);
            for &(a, b) in &runs {
                support.extend(a..=b);
            }
            Some(PresenceFilter::build(&support))
        } else {
            None
        };
        PruneMeta {
            fence: Some((first_lo, hi)),
            filter,
        }
    }

    /// Whether a segment starting at global item `seg_start` may
    /// contribute a nonzero amount to the **clamped, global, inclusive**
    /// query window `[lo, hi]`.  `false` is a proof: the segment's
    /// contribution is an exact zero and skipping it leaves the estimate
    /// bitwise unchanged.  Point windows (`lo == hi`) additionally
    /// consult the presence filter.
    pub fn may_overlap(&self, seg_start: usize, lo: usize, hi: usize) -> bool {
        let Some((fence_lo, fence_hi)) = self.fence else {
            return false;
        };
        let global_lo = seg_start + fence_lo;
        let global_hi = seg_start + fence_hi;
        if hi < global_lo || lo > global_hi {
            return false;
        }
        if lo == hi {
            // Reached only when lo >= global_lo >= seg_start.
            if let Some(filter) = &self.filter {
                return filter.may_contain(lo - seg_start);
            }
        }
        true
    }

    /// The inclusive local support fence, when any support exists.
    pub fn fence(&self) -> Option<(usize, usize)> {
        self.fence
    }
}

/// The decoded meta block of a v2 blob: the segment header fields plus
/// its prune metadata — everything a reopen needs to install and prune a
/// segment without touching the synopsis block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobMeta {
    /// First global item the segment covers.
    pub start: usize,
    /// Number of items the segment covers.
    pub width: usize,
    /// Records sealed into the segment.
    pub records: u64,
    /// Fence + presence filter for query pruning.
    pub prune: PruneMeta,
}

impl BlobMeta {
    /// The meta block a segment persists (also the recompute-verify
    /// reference on full decode).
    pub fn of(segment: &Segment) -> BlobMeta {
        BlobMeta {
            start: segment.start(),
            width: segment.width(),
            records: segment.records(),
            prune: PruneMeta::of(segment),
        }
    }
}

/// The fixed 36-byte footer of a v2 blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobFooter {
    /// Length of the meta block in bytes.
    pub meta_len: u32,
    /// Length of the synopsis block in bytes.
    pub syn_len: u64,
    /// CRC-32 of the meta block bytes.
    pub meta_crc: u32,
    /// CRC-32 of the synopsis block bytes.
    pub syn_crc: u32,
    /// Total file length, footer included.
    pub total_len: u64,
}

impl BlobFooter {
    /// Parses exactly [`FOOTER_LEN`] trailing bytes: footer CRC first,
    /// then magic, then fields.  Geometry against the real file length is
    /// the caller's check ([`decode_footer`]).
    pub fn decode(tail: &[u8]) -> Result<BlobFooter> {
        if tail.len() != FOOTER_LEN {
            return Err(corrupt(format!(
                "segment blob footer: {} bytes (expected {FOOTER_LEN})",
                tail.len()
            )));
        }
        let (covered, trailer) = tail.split_at(FOOTER_LEN - 4);
        let mut stored = [0u8; 4];
        stored.copy_from_slice(trailer);
        let stored = u32::from_le_bytes(stored);
        let computed = crc32(covered);
        if stored != computed {
            return Err(corrupt(format!(
                "segment blob footer: crc32 mismatch (stored {stored:#010x}, \
                 computed {computed:#010x})"
            )));
        }
        let mut r = ByteReader::new(covered, "segment blob footer");
        let meta_len = r.get_u32()?;
        let syn_len = r.get_u64()?;
        let meta_crc = r.get_u32()?;
        let syn_crc = r.get_u32()?;
        let total_len = r.get_u64()?;
        let magic = r.get_bytes(4)?;
        r.finish()?;
        if magic != FOOTER_MAGIC {
            return Err(corrupt(format!(
                "segment blob footer: bad magic {magic:?} (expected \"PDSF\")"
            )));
        }
        Ok(BlobFooter {
            meta_len,
            syn_len,
            meta_crc,
            syn_crc,
            total_len,
        })
    }

    /// Byte offset of the synopsis block inside the blob file.
    pub fn synopsis_offset(&self) -> u64 {
        HEADER_LEN as u64 + u64::from(self.meta_len)
    }

    /// Whether the declared geometry tiles a `file_len`-byte file exactly
    /// (`header + meta + synopsis + footer == total_len == file_len`) —
    /// the check that rejects truncated or spliced files before any block
    /// is parsed.
    pub fn tiles(&self, file_len: u64) -> bool {
        let expected = (HEADER_LEN as u64)
            .checked_add(u64::from(self.meta_len))
            .and_then(|v| v.checked_add(self.syn_len))
            .and_then(|v| v.checked_add(FOOTER_LEN as u64));
        expected == Some(self.total_len) && self.total_len == file_len
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.meta_len);
        w.put_u64(self.syn_len);
        w.put_u32(self.meta_crc);
        w.put_u32(self.syn_crc);
        w.put_u64(self.total_len);
        w.put_bytes(&FOOTER_MAGIC);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }
}

fn encode_meta_block(meta: &BlobMeta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_varint(meta.start as u64);
    w.put_varint(meta.width as u64);
    w.put_varint(meta.records);
    match meta.prune.fence {
        None => w.put_u8(0),
        Some((lo, hi)) => {
            w.put_u8(1);
            w.put_varint(lo as u64);
            w.put_varint(hi as u64);
        }
    }
    match &meta.prune.filter {
        None => w.put_u8(0),
        Some(filter) => {
            w.put_u8(1);
            w.put_varint(u64::from(filter.k));
            w.put_varint(filter.words.len() as u64);
            for &word in &filter.words {
                w.put_u64(word);
            }
        }
    }
    w.into_bytes()
}

/// Parses `bytes` = the first `HEADER_LEN + meta_len` bytes of a v2 blob
/// (header + meta block), verifying the envelope, the version, and the
/// footer-supplied `meta_crc` before trusting any length.
pub fn decode_meta_block(bytes: &[u8], meta_crc: u32) -> Result<BlobMeta> {
    let (mut r, version) = ByteReader::envelope(bytes, "segment blob meta", BLOB_MAGIC)?;
    if version != BLOB_VERSION {
        return Err(corrupt(format!(
            "segment blob version {version} is not supported (expected {BLOB_VERSION})"
        )));
    }
    let meta_region = bytes.get(HEADER_LEN..).unwrap_or_default();
    let computed = crc32(meta_region);
    if computed != meta_crc {
        return Err(corrupt(format!(
            "segment blob meta: crc32 mismatch (stored {meta_crc:#010x}, \
             computed {computed:#010x})"
        )));
    }
    let start = r.get_len(u32::MAX as usize)?;
    let width = r.get_len(u32::MAX as usize)?;
    if width == 0 {
        return Err(corrupt("segment blob meta: zero width".to_string()));
    }
    let records = r.get_varint()?;
    let fence = match r.get_u8()? {
        0 => None,
        1 => {
            let lo = r.get_len(u32::MAX as usize)?;
            let hi = r.get_len(u32::MAX as usize)?;
            if lo > hi || hi >= width {
                return Err(corrupt(format!(
                    "segment blob meta: fence [{lo}, {hi}] outside width {width}"
                )));
            }
            Some((lo, hi))
        }
        other => {
            return Err(corrupt(format!(
                "segment blob meta: unknown fence tag {other}"
            )))
        }
    };
    let filter = match r.get_u8()? {
        0 => None,
        1 => {
            let k = r.get_len(64)? as u32;
            if k == 0 {
                return Err(corrupt(
                    "segment blob meta: filter with zero hashes".to_string(),
                ));
            }
            // A word count beyond the remaining bytes cannot be honest.
            let n_words = r.get_len(r.remaining() / 8)?;
            if n_words == 0 {
                return Err(corrupt(
                    "segment blob meta: filter with zero words".to_string(),
                ));
            }
            let mut words = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                words.push(r.get_u64()?);
            }
            Some(PresenceFilter { k, words })
        }
        other => {
            return Err(corrupt(format!(
                "segment blob meta: unknown filter tag {other}"
            )))
        }
    };
    if fence.is_none() && filter.is_some() {
        return Err(corrupt(
            "segment blob meta: filter without a fence".to_string(),
        ));
    }
    r.finish()?;
    Ok(BlobMeta {
        start,
        width,
        records,
        prune: PruneMeta { fence, filter },
    })
}

/// Parses and cross-checks the footer of a complete v2 blob image: the
/// declared geometry must tile the actual byte length exactly
/// (`header + meta + synopsis + footer == total_len == bytes.len()`), so
/// truncated or spliced files are rejected before any block is parsed.
pub fn decode_footer(bytes: &[u8]) -> Result<BlobFooter> {
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(corrupt(format!(
            "segment blob: {} bytes is too short for a v2 blob",
            bytes.len()
        )));
    }
    let footer = BlobFooter::decode(&bytes[bytes.len() - FOOTER_LEN..])?;
    if !footer.tiles(bytes.len() as u64) {
        return Err(corrupt(format!(
            "segment blob: footer declares {} total bytes over a {}-byte file",
            footer.total_len,
            bytes.len()
        )));
    }
    Ok(footer)
}

/// Parses the metadata (footer + meta block) of a complete v2 blob image
/// **without touching the synopsis block** — exactly what a lazy reopen
/// reads per segment, and the decoder the `blobmeta` fuzz target drives.
pub fn decode_blob_meta(bytes: &[u8]) -> Result<BlobMeta> {
    Ok(decode_framing(bytes)?.1)
}

/// The metadata half shared by [`decode_blob_meta`] and [`decode_blob`]:
/// the verified footer, the decoded meta block and the rest of the blob
/// (synopsis block + footer).
fn decode_framing(bytes: &[u8]) -> Result<(BlobFooter, BlobMeta, &[u8])> {
    let footer = decode_footer(bytes)?;
    // The split point is in bounds by the footer geometry check; go
    // through `split_at_checked` anyway so this path cannot panic even if
    // that check ever regresses.
    let (prefix, rest) = bytes
        .split_at_checked(HEADER_LEN + footer.meta_len as usize)
        .ok_or_else(|| corrupt("segment blob: meta block exceeds the blob".to_string()))?;
    let meta = decode_meta_block(prefix, footer.meta_crc)?;
    Ok((footer, meta, rest))
}

/// Verifies and decodes a standalone synopsis block against its footer
/// CRC and its meta block — the first-touch load path.  The decoded
/// segment's recomputed metadata must equal the persisted copy bit for
/// bit, so a lazily-pruned query can never act on fences the synopsis
/// does not back.
pub fn decode_synopsis_block(bytes: &[u8], syn_crc: u32, meta: &BlobMeta) -> Result<Segment> {
    let computed = crc32(bytes);
    if computed != syn_crc {
        return Err(corrupt(format!(
            "segment blob synopsis: crc32 mismatch (stored {syn_crc:#010x}, \
             computed {computed:#010x})"
        )));
    }
    let segment = Segment::from_binary(bytes)?;
    let expected = BlobMeta::of(&segment);
    if *meta != expected {
        return Err(corrupt(
            "segment blob: persisted prune metadata does not match the \
             synopsis block"
                .to_string(),
        ));
    }
    Ok(segment)
}

/// Fully decodes a v2 blob: metadata, synopsis block, and the
/// meta-vs-synopsis recompute check.  Returns the segment together with
/// its verified metadata.
pub fn decode_blob(bytes: &[u8]) -> Result<(Segment, BlobMeta)> {
    let (footer, meta, rest) = decode_framing(bytes)?;
    let block = rest
        .get(..footer.syn_len as usize)
        .ok_or_else(|| corrupt("segment blob: synopsis block exceeds the blob".to_string()))?;
    let segment = decode_synopsis_block(block, footer.syn_crc, &meta)?;
    Ok((segment, meta))
}

/// Encodes a segment as a v2 blob (the bytes of an install-time
/// `seg-<p>-<seq>.bin` file).  The synopsis block is the exact
/// [`Segment::to_binary`] image.
pub fn encode_blob(segment: &Segment) -> Result<Vec<u8>> {
    let syn = segment.to_binary()?;
    let meta_block = encode_meta_block(&BlobMeta::of(segment));
    let total_len = (HEADER_LEN + meta_block.len() + syn.len() + FOOTER_LEN) as u64;
    let footer = BlobFooter {
        meta_len: meta_block.len() as u32,
        syn_len: syn.len() as u64,
        meta_crc: crc32(&meta_block),
        syn_crc: crc32(&syn),
        total_len,
    };
    let mut w = ByteWriter::envelope(BLOB_MAGIC, BLOB_VERSION);
    w.put_bytes(&meta_block);
    w.put_bytes(&syn);
    w.put_bytes(&footer.encode());
    Ok(w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SynopsisKind;
    use pds_core::generator::{mystiq_like, MystiqLikeConfig};
    use pds_core::metrics::ErrorMetric;
    use pds_core::model::{BasicModel, ProbabilisticRelation};

    fn relation(n: usize, seed: u64) -> ProbabilisticRelation {
        mystiq_like(MystiqLikeConfig {
            n,
            avg_tuples_per_item: 3.0,
            skew: 0.8,
            seed,
        })
        .into()
    }

    /// A relation over `[0, n)` whose mass is confined to `band` (1–3
    /// certain tuples per band item), zero everywhere else.
    fn banded_relation(n: usize, band: std::ops::Range<usize>) -> ProbabilisticRelation {
        let mut pairs = Vec::new();
        for i in band {
            for _ in 0..(1 + i % 3) {
                pairs.push((i, 1.0));
            }
        }
        BasicModel::from_pairs(n, pairs).unwrap().into()
    }

    fn histogram_segment() -> Segment {
        let rel = relation(32, 7);
        Segment::build(
            100,
            rel.m() as u64,
            &rel,
            SynopsisKind::Histogram(ErrorMetric::Sse),
            6,
        )
        .unwrap()
    }

    fn wavelet_segment() -> Segment {
        let rel = relation(16, 9);
        Segment::build(8, rel.m() as u64, &rel, SynopsisKind::Wavelet, 5).unwrap()
    }

    #[test]
    fn v2_blob_round_trips_both_synopsis_kinds() {
        for seg in [histogram_segment(), wavelet_segment()] {
            let blob = encode_blob(&seg).unwrap();
            assert_eq!(&blob[..4], b"PDSB");
            let (decoded, meta) = decode_blob(&blob).unwrap();
            assert_eq!(decoded, seg);
            assert_eq!(meta, BlobMeta::of(&seg));
            // Meta-only decode agrees without touching the synopsis.
            assert_eq!(decode_blob_meta(&blob).unwrap(), meta);
        }
    }

    #[test]
    fn footer_geometry_is_exact() {
        let blob = encode_blob(&histogram_segment()).unwrap();
        let footer = decode_footer(&blob).unwrap();
        assert_eq!(footer.total_len, blob.len() as u64);
        assert_eq!(
            HEADER_LEN as u64 + u64::from(footer.meta_len) + footer.syn_len + FOOTER_LEN as u64,
            footer.total_len
        );
        // The synopsis block is the exact to_binary image.
        let off = footer.synopsis_offset() as usize;
        let syn = &blob[off..off + footer.syn_len as usize];
        assert_eq!(syn, histogram_segment().to_binary().unwrap().as_slice());
        assert_eq!(&syn[..4], b"PDSG");
    }

    #[test]
    fn every_bit_flip_and_truncation_is_rejected() {
        let seg = wavelet_segment();
        let blob = encode_blob(&seg).unwrap();
        for pos in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << bit;
                assert!(decode_blob(&bad).is_err(), "flip at {pos}.{bit}");
            }
        }
        for cut in 0..blob.len() {
            assert!(decode_blob(&blob[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn meta_only_decode_rejects_meta_footer_and_header_flips() {
        // The lazy-open parse can't see synopsis-block damage (that's
        // caught at first touch by `decode_synopsis_block`), but every
        // byte it *does* read is covered.
        let blob = encode_blob(&histogram_segment()).unwrap();
        let footer = decode_footer(&blob).unwrap();
        let meta_end = HEADER_LEN + footer.meta_len as usize;
        let syn_end = meta_end + footer.syn_len as usize;
        for pos in (0..meta_end).chain(syn_end..blob.len()) {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << bit;
                assert!(decode_blob_meta(&bad).is_err(), "flip at {pos}.{bit}");
            }
        }
    }

    #[test]
    fn synopsis_block_load_rejects_damage_and_meta_skew() {
        let seg = histogram_segment();
        let blob = encode_blob(&seg).unwrap();
        let footer = decode_footer(&blob).unwrap();
        let meta = decode_blob_meta(&blob).unwrap();
        let off = footer.synopsis_offset() as usize;
        let syn = blob[off..off + footer.syn_len as usize].to_vec();
        assert_eq!(
            decode_synopsis_block(&syn, footer.syn_crc, &meta).unwrap(),
            seg
        );
        // Damaged block bytes.
        let mut bad = syn.clone();
        bad[10] ^= 1;
        assert!(decode_synopsis_block(&bad, footer.syn_crc, &meta).is_err());
        // Metadata that does not match the synopsis (records skewed).
        let mut skewed = meta.clone();
        skewed.records += 1;
        assert!(decode_synopsis_block(&syn, footer.syn_crc, &skewed).is_err());
    }

    #[test]
    fn prune_meta_fences_support_and_zero_elsewhere() {
        // A relation confined to a narrow band: the SSE DP gives the
        // all-zero flanks zero-representative buckets, so the fence is
        // narrow and everything outside it is provably prunable.
        let rel = banded_relation(64, 16..24);
        let seg = Segment::build(
            0,
            rel.m() as u64,
            &rel,
            SynopsisKind::Histogram(ErrorMetric::Sse),
            8,
        )
        .unwrap();
        let meta = PruneMeta::of(&seg);
        let (lo, hi) = meta.fence().unwrap();
        assert!(lo >= 8 && hi <= 31, "fence [{lo}, {hi}] not narrow");
        assert!(meta.filter.is_some());
        // Outside the fence: provably prunable; inside: must visit.
        assert!(!meta.may_overlap(0, 0, lo - 1));
        assert!(!meta.may_overlap(0, hi + 1, 63));
        assert!(meta.may_overlap(0, lo, hi));
        assert!(meta.may_overlap(0, 0, 63));
        // A fence miss with a nonzero segment start uses global indices.
        assert!(!meta.may_overlap(1000, 0, 999 + lo));
        // Pruned windows contribute an exact zero.
        for item in 0..64 {
            if !meta.may_overlap(0, item, item) {
                assert_eq!(seg.range_sum(item, item), 0.0, "item {item}");
            }
        }
    }

    #[test]
    fn zero_support_segment_prunes_everything() {
        let rel = banded_relation(16, 0..0);
        let seg = Segment::build(0, 0, &rel, SynopsisKind::Histogram(ErrorMetric::Sse), 4).unwrap();
        let meta = PruneMeta::of(&seg);
        assert_eq!(meta.fence(), None);
        assert!(!meta.may_overlap(0, 0, 15));
        // And it round-trips through the blob encoding.
        let blob = encode_blob(&seg).unwrap();
        let (_, decoded) = decode_blob(&blob).unwrap();
        assert_eq!(decoded.prune, meta);
    }

    #[test]
    fn presence_filter_has_no_false_negatives() {
        let support: Vec<usize> = (0..2000).filter(|i| i % 3 == 0).collect();
        let filter = PresenceFilter::build(&support);
        for &item in &support {
            assert!(filter.may_contain(item));
        }
        // False positives exist but must be rare (~1% budget; allow 5%).
        let negatives: Vec<usize> = (0..6000).filter(|i| i % 3 != 0).collect();
        let fp = negatives.iter().filter(|&&i| filter.may_contain(i)).count();
        assert!(
            fp * 20 < negatives.len(),
            "{fp} false positives over {}",
            negatives.len()
        );
    }

    #[test]
    fn huge_support_skips_the_filter_but_keeps_the_fence() {
        // A dense wavelet segment: support everywhere (the averaging
        // coefficients make every reconstructed value nonzero), and the
        // support count is over the filter cap, so the fence stands alone.
        let rel = banded_relation(8192, 0..8192);
        let seg = Segment::build(0, rel.m() as u64, &rel, SynopsisKind::Wavelet, 64).unwrap();
        let meta = PruneMeta::of(&seg);
        let (lo, hi) = meta.fence().unwrap();
        assert_eq!((lo, hi), (0, 8191));
        assert!(meta.filter.is_none());
        assert!(meta.may_overlap(0, 5, 5));
        // Still a valid, round-trippable blob.
        let blob = encode_blob(&seg).unwrap();
        assert_eq!(decode_blob_meta(&blob).unwrap().prune, meta);
    }

    #[test]
    fn malformed_meta_blocks_are_rejected() {
        let seg = histogram_segment();
        let blob = encode_blob(&seg).unwrap();
        let footer = decode_footer(&blob).unwrap();
        let meta_end = HEADER_LEN + footer.meta_len as usize;
        let region = &blob[..meta_end];
        // Wrong CRC is rejected even with valid bytes.
        assert!(decode_meta_block(region, footer.meta_crc ^ 1).is_err());
        // Rebuild hostile meta blocks directly (valid CRCs, bad content).
        let hostile = |build: &dyn Fn(&mut ByteWriter)| {
            let mut w = ByteWriter::new();
            build(&mut w);
            let body = w.into_bytes();
            let crc = crc32(&body);
            let mut w = ByteWriter::envelope(BLOB_MAGIC, BLOB_VERSION);
            w.put_bytes(&body);
            decode_meta_block(&w.into_bytes(), crc)
        };
        // Fence outside the width.
        assert!(hostile(&|w| {
            w.put_varint(0);
            w.put_varint(8);
            w.put_varint(1);
            w.put_u8(1);
            w.put_varint(3);
            w.put_varint(9); // hi >= width
            w.put_u8(0);
        })
        .is_err());
        // Reversed fence.
        assert!(hostile(&|w| {
            w.put_varint(0);
            w.put_varint(8);
            w.put_varint(1);
            w.put_u8(1);
            w.put_varint(5);
            w.put_varint(2);
            w.put_u8(0);
        })
        .is_err());
        // Unknown tags.
        assert!(hostile(&|w| {
            w.put_varint(0);
            w.put_varint(8);
            w.put_varint(1);
            w.put_u8(7);
        })
        .is_err());
        // Filter without fence (non-canonical).
        assert!(hostile(&|w| {
            w.put_varint(0);
            w.put_varint(8);
            w.put_varint(1);
            w.put_u8(0);
            w.put_u8(1);
            w.put_varint(7);
            w.put_varint(1);
            w.put_u64(1);
        })
        .is_err());
        // Zero width.
        assert!(hostile(&|w| {
            w.put_varint(0);
            w.put_varint(0);
            w.put_varint(1);
            w.put_u8(0);
            w.put_u8(0);
        })
        .is_err());
        // Trailing garbage.
        assert!(hostile(&|w| {
            w.put_varint(0);
            w.put_varint(8);
            w.put_varint(1);
            w.put_u8(0);
            w.put_u8(0);
            w.put_u8(0);
        })
        .is_err());
    }
}
