//! Byte-level reader/writer primitives for the compact binary synopsis
//! format.
//!
//! Every persistent artefact (histograms, wavelet synopses, store segments)
//! shares the same envelope discipline: a four-byte ASCII magic, a `u16`
//! format version, then a type-specific payload built from the primitives
//! here.  All integers are little-endian; lengths and indices use LEB128
//! varints so that delta-encoded bucket boundaries stay small.  The reader
//! never panics: truncation, bad magic and malformed varints surface as
//! [`PdsError::InvalidParameter`], mirroring the JSON envelope treatment.

use crate::error::{PdsError, Result};

/// Appends binary primitives to a growing byte buffer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Starts an envelope: the four-byte magic followed by the format
    /// version.
    pub fn envelope(magic: [u8; 4], version: u16) -> Self {
        let mut w = ByteWriter::new();
        w.buf.extend_from_slice(&magic);
        w.put_u16(version);
        w
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a raw byte slice (length must be conveyed separately, e.g.
    /// via a preceding varint).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes an unsigned LEB128 varint (1 byte for values below 128).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }
}

/// Reads binary primitives from a byte slice, turning truncation and
/// malformed input into [`PdsError`]s.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Human-readable artefact name used in error messages.
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice; `what` names the artefact for error messages.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            what,
        }
    }

    /// Opens an envelope: checks the magic and returns the format version.
    pub fn envelope(bytes: &'a [u8], what: &'static str, magic: [u8; 4]) -> Result<(Self, u16)> {
        let mut r = ByteReader::new(bytes, what);
        let got = r.take(4)?;
        if got != magic {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "{what}: bad magic {got:?} (expected {:?})",
                    std::str::from_utf8(&magic).unwrap_or("?")
                ),
            });
        }
        let version = r.get_u16()?;
        Ok((r, version))
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn truncated(&self, needed: usize) -> PdsError {
        PdsError::InvalidParameter {
            message: format!(
                "{}: truncated input (need {needed} more bytes at offset {}, {} left)",
                self.what,
                self.pos,
                self.remaining()
            ),
        }
    }

    /// Errors unless every byte has been consumed (trailing garbage detector).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "{}: {} trailing bytes after the payload",
                    self.what,
                    self.remaining()
                ),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(n - self.remaining()));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes exactly `N` bytes as a fixed-size array — the panic-free
    /// backbone of the integer readers ([`Self::take`] already bounds the
    /// slice, so the copy lengths always agree).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Reads `n` raw bytes (the counterpart of [`ByteWriter::put_bytes`]).
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a little-endian `u16`.
    fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f64` from its little-endian IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Reads an unsigned LEB128 varint, rejecting encodings longer than 10
    /// bytes and any final byte whose payload bits overflow a `u64` (so a
    /// malformed length can never silently truncate to a wrong value).
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let payload = u64::from(byte & 0x7f);
            if shift > 0 && (payload >> (64 - shift)) != 0 {
                return Err(PdsError::InvalidParameter {
                    message: format!("{}: varint overflows 64 bits", self.what),
                });
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(PdsError::InvalidParameter {
            message: format!("{}: varint longer than 10 bytes", self.what),
        })
    }

    /// Reads a varint and converts it to `usize`, with an upper bound so a
    /// corrupted length cannot drive a huge allocation.
    pub fn get_len(&mut self, limit: usize) -> Result<usize> {
        let v = self.get_varint()?;
        if v > limit as u64 {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "{}: declared length {v} exceeds the sanity limit {limit}",
                    self.what
                ),
            });
        }
        Ok(v as usize)
    }
}

/// The CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup
/// table, computed at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // analyze:allow(panic-freedom) const-eval table fill: `i` is bounded by the enclosing `while i < 256`, and an out-of-range write would fail compilation, not runtime
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC-32 (IEEE) checksum of a byte slice — the checksum used by every
/// crash-durable artefact (segment blobs, manifest records, WAL frames) to
/// tell torn or corrupted bytes from valid ones.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends a 4-byte little-endian [`crc32`] trailer covering everything
/// already in `bytes` — the writer half of the checksummed-blob discipline.
pub fn append_crc32(bytes: &mut Vec<u8>) {
    let crc = crc32(bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies and strips the 4-byte [`crc32`] trailer appended by
/// [`append_crc32`], returning the covered payload.  Truncation and
/// checksum mismatches surface as [`PdsError`]s naming `what`.
pub fn verify_crc32<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8]> {
    if bytes.len() < 4 {
        return Err(PdsError::InvalidParameter {
            message: format!(
                "{what}: {} bytes is too short to carry a crc32 trailer",
                bytes.len()
            ),
        });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let mut stored = [0u8; 4];
    stored.copy_from_slice(trailer);
    let stored = u32::from_le_bytes(stored);
    let computed = crc32(payload);
    if stored != computed {
        return Err(PdsError::InvalidParameter {
            message: format!(
                "{what}: crc32 mismatch (stored {stored:#010x}, computed {computed:#010x}) — \
                 the bytes are torn or corrupted"
            ),
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_trailer_round_trips_and_rejects_corruption() {
        let mut blob = b"payload bytes".to_vec();
        append_crc32(&mut blob);
        assert_eq!(verify_crc32(&blob, "blob").unwrap(), b"payload bytes");
        // Every single-bit flip anywhere (payload or trailer) is caught.
        for pos in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << bit;
                assert!(verify_crc32(&bad, "blob").is_err(), "flip at {pos}.{bit}");
            }
        }
        // Truncation is caught (any strict prefix).
        for cut in 0..blob.len() {
            assert!(verify_crc32(&blob[..cut], "blob").is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::envelope(*b"TEST", 3);
        w.put_u8(7);
        w.put_u16(65535);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-1.5e300);
        w.put_varint(0);
        w.put_varint(127);
        w.put_varint(128);
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();

        let (mut r, version) = ByteReader::envelope(&bytes, "test blob", *b"TEST").unwrap();
        assert_eq!(version, 3);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -1.5e300);
        assert_eq!(r.get_varint().unwrap(), 0);
        assert_eq!(r.get_varint().unwrap(), 127);
        assert_eq!(r.get_varint().unwrap(), 128);
        assert_eq!(r.get_varint().unwrap(), u64::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn varints_are_compact() {
        let mut w = ByteWriter::new();
        w.put_varint(100);
        assert_eq!(w.len(), 1);
        let mut w = ByteWriter::new();
        w.put_varint(300);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn truncation_and_magic_errors() {
        let mut w = ByteWriter::envelope(*b"TEST", 1);
        w.put_u64(42);
        let bytes = w.into_bytes();
        // Every strict prefix fails with a PdsError, never a panic.
        for cut in 0..bytes.len() {
            let r = ByteReader::envelope(&bytes[..cut], "test blob", *b"TEST")
                .and_then(|(mut r, _)| r.get_u64());
            assert!(r.is_err(), "prefix of {cut} bytes should fail");
        }
        // Wrong magic.
        assert!(ByteReader::envelope(&bytes, "test blob", *b"NOPE").is_err());
        // Trailing garbage.
        let (mut r, _) = ByteReader::envelope(&bytes, "test blob", *b"TEST").unwrap();
        r.get_u16().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn unterminated_varint_is_rejected() {
        let bytes = [0x80u8; 11];
        let mut r = ByteReader::new(&bytes, "varint");
        assert!(r.get_varint().is_err());
        // Truncated continuation.
        let bytes = [0x80u8, 0x80];
        let mut r = ByteReader::new(&bytes, "varint");
        assert!(r.get_varint().is_err());
    }

    #[test]
    fn varint_overflow_bits_are_rejected_not_truncated() {
        // Nine continuation bytes then 0x7e: the final payload would need
        // bits 64.. of the u64, which a silent shift would drop to zero.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x7e);
        let mut r = ByteReader::new(&bytes, "varint");
        assert!(r.get_varint().is_err());
        // The largest legal 10-byte encoding still decodes.
        let mut w = ByteWriter::new();
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 10);
        let mut r = ByteReader::new(&bytes, "varint");
        assert_eq!(r.get_varint().unwrap(), u64::MAX);
    }

    #[test]
    fn raw_byte_slices_round_trip() {
        let mut w = ByteWriter::new();
        w.put_varint(3);
        w.put_bytes(&[7, 8, 9]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "blob");
        let n = r.get_len(16).unwrap();
        assert_eq!(r.get_bytes(n).unwrap(), &[7, 8, 9]);
        r.finish().unwrap();
        assert!(r.get_bytes(1).is_err());
    }

    #[test]
    fn length_sanity_limit_blocks_huge_allocations() {
        let mut w = ByteWriter::new();
        w.put_varint(1 << 40);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "segment");
        let err = r.get_len(1 << 20).unwrap_err();
        assert!(err.to_string().contains("sanity limit"));
    }
}
