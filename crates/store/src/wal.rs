//! Per-partition write-ahead logs for live memtable contents, with
//! checksummed binary frames and group commit.
//!
//! A store's sealed segments are durable through their install-time blobs
//! and the [`Manifest`](crate::manifest::Manifest); the records still
//! buffered in memtables are covered here.  A [`PartitionWal`] logs every
//! record routed to a partition **before** it enters the memtable, so a
//! crashed process can reopen the store and re-ingest exactly the records
//! that were live.
//!
//! ## Record framing
//!
//! Every appended record is one **frame**, built with `pds_core::binio`:
//!
//! ```text
//! <len: varint> <crc32(len bytes): u32> <payload: len bytes> <crc32(payload): u32>
//! ```
//!
//! The payload is the record itself: a kind tag (`b` basic, `x` x-tuple,
//! `v` value pdf), varint items and counts, and `f64` bit patterns, so
//! replay gets back exactly the bits that were logged.  Every byte of a
//! frame is checked, its length included.  The length's own checksum is
//! what keeps a damaged length from lying: it reads as corruption, and can
//! never point past the end of the log and pass for a torn tail that would
//! swallow the acknowledged frames behind it.
//!
//! **Torn-final-frame tolerance.**  A frame that runs past the end of a
//! *live* log — any proper prefix of a valid frame — is an unacknowledged
//! append torn by the crash and is dropped.  Any other broken frame, the
//! last one included, is corruption and aborts the scan with every file
//! intact.  Frozen logs were flushed before their rename, so they are read
//! strictly (no tolerance).  There is one format and no file header: a log
//! in any other format (the text frames of older builds, say) fails its
//! first frame's length check.
//!
//! ## File lifecycle
//!
//! Partition `p` owns up to three kinds of files inside the WAL directory:
//!
//! * `wal-<p>.log` — the **live log**, mirroring the current memtable.
//! * `wal-<p>.<seq>.sealing` — a **frozen log**: when the memtable freezes
//!   for sealing, the live log is atomically renamed to carry the seal
//!   sequence number and a fresh live log starts.  The frozen file is
//!   deleted only after the sealed segment's blob **and** manifest entry
//!   are on disk, so a crash anywhere during a seal replays the frozen
//!   records (or finds them already covered by the manifest and skips
//!   them — never both, never neither).
//! * `wal-<p>.log.tmp` — a staging file used while **committing** a
//!   recovery; a leftover `.tmp` from a crashed recovery is discarded on
//!   the next scan.
//!
//! ## Recovery protocol (scan → re-ingest → commit)
//!
//! 1. `PartitionWal::scan` **reads** the frozen logs (in seal order,
//!    skipping sequences the manifest already covers) and the live log
//!    without deleting or truncating anything, so a parse error in any
//!    partition — or a crash at any point before commit — leaves every log
//!    intact for the next attempt.
//! 2. The store re-ingests the replayed records into its memtables (with
//!    auto-sealing suppressed, so the replayed set stays exactly the live
//!    set).
//! 3. `PartitionWal::commit` writes the replayed records to
//!    `wal-<p>.log.tmp`, atomically renames it over the live log, deletes
//!    the absorbed (and the manifest-covered) frozen logs, and returns the
//!    append handle.
//!
//! A crash before the rename replays identically next time (exactly-once
//! for live records); frozen records are exactly-once too, because the
//! manifest entry — not the frozen-file deletion — is the seal's commit
//! point.
//!
//! ## Durability contract (group commit + fsync tier)
//!
//! Appends are buffered.  The store issues **one group commit per ingest
//! call per touched shard**
//! ([`SynopsisStore::ingest_batch`](crate::SynopsisStore::ingest_batch);
//! a single-record `ingest` is a batch of one): every shard's sub-batch is
//! appended lock-parallel without flushing, then flushed exactly once
//! ([`PartitionWal::commit_group`]).  The default tier stops at
//! `BufWriter::flush` (surviving process crashes); the opt-in
//! [`WalSync::Fsync`](crate::WalSync) tier adds `File::sync_data` at the
//! same group-commit boundaries (surviving power loss), amortised across
//! the whole batch instead of taxing every record.
//!
//! A sub-batch that reaches the seal threshold freezes mid-call:
//! [`PartitionWal::rotate`] flushes (but does not `sync_data`) everything
//! appended so far into the frozen log, and the calling thread seals it
//! before the call returns — on the fsync tier those records become
//! power-loss durable through the seal's own blob and manifest fsyncs (the
//! manifest entry supersedes the frozen log).

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use pds_core::binio::{crc32, ByteReader, ByteWriter};
use pds_core::error::{PdsError, Result};
use pds_core::stream::StreamRecord;
use pds_core::vfs;

use crate::telemetry::IoPolicy;

fn io_err(context: &str, e: std::io::Error) -> PdsError {
    PdsError::InvalidParameter {
        message: format!("wal: {context}: {e}"),
    }
}

fn live_path(dir: &Path, partition: usize) -> PathBuf {
    dir.join(format!("wal-{partition}.log"))
}

/// Payload kind tags, one per [`StreamRecord`] variant.
const BASIC: u8 = b'b';
const ALTERNATIVES: u8 = b'x';
const VALUE_PDF: u8 = b'v';

/// The longest LEB128 encoding of a `u64`: the most bytes a frame's length
/// field can take.
const MAX_LEN_BYTES: usize = 10;

fn encode_record(record: &StreamRecord, w: &mut ByteWriter) {
    match record {
        StreamRecord::Basic { item, prob } => {
            w.put_u8(BASIC);
            w.put_varint(*item as u64);
            w.put_f64(*prob);
        }
        StreamRecord::Alternatives(alts) => {
            w.put_u8(ALTERNATIVES);
            w.put_varint(alts.len() as u64);
            for &(item, prob) in alts {
                w.put_varint(item as u64);
                w.put_f64(prob);
            }
        }
        StreamRecord::ValueDistribution { item, entries } => {
            w.put_u8(VALUE_PDF);
            w.put_varint(*item as u64);
            w.put_varint(entries.len() as u64);
            for &(value, prob) in entries {
                w.put_f64(value);
                w.put_f64(prob);
            }
        }
    }
}

/// Decodes one payload and validates the record, as ingest would.  Items
/// go through `get_len` with no limit beyond `usize`; counts are bounded
/// by the bytes left, so a bad count cannot drive a huge allocation.
fn decode_record(payload: &[u8]) -> Result<StreamRecord> {
    let mut r = ByteReader::new(payload, "wal record");
    let record = match r.get_u8()? {
        BASIC => StreamRecord::Basic {
            item: r.get_len(usize::MAX)?,
            prob: r.get_f64()?,
        },
        ALTERNATIVES => {
            let n = r.get_len(r.remaining())?;
            StreamRecord::Alternatives(
                (0..n)
                    .map(|_| Ok((r.get_len(usize::MAX)?, r.get_f64()?)))
                    .collect::<Result<_>>()?,
            )
        }
        VALUE_PDF => {
            let item = r.get_len(usize::MAX)?;
            let n = r.get_len(r.remaining())?;
            let entries = (0..n)
                .map(|_| Ok((r.get_f64()?, r.get_f64()?)))
                .collect::<Result<_>>()?;
            StreamRecord::ValueDistribution { item, entries }
        }
        tag => {
            return Err(PdsError::InvalidParameter {
                message: format!("wal record: unknown kind tag {tag:#04x}"),
            })
        }
    };
    r.finish()?;
    record.validate()?;
    Ok(record)
}

/// Appends one checked field of a frame: the bytes, then their CRC.
fn put_checked(frame: &mut ByteWriter, bytes: &[u8]) {
    frame.put_bytes(bytes);
    frame.put_u32(crc32(bytes));
}

/// Serialises one record as a WAL frame — the exact bytes
/// [`PartitionWal::append`] writes (see the module docs for the layout).
/// Public so durability tests can craft valid (and then deliberately
/// broken) logs.
pub fn frame_record(record: &StreamRecord) -> Result<Vec<u8>> {
    let mut payload = ByteWriter::new();
    encode_record(record, &mut payload);
    let payload = payload.into_bytes();
    let mut len = ByteWriter::new();
    len.put_varint(payload.len() as u64);
    let mut frame = ByteWriter::new();
    put_checked(&mut frame, &len.into_bytes());
    put_checked(&mut frame, &payload);
    Ok(frame.into_bytes())
}

/// Why the frame at the front of a log image failed to decode.
enum FrameError {
    /// The frame runs past the end of the bytes: a torn buffered append.
    Truncated,
    /// A frame failing a checksum or carrying an invalid record.
    Corrupt(String),
}

/// Splits one checked field of `n` bytes off the front of `bytes`,
/// returning it and the bytes after its CRC.
fn take_checked<'a>(
    bytes: &'a [u8],
    n: usize,
    what: &str,
) -> std::result::Result<(&'a [u8], &'a [u8]), FrameError> {
    let (field, rest) = bytes.split_at_checked(n).ok_or(FrameError::Truncated)?;
    let (stored, rest) = rest.split_first_chunk::<4>().ok_or(FrameError::Truncated)?;
    if crc32(field) != u32::from_le_bytes(*stored) {
        return Err(FrameError::Corrupt(format!("{what} fails its checksum")));
    }
    Ok((field, rest))
}

/// Decodes the frame at the front of `bytes`, returning its record and the
/// bytes after it.
fn decode_frame(bytes: &[u8]) -> std::result::Result<(StreamRecord, &[u8]), FrameError> {
    let corrupt = |e: PdsError| FrameError::Corrupt(e.to_string());
    // The length varint ends at the first byte without a continuation bit.
    let end = match bytes.iter().take(MAX_LEN_BYTES).position(|b| b & 0x80 == 0) {
        Some(end) => end,
        None if bytes.len() < MAX_LEN_BYTES => return Err(FrameError::Truncated),
        None => return Err(FrameError::Corrupt("over-long frame length".into())),
    };
    let (len, rest) = take_checked(bytes, end + 1, "frame length")?;
    let len = ByteReader::new(len, "wal frame length")
        .get_varint()
        .map_err(corrupt)?;
    // A length past `usize` runs past the end of any log.
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    let (payload, rest) = take_checked(rest, len, "payload")?;
    Ok((decode_record(payload).map_err(corrupt)?, rest))
}

/// Decodes a log image frame by frame.  A final frame that runs past the
/// end of `bytes` is dropped when `torn_tail_ok` (live logs) and an error
/// otherwise; any other broken frame fails the whole log.  `log` names the
/// image in errors.
fn decode_frames(mut bytes: &[u8], torn_tail_ok: bool, log: &str) -> Result<Vec<StreamRecord>> {
    let total = bytes.len();
    let mut records = Vec::new();
    while !bytes.is_empty() {
        let why = match decode_frame(bytes) {
            Ok((record, rest)) => {
                records.push(record);
                bytes = rest;
                continue;
            }
            // A torn buffered append: the record was never acknowledged.
            Err(FrameError::Truncated) if torn_tail_ok => break,
            Err(FrameError::Truncated) => "frame cut short by the end of the log".to_string(),
            Err(FrameError::Corrupt(why)) => why,
        };
        return Err(PdsError::InvalidParameter {
            message: format!(
                "wal: {log}: corrupt frame at byte {}: {why}",
                total - bytes.len()
            ),
        });
    }
    Ok(records)
}

/// Decodes a whole log image strictly (no torn-tail tolerance) — the
/// decoding counterpart of [`frame_record`], and the surface the fuzz
/// harness (`pds-analyze`) drives: no input may panic here, and no input
/// with a flipped bit may decode.
pub fn decode_log(bytes: &[u8]) -> Result<Vec<StreamRecord>> {
    decode_frames(bytes, false, "log image")
}

/// Reads a framed log.  `tolerate_torn_tail` enables the live-log lenience
/// for the final frame; frozen logs pass `false`.
fn read_framed_log(path: &Path, tolerate_torn_tail: bool) -> Result<Vec<StreamRecord>> {
    let bytes =
        vfs::read("recovery-read", path).map_err(|e| io_err("opening a log for replay", e))?;
    decode_frames(&bytes, tolerate_torn_tail, &path.display().to_string())
}

/// The outcome of scanning a partition's logs: every replayable record (in
/// original arrival order) plus the frozen files that must be deleted once
/// the records are safely re-logged by `PartitionWal::commit`.
#[derive(Debug)]
pub struct WalReplay {
    /// Replayed records: uncovered frozen logs in seal order, then the live
    /// log.
    pub records: Vec<StreamRecord>,
    /// Frozen `.sealing` files absorbed by the replay — or already covered
    /// by the manifest — and deleted at commit.
    frozen: Vec<PathBuf>,
}

/// The write-ahead log of one partition (see the module docs for the file
/// lifecycle, the frame format and the recovery protocol).
#[derive(Debug)]
pub struct PartitionWal {
    dir: PathBuf,
    partition: usize,
    live_path: PathBuf,
    writer: BufWriter<File>,
    /// Appends since the last [`PartitionWal::commit_group`] — lets the
    /// group-commit pass skip shards that saw no writes this batch.
    dirty: bool,
    /// Retry/backoff policy plus the telemetry hook for durable-path I/O
    /// (attached by the store; defaults to no retries, no telemetry).
    policy: IoPolicy,
}

/// Which durability tier WAL commits reach (configured per store through
/// [`StoreConfig::wal_sync`](crate::StoreConfig::wal_sync)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// Flush buffered appends to the operating system at every commit
    /// boundary: survives process crashes (the tier the crash matrix
    /// pins).  The default.
    #[default]
    Flush,
    /// Additionally `File::sync_data` at every commit boundary: survives
    /// power loss, paid once per group commit rather than per record.
    Fsync,
}

impl PartitionWal {
    /// **Phase 1 of recovery** — reads the partition's replayable records
    /// (frozen logs in seal order, then the live log) without deleting or
    /// truncating anything, so a failure anywhere in the replay leaves
    /// every log intact.  Stale `.tmp` staging files from a crashed
    /// recovery are discarded (a failed discard is counted through
    /// `policy`, not dropped).
    ///
    /// Frozen logs whose seal sequence appears in `covered` are **not**
    /// replayed — their records are already carried by a manifest-installed
    /// segment (the manifest entry is the seal's commit point) — but they
    /// are still queued for deletion at commit.
    pub(crate) fn scan(
        dir: &Path,
        partition: usize,
        covered: &BTreeSet<u64>,
        policy: &IoPolicy,
    ) -> Result<WalReplay> {
        vfs::create_dir_all("recovery-read", dir)
            .map_err(|e| io_err("creating the wal directory", e))?;
        let stale = dir.join(format!("wal-{partition}.log.tmp"));
        policy.cleanup("cleanup", vfs::remove_file("cleanup", &stale));
        let mut records = Vec::new();

        // Frozen logs: wal-<p>.<seq>.sealing, replayed in ascending order.
        let prefix = format!("wal-{partition}.");
        let mut frozen: Vec<(u64, PathBuf)> = Vec::new();
        let entries = vfs::read_dir("recovery-read", dir)
            .map_err(|e| io_err("listing the wal directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing the wal directory", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            if let Some(seq) = rest
                .strip_suffix(".sealing")
                .and_then(|s| s.parse::<u64>().ok())
            {
                frozen.push((seq, entry.path()));
            }
        }
        frozen.sort();
        for (seq, path) in &frozen {
            if covered.contains(seq) {
                continue;
            }
            records.extend(read_framed_log(path, false)?);
        }
        let live = live_path(dir, partition);
        if live.exists() {
            records.extend(read_framed_log(&live, true)?);
        }
        Ok(WalReplay {
            records,
            frozen: frozen.into_iter().map(|(_, path)| path).collect(),
        })
    }

    /// **Phase 3 of recovery** — atomically replaces the partition's live
    /// log with exactly the replayed records (now sitting in the
    /// memtable): writes them to a `.tmp` staging file, renames it over
    /// the live log (retried on transient errors), then deletes the frozen
    /// files the replay absorbed (failures counted through `policy`).
    /// Returns the append handle for subsequent ingest, which keeps the
    /// policy for its append/commit lifetime.
    ///
    /// On [`WalSync::Fsync`] the staged log is `sync_data`'d before the
    /// rename and the directory is fsynced after it, **before** the
    /// absorbed frozen logs are deleted — a power loss can then never
    /// persist the deletions without the recovered live log they were
    /// absorbed into.
    pub(crate) fn commit(
        dir: &Path,
        partition: usize,
        replay: &WalReplay,
        sync: WalSync,
        policy: IoPolicy,
    ) -> Result<Self> {
        let live = live_path(dir, partition);
        let tmp = dir.join(format!("wal-{partition}.log.tmp"));
        {
            let mut staged = BufWriter::new(
                vfs::create("recovery-commit", &tmp)
                    .map_err(|e| io_err("creating the staging log", e))?,
            );
            for record in &replay.records {
                vfs::write_all("recovery-commit", &tmp, &mut staged, &frame_record(record)?)
                    .map_err(|e| io_err("writing the staging log", e))?;
            }
            vfs::flush("recovery-commit", &tmp, &mut staged)
                .map_err(|e| io_err("flushing the staging log", e))?;
            if sync == WalSync::Fsync {
                vfs::sync_data("recovery-commit", &tmp, staged.get_ref())
                    .map_err(|e| io_err("fsyncing the staging log", e))?;
            }
        }
        crate::crashpoint::reached("mid-wal-recovery-commit");
        policy
            .run("recovery-commit", || {
                vfs::rename("recovery-commit", &tmp, &live)
            })
            .map_err(|e| io_err("publishing the recovered live log", e))?;
        if sync == WalSync::Fsync {
            vfs::sync_dir("recovery-commit", dir)
                .map_err(|e| io_err("fsyncing the wal directory", e))?;
        }
        for path in &replay.frozen {
            policy.cleanup("cleanup", vfs::remove_file("cleanup", path));
        }
        let writer = BufWriter::new(
            vfs::open_append("recovery-commit", &live, false)
                .map_err(|e| io_err("opening the live log for append", e))?,
        );
        Ok(PartitionWal {
            dir: dir.to_path_buf(),
            partition,
            live_path: live,
            writer,
            dirty: false,
            policy,
        })
    }

    /// Appends one routed record as a frame (buffered until the next
    /// [`PartitionWal::commit_group`] or [`PartitionWal::rotate`]).
    ///
    /// Append errors are **not retried**: a partially buffered frame
    /// cannot be rewound, so a retry would stack a second copy behind torn
    /// bytes.  The error surfaces (and is counted); the store degrades,
    /// and the torn tail — if the buffer ever reaches the disk — is
    /// exactly the torn-final-frame case replay already tolerates.
    pub fn append(&mut self, record: &StreamRecord) -> Result<()> {
        let frame = frame_record(record)?;
        let result = vfs::write_all("wal-append", &self.live_path, &mut self.writer, &frame);
        if let Err(e) = &result {
            self.policy.observe_error("wal-append", e);
        }
        result.map_err(|e| io_err("appending to the live log", e))?;
        self.dirty = true;
        Ok(())
    }

    /// Flushes buffered appends to the operating system (with the policy's
    /// bounded retry: a flush retry re-drains whatever the first attempt
    /// left buffered, so the operation is idempotent).
    fn sync(&mut self) -> Result<()> {
        let PartitionWal {
            live_path,
            writer,
            policy,
            ..
        } = self;
        policy
            .run("wal-commit", || vfs::flush("wal-commit", live_path, writer))
            .map_err(|e| io_err("flushing the live log", e))
    }

    /// The group-commit boundary: flushes buffered appends and, on the
    /// [`WalSync::Fsync`] tier, additionally syncs file data to the device.
    /// A no-op when nothing was appended since the last commit, so the
    /// batch paths can sweep every touched shard cheaply.  Both steps are
    /// idempotent, so transient errors get the policy's bounded retry.
    pub fn commit_group(&mut self, sync: WalSync) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.sync()?;
        if sync == WalSync::Fsync {
            let PartitionWal {
                live_path,
                writer,
                policy,
                ..
            } = self;
            policy
                .run("wal-commit", || {
                    vfs::sync_data("wal-commit", live_path, writer.get_ref())
                })
                .map_err(|e| io_err("fsyncing the live log", e))?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Freezes the live log for seal `seq`: flushes, renames it to the
    /// frozen `.sealing` name and starts a fresh live log.  Returns the
    /// frozen file's path — the caller deletes it (via
    /// [`PartitionWal::retire`]) once the sealed segment is installed.
    pub fn rotate(&mut self, seq: u64) -> Result<PathBuf> {
        self.sync()?;
        let frozen = self
            .dir
            .join(format!("wal-{}.{seq}.sealing", self.partition));
        self.policy
            .run("wal-rotate", || {
                vfs::rename("wal-rotate", &self.live_path, &frozen)
            })
            .map_err(|e| io_err("freezing the live log", e))?;
        match self
            .policy
            .run("wal-rotate", || vfs::create("wal-rotate", &self.live_path))
        {
            Ok(file) => {
                self.writer = BufWriter::new(file);
                self.dirty = false;
                Ok(frozen)
            }
            Err(e) => {
                // Undo the rename so `writer`'s fd and `live_path` stay
                // coherent: appends keep landing in the (restored) live log
                // and a later rotation can retry cleanly.  A failed undo is
                // counted, not dropped — the caller degrades on the error.
                self.policy.cleanup(
                    "wal-rotate",
                    vfs::rename("wal-rotate", &frozen, &self.live_path),
                );
                Err(io_err("creating the live log", e))
            }
        }
    }

    /// Folds a frozen log's records back into the live log — the undo of
    /// [`PartitionWal::rotate`] when the seal it fed failed before
    /// installing a segment.  Appends (rather than renames) so records
    /// logged since the rotation are preserved; the memtable-side undo
    /// ([`Memtable::absorb_front`](crate::Memtable::absorb_front)) prepends
    /// instead, so after an error the live log and the memtable agree as
    /// multisets though not necessarily in order.
    pub fn reabsorb(&mut self, frozen: &Path) -> Result<()> {
        let records = read_framed_log(frozen, false)?;
        for record in &records {
            self.append(record)?;
        }
        self.sync()?;
        vfs::remove_file("cleanup", frozen)
            .map_err(|e| io_err("removing a reabsorbed frozen log", e))
    }

    /// Removes a frozen log whose records are now covered by an installed
    /// segment.  Missing files are ignored (idempotent); other failures
    /// surface so the caller can count them as cleanup errors.
    pub fn retire(frozen: &Path) -> std::io::Result<()> {
        match vfs::remove_file("wal-retire", frozen) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

impl Drop for PartitionWal {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pds-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn basic(item: usize, prob: f64) -> StreamRecord {
        StreamRecord::Basic { item, prob }
    }

    /// One record of each kind.
    fn one_of_each() -> [StreamRecord; 3] {
        [
            basic(3, 0.25),
            StreamRecord::Alternatives(vec![(2, 0.1), (300, 0.5)]),
            StreamRecord::ValueDistribution {
                item: 9000,
                entries: vec![(2.0, 0.5), (5.0, 0.25)],
            },
        ]
    }

    /// Scan with nothing covered and the default (telemetry-less) policy.
    fn scan(dir: &Path, partition: usize) -> Result<WalReplay> {
        PartitionWal::scan(dir, partition, &BTreeSet::new(), &IoPolicy::default())
    }

    /// Flush-tier commit of a replay with the default policy.
    fn commit(dir: &Path, partition: usize, replay: &WalReplay) -> Result<PartitionWal> {
        PartitionWal::commit(dir, partition, replay, WalSync::Flush, IoPolicy::default())
    }

    /// Scans and immediately commits: the handle plus the replayed records
    /// (now re-logged as the live log).
    fn open(dir: &Path, partition: usize) -> Result<(PartitionWal, Vec<StreamRecord>)> {
        let replay = scan(dir, partition)?;
        let wal = commit(dir, partition, &replay)?;
        Ok((wal, replay.records))
    }

    #[test]
    fn append_rotate_and_replay_round_trip() {
        let dir = tmp_dir("round-trip");
        let (mut wal, replayed) = open(&dir, 3).unwrap();
        assert!(replayed.is_empty());
        let records = one_of_each();
        for r in &records[..2] {
            wal.append(r).unwrap();
        }
        // Freeze the first two records, then log one more live record.
        let frozen = wal.rotate(0).unwrap();
        assert!(frozen.ends_with("wal-3.0.sealing"));
        wal.append(&records[2]).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Reopen: frozen log replays first, then the live log.
        let (_wal2, replayed) = open(&dir, 3).unwrap();
        assert_eq!(replayed, records);
        // The old files were absorbed into the fresh live log: a third open
        // replays exactly the same records (no duplicates, no frozen files).
        drop(_wal2);
        let (_wal3, replayed) = open(&dir, 3).unwrap();
        assert_eq!(replayed, records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_is_read_only_until_commit() {
        let dir = tmp_dir("scan-read-only");
        let (mut wal, _) = open(&dir, 0).unwrap();
        wal.append(&basic(1, 0.5)).unwrap();
        let frozen = wal.rotate(0).unwrap();
        wal.append(&basic(2, 0.25)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Scanning twice returns the same records and leaves all files.
        let first = scan(&dir, 0).unwrap();
        assert_eq!(first.records.len(), 2);
        assert!(frozen.exists(), "scan must not delete frozen logs");
        let second = scan(&dir, 0).unwrap();
        assert_eq!(second.records, first.records);

        // Commit absorbs everything into the live log and drops the frozen
        // file.
        let _wal = commit(&dir, 0, &second).unwrap();
        assert!(!frozen.exists(), "commit retires absorbed frozen logs");
        let after = scan(&dir, 0).unwrap();
        assert_eq!(after.records, first.records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_ignores_covered_frozen_logs_but_retires_them() {
        let dir = tmp_dir("scan-covered");
        let (mut wal, _) = open(&dir, 1).unwrap();
        wal.append(&basic(1, 0.5)).unwrap();
        let frozen0 = wal.rotate(0).unwrap();
        wal.append(&basic(2, 0.25)).unwrap();
        let frozen1 = wal.rotate(1).unwrap();
        wal.append(&basic(3, 0.125)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Seal 0's records are covered by an installed segment; only seal
        // 1's frozen records and the live tail replay.
        let covered: BTreeSet<u64> = [0u64].into_iter().collect();
        let replay = PartitionWal::scan(&dir, 1, &covered, &IoPolicy::default()).unwrap();
        assert_eq!(replay.records, vec![basic(2, 0.25), basic(3, 0.125)]);
        // Commit still deletes the covered frozen file (its records live in
        // the manifest-installed segment now).
        let _wal = commit(&dir, 1, &replay).unwrap();
        assert!(!frozen0.exists());
        assert!(!frozen1.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reabsorb_undoes_a_rotation_keeping_newer_appends() {
        let dir = tmp_dir("reabsorb");
        let (mut wal, _) = open(&dir, 2).unwrap();
        wal.append(&basic(5, 0.75)).unwrap();
        let frozen = wal.rotate(0).unwrap();
        // A record logged after the rotation must survive the undo.
        wal.append(&basic(6, 0.5)).unwrap();
        wal.reabsorb(&frozen).unwrap();
        assert!(!frozen.exists());
        drop(wal);
        let (_w, replayed) = open(&dir, 2).unwrap();
        assert_eq!(replayed.len(), 2);
        assert!(replayed.contains(&basic(5, 0.75)));
        assert!(replayed.contains(&basic(6, 0.5)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retire_removes_frozen_logs_and_is_idempotent() {
        let dir = tmp_dir("retire");
        let (mut wal, _) = open(&dir, 0).unwrap();
        wal.append(&basic(0, 0.9)).unwrap();
        let frozen = wal.rotate(5).unwrap();
        assert!(frozen.exists());
        PartitionWal::retire(&frozen).unwrap();
        assert!(!frozen.exists());
        PartitionWal::retire(&frozen).unwrap(); // second call is a no-op
        drop(wal);
        let (_wal2, replayed) = open(&dir, 0).unwrap();
        assert!(replayed.is_empty(), "retired records must not replay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitions_do_not_see_each_other_s_logs() {
        let dir = tmp_dir("isolation");
        let (mut a, _) = open(&dir, 0).unwrap();
        let (mut b, _) = open(&dir, 1).unwrap();
        a.append(&basic(1, 0.5)).unwrap();
        b.append(&basic(9, 0.25)).unwrap();
        drop(a);
        drop(b);
        let (_a2, ra) = open(&dir, 0).unwrap();
        let (_b2, rb) = open(&dir, 1).unwrap();
        assert_eq!(ra, vec![basic(1, 0.5)]);
        assert_eq!(rb, vec![basic(9, 0.25)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frames_surface_as_errors_without_destroying_files() {
        let dir = tmp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-2.log");
        let good = frame_record(&basic(1, 0.5)).unwrap();
        // A line of the older text format fails its first frame's length
        // check; a frame whose checksums hold over an invalid record
        // (probability 2) fails record validation.
        let text = b"r 8 0245182d b 3 0.25\n".to_vec();
        for bad in [text, frame_record(&basic(1, 2.0)).unwrap()] {
            let log = [bad, good.clone()].concat();
            fs::write(&path, &log).unwrap();
            let err = scan(&dir, 2).unwrap_err().to_string();
            assert!(err.contains(&path.display().to_string()), "{err}");
            // The corrupt log is still there for inspection/repair.
            assert_eq!(fs::read(&path).unwrap(), log);
        }
        fs::write(&path, &good).unwrap();
        assert_eq!(scan(&dir, 2).unwrap().records, vec![basic(1, 0.5)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_frames_are_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        let good = [basic(0, 0.5), basic(1, 0.25)].map(|r| frame_record(&r).unwrap());
        // A crash mid-append leaves a partial last frame: the acknowledged
        // prefix replays, the torn tail is discarded.
        let torn = frame_record(&StreamRecord::Alternatives(vec![(2, 0.1), (3, 0.5)])).unwrap();
        let torn = &torn[..torn.len() - 6]; // cut mid-payload
        fs::write(dir.join("wal-0.log"), [&good.concat(), torn].concat()).unwrap();
        let replay = scan(&dir, 0).unwrap();
        assert_eq!(replay.records, vec![basic(0, 0.5), basic(1, 0.25)]);
        // A log that is one torn frame replays as empty.
        let lone = frame_record(&basic(7, 0.25)).unwrap();
        fs::write(dir.join("wal-1.log"), &lone[..lone.len() - 2]).unwrap();
        assert!(scan(&dir, 1).unwrap().records.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_but_parseable_truncation_is_detected() {
        let dir = tmp_dir("torn-parseable");
        fs::create_dir_all(&dir).unwrap();
        // Every proper prefix of a final frame — a torn probability's bits
        // included — is a torn tail: dropped from a live log, never
        // replayed as a different record.  Frozen logs stay strict:
        // rotation flushed them, so a short frame is corruption there.
        let acked = frame_record(&basic(1, 0.5)).unwrap();
        for record in one_of_each() {
            let full = frame_record(&record).unwrap();
            for cut in 1..full.len() {
                fs::write(dir.join("wal-0.log"), [&acked, &full[..cut]].concat()).unwrap();
                let replayed = scan(&dir, 0).unwrap().records;
                assert_eq!(replayed, [basic(1, 0.5)], "{record:?} cut at {cut}");
                fs::write(dir.join("wal-1.0.sealing"), &full[..cut]).unwrap();
                assert!(scan(&dir, 1).is_err(), "frozen {record:?} cut at {cut}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_frames_are_rejected() {
        let dir = tmp_dir("bit-flip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0.log");
        // Every single-bit flip of a frame, its length bytes included, fails
        // the scan with the file intact — whether a frame follows it or it
        // is the last one.
        let tail = frame_record(&basic(4, 0.5)).unwrap();
        for record in one_of_each() {
            let log = [frame_record(&record).unwrap(), tail.clone()].concat();
            for pos in 0..log.len() {
                for bit in 0..8 {
                    let mut flipped = log.clone();
                    flipped[pos] ^= 1 << bit;
                    fs::write(&path, &flipped).unwrap();
                    assert!(scan(&dir, 0).is_err(), "{record:?}: byte {pos} bit {bit}");
                    assert_eq!(fs::read(&path).unwrap(), flipped);
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_flushes_once_and_fsync_tier_syncs() {
        let dir = tmp_dir("group-commit");
        let (mut wal, _) = open(&dir, 0).unwrap();
        for i in 0..16 {
            wal.append(&basic(i, 0.5)).unwrap();
        }
        wal.commit_group(WalSync::Fsync).unwrap();
        // Nothing new: the second commit is a no-op (dirty flag cleared).
        wal.commit_group(WalSync::Flush).unwrap();
        drop(wal);
        let (_w, replayed) = open(&dir, 0).unwrap();
        assert_eq!(replayed.len(), 16);
        let _ = fs::remove_dir_all(&dir);
    }
}
