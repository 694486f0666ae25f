//! The per-store `MANIFEST`: the durable source of truth for which sealed
//! segment blobs are live.
//!
//! Sealing writes a `seg-<p>-<seq>.bin` blob at install time (the
//! block-structured `PDSB` container of [`crate::blob`], published by
//! tmp-rename); the manifest records which of those blobs a reopen should
//! load.  Reopen order is **manifest → segment blobs → WAL tail**: the
//! manifest names the segments, their blobs are opened (footer and meta
//! block verified; synopsis blocks load on first touch), and only then is the
//! WAL scanned — skipping frozen logs whose seal sequence the manifest
//! already covers, because *the manifest entry is a seal's commit point*.
//! A crash before the entry replays the seal's records from its frozen WAL
//! log; a crash after it loads the segment and ignores the log.  Never
//! both, never neither.
//!
//! ## On-disk format
//!
//! `MANIFEST` is an append-only, versioned binio artefact of
//! **fixed-width** records:
//!
//! ```text
//! "PDSM" <u16 version>
//! repeated 17-byte records:
//!   <u8 op = 0 (install)> <u32 partition LE> <u64 seq LE>
//!   <u32 crc32 LE over the preceding 13 bytes>
//! ```
//!
//! Records are fixed-width on purpose: framing never depends on a length
//! field a bit flip could corrupt, so a torn append is *exactly* "the
//! file length is not a whole number of records" and any complete record
//! whose checksum fails is corruption — the two cases can never be
//! confused, and mid-file damage can never silently swallow the records
//! behind it.
//!
//! Installs **append** one record (one write — and on the
//! [`WalSync::Fsync`](crate::WalSync) tier one `sync_data` — per install).
//! Compound edits that must be atomic — compaction replacing several
//! segments with one, and the compacting rewrite at open — **publish** a
//! fresh manifest instead: the full live set is staged to `MANIFEST.tmp`
//! and renamed over the old file, so a crash at any byte of the publish
//! leaves the previous manifest intact (the `mid-manifest-publish` crash
//! point sits exactly between the staging write and the rename).
//!
//! ## Tail tolerance
//!
//! A crash can tear the final appended record; an **incomplete** final
//! record (trailing bytes shorter than one record) is dropped on load —
//! safe, because the frozen WAL log it would have committed still exists
//! and replays.  A *complete* record failing its checksum, anywhere, is
//! corruption and errors with the file intact.

use std::collections::BTreeSet;
use std::fs::File;
use std::path::{Path, PathBuf};

use pds_core::binio::{crc32, ByteReader, ByteWriter};
use pds_core::error::{PdsError, Result};
use pds_core::vfs;

use crate::crashpoint;
use crate::telemetry::IoPolicy;
use crate::wal::WalSync;

fn io_err(context: &str, e: std::io::Error) -> PdsError {
    PdsError::InvalidParameter {
        message: format!("manifest: {context}: {e}"),
    }
}

/// File name of a sealed segment's blob (the `PDSB` container of
/// [`crate::blob`]).
pub fn segment_blob_name(partition: usize, seq: u64) -> String {
    format!("seg-{partition}-{seq}.bin")
}

/// The store's manifest of live segment blobs (see the module docs for the
/// commit-point discipline and the on-disk format).
#[derive(Debug)]
pub struct Manifest {
    dir: PathBuf,
    path: PathBuf,
    /// Live segments as `(partition, seal sequence)`.
    live: BTreeSet<(usize, u64)>,
    writer: File,
    sync: WalSync,
    /// Retry/backoff policy plus the telemetry hook for every durable
    /// operation this handle performs.
    policy: IoPolicy,
}

impl Manifest {
    /// Magic bytes of the manifest encoding.
    pub const MAGIC: [u8; 4] = *b"PDSM";

    /// Version stamp of the manifest encoding.
    pub const VERSION: u16 = 1;

    /// Width of one fixed-size record: op + partition + seq + crc32.
    const RECORD_LEN: usize = 1 + 4 + 8 + 4;

    /// One fixed-width install record.
    fn frame(partition: usize, seq: u64) -> [u8; Self::RECORD_LEN] {
        let mut record = [0u8; Self::RECORD_LEN];
        record[0] = 0; // op: install
        record[1..5].copy_from_slice(&(partition as u32).to_le_bytes());
        record[5..13].copy_from_slice(&seq.to_le_bytes());
        let crc = crc32(&record[..13]);
        record[13..].copy_from_slice(&crc.to_le_bytes());
        record
    }

    /// Parses the manifest file's bytes into the live-segment set.  Framing
    /// is positional (fixed-width records), so the only tolerated anomaly
    /// is a trailing partial record — a torn append, dropped because its
    /// seal never committed (the frozen WAL replays it).  Everything else
    /// — a checksum mismatch, a bad op, a duplicate — errors with the file
    /// intact; mid-file damage can never silently swallow later records.
    fn parse(bytes: &[u8]) -> Result<BTreeSet<(usize, u64)>> {
        if bytes.is_empty() {
            // A crash between creating the file and the first publish
            // leaves a zero-byte manifest: an empty store, not corruption.
            return Ok(BTreeSet::new());
        }
        let (r, version) = ByteReader::envelope(bytes, "manifest", Self::MAGIC)?;
        if version != Self::VERSION {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "manifest version {version} is not supported (expected {})",
                    Self::VERSION
                ),
            });
        }
        let body = &bytes[bytes.len() - r.remaining()..];
        let mut live = BTreeSet::new();
        for record in body.chunks(Self::RECORD_LEN) {
            if record.len() < Self::RECORD_LEN {
                // Torn final append.
                break;
            }
            let mut stored = [0u8; 4];
            stored.copy_from_slice(&record[13..]);
            let stored = u32::from_le_bytes(stored);
            if crc32(&record[..13]) != stored {
                return Err(PdsError::InvalidParameter {
                    message: "manifest: record checksum mismatch — the file is corrupted".into(),
                });
            }
            if record[0] != 0 {
                return Err(PdsError::InvalidParameter {
                    message: format!("manifest: unknown record op {}", record[0]),
                });
            }
            let mut partition_bytes = [0u8; 4];
            partition_bytes.copy_from_slice(&record[1..5]);
            let partition = u32::from_le_bytes(partition_bytes) as usize;
            let mut seq_bytes = [0u8; 8];
            seq_bytes.copy_from_slice(&record[5..13]);
            let seq = u64::from_le_bytes(seq_bytes);
            if !live.insert((partition, seq)) {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "manifest: duplicate install of segment \
                         (partition {partition}, seq {seq})"
                    ),
                });
            }
        }
        Ok(live)
    }

    /// Parses raw manifest bytes into the live `(partition, seq)` list,
    /// ascending — the decoder surface the fuzz harness (`pds-analyze`)
    /// drives directly.  Same tolerance contract as reopen: an empty file
    /// is an empty store, a torn *final* record is dropped, and any other
    /// anomaly (checksum mismatch, bad op, duplicate install, bad header)
    /// is a [`PdsError`].
    pub fn parse_bytes(bytes: &[u8]) -> Result<Vec<(usize, u64)>> {
        Ok(Self::parse(bytes)?.into_iter().collect())
    }

    /// Serialises a full manifest (header plus one install record per live
    /// entry, ascending) — the staging payload of a publish.
    fn encode(live: &BTreeSet<(usize, u64)>) -> Vec<u8> {
        let mut bytes = ByteWriter::envelope(Self::MAGIC, Self::VERSION).into_bytes();
        for &(partition, seq) in live {
            bytes.extend_from_slice(&Self::frame(partition, seq));
        }
        bytes
    }

    /// Stages the full live set to `MANIFEST.tmp` and atomically renames it
    /// over `MANIFEST` — the all-or-nothing edit used by compaction and the
    /// compacting rewrite at open.  Reopens the append handle afterwards.
    ///
    /// Every step is idempotent from a clean staging write, so transient
    /// failures get the policy's bounded retry: a retried publish simply
    /// restages the tmp file and renames again.
    fn publish(&mut self) -> Result<()> {
        let tmp = self.dir.join("MANIFEST.tmp");
        let bytes = Self::encode(&self.live);
        let Manifest {
            dir,
            path,
            sync,
            policy,
            ..
        } = &*self;
        policy
            .run("manifest-replace", || {
                vfs::write("manifest-replace", &tmp, &bytes)
            })
            .map_err(|e| io_err("staging the manifest", e))?;
        if *sync == WalSync::Fsync {
            policy
                .run("manifest-replace", || {
                    vfs::sync_path("manifest-replace", &tmp)
                })
                .map_err(|e| io_err("fsyncing the staged manifest", e))?;
        }
        crashpoint::reached("mid-manifest-publish");
        policy
            .run("manifest-replace", || {
                vfs::rename("manifest-replace", &tmp, path)
            })
            .map_err(|e| io_err("publishing the manifest", e))?;
        if *sync == WalSync::Fsync {
            // Make the rename itself power-loss durable: the directory
            // entry must reach the device, not just the file contents.
            policy
                .run("manifest-replace", || {
                    vfs::sync_dir("manifest-replace", dir)
                })
                .map_err(|e| io_err("fsyncing the store directory", e))?;
        }
        self.writer = self
            .policy
            .run("manifest-replace", || {
                vfs::open_append("manifest-replace", &self.path, false)
            })
            .map_err(|e| io_err("reopening the manifest for append", e))?;
        Ok(())
    }

    /// Opens (or creates) the manifest in `dir`, returning the handle and
    /// the live segments to load, ascending by `(partition, seq)`.
    ///
    /// Loading is recovery-safe: a stale `MANIFEST.tmp` from a crashed
    /// publish is ignored, a torn final frame is dropped, and the loaded
    /// set is immediately **republished** (atomic tmp-rename), which
    /// compacts the append log and guarantees subsequent appends land on a
    /// well-formed file.  Orphaned segment blobs — written by a seal whose
    /// manifest record never landed — are deleted; their records replay
    /// from the still-present frozen WAL logs.
    pub fn open(dir: &Path, sync: WalSync) -> Result<(Self, Vec<(usize, u64)>)> {
        Self::open_with(dir, sync, IoPolicy::default())
    }

    /// [`Manifest::open`] with an explicit I/O policy — the store threads
    /// its telemetry-reporting policy through here.
    pub(crate) fn open_with(
        dir: &Path,
        sync: WalSync,
        policy: IoPolicy,
    ) -> Result<(Self, Vec<(usize, u64)>)> {
        vfs::create_dir_all("recovery-read", dir)
            .map_err(|e| io_err("creating the store directory", e))?;
        let path = dir.join("MANIFEST");
        let live = if path.exists() {
            let bytes =
                vfs::read("recovery-read", &path).map_err(|e| io_err("reading the manifest", e))?;
            Self::parse(&bytes)?
        } else {
            BTreeSet::new()
        };
        // Writer is replaced by the publish below; create/open the file so
        // the struct is well-formed first.
        let writer = vfs::open_append("recovery-read", &path, true)
            .map_err(|e| io_err("opening the manifest for append", e))?;
        let mut manifest = Manifest {
            dir: dir.to_path_buf(),
            path,
            live,
            writer,
            sync,
            policy,
        };
        manifest.publish()?;
        manifest.remove_orphan_blobs()?;
        let entries = manifest.live.iter().copied().collect();
        Ok((manifest, entries))
    }

    /// Deletes `seg-*.bin` blobs that no live manifest entry references —
    /// the sweep keys on the name, not the contents — and any stale
    /// `*.tmp` staging file (blob, manifest or WAL-recovery) left by a
    /// crash between stage and rename: every publish re-stages from
    /// scratch, so a leftover `.tmp` is always garbage.  Removal failures
    /// are counted as cleanup errors, never fatal: an unremoved orphan is
    /// swept again at the next open.
    fn remove_orphan_blobs(&self) -> Result<()> {
        let entries = vfs::read_dir("recovery-read", &self.dir)
            .map_err(|e| io_err("listing the store directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing the store directory", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                self.policy
                    .cleanup("cleanup", vfs::remove_file("cleanup", &entry.path()));
                continue;
            }
            let Some(stem) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".bin"))
            else {
                continue;
            };
            let Some((p, seq)) = stem.split_once('-') else {
                continue;
            };
            let (Ok(p), Ok(seq)) = (p.parse::<usize>(), seq.parse::<u64>()) else {
                continue;
            };
            if !self.live.contains(&(p, seq)) {
                self.policy
                    .cleanup("cleanup", vfs::remove_file("cleanup", &entry.path()));
            }
        }
        Ok(())
    }

    /// The live segments, ascending by `(partition, seq)`.
    pub fn live(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.live.iter().copied()
    }

    /// Seal sequences the manifest covers for one partition (the frozen WAL
    /// logs a reopen must skip).
    pub fn covered_seqs(&self, partition: usize) -> BTreeSet<u64> {
        self.live
            .iter()
            .filter(|&&(p, _)| p == partition)
            .map(|&(_, seq)| seq)
            .collect()
    }

    /// Commits a seal: appends one install record (flushed, and on the
    /// fsync tier synced, before returning).  After this call the segment
    /// belongs to the manifest and the seal's frozen WAL log may retire.
    pub fn install(&mut self, partition: usize, seq: u64) -> Result<()> {
        if u32::try_from(partition).is_err() {
            return Err(PdsError::InvalidParameter {
                message: format!("manifest: partition {partition} exceeds the u32 record field"),
            });
        }
        if !self.live.insert((partition, seq)) {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "manifest: segment (partition {partition}, seq {seq}) is already installed"
                ),
            });
        }
        let frame = Self::frame(partition, seq);
        // Remember the pre-append length: a failed append (partial write,
        // or a write that landed but whose fsync failed) is truncated away
        // entirely, so the file never carries a phantom or partial record
        // that a later successful append would bury mid-file.  The same
        // truncation makes the append idempotent, so the whole
        // rewind-write-sync sequence is safe under the policy's bounded
        // retry.
        let pre_len = vfs::file_len("manifest-install", &self.path, &self.writer)
            .map_err(|e| io_err("sizing the manifest", e))?;
        let Manifest {
            path,
            writer,
            sync,
            policy,
            ..
        } = &mut *self;
        let result = policy.run("manifest-install", || {
            vfs::set_len("manifest-install", path, writer, pre_len)?;
            vfs::write_all("manifest-install", path, writer, &frame)?;
            if *sync == WalSync::Fsync {
                vfs::sync_data("manifest-install", path, writer)?;
            }
            Ok(())
        });
        if let Err(e) = result {
            self.live.remove(&(partition, seq));
            // Best-effort rewind of whatever the failed attempts left
            // behind; a leftover partial frame is the tolerated torn tail.
            self.policy.cleanup(
                "manifest-install",
                vfs::set_len("manifest-install", &self.path, &self.writer, pre_len),
            );
            return Err(io_err("appending an install record", e));
        }
        Ok(())
    }

    /// Commits a compaction: atomically replaces `retired` segments of
    /// `partition` with the single `installed` one via a full publish.
    /// After this call the superseded blobs may be deleted.
    pub fn replace(&mut self, partition: usize, retired: &[u64], installed: u64) -> Result<()> {
        let before = self.live.clone();
        for &seq in retired {
            if !self.live.remove(&(partition, seq)) {
                self.live = before;
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "manifest: cannot retire unknown segment (partition {partition}, seq {seq})"
                    ),
                });
            }
        }
        if !self.live.insert((partition, installed)) {
            self.live = before;
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "manifest: segment (partition {partition}, seq {installed}) is already installed"
                ),
            });
        }
        if let Err(e) = self.publish() {
            self.live = before;
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pds-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn installs_survive_reopen_and_replace_is_atomic() {
        let dir = tmp_dir("round-trip");
        {
            let (mut m, live) = Manifest::open(&dir, WalSync::Flush).unwrap();
            assert!(live.is_empty());
            m.install(0, 0).unwrap();
            m.install(1, 0).unwrap();
            m.install(0, 1).unwrap();
        }
        let (mut m, live) = Manifest::open(&dir, WalSync::Flush).unwrap();
        assert_eq!(live, vec![(0, 0), (0, 1), (1, 0)]);
        assert_eq!(m.covered_seqs(0), [0u64, 1].into_iter().collect());
        // Compaction: 0/{0,1} -> 0/2.
        m.replace(0, &[0, 1], 2).unwrap();
        drop(m);
        let (_m, live) = Manifest::open(&dir, WalSync::Flush).unwrap();
        assert_eq!(live, vec![(0, 2), (1, 0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_install_and_unknown_retire_are_rejected() {
        let dir = tmp_dir("dupes");
        let (mut m, _) = Manifest::open(&dir, WalSync::Flush).unwrap();
        m.install(0, 7).unwrap();
        assert!(m.install(0, 7).is_err());
        assert!(m.replace(0, &[3], 8).is_err());
        // The failed edits left the live set unchanged.
        assert_eq!(m.live().collect::<Vec<_>>(), vec![(0, 7)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_dropped_mid_file_corruption_errors() {
        let dir = tmp_dir("torn");
        {
            let (mut m, _) = Manifest::open(&dir, WalSync::Flush).unwrap();
            m.install(0, 0).unwrap();
            m.install(1, 4).unwrap();
        }
        let path = dir.join("MANIFEST");
        let bytes = fs::read(&path).unwrap();
        // Tear the final record: the first install survives, the torn one
        // is dropped (its frozen WAL would replay it).
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_m, live) = Manifest::open(&dir, WalSync::Flush).unwrap();
        assert_eq!(live, vec![(0, 0)]);
        // Open republished a well-formed manifest.
        drop(_m);
        // A bit flip inside a complete record is corruption, not a tear.
        let bytes = fs::read(&path).unwrap();
        let mut bad = bytes.clone();
        let last = bad.len() - 2; // inside the final record's crc/payload
        bad[last] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        assert!(Manifest::open(&dir, WalSync::Flush).is_err());
        // The corrupt file is left intact for inspection.
        assert_eq!(fs::read(&path).unwrap(), bad);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_and_orphan_blobs_are_cleaned_at_open() {
        let dir = tmp_dir("orphans");
        {
            let (mut m, _) = Manifest::open(&dir, WalSync::Flush).unwrap();
            m.install(0, 0).unwrap();
        }
        // A blob whose manifest record never landed (the sweep is
        // name-keyed, so its contents are irrelevant), a stale blob
        // staging file, a stale manifest staging file and a stale
        // WAL-recovery staging file: all swept at open.
        fs::write(dir.join(segment_blob_name(0, 9)), b"orphan").unwrap();
        fs::write(dir.join("seg-0-3.bin.tmp"), b"stale").unwrap();
        fs::write(dir.join("MANIFEST.tmp"), b"stale").unwrap();
        fs::write(dir.join("wal-0.log.tmp"), b"stale").unwrap();
        // The live blob survives.
        fs::write(dir.join(segment_blob_name(0, 0)), b"live").unwrap();
        let (_m, live) = Manifest::open(&dir, WalSync::Flush).unwrap();
        assert_eq!(live, vec![(0, 0)]);
        assert!(dir.join(segment_blob_name(0, 0)).exists());
        assert!(!dir.join(segment_blob_name(0, 9)).exists());
        assert!(!dir.join("seg-0-3.bin.tmp").exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert!(!dir.join("wal-0.log.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
