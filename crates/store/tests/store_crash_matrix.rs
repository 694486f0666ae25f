//! Deterministic crash-injection matrix for the durable store.
//!
//! For every labeled crash point of the seal/compaction/WAL lifecycle (see
//! `pds_store::crashpoint`) and for `PDS_THREADS ∈ {1, 4}`, this suite
//! re-runs the test binary as a **child process** that executes a fixed
//! ingest workload against a durable store and genuinely aborts
//! (`std::process::abort`, no destructors, no buffered flushes) at the
//! armed point.  The parent then reopens the directory — manifest →
//! segment blobs → WAL tail — and asserts:
//!
//! * the child actually died at the point (a label that never fires is a
//!   test bug and fails loudly);
//! * the recovered record set is an **exact prefix** of the workload
//!   (nothing acknowledged lost, nothing replayed twice) of exactly the
//!   row's length at either pool width — the thread that freezes a
//!   memtable is the thread that seals it, so no other thread keeps
//!   acknowledging records while the sealing one dies;
//! * every range estimate is **bitwise equal** to an uninterrupted
//!   in-memory store fed the same prefix (the workload uses dyadic
//!   probabilities and full per-segment budgets, so all arithmetic is
//!   exact and equality is not a tolerance check);
//! * the reopened store keeps working: it seals, snapshots and reopens
//!   again cleanly.

use std::path::PathBuf;
use std::process::Command;

use pds_core::metrics::ErrorMetric;
use pds_core::stream::StreamRecord;
use pds_store::{CompactionPolicy, PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

const N: usize = 16;
const PARTS: usize = 2; // partition 0: items 0..8, partition 1: items 8..16
const THRESHOLD: usize = 6;
const RECORDS: usize = 26;

/// Dyadic probabilities (multiples of 1/8): every partial sum any replay
/// order can produce is exact in `f64`, so estimate comparisons are `==`.
const PROBS: [f64; 6] = [0.5, 0.25, 0.125, 0.75, 0.375, 0.625];

fn workload() -> Vec<StreamRecord> {
    (0..RECORDS)
        .map(|i| {
            let item = match i {
                // 18 records into partition 0: seals at i = 5, 11, 17; the
                // second and third installs each fill a size tier, so two
                // compaction rounds run mid-workload.
                0..=17 => i % 4,
                // 6 records into partition 1: seal at i = 23.
                18..=23 => 8 + i % 4,
                // Two records that stay live in the memtables.
                24 => 0,
                _ => 9,
            };
            StreamRecord::Basic {
                item,
                prob: PROBS[i % PROBS.len()],
            }
        })
        .collect()
}

fn config() -> StoreConfig {
    let mut cfg = StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).unwrap(),
        THRESHOLD,
        // Budget >= partition width: every synopsis is exact.
        N,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    cfg.compaction = Some(CompactionPolicy {
        min_merge: 2,
        tier_ratio: 4.0,
    });
    cfg
}

/// The child half: runs the workload against `PDS_CRASH_DIR` and lets the
/// armed crash point abort the process.  Ignored so ordinary test runs skip
/// it; the matrix spawns it with `--ignored --exact`.
#[test]
#[ignore = "child entry point of the crash matrix; spawned as a subprocess"]
fn crash_child() {
    let Ok(dir) = std::env::var("PDS_CRASH_DIR") else {
        return;
    };
    let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
    for record in workload() {
        store.ingest(record).unwrap();
    }
    // Reaching this line means the armed label never fired.
    eprintln!("crash_child: workload completed without crashing");
}

/// One matrix row: the crash label, which hit of it to crash on, and the
/// exact number of records recovered after it (at every pool width).
struct Row {
    label: &'static str,
    at: usize,
    serial_count: u64,
}

const MATRIX: [Row; 12] = [
    // Crash right after the very first WAL append is flushed: exactly one
    // record is acknowledged and must replay.
    Row {
        label: "post-wal-append",
        at: 1,
        serial_count: 1,
    },
    // ... and mid-stream.
    Row {
        label: "post-wal-append",
        at: 13,
        serial_count: 13,
    },
    // First seal: the memtable froze (WAL rotated) but no segment exists.
    Row {
        label: "frozen-pre-build",
        at: 1,
        serial_count: 6,
    },
    // Fourth seal (partition 1), two compactions already behind us.
    Row {
        label: "frozen-pre-build",
        at: 4,
        serial_count: 24,
    },
    // The segment is built but neither blob nor manifest entry landed.
    Row {
        label: "built-pre-install",
        at: 1,
        serial_count: 6,
    },
    // The first blob is staged to `seg-*.bin.tmp` but never renamed: the
    // manifest has no entry, the staging file is swept, the frozen WAL
    // replays the seal.
    Row {
        label: "mid-blob-publish",
        at: 1,
        serial_count: 6,
    },
    Row {
        label: "built-pre-install",
        at: 3,
        serial_count: 18,
    },
    // Blob + manifest entry landed, the frozen WAL log did not retire:
    // the manifest entry must win (no double replay).
    Row {
        label: "installed-pre-wal-retire",
        at: 1,
        serial_count: 6,
    },
    Row {
        label: "installed-pre-wal-retire",
        at: 4,
        serial_count: 24,
    },
    // The merged segment is built (and staged) but never swapped in.
    Row {
        label: "mid-compaction-swap",
        at: 1,
        serial_count: 12,
    },
    // The rewritten manifest is staged to .tmp but never renamed (hit 1 is
    // the open-time republish, hit 2 the first compaction's publish).
    Row {
        label: "mid-manifest-publish",
        at: 2,
        serial_count: 12,
    },
    // The recovered live log is staged to `wal-*.log.tmp` but never
    // renamed.  Hit 1 fires during the child's *initial* `open_with_wal`
    // (the phase-3 commit of partition 0 on an empty directory), so the
    // child dies before acknowledging anything and the parent recovers an
    // empty store.
    Row {
        label: "mid-wal-recovery-commit",
        at: 1,
        serial_count: 0,
    },
];

fn run_matrix(threads: usize) {
    let records = workload();
    for row in &MATRIX {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "pds-crash-{}-{}-t{threads}-{}",
            row.label,
            row.at,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Run the workload in a child armed to abort at the labeled point.
        let exe = std::env::current_exe().unwrap();
        let status = Command::new(&exe)
            .args(["crash_child", "--exact", "--ignored", "--nocapture"])
            .env("PDS_CRASH_DIR", &dir)
            .env("PDS_CRASH_POINT", row.label)
            .env("PDS_CRASH_AT", row.at.to_string())
            .env("PDS_THREADS", threads.to_string())
            .status()
            .unwrap();
        assert!(
            !status.success(),
            "{} (at={}, threads={threads}): the crash point never fired",
            row.label,
            row.at
        );

        // Reopen: manifest -> segment blobs -> WAL tail.
        let reopened = SynopsisStore::open_with_wal(config(), &dir)
            .unwrap_or_else(|e| panic!("{} (at={}): reopen failed: {e}", row.label, row.at));
        let recovered = reopened.stats().ingested_records;
        assert!(
            recovered as usize <= records.len(),
            "{}: {recovered} records recovered, more than were ever ingested",
            row.label
        );
        assert_eq!(
            recovered, row.serial_count,
            "{} (at={}, threads={threads}): recovery must yield exactly the \
             acknowledged prefix",
            row.label, row.at
        );

        // The recovered state must answer exactly like an uninterrupted
        // in-memory run over the same acknowledged prefix.
        let reference = SynopsisStore::new(config()).unwrap();
        reference
            .ingest_batch(records[..recovered as usize].iter().cloned())
            .unwrap();
        let ranges = [
            (0usize, N - 1),
            (0, 7),
            (8, 15),
            (2, 5),
            (0, 0),
            (3, 3),
            (9, 9),
            (12, 14),
        ];
        for &(lo, hi) in &ranges {
            assert_eq!(
                reopened.range_estimate(lo, hi),
                reference.range_estimate(lo, hi),
                "{} (at={}, threads={threads}): range [{lo}, {hi}] diverged \
                 after recovery of {recovered} records",
                row.label,
                row.at
            );
        }

        // No half-installed leftovers: every blob on disk is manifest-live
        // (reopen swept orphans), and no `.tmp` staging files remain.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "{}: stale staging file {name} survived reopen",
                row.label
            );
        }
        // Frozen WAL logs and manifest entries never overlap: the record
        // mass carried by segments plus the live memtables must equal the
        // acknowledged prefix exactly (a double replay would inflate it).
        let segment_records: u64 = (0..PARTS)
            .flat_map(|p| reopened.segments(p))
            .map(|s| s.records())
            .sum();
        assert_eq!(
            segment_records + reopened.stats().live_records,
            recovered,
            "{} (at={}): records double-counted or lost between segments \
             and memtables",
            row.label,
            row.at
        );

        // The store keeps working after recovery: seal, snapshot, reopen
        // from the snapshot, and answer identically.
        reopened.seal_all().unwrap();
        let bytes = reopened.to_binary().unwrap();
        let restored = SynopsisStore::from_binary(&bytes).unwrap();
        for &(lo, hi) in &ranges {
            assert_eq!(
                restored.range_estimate(lo, hi),
                reference.range_estimate(lo, hi),
                "{}: snapshot round-trip diverged",
                row.label
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_matrix_serial() {
    run_matrix(1);
}

#[test]
fn crash_matrix_threaded() {
    run_matrix(4);
}
