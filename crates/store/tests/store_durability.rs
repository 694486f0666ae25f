//! Property tests for the crash-durable store: random interleavings of
//! ingest / seal / compact / snapshot / crash+reopen must be
//! indistinguishable from an uninterrupted run, and corrupted on-disk
//! artefacts (segment blobs, WAL frames) must surface as [`PdsError`]s —
//! never panics, never silently wrong answers.
//!
//! The "crash" op drops the durable store and reopens its directory.  That
//! is a faithful crash at this op granularity: every `ingest` call
//! group-commits its WAL appends before returning and manifest writes are
//! unbuffered, so the dropped handle holds no state a real crash would
//! lose — the truly torn states (mid-seal, mid-compaction, mid-publish)
//! are covered by the subprocess crash matrix in `store_crash_matrix.rs`.
//!
//! The fault-interleaving property layers the deterministic vfs fault
//! injector on top: random ops with random transient-or-exhausting faults
//! armed around them must keep the acknowledged prefix bitwise-equal to an
//! uninterrupted mirror, degrade instead of corrupting when the retry
//! budget is exhausted, and recover cleanly at the next reopen.  (The
//! exhaustive per-site × per-class sweep is `store_fault_matrix.rs`; this
//! property covers the *interleavings* the sweep's fixed scripts cannot.)
//!
//! [`PdsError`]: pds_core::error::PdsError

use proptest::prelude::*;

use pds_core::error::PdsError;
use pds_core::metrics::ErrorMetric;
use pds_core::stream::StreamRecord;
use pds_core::vfs::fault::{self, ErrorClass, FaultSpec};
use pds_store::{wal, CompactionPolicy, PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

const N: usize = 24;
const PARTS: usize = 2;

fn config() -> StoreConfig {
    let mut cfg = StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).unwrap(),
        5,
        N, // full budget: exact segments, so compaction order cannot drift
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    cfg.compaction = Some(CompactionPolicy {
        min_merge: 2,
        tier_ratio: 3.0,
    });
    cfg
}

fn unique_dir(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pds-durability-{tag}-{case}-{}",
        std::process::id()
    ))
}

/// One scripted operation of the interleaving property.
#[derive(Debug, Clone)]
enum Op {
    Ingest(StreamRecord),
    Seal(usize),
    Compact(usize),
    Snapshot,
    CrashReopen,
}

/// Strategy: a random op sequence.  Kind 0-2 ingests (two record shapes),
/// 3 seals a partition, 4 compacts one, 5 snapshots, 6 crash+reopens.
fn ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0usize..7, 0usize..PARTS, (0..N, 0.01f64..0.9), 0.5f64..4.0),
        1..max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, p, (item, prob), value)| match kind {
                0 | 1 => Op::Ingest(StreamRecord::Basic { item, prob }),
                2 => Op::Ingest(StreamRecord::ValueDistribution {
                    item,
                    entries: vec![(value, prob)],
                }),
                3 => Op::Seal(p),
                4 => Op::Compact(p),
                5 => Op::Snapshot,
                _ => Op::CrashReopen,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interleaving equivalence: a durable store that crashes and reopens
    /// at arbitrary points answers every query — and serialises every
    /// segment — exactly like an uninterrupted in-memory store driven by
    /// the same op sequence.
    #[test]
    fn interleaved_crash_reopen_matches_uninterrupted_run(
        script in ops(40),
        case in 0u64..u64::MAX,
    ) {
        let dir = unique_dir("interleave", case);
        let _ = std::fs::remove_dir_all(&dir);
        let mirror = SynopsisStore::new(config()).unwrap();
        let mut durable = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        let mut reopened_at_least_once = false;
        for op in &script {
            match op {
                Op::Ingest(record) => {
                    mirror.ingest(record.clone()).unwrap();
                    durable.ingest(record.clone()).unwrap();
                }
                Op::Seal(p) => {
                    mirror.seal_partition(*p).unwrap();
                    durable.seal_partition(*p).unwrap();
                }
                Op::Compact(p) => {
                    mirror.compact_partition(*p).unwrap();
                    durable.compact_partition(*p).unwrap();
                }
                Op::Snapshot => {
                    let a = mirror.snapshot().unwrap();
                    let b = durable.snapshot().unwrap();
                    if !reopened_at_least_once {
                        // Counters restart at a reopen (documented), so the
                        // byte-exact claim holds for uninterrupted prefixes.
                        prop_assert_eq!(&a, &b);
                    }
                }
                Op::CrashReopen => {
                    drop(durable);
                    durable = SynopsisStore::open_with_wal(config(), &dir).unwrap();
                    reopened_at_least_once = true;
                }
            }
            // Queries agree bitwise after every op: replay reproduces the
            // exact insertion order per partition and blobs round-trip
            // f64 bit patterns, so this is not a tolerance comparison.
            for (lo, hi) in [(0usize, N - 1), (0, 9), (10, 17), (5, 5), (20, 23)] {
                prop_assert_eq!(
                    durable.range_estimate(lo, hi),
                    mirror.range_estimate(lo, hi),
                    "range [{}, {}] after {:?}", lo, hi, op
                );
            }
        }
        // Final state: segments identical (the byte payloads of to_binary
        // minus the documented post-recovery counters)...
        mirror.seal_all().unwrap();
        durable.seal_all().unwrap();
        for p in 0..PARTS {
            prop_assert_eq!(durable.segments(p), mirror.segments(p), "partition {}", p);
        }
        // ... and on never-crashed runs the whole snapshot is byte-equal.
        if !reopened_at_least_once {
            prop_assert_eq!(durable.to_binary().unwrap(), mirror.to_binary().unwrap());
        }
        // One last crash: everything sealed must come back from blobs alone.
        drop(durable);
        let recovered = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        for (lo, hi) in [(0usize, N - 1), (3, 19)] {
            prop_assert_eq!(recovered.range_estimate(lo, hi), mirror.range_estimate(lo, hi));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bit-flipping or truncating a segment blob is detected by the blob
    /// CRCs — never a panic, never a healthy store that silently answers
    /// from corrupt bytes.  Reopening verifies the header, meta block and
    /// footer, so damage there fails the open; a damaged *synopsis block*
    /// is only read at first touch, so the open may succeed — and then
    /// touching every segment must leave the store degraded (the exact
    /// first-touch behaviour is pinned by
    /// `lazy_reopen_defers_synopsis_corruption_to_first_touch` below).
    #[test]
    fn corrupted_segment_blobs_fail_reopen_cleanly(
        records in prop::collection::vec((0..N, 0.01f64..0.9), 12..40),
        flip_frac in 0.0f64..1.0,
        flip_bit in 0usize..8,
        truncate_frac in 0.0f64..1.0,
        case in 0u64..u64::MAX,
    ) {
        let dir = unique_dir("blob-corrupt", case);
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
            for &(item, prob) in &records {
                store.ingest(StreamRecord::Basic { item, prob }).unwrap();
            }
            store.seal_all().unwrap();
        }
        let blob_path = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".bin"))
            })
            .expect("a sealed store leaves at least one blob");
        let blob = std::fs::read(&blob_path).unwrap();

        // Either the open fails, or touching every segment degrades.
        let rejected_or_degraded = || match SynopsisStore::open_with_wal(config(), &dir) {
            Err(_) => true,
            Ok(store) => {
                for p in 0..PARTS {
                    let _ = store.segments(p);
                }
                let _ = store.range_estimate(0, N - 1);
                store.degraded().is_some()
            }
        };

        // Any single-bit flip anywhere in the blob fails a CRC.
        let mut flipped = blob.clone();
        let pos = ((blob.len() as f64 * flip_frac) as usize).min(blob.len() - 1);
        flipped[pos] ^= 1u8 << flip_bit;
        std::fs::write(&blob_path, &flipped).unwrap();
        prop_assert!(rejected_or_degraded(), "flip at byte {} bit {}", pos, flip_bit);

        // Any strict prefix fails too (torn blob write — though installs
        // publish via tmp-rename, so this models disk-level damage).
        let cut = ((blob.len() as f64 * truncate_frac) as usize).min(blob.len() - 1);
        std::fs::write(&blob_path, &blob[..cut]).unwrap();
        prop_assert!(rejected_or_degraded(), "cut at {}", cut);

        // Restoring the original bytes restores a healthy store.
        std::fs::write(&blob_path, &blob).unwrap();
        prop_assert!(!rejected_or_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bit-flipping any non-final WAL frame — anywhere in it, its length
    /// header included — aborts the reopen with every file intact (the
    /// final frame's torn-tail window is covered by the deterministic tests
    /// in `wal.rs`).
    #[test]
    fn corrupted_wal_frames_fail_reopen_cleanly(
        records in prop::collection::vec((0..N, 0.01f64..0.9), 4..30),
        frame_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        flip_bit in 0usize..8,
        case in 0u64..u64::MAX,
    ) {
        let dir = unique_dir("wal-corrupt", case);
        let _ = std::fs::remove_dir_all(&dir);
        {
            // A huge threshold keeps every record in the live WAL.
            let mut cfg = config();
            cfg.seal_threshold = usize::MAX >> 1;
            let store = SynopsisStore::open_with_wal(cfg, &dir).unwrap();
            for &(item, prob) in &records {
                store.ingest(StreamRecord::Basic { item, prob }).unwrap();
            }
        }
        let log_path = (0..PARTS)
            .map(|p| dir.join(format!("wal-{p}.log")))
            .find(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
            .expect("some partition logged records");
        let log = std::fs::read(&log_path).unwrap();
        // Frame boundaries: the log is exactly its records' frames.
        let frames: Vec<Vec<u8>> = wal::decode_log(&log)
            .unwrap()
            .iter()
            .map(|r| wal::frame_record(r).unwrap())
            .collect();
        prop_assert_eq!(&frames.concat(), &log);
        // With a single frame the flip would land in the torn-tail window,
        // which the deterministic `wal.rs` tests cover; corrupt mid-file
        // only when there is a mid-file.
        if frames.len() >= 2 {
            let target = (((frames.len() - 1) as f64 * frame_frac) as usize).min(frames.len() - 2);
            let start: usize = frames[..target].iter().map(Vec::len).sum();
            let len = frames[target].len();
            let pos = start + ((len as f64 * byte_frac) as usize).min(len - 1);
            let mut corrupt = log.clone();
            corrupt[pos] ^= 1u8 << flip_bit;
            std::fs::write(&log_path, &corrupt).unwrap();
            let result = SynopsisStore::open_with_wal(config(), &dir);
            prop_assert!(
                result.is_err(),
                "a corrupt mid-file frame must abort the reopen ({:?} byte {} bit {})",
                log_path,
                pos,
                flip_bit
            );
            // The scan is read-only: the corrupt file survives.
            prop_assert_eq!(std::fs::read(&log_path).unwrap(), corrupt);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Sites a runtime mutation (ingest / seal / compact) can cross, in the
/// order the fault plan indexes them.
const RUNTIME_SITES: [&str; 9] = [
    "wal-append",
    "wal-commit",
    "wal-rotate",
    "blob-write",
    "blob-publish",
    "manifest-install",
    "manifest-replace",
    "wal-retire",
    "cleanup",
];

/// Sites a reopen crosses (recovery reads, the WAL re-commit, the manifest
/// republish and the orphan/stale sweeps).
const REOPEN_SITES: [&str; 4] = [
    "recovery-read",
    "recovery-commit",
    "manifest-replace",
    "cleanup",
];

/// One entry of the fault plan: which site and class to arm around the
/// same-indexed op, and whether the fault is transient (one failing op —
/// inside the default retry budget) or persistent enough to exhaust it.
#[derive(Debug, Clone, Copy)]
struct PlannedFault {
    site_idx: usize,
    class_idx: usize,
    transient: bool,
}

fn fault_plan(max_len: usize) -> impl Strategy<Value = Vec<Option<PlannedFault>>> {
    prop::collection::vec(
        prop::option::weighted(
            0.4,
            (
                0..RUNTIME_SITES.len(),
                0..ErrorClass::ALL.len(),
                any::<bool>(),
            )
                .prop_map(|(site_idx, class_idx, transient)| PlannedFault {
                    site_idx,
                    class_idx,
                    transient,
                }),
        ),
        max_len,
    )
}

fn ranges_match(a: &SynopsisStore, b: &SynopsisStore) -> bool {
    [(0usize, N - 1), (0, 9), (10, 17), (5, 5), (20, 23)]
        .into_iter()
        .all(|(lo, hi)| a.range_estimate(lo, hi) == b.range_estimate(lo, hi))
}

/// Config for the fault-interleaving property: seals and compactions are
/// script-driven only (huge threshold, no auto-compaction policy), so
/// every failed op is all-or-nothing — a degraded durable store and the
/// acked-prefix mirror always share the same memtable/segment structure,
/// which is what makes the bitwise comparison sound.
fn fault_config() -> StoreConfig {
    let mut cfg = config();
    cfg.seal_threshold = usize::MAX >> 1;
    cfg.compaction = None;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault interleaving: random transient-or-exhausting injected faults
    /// around random ops never corrupt the acknowledged prefix.  Every op
    /// the durable store acknowledges is mirrored in-memory and the two
    /// must agree bitwise after every healthy step; an exhausted retry
    /// budget must surface as sticky [`PdsError::Degraded`] (never a
    /// panic, never a wrong answer), and the next fault-free reopen must
    /// recover a healthy store serving the acknowledged records — with at
    /// most the one unacknowledged in-flight record over-included.
    #[test]
    fn injected_faults_never_corrupt_the_acknowledged_prefix(
        script in ops(24),
        plan in fault_plan(24),
        case in 0u64..u64::MAX,
    ) {
        let dir = unique_dir("fault-interleave", case);
        let _ = std::fs::remove_dir_all(&dir);
        let mirror = SynopsisStore::new(fault_config()).unwrap();
        let mut durable = SynopsisStore::open_with_wal(fault_config(), &dir).unwrap();
        // The unacknowledged record a failed ingest may have over-included
        // in the memtable (the documented wal-commit window).
        let mut over: Option<StreamRecord> = None;
        let mut degraded = false;

        for (i, op) in script.iter().enumerate() {
            let fault = plan.get(i).copied().flatten();
            if let Op::CrashReopen = op {
                drop(durable);
                let guard = fault.map(|f| {
                    let site = REOPEN_SITES[f.site_idx % REOPEN_SITES.len()];
                    let count = if f.transient { 1 } else { 4 };
                    fault::arm(
                        FaultSpec::transient(site, ErrorClass::ALL[f.class_idx], 1, count)
                            .scoped(&dir),
                    )
                });
                durable = match SynopsisStore::open_with_wal(fault_config(), &dir) {
                    Ok(store) => store,
                    Err(_) => {
                        // A faulted recovery aborts the open cleanly; the
                        // fault-free retry must succeed.
                        drop(guard);
                        SynopsisStore::open_with_wal(fault_config(), &dir).unwrap()
                    }
                };
                prop_assert!(durable.degraded().is_none());
                prop_assert!(ranges_match(&durable, &mirror), "after reopen {}", i);
                continue;
            }

            let guard = fault.map(|f| {
                let count = if f.transient { 1 } else { 4 };
                fault::arm(
                    FaultSpec::transient(
                        RUNTIME_SITES[f.site_idx],
                        ErrorClass::ALL[f.class_idx],
                        1,
                        count,
                    )
                    .scoped(&dir),
                )
            });
            let result = match op {
                Op::Ingest(record) => durable.ingest(record.clone()),
                Op::Seal(p) => durable.seal_partition(*p).map(|_| ()),
                Op::Compact(p) => durable.compact_partition(*p),
                Op::Snapshot => {
                    // A pure read under an armed fault: the snapshot view
                    // touches no disk and must keep answering correctly.
                    let view = durable.snapshot_view();
                    prop_assert_eq!(
                        view.range_estimate(0, N - 1),
                        mirror.range_estimate(0, N - 1),
                        "snapshot view at op {}", i
                    );
                    Ok(())
                }
                Op::CrashReopen => unreachable!("handled above"),
            };
            drop(guard);
            match result {
                Ok(()) => {
                    // Acknowledged: the mirror applies the same op and the
                    // two must stay bitwise-identical.
                    match op {
                        Op::Ingest(record) => mirror.ingest(record.clone()).unwrap(),
                        Op::Seal(p) => {
                            mirror.seal_partition(*p).unwrap();
                        }
                        Op::Compact(p) => mirror.compact_partition(*p).unwrap(),
                        Op::Snapshot => {}
                        Op::CrashReopen => unreachable!(),
                    }
                    prop_assert!(ranges_match(&durable, &mirror), "after acked op {}", i);
                }
                Err(e) => {
                    prop_assert!(
                        matches!(e, PdsError::Degraded { .. }),
                        "a faulted mutation must degrade, got {:?}",
                        e
                    );
                    prop_assert!(durable.degraded().is_some());
                    if let Op::Ingest(record) = op {
                        over = Some(record.clone());
                    }
                    degraded = true;
                    break;
                }
            }
        }

        if degraded {
            // Sticky: further mutations are refused without touching the
            // (now healthy) disk, and queries keep serving.
            let refused = durable.ingest(StreamRecord::Basic { item: 0, prob: 0.1 });
            prop_assert!(matches!(refused, Err(PdsError::Degraded { .. })));
        }

        // The fault-free reopen recovers every acknowledged record; a
        // failed ingest may additionally have over-included its one
        // unacknowledged record.
        drop(durable);
        let reopened = SynopsisStore::open_with_wal(fault_config(), &dir).unwrap();
        prop_assert!(reopened.degraded().is_none());
        let mut matches = ranges_match(&reopened, &mirror);
        if !matches {
            if let Some(record) = over {
                mirror.ingest(record).unwrap();
                matches = ranges_match(&reopened, &mirror);
            }
        }
        prop_assert!(
            matches,
            "the reopened store must serve exactly the acknowledged prefix \
             (plus at most the in-flight record)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupt **synopsis block** is not verified at reopen — only the
/// header, footer and meta block are — so the open succeeds and the
/// corruption surfaces at the first query touching the segment: the
/// store degrades (sticky, cause-recorded, naming the
/// `block-read` site) and the unreadable segment stops contributing to
/// answers, rather than panicking or serving corrupt bytes.  Restoring
/// the original bytes and reopening recovers a healthy store.  The
/// whole-blob companion contract (damage anywhere fails the open or
/// degrades at first touch) is `corrupted_segment_blobs_fail_reopen_cleanly`
/// above.
#[test]
fn lazy_reopen_defers_synopsis_corruption_to_first_touch() {
    let dir = unique_dir("blob-lazy-corrupt", 0);
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        for i in 0..N {
            store
                .ingest(StreamRecord::Basic { item: i, prob: 0.5 })
                .unwrap();
        }
        store.seal_all().unwrap();
    }
    let blob_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".bin"))
        })
        .expect("a sealed store leaves at least one blob");
    let blob = std::fs::read(&blob_path).unwrap();
    let footer = pds_store::blob::decode_footer(&blob).unwrap();
    let mut corrupt = blob.clone();
    let pos = footer.synopsis_offset() as usize + footer.syn_len as usize / 2;
    corrupt[pos] ^= 0x01;
    std::fs::write(&blob_path, &corrupt).unwrap();

    // The footer and meta block still verify, so the lazy open succeeds…
    let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
    assert!(store.degraded().is_none());
    // …and the corruption surfaces at the first touch as a degrade, with
    // the rest of the store still serving.
    let _ = store.range_estimate(0, N - 1);
    let cause = store.degraded().expect("first touch must degrade");
    assert!(cause.contains("block-read"), "unexpected cause: {cause}");
    drop(store);

    // Restoring the bytes restores a healthy store.
    std::fs::write(&blob_path, &blob).unwrap();
    let healthy = SynopsisStore::open_with_wal(config(), &dir).unwrap();
    let _ = healthy.range_estimate(0, N - 1);
    assert!(healthy.degraded().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
