//! The deterministic I/O fault matrix: every labelled fault site
//! ([`pds_store::FAULT_SITES`]) crossed with every injectable error class
//! ([`ErrorClass::ALL`]) — 60 rows, plus the multi-partition `seal_all`
//! row.  Each row arms the vfs fault injector
//! at one site, drives the store operation that crosses it, and asserts
//! the robustness contract:
//!
//! - **no panic** — every failure surfaces as a [`PdsError`];
//! - **no acknowledged data loss** — queries stay bitwise-equal to an
//!   in-memory mirror of the acknowledged records, during the failure and
//!   after a reopen;
//! - **accurate degradation** — persistent durable-path failures flip the
//!   store into sticky read-only mode ([`PdsError::Degraded`]), cleanup
//!   failures are counted but never degrade, and recovery failures abort
//!   the open instead of degrading a half-built store;
//! - **clean recovery** — dropping the fault and reopening the directory
//!   restores a healthy, writable store.
//!
//! Transient rows (a fault that clears before the retry budget is spent)
//! assert the opposite: the operation succeeds, the store stays healthy,
//! and the retry is visible in telemetry.
//!
//! Rows serialise on the injector's process-wide test lock (armed via
//! [`fault::arm`]) and scope every fault to their own temp directory, so
//! the suite is safe under any `--test-threads`.
//!
//! [`PdsError`]: pds_core::error::PdsError
//! [`PdsError::Degraded`]: pds_core::error::PdsError::Degraded
//! [`ErrorClass::ALL`]: pds_core::vfs::fault::ErrorClass::ALL
//! [`fault::arm`]: pds_core::vfs::fault::arm

use pds_core::error::PdsError;
use pds_core::metrics::ErrorMetric;
use pds_core::stream::StreamRecord;
use pds_core::vfs::fault::{self, ErrorClass, FaultSpec};
use pds_store::{CompactionPolicy, PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

const N: usize = 24;
const PARTS: usize = 2;

/// Base configuration: huge seal threshold (seals are driven manually),
/// full synopsis budget (exact segments, so mirror comparisons are
/// bitwise), fsync-tier durability so every labelled fsync site actually
/// executes.
fn config() -> StoreConfig {
    let mut cfg = StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).unwrap(),
        usize::MAX >> 1,
        N,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    cfg.wal_sync = pds_store::WalSync::Fsync;
    cfg
}

/// [`config`] plus automatic size-tiered compaction — the rows that need a
/// compaction round (`manifest-replace`, `cleanup`) trigger it by sealing
/// two same-sized segments.
fn compact_config() -> StoreConfig {
    let mut cfg = config();
    cfg.compaction = Some(CompactionPolicy {
        min_merge: 2,
        tier_ratio: 3.0,
    });
    cfg
}

fn unique_dir(site: &str, class: ErrorClass) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pds-fault-{site}-{}-{}",
        class.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `k` acknowledged records, all routed to partition 0 (items `0..12`
/// under the uniform 24/2 split) so a single `seal_partition(0)` covers
/// them.
fn acked_records(k: usize) -> Vec<StreamRecord> {
    (0..k)
        .map(|i| StreamRecord::Basic {
            item: i % 12,
            prob: 0.05 + 0.07 * i as f64,
        })
        .collect()
}

/// The record whose acknowledgement the armed fault prevents.
fn failing_record() -> StreamRecord {
    StreamRecord::Basic {
        item: 7,
        prob: 0.33,
    }
}

/// A failing x-tuple spanning both partitions (items 7 and 19): under a
/// persistent `wal-append` fault neither half lands, so it must leave the
/// accepted-record counters exactly where the mirror's are.
fn failing_split_tuple() -> StreamRecord {
    StreamRecord::Alternatives(vec![(7, 0.2), (19, 0.3)])
}

/// Bitwise query equivalence over the same ranges the durability
/// proptests pin.
fn assert_same_estimates(got: &SynopsisStore, want: &SynopsisStore, ctx: &str) {
    for (lo, hi) in [(0usize, N - 1), (0, 9), (10, 17), (5, 5), (20, 23)] {
        assert_eq!(
            got.range_estimate(lo, hi),
            want.range_estimate(lo, hi),
            "range [{lo}, {hi}] diverged: {ctx}"
        );
    }
}

/// True when `store`'s estimates bitwise-match `want` on every pinned
/// range (the membership half of [`assert_same_estimates`]).
fn matches_estimates(got: &SynopsisStore, want: &SynopsisStore) -> bool {
    [(0usize, N - 1), (0, 9), (10, 17), (5, 5), (20, 23)]
        .into_iter()
        .all(|(lo, hi)| got.range_estimate(lo, hi) == want.range_estimate(lo, hi))
}

fn assert_degraded(result: Result<(), PdsError>, ctx: &str) {
    match result {
        Err(PdsError::Degraded { cause }) => {
            assert!(
                cause.contains("injected"),
                "degradation cause must carry the injected error: {cause} ({ctx})"
            );
        }
        other => panic!("expected PdsError::Degraded, got {other:?} ({ctx})"),
    }
}

/// Extracts a counter's value from the Prometheus text rendering.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(name))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

/// Reopening the directory after the fault clears must yield a healthy,
/// writable store answering exactly like `mirror`.
fn assert_clean_reopen(dir: &std::path::Path, mirror: &SynopsisStore, ctx: &str) {
    let reopened = SynopsisStore::open_with_wal(config(), dir)
        .unwrap_or_else(|e| panic!("reopen after disarm must succeed ({ctx}): {e}"));
    assert!(
        reopened.degraded().is_none(),
        "degradation must not survive a reopen ({ctx})"
    );
    assert_same_estimates(&reopened, mirror, &format!("after clean reopen ({ctx})"));
    // Writable again: the degraded mode was the handle's, not the disk's.
    reopened
        .ingest(StreamRecord::Basic {
            item: 11,
            prob: 0.5,
        })
        .unwrap_or_else(|e| panic!("reopened store must accept writes ({ctx}): {e}"));
}

/// `wal-append` × every class: appends are not retryable, so the first
/// injected failure degrades the store.  The failed record — a basic tuple
/// or a cross-partition x-tuple — was never acknowledged, never reached a
/// memtable and never moved a counter: queries keep answering from the
/// acknowledged prefix, bitwise.
#[test]
fn wal_append_faults_degrade_without_losing_acked_records() {
    let rows = ErrorClass::ALL.into_iter().flat_map(|class| {
        [failing_record(), failing_split_tuple()].map(|failing| (class, failing))
    });
    for (class, failing) in rows {
        let ctx = format!("wal-append/{}/{failing:?}", class.name());
        let dir = unique_dir("wal-append", class);
        let mirror = SynopsisStore::new(config()).unwrap();
        let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        for record in acked_records(6) {
            mirror.ingest(record.clone()).unwrap();
            store.ingest(record).unwrap();
        }

        let guard = fault::arm(FaultSpec::persistent("wal-append", class).scoped(&dir));
        let before = fault::injected_total();
        assert_degraded(store.ingest(failing), &ctx);
        assert!(
            fault::injected_total() > before,
            "the row must actually inject its fault ({ctx})"
        );
        let (got, want) = (store.stats(), mirror.stats());
        assert_eq!(
            (got.ingested_records, got.split_tuples),
            (want.ingested_records, want.split_tuples),
            "an unacknowledged record must not be counted ({ctx})"
        );
        assert_eq!(
            store.degraded().as_deref().map(|c| &c[..10]),
            Some("wal-append"),
            "degradation must name the faulting site ({ctx})"
        );
        assert_same_estimates(&store, &mirror, &format!("during degradation ({ctx})"));

        // Sticky: the next write is refused up front, without touching the
        // (still-faulty) disk.
        let quiesced = fault::injected_total();
        assert_degraded(store.ingest(failing_record()), &ctx);
        assert_eq!(
            fault::injected_total(),
            quiesced,
            "degraded writes must not reach the vfs layer ({ctx})"
        );

        drop(store);
        drop(guard);
        assert_clean_reopen(&dir, &mirror, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `wal-commit` × every class: the group-commit flush fails after the
/// append landed, so the record sits in the memtable unacknowledged — the
/// documented over-inclusion window.  Queries match the mirror *with* the
/// failed record; a reopen may serve either side of the acknowledgement
/// boundary, but never loses an acknowledged record.
#[test]
fn wal_commit_faults_degrade_with_bounded_over_inclusion() {
    for class in ErrorClass::ALL {
        let ctx = format!("wal-commit/{}", class.name());
        let dir = unique_dir("wal-commit", class);
        let mirror_acked = SynopsisStore::new(config()).unwrap();
        let mirror_over = SynopsisStore::new(config()).unwrap();
        let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        for record in acked_records(6) {
            mirror_acked.ingest(record.clone()).unwrap();
            mirror_over.ingest(record.clone()).unwrap();
            store.ingest(record).unwrap();
        }

        let guard = fault::arm(FaultSpec::persistent("wal-commit", class).scoped(&dir));
        let before = fault::injected_total();
        assert_degraded(store.ingest(failing_record()), &ctx);
        assert!(fault::injected_total() > before, "no injection ({ctx})");
        mirror_over.ingest(failing_record()).unwrap();
        assert!(store.degraded().is_some(), "store must degrade ({ctx})");
        assert_same_estimates(&store, &mirror_over, &format!("during degradation ({ctx})"));

        drop(store);
        drop(guard);
        let reopened = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        assert!(reopened.degraded().is_none(), "sticky past reopen ({ctx})");
        assert!(
            matches_estimates(&reopened, &mirror_acked)
                || matches_estimates(&reopened, &mirror_over),
            "a reopen must serve the acknowledged prefix, with at most the \
             one unacknowledged record over-included ({ctx})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The seal commit path — `wal-rotate`, `blob-write`, `blob-publish`,
/// `manifest-install` — × every class: a persistent failure anywhere in
/// the freeze→build→publish→install chain degrades the store *and*
/// restores the frozen records to the live memtable, so queries never
/// miss them and a later reopen replays them from the WAL.
#[test]
fn seal_path_faults_restore_records_and_degrade() {
    for site in [
        "wal-rotate",
        "blob-write",
        "blob-publish",
        "manifest-install",
    ] {
        for class in ErrorClass::ALL {
            let ctx = format!("{site}/{}", class.name());
            let dir = unique_dir(site, class);
            let mirror = SynopsisStore::new(config()).unwrap();
            let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
            for record in acked_records(6) {
                mirror.ingest(record.clone()).unwrap();
                store.ingest(record).unwrap();
            }

            let guard = fault::arm(FaultSpec::persistent(site, class).scoped(&dir));
            let before = fault::injected_total();
            assert_degraded(store.seal_partition(0).map(|_| ()), &ctx);
            assert!(fault::injected_total() > before, "no injection ({ctx})");
            assert!(store.degraded().is_some(), "store must degrade ({ctx})");
            // The unfreeze restored every record: the un-sealed mirror
            // still matches bitwise.
            assert_same_estimates(&store, &mirror, &format!("during degradation ({ctx})"));
            // Sticky: seals are refused up front now.
            assert_degraded(store.seal_partition(0).map(|_| ()), &ctx);

            drop(store);
            drop(guard);
            let reopened = SynopsisStore::open_with_wal(config(), &dir).unwrap();
            assert!(reopened.degraded().is_none(), "healthy reopen ({ctx})");
            assert_same_estimates(&reopened, &mirror, &format!("after reopen ({ctx})"));
            // The disk recovered: the same seal now commits, and the
            // sealed stores still agree.
            assert!(reopened.seal_partition(0).unwrap(), "seal retry ({ctx})");
            assert!(mirror.seal_partition(0).unwrap());
            assert_same_estimates(&reopened, &mirror, &format!("after healed seal ({ctx})"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// `seal_all` × every class, failing at a *later* partition's rotation:
/// partition 0 freezes (its two `wal-rotate` operations pass), partition
/// 1's rotation fails for good.  Nothing will seal partition 0 any more,
/// so `seal_all` must hand its frozen records back before returning: live
/// again in the memtable, `seals` counting only seals that installed, reads
/// bit-stable, and every acknowledged record replayed at reopen.
#[test]
fn seal_all_unfreezes_earlier_partitions_when_a_later_freeze_fails() {
    for class in ErrorClass::ALL {
        let ctx = format!("seal_all wal-rotate/{}", class.name());
        let dir = unique_dir("seal-all-rotate", class);
        let mirror = SynopsisStore::new(config()).unwrap();
        let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        // Partition 1 (items `12..24`) needs records too, or it never freezes.
        let upper = (0..4).map(|i| StreamRecord::Basic {
            item: 12 + i,
            prob: 0.11 + 0.07 * i as f64,
        });
        for record in acked_records(6).into_iter().chain(upper) {
            mirror.ingest(record.clone()).unwrap();
            store.ingest(record).unwrap();
        }

        let guard = fault::arm(FaultSpec::transient("wal-rotate", class, 3, u64::MAX).scoped(&dir));
        let before = fault::injected_total();
        assert_degraded(store.seal_all(), &ctx);
        assert!(fault::injected_total() > before, "no injection ({ctx})");
        assert_eq!(
            store.stats(),
            mirror.stats(),
            "no seal installed, so none may be counted ({ctx})"
        );
        for p in 0..PARTS {
            assert_eq!(
                store.memtable_snapshot(p).len(),
                mirror.memtable_snapshot(p).len(),
                "partition {p}'s records must be live again ({ctx})"
            );
        }
        assert_same_estimates(&store, &mirror, &format!("during degradation ({ctx})"));

        drop(store);
        drop(guard);
        assert_clean_reopen(&dir, &mirror, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `manifest-replace` × every class: a failed compaction commit leaves the
/// input segments authoritative — the all-or-nothing manifest rewrite
/// never lands, so queries (and a reopen) answer from the un-compacted
/// segments, bitwise-equal to a mirror that never compacted.
#[test]
fn manifest_replace_faults_leave_compaction_inputs_authoritative() {
    for class in ErrorClass::ALL {
        let ctx = format!("manifest-replace/{}", class.name());
        let dir = unique_dir("manifest-replace", class);
        // The mirror never compacts: on a failed round the durable store's
        // inputs must stay exactly equivalent to it.
        let mirror = SynopsisStore::new(config()).unwrap();
        let store = SynopsisStore::open_with_wal(compact_config(), &dir).unwrap();
        let batch = acked_records(6);
        for record in &batch {
            mirror.ingest(record.clone()).unwrap();
            store.ingest(record.clone()).unwrap();
        }
        assert!(store.seal_partition(0).unwrap());
        assert!(mirror.seal_partition(0).unwrap());
        for record in &batch {
            mirror.ingest(record.clone()).unwrap();
            store.ingest(record.clone()).unwrap();
        }
        assert!(mirror.seal_partition(0).unwrap());

        // The second seal installs a same-sized segment, filling the
        // min_merge=2 tier: the compaction round runs inline right after
        // the install — and its manifest rewrite hits the armed fault.
        let guard = fault::arm(FaultSpec::persistent("manifest-replace", class).scoped(&dir));
        let before = fault::injected_total();
        assert_degraded(store.seal_partition(0).map(|_| ()), &ctx);
        assert!(fault::injected_total() > before, "no injection ({ctx})");
        assert!(store.degraded().is_some(), "store must degrade ({ctx})");
        assert_same_estimates(&store, &mirror, &format!("inputs authoritative ({ctx})"));

        drop(store);
        drop(guard);
        let reopened = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        assert!(reopened.degraded().is_none(), "healthy reopen ({ctx})");
        assert_same_estimates(&reopened, &mirror, &format!("after reopen ({ctx})"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `recovery-read` and `recovery-commit` × every class: a fault during
/// recovery aborts `open_with_wal` with an error — never a panic, never a
/// half-recovered store that would then degrade.  Disarming and reopening
/// recovers every acknowledged record.
#[test]
fn recovery_faults_fail_the_open_cleanly() {
    for site in ["recovery-read", "recovery-commit"] {
        for class in ErrorClass::ALL {
            let ctx = format!("{site}/{}", class.name());
            let dir = unique_dir(site, class);
            let mirror = SynopsisStore::new(config()).unwrap();
            {
                let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
                for record in acked_records(6) {
                    mirror.ingest(record.clone()).unwrap();
                    store.ingest(record).unwrap();
                }
                // Half the records sealed: recovery must read the
                // manifest and blobs, then re-commit the WAL tail.
                store.seal_partition(0).unwrap();
                mirror.seal_partition(0).unwrap();
                let tail = StreamRecord::Basic {
                    item: 3,
                    prob: 0.21,
                };
                store.ingest(tail.clone()).unwrap();
                mirror.ingest(tail).unwrap();
            }

            let guard = fault::arm(FaultSpec::persistent(site, class).scoped(&dir));
            let before = fault::injected_total();
            let result = SynopsisStore::open_with_wal(config(), &dir);
            assert!(
                result.is_err(),
                "a faulted recovery must abort the open ({ctx})"
            );
            assert!(fault::injected_total() > before, "no injection ({ctx})");
            drop(result);

            drop(guard);
            assert_clean_reopen(&dir, &mirror, &ctx);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// `wal-retire` × every class: the seal already manifest-committed when
/// the frozen log retires, so a failed retire costs disk space, not data —
/// the seal succeeds, the store stays healthy, the failure is counted, and
/// the reopen skips the covered log.
#[test]
fn wal_retire_faults_are_counted_not_fatal() {
    for class in ErrorClass::ALL {
        let ctx = format!("wal-retire/{}", class.name());
        let dir = unique_dir("wal-retire", class);
        let mirror = SynopsisStore::new(config()).unwrap();
        let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        for record in acked_records(6) {
            mirror.ingest(record.clone()).unwrap();
            store.ingest(record).unwrap();
        }

        let guard = fault::arm(FaultSpec::persistent("wal-retire", class).scoped(&dir));
        let before = fault::injected_total();
        assert!(
            store
                .seal_partition(0)
                .unwrap_or_else(|e| panic!("a failed retire must not fail the seal ({ctx}): {e}")),
            "the seal must commit ({ctx})"
        );
        assert!(mirror.seal_partition(0).unwrap());
        assert!(fault::injected_total() > before, "no injection ({ctx})");
        assert!(
            store.degraded().is_none(),
            "cleanup failures must never degrade ({ctx})"
        );
        let metrics = store.render_metrics();
        assert!(
            metric_value(&metrics, "pds_store_io_cleanup_errors_total") >= 1,
            "the failed retire must be counted ({ctx}):\n{metrics}"
        );
        assert_same_estimates(&store, &mirror, &format!("after tolerated fault ({ctx})"));
        // The un-retired frozen log is still on disk; the manifest entry
        // covers it, so the reopen must skip (and sweep) it, not replay it.
        let stale = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".sealing"));
        assert!(
            stale,
            "the frozen log must survive the failed retire ({ctx})"
        );

        drop(store);
        drop(guard);
        assert_clean_reopen(&dir, &mirror, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `cleanup` × every class: deleting a compaction's superseded blobs is
/// best-effort — the round commits, the store stays healthy, the failures
/// are counted, the orphaned blobs survive on disk, and the next reopen
/// sweeps them.
#[test]
fn cleanup_faults_leave_orphans_swept_at_reopen() {
    for class in ErrorClass::ALL {
        let ctx = format!("cleanup/{}", class.name());
        let dir = unique_dir("cleanup", class);
        let mirror = SynopsisStore::new(compact_config()).unwrap();
        let store = SynopsisStore::open_with_wal(compact_config(), &dir).unwrap();
        let batch = acked_records(6);
        for record in &batch {
            mirror.ingest(record.clone()).unwrap();
            store.ingest(record.clone()).unwrap();
        }
        assert!(store.seal_partition(0).unwrap());
        assert!(mirror.seal_partition(0).unwrap());
        for record in &batch {
            mirror.ingest(record.clone()).unwrap();
            store.ingest(record.clone()).unwrap();
        }

        // The second seal triggers the inline compaction round; only the
        // superseded-blob deletion is armed to fail.
        let guard = fault::arm(FaultSpec::persistent("cleanup", class).scoped(&dir));
        let before = fault::injected_total();
        assert!(store.seal_partition(0).unwrap(), "seal must commit ({ctx})");
        assert!(mirror.seal_partition(0).unwrap());
        assert!(fault::injected_total() > before, "no injection ({ctx})");
        assert!(
            store.degraded().is_none(),
            "cleanup failures must never degrade ({ctx})"
        );
        let metrics = store.render_metrics();
        assert!(
            metric_value(&metrics, "pds_store_io_cleanup_errors_total") >= 2,
            "both superseded input blobs must be counted ({ctx}):\n{metrics}"
        );
        assert_same_estimates(&store, &mirror, &format!("after tolerated fault ({ctx})"));
        let orphans = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("seg-") && n.ends_with(".bin"))
            .count();
        assert!(
            orphans >= 3,
            "the superseded blobs must survive the failed delete ({ctx}): {orphans}"
        );

        drop(store);
        drop(guard);
        let reopened = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        assert!(reopened.degraded().is_none(), "healthy reopen ({ctx})");
        assert_same_estimates(&reopened, &mirror, &format!("after reopen ({ctx})"));
        let survivors = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("seg-") && n.ends_with(".bin"))
            .count();
        assert_eq!(
            survivors, 1,
            "the reopen must sweep the orphaned inputs ({ctx})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Transient faults at every retried site: a single injected failure is
/// absorbed by the bounded retry — the operation succeeds, the store stays
/// healthy, queries stay bitwise-correct, and the retry shows up in
/// telemetry.  Classes rotate across the sites so every class is exercised
/// on the transient path too.
#[test]
fn transient_faults_are_absorbed_by_retry() {
    // (site, trigger op) — `manifest-install` triggers on its second
    // matching op because the first (the pre-install length probe) sits
    // outside the retry loop by design.
    let rows: [(&str, u64); 6] = [
        ("wal-commit", 1),
        ("wal-rotate", 1),
        ("blob-write", 1),
        ("blob-publish", 1),
        ("manifest-install", 2),
        ("manifest-replace", 1),
    ];
    for (i, (site, at)) in rows.into_iter().enumerate() {
        let class = ErrorClass::ALL[i % ErrorClass::ALL.len()];
        let ctx = format!("transient {site}/{}", class.name());
        let dir = unique_dir("transient", class);
        let needs_compaction = site == "manifest-replace";
        let cfg = if needs_compaction {
            compact_config()
        } else {
            config()
        };
        let mirror = SynopsisStore::new(cfg.clone()).unwrap();
        let store = SynopsisStore::open_with_wal(cfg, &dir).unwrap();
        let batch = acked_records(6);
        for record in &batch {
            mirror.ingest(record.clone()).unwrap();
            store.ingest(record.clone()).unwrap();
        }
        if needs_compaction {
            assert!(store.seal_partition(0).unwrap());
            assert!(mirror.seal_partition(0).unwrap());
            for record in &batch {
                mirror.ingest(record.clone()).unwrap();
                store.ingest(record.clone()).unwrap();
            }
        }

        let guard = fault::arm(FaultSpec::transient(site, class, at, 1).scoped(&dir));
        let before = fault::injected_total();
        if site == "wal-commit" {
            store
                .ingest(failing_record())
                .unwrap_or_else(|e| panic!("a transient fault must be retried away ({ctx}): {e}"));
            mirror.ingest(failing_record()).unwrap();
        } else {
            assert!(
                store.seal_partition(0).unwrap_or_else(|e| panic!(
                    "a transient fault must be retried away ({ctx}): {e}"
                )),
                "the seal must commit ({ctx})"
            );
            assert!(mirror.seal_partition(0).unwrap());
        }
        assert!(fault::injected_total() > before, "no injection ({ctx})");
        drop(guard);

        assert!(
            store.degraded().is_none(),
            "a survived transient must not degrade ({ctx})"
        );
        let metrics = store.render_metrics();
        assert!(
            metric_value(&metrics, "pds_store_io_retries_total") >= 1,
            "the retry must be visible in telemetry ({ctx}):\n{metrics}"
        );
        assert!(
            metric_value(&metrics, "pds_store_io_errors_total") >= 1,
            "the injected failure must be counted ({ctx}):\n{metrics}"
        );
        assert_same_estimates(&store, &mirror, &format!("after absorbed fault ({ctx})"));

        drop(store);
        assert_clean_reopen(&dir, &mirror, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The documented asymmetry: `wal-append` is *not* retryable (a partially
/// buffered frame cannot be rewound), so even a transient fault there
/// degrades — with the acknowledged prefix intact.
#[test]
fn transient_wal_append_still_degrades() {
    let dir = unique_dir("transient-append", ErrorClass::Eio);
    let mirror = SynopsisStore::new(config()).unwrap();
    let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
    for record in acked_records(6) {
        mirror.ingest(record.clone()).unwrap();
        store.ingest(record).unwrap();
    }
    let guard = fault::arm(FaultSpec::transient("wal-append", ErrorClass::Eio, 1, 1).scoped(&dir));
    assert_degraded(store.ingest(failing_record()), "transient wal-append");
    drop(guard);
    assert_same_estimates(&store, &mirror, "acked prefix after append degradation");
    drop(store);
    assert_clean_reopen(&dir, &mirror, "transient wal-append");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The degraded handle keeps serving reads across its whole query surface
/// (ranges, point estimates, stats, snapshots) — degradation gates writes
/// only.
#[test]
fn degraded_store_serves_full_query_surface() {
    let dir = unique_dir("query-surface", ErrorClass::Enospc);
    let mirror = SynopsisStore::new(config()).unwrap();
    let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
    for record in acked_records(8) {
        mirror.ingest(record.clone()).unwrap();
        store.ingest(record).unwrap();
    }
    let guard = fault::arm(FaultSpec::persistent("wal-commit", ErrorClass::Enospc).scoped(&dir));
    assert!(store.ingest(failing_record()).is_err());
    mirror.ingest(failing_record()).unwrap();
    drop(guard);

    assert!(store.degraded().is_some());
    for item in 0..N {
        assert_eq!(
            store.estimate(item),
            mirror.estimate(item),
            "point estimate {item} during degradation"
        );
    }
    assert_same_estimates(&store, &mirror, "ranges during degradation");
    let view = store.snapshot_view();
    assert_eq!(
        view.range_estimate(0, N - 1),
        mirror.range_estimate(0, N - 1)
    );
    // The degraded gauge and cause are visible to scrapes.
    let metrics = store.render_metrics();
    assert!(
        metrics.contains("pds_store_degraded 1"),
        "the degraded gauge must be set:\n{metrics}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `block-read` × every class: the lazily deferred synopsis-block load is
/// the one fault site that fires *inside a query* rather than inside a
/// write or an open.  A persistent failure degrades the store at first
/// touch — sticky, write-refusing, with a cause naming the site — while
/// the rest of the query surface keeps serving (the unreadable segment
/// simply stops contributing), and a reopen after the fault clears
/// restores bitwise-correct answers.
#[test]
fn block_read_faults_degrade_at_first_touch_and_keep_serving() {
    for class in ErrorClass::ALL {
        let ctx = format!("block-read/{}", class.name());
        let dir = unique_dir("block-read", class);
        let mirror = SynopsisStore::new(config()).unwrap();
        {
            let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
            for record in acked_records(6) {
                mirror.ingest(record.clone()).unwrap();
                store.ingest(record).unwrap();
            }
            store.seal_partition(0).unwrap();
        }
        mirror.seal_partition(0).unwrap();

        // The reopen never crosses the block-read site…
        let guard = fault::arm(FaultSpec::persistent("block-read", class).scoped(&dir));
        let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        assert!(
            store.degraded().is_none(),
            "the open must not touch synopsis blocks ({ctx})"
        );

        // …the first query touching the segment does.
        let before = fault::injected_total();
        let _ = store.range_estimate(0, N - 1);
        assert!(fault::injected_total() > before, "no injection ({ctx})");
        let cause = store
            .degraded()
            .unwrap_or_else(|| panic!("the first touch must degrade ({ctx})"));
        assert!(
            cause.starts_with("block-read"),
            "the cause must name the site ({ctx}): {cause}"
        );

        // Degradation gates writes…
        assert_degraded(store.ingest(failing_record()), &ctx);
        // …but the query surface keeps serving: every acknowledged record
        // was sealed into the now-unreadable segment, so the answers are
        // exactly the empty 0.0 — never a panic, never a torn value.
        for (lo, hi) in [(0usize, N - 1), (0, 9), (5, 5)] {
            assert_eq!(store.range_estimate(lo, hi), 0.0, "({ctx})");
        }
        let _ = store.stats();
        let view = store.snapshot_view();
        let _ = view.range_estimate(0, N - 1);

        drop(store);
        drop(guard);
        assert_clean_reopen(&dir, &mirror, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Transient `block-read` faults are absorbed by the bounded retry: the
/// first touch succeeds after the retry, the store stays healthy, the
/// retry and the block load are visible in telemetry, and every answer is
/// bitwise what the never-reopened mirror gives.
#[test]
fn transient_block_read_is_retried_away() {
    for class in ErrorClass::ALL {
        let ctx = format!("transient block-read/{}", class.name());
        let dir = unique_dir("transient-block-read", class);
        let mirror = SynopsisStore::new(config()).unwrap();
        {
            let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
            for record in acked_records(6) {
                mirror.ingest(record.clone()).unwrap();
                store.ingest(record).unwrap();
            }
            store.seal_partition(0).unwrap();
        }
        mirror.seal_partition(0).unwrap();

        let guard = fault::arm(FaultSpec::transient("block-read", class, 1, 1).scoped(&dir));
        let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        let before = fault::injected_total();
        assert_same_estimates(&store, &mirror, &format!("after absorbed fault ({ctx})"));
        assert!(fault::injected_total() > before, "no injection ({ctx})");
        drop(guard);

        assert!(
            store.degraded().is_none(),
            "a survived transient must not degrade ({ctx})"
        );
        let metrics = store.render_metrics();
        assert!(
            metric_value(&metrics, "pds_store_io_retries_total") >= 1,
            "the retry must be visible in telemetry ({ctx}):\n{metrics}"
        );
        assert!(
            metric_value(&metrics, "pds_store_block_loads_total") >= 1,
            "the deferred load must be counted ({ctx}):\n{metrics}"
        );

        drop(store);
        assert_clean_reopen(&dir, &mirror, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
