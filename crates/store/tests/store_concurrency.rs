//! Serial-vs-concurrent equivalence: the same record stream ingested with
//! one thread, with one ingest thread per partition, or through
//! `ingest_batch` at several pool widths must yield **byte-identical**
//! sealed segments (and therefore identical `to_binary` snapshots) and
//! identical range estimates.  This is the determinism contract of the
//! sharded store: per-partition record order is a pure function of the
//! stream, every thread seals what it froze off the shard lock, and
//! per-partition seal sequence numbers fix segment order regardless of
//! which seal installs first.  Threads sharing *one* partition interleave
//! as the scheduler likes, so there conservation — not byte identity — is
//! the contract.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use pds_core::metrics::ErrorMetric;
use pds_core::pool;
use pds_core::stream::{basic_stream, BasicStreamConfig, StreamRecord};
use pds_store::{PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

const N: usize = 24;

fn config(parts: usize, threshold: usize) -> StoreConfig {
    StoreConfig::new(
        PartitionSpec::uniform(N, parts).unwrap(),
        threshold,
        6, // lossy on purpose: segment bytes depend on the DP
        SynopsisKind::Histogram(ErrorMetric::Sse),
    )
}

/// A mixed-model record stream (same shape as the round-trip suite).
fn record_stream(max_len: usize) -> impl Strategy<Value = Vec<StreamRecord>> {
    prop::collection::vec(
        (
            0usize..3,
            (0..N, 0.01f64..0.5),
            (0..N, 0.01f64..0.5),
            0.5f64..6.0,
        ),
        1..max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, (i1, p1), (i2, p2), v)| match kind {
                0 => StreamRecord::Basic { item: i1, prob: p1 },
                1 if i1 != i2 => StreamRecord::Alternatives(vec![(i1, p1), (i2, p2)]),
                1 => StreamRecord::Alternatives(vec![(i1, p1)]),
                _ => StreamRecord::ValueDistribution {
                    item: i1,
                    entries: vec![(v, p1)],
                },
            })
            .collect()
    })
}

/// Routes a stream the way the store does: per-partition sub-sequences in
/// arrival order, x-tuples split into per-partition sub-tuples.
fn route(spec: &PartitionSpec, records: &[StreamRecord]) -> Vec<Vec<StreamRecord>> {
    let mut routed: Vec<Vec<StreamRecord>> = vec![Vec::new(); spec.len()];
    for record in records {
        match record {
            StreamRecord::Basic { item, .. } | StreamRecord::ValueDistribution { item, .. } => {
                routed[spec.partition_of(*item).unwrap()].push(record.clone());
            }
            StreamRecord::Alternatives(alts) => {
                let mut by_partition: std::collections::BTreeMap<usize, Vec<(usize, f64)>> =
                    std::collections::BTreeMap::new();
                for &(item, prob) in alts {
                    by_partition
                        .entry(spec.partition_of(item).unwrap())
                        .or_default()
                        .push((item, prob));
                }
                for (p, sub) in by_partition {
                    routed[p].push(StreamRecord::Alternatives(sub));
                }
            }
        }
    }
    routed
}

fn estimates_on_grid(store: &SynopsisStore) -> Vec<f64> {
    let mut out = Vec::new();
    for lo in 0..N {
        for hi in [lo, (lo + 3).min(N - 1), N - 1] {
            out.push(store.range_estimate(lo, hi));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One ingest thread per partition, each sealing off-lock what it
    /// froze, produces byte-identical snapshots to single-threaded ingest
    /// of the same per-partition sequences, and identical answers to
    /// serial ingest of the original stream.
    #[test]
    fn per_partition_threads_are_byte_identical(
        records in record_stream(120),
        parts in 2usize..5,
        threshold in 2usize..12,
    ) {
        let spec = PartitionSpec::uniform(N, parts).unwrap();
        let routed = route(&spec, &records);

        // Reference A: serial per-record ingest of the original stream.
        let serial = SynopsisStore::new(config(parts, threshold)).unwrap();
        for record in &records {
            serial.ingest(record.clone()).unwrap();
        }
        serial.seal_all().unwrap();

        // Reference B: serial ingest of the pre-routed sub-streams
        // (partition-major).  Identical per-partition sequences, so
        // identical segments; only the split/ingest counters may differ.
        let pre_routed = SynopsisStore::new(config(parts, threshold)).unwrap();
        for batch in &routed {
            for record in batch {
                pre_routed.ingest(record.clone()).unwrap();
            }
        }
        pre_routed.seal_all().unwrap();

        // C: one scoped ingest thread per partition.
        let concurrent = SynopsisStore::new(config(parts, threshold)).unwrap();
        std::thread::scope(|scope| {
            for batch in &routed {
                let concurrent = &concurrent;
                scope.spawn(move || {
                    for record in batch {
                        concurrent.ingest(record.clone()).unwrap();
                    }
                });
            }
        });
        concurrent.seal_all().unwrap();

        // Segments are byte-identical across all three stores.
        for p in 0..parts {
            prop_assert_eq!(serial.segments(p), pre_routed.segments(p), "partition {}", p);
            prop_assert_eq!(pre_routed.segments(p), concurrent.segments(p), "partition {}", p);
        }
        // B and C saw identical record sequences, so whole snapshots
        // (including counters) match byte for byte.
        prop_assert_eq!(pre_routed.to_binary().unwrap(), concurrent.to_binary().unwrap());

        // Identical answers everywhere (bitwise: same f64 operations).
        let a = estimates_on_grid(&serial);
        let c = estimates_on_grid(&concurrent);
        for (x, y) in a.iter().zip(&c) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `ingest_batch` at 1/2/4/8 pool threads matches serial per-record
    /// ingest byte for byte.
    #[test]
    fn batch_ingest_thread_counts_are_byte_identical(
        records in record_stream(100),
        parts in 2usize..5,
        threshold in 2usize..12,
    ) {
        let serial = SynopsisStore::new(config(parts, threshold)).unwrap();
        for record in &records {
            serial.ingest(record.clone()).unwrap();
        }
        serial.seal_all().unwrap();
        let reference = serial.to_binary().unwrap();

        for threads in [1usize, 2, 4, 8] {
            // The pool override is process-global; every store path is
            // deterministic at any thread count, so concurrently running
            // tests observing a different width stay correct.
            pool::set_num_threads(Some(threads));
            let batched = SynopsisStore::new(config(parts, threshold)).unwrap();
            batched.ingest_batch(records.iter().cloned()).unwrap();
            batched.seal_all().unwrap();
            prop_assert_eq!(&batched.to_binary().unwrap(), &reference, "threads {}", threads);
        }
        pool::set_num_threads(None);
    }
}

/// The basic-model stream both racing-reader tests ingest, with its total
/// probability mass.
fn basic_records(count: usize, seed: u64) -> (Vec<StreamRecord>, f64) {
    let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.6,
        seed,
    })
    .take(count)
    .collect();
    let total = records
        .iter()
        .map(|r| match r {
            StreamRecord::Basic { prob, .. } => *prob,
            _ => unreachable!(),
        })
        .sum();
    (records, total)
}

/// Races full-range queries against ingest and off-lock sealing until the
/// writers report `done` (and for at least 200 queries): sums must always
/// be a sane partial total, never garbage, and never *dip* — a memtable
/// frozen for an in-flight seal stays visible until its segment swaps in
/// (SSE representatives preserve bucket mass), so the observed total only
/// grows as records arrive.
fn assert_estimate_never_dips(store: &SynopsisStore, total: f64, done: &AtomicBool) {
    let mut last = 0.0f64;
    let mut queries = 0usize;
    while queries < 200 || !done.load(Ordering::Acquire) {
        let got = store.range_estimate(0, N - 1);
        assert!(
            got >= -1e-9 && got <= total + 1e-9,
            "mid-ingest estimate {got} outside [0, {total}]"
        );
        assert!(
            got >= last - 1e-6,
            "estimate dipped {last} -> {got}: in-flight seal lost mass"
        );
        last = got;
        queries += 1;
    }
}

/// Readers racing a writer that seals off-lock: every observed estimate is
/// a valid point-in-time value (between 0 and the final total), and the
/// final state matches the serial reference exactly.
#[test]
fn concurrent_readers_observe_consistent_states() {
    let (records, total) = basic_records(4_000, 99);
    let store = SynopsisStore::new(config(4, 64)).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            store.ingest_batch(records.iter().cloned()).unwrap();
        });
        for _ in 0..2 {
            scope.spawn(|| assert_estimate_never_dips(&store, total, &done));
        }
        writer.join().unwrap();
        done.store(true, Ordering::Release);
    });
    store.seal_all().unwrap();

    let serial = SynopsisStore::new(config(4, 64)).unwrap();
    for record in &records {
        serial.ingest(record.clone()).unwrap();
    }
    serial.seal_all().unwrap();
    assert_eq!(store.to_binary().unwrap(), serial.to_binary().unwrap());
    assert!((store.range_estimate(0, N - 1) - total).abs() < 1e-6);
}

/// Two writers sharing **every** partition, in batches that cross several
/// seal thresholds: seals of one shard overlap on different threads and may
/// install out of order, and an install can find another thread's
/// compaction round in flight.  The interleaving is the scheduler's, so the
/// sealed bytes are not comparable to a serial run; what must hold for any
/// interleaving is conservation — no record and no mass lost or doubled,
/// nothing transiently invisible to a racing reader — and a store that
/// still seals and round-trips afterwards.
#[test]
fn writers_sharing_a_partition_conserve_records_and_mass() {
    const PARTS: usize = 2;
    let (records, total) = basic_records(6_000, 17);
    let mut cfg = config(PARTS, 64);
    cfg.compaction = Some(pds_store::CompactionPolicy {
        min_merge: 2,
        tier_ratio: 4.0,
    });
    let store = SynopsisStore::new(cfg).unwrap();
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let (store, records, start) = (&store, &records, &start);
                scope.spawn(move || {
                    start.wait();
                    // Writer `w` owns every other chunk of the stream; at
                    // 150 records a call against a 64-record threshold,
                    // nearly every call freezes mid-batch, seals off-lock
                    // and resumes while the other writer keeps inserting.
                    for chunk in records.chunks(150).skip(w).step_by(2) {
                        store.ingest_batch(chunk.iter().cloned()).unwrap();
                    }
                })
            })
            .collect();
        scope.spawn(|| assert_estimate_never_dips(&store, total, &done));
        for writer in writers {
            writer.join().unwrap();
        }
        done.store(true, Ordering::Release);
    });

    let conserved = |store: &SynopsisStore| {
        let stats = store.stats();
        let sealed: u64 = (0..PARTS)
            .flat_map(|p| store.segments(p))
            .map(|s| s.records())
            .sum();
        assert_eq!(stats.ingested_records, records.len() as u64);
        assert_eq!(sealed + stats.live_records, stats.ingested_records);
        assert!((store.range_estimate(0, N - 1) - total).abs() < 1e-6);
    };
    conserved(&store);
    assert!(
        store.stats().seals >= (records.len() / 64 - PARTS) as u64,
        "the threshold seals ran: {:?}",
        store.stats()
    );

    store.seal_all().unwrap();
    conserved(&store);
    let restored = SynopsisStore::from_binary(&store.to_binary().unwrap()).unwrap();
    assert_eq!(restored.stats(), store.stats());
    for (lo, hi) in [(0, N - 1), (0, 0), (5, 17), (N - 1, N - 1)] {
        assert_eq!(
            restored.range_estimate(lo, hi).to_bits(),
            store.range_estimate(lo, hi).to_bits()
        );
    }
}

/// `merge_global` and `compact_all` produce bitwise-identical histograms at
/// every pool width (piece extraction and the merge DP are deterministic).
#[test]
fn merge_and_compaction_are_thread_count_independent() {
    let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.8,
        seed: 41,
    })
    .take(2_000)
    .collect();
    let mut reference: Option<(Vec<u64>, Vec<u8>)> = None;
    for threads in [1usize, 2, 4] {
        pool::set_num_threads(Some(threads));
        let store = SynopsisStore::new(config(4, 100)).unwrap();
        store.ingest_batch(records.iter().cloned()).unwrap();
        store.seal_all().unwrap();
        let merged = store.merge_global(5).unwrap();
        let bits: Vec<u64> = merged.estimates().iter().map(|v| v.to_bits()).collect();
        store.compact_all().unwrap();
        let compacted = store.to_binary().unwrap();
        match &reference {
            None => reference = Some((bits, compacted)),
            Some((ref_bits, ref_compacted)) => {
                assert_eq!(&bits, ref_bits, "merge_global at {threads} threads");
                assert_eq!(
                    &compacted, ref_compacted,
                    "compact_all at {threads} threads"
                );
            }
        }
    }
    pool::set_num_threads(None);
}

/// Batch ingest with a WAL: a crash (drop without sealing) after concurrent
/// ingest loses nothing — the reopened store answers like the serial
/// reference.
#[test]
fn wal_covers_concurrent_batch_ingest() {
    let dir =
        std::env::temp_dir().join(format!("pds-store-concurrency-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.5,
        seed: 7,
    })
    .take(300)
    .collect();
    // Threshold high enough that nothing auto-seals: every record stays
    // live, so the WAL alone must reconstruct the full state (sealed
    // segments persist via `snapshot()`, not the WAL).
    {
        let store = SynopsisStore::open_with_wal(config(3, 1000), &dir).unwrap();
        store.ingest_batch(records.iter().cloned()).unwrap();
        // Dropped with live records: only the WAL has them now.
    }
    let reopened = SynopsisStore::open_with_wal(config(3, 1000), &dir).unwrap();
    let serial = SynopsisStore::new(config(3, 1000)).unwrap();
    serial.ingest_batch(records).unwrap();
    for lo in (0..N).step_by(3) {
        assert_eq!(
            reopened.range_estimate(lo, N - 1).to_bits(),
            serial.range_estimate(lo, N - 1).to_bits(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bitwise fingerprint of one partition as a snapshot view answers it:
/// every point estimate in the partition's item range plus the
/// whole-partition range sum.  Two states of the same partition that differ
/// at all differ in this vector, and bit-equality here means the view
/// observed exactly one committed state of the partition.
fn partition_fingerprint(
    view: &pds_store::SnapshotView,
    spec: &PartitionSpec,
    p: usize,
) -> Vec<u64> {
    let (start, width) = spec.range(p);
    let mut out: Vec<u64> = (start..start + width)
        .map(|i| view.estimate(i).to_bits())
        .collect();
    out.push(view.range_estimate(start, start + width - 1).to_bits());
    out
}

/// Snapshot views captured while another thread commits one compaction per
/// partition (in partition order) are always **bitwise** consistent cuts of
/// the commit chain.  Per partition, exactly two states ever exist: the
/// sealed pre-compaction segments and the single merged post-compaction
/// segment, so every view's per-partition fingerprint must bit-equal one of
/// the two quiesced references — a torn capture (half a swap, or mixed
/// record mass) would produce a third value.  Because the compactor commits
/// partitions in ascending order, the set of post-compaction partitions any
/// single consistent cut can observe is a *prefix*: seeing partition `j`
/// compacted while some `i < j` is still uncompacted means the view mixed
/// two points in time.  Across successive views the observation is also
/// monotone — commits never revert.  The store's own fenced reads are
/// sampled in the same race: every `range_estimate` over the whole domain
/// and every `merge_global` must bit-equal the same read on one of the
/// `PARTS + 1` prefix states (partitions `0..k` compacted), rebuilt on
/// fresh stores.  Runs at a 4-wide pool (the `PDS_THREADS=4` shape of the
/// rest of this suite).
#[test]
fn snapshot_views_race_compaction_commits_consistently() {
    pool::set_num_threads(Some(4));
    const PARTS: usize = 4;
    const MERGE_B: usize = 4;
    let spec = PartitionSpec::uniform(N, PARTS).unwrap();
    let cfg = StoreConfig::new(
        spec.clone(),
        50,
        N, // lossless: N buckets represent the N-item domain exactly
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    let store = SynopsisStore::new(cfg.clone()).unwrap();
    let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.6,
        seed: 55,
    })
    .take(3_000)
    .collect();
    store.ingest_batch(records.iter().cloned()).unwrap();
    store.seal_all().unwrap();
    assert!(
        store.stats().segments >= 8,
        "need several segments per partition for compaction to race against"
    );

    // Quiesced pre-compaction reference, per partition, captured through
    // the same snapshot-view path the racing reads use.
    let quiesced = store.snapshot_view();
    let pre: Vec<Vec<u64>> = (0..PARTS)
        .map(|p| partition_fingerprint(&quiesced, &spec, p))
        .collect();
    drop(quiesced);

    // Race: the compactor commits partition 0, then 1, 2, 3 (one merge
    // each — `compact_partition` folds every sealed segment into one, so
    // the per-partition chain has exactly two states).  The main thread
    // records what each racing view, store query and merge saw; verdicts
    // are checked once the post-compaction references exist.
    type Sample = (Vec<Vec<u64>>, u64, Vec<u8>);
    let observed: Vec<Sample> = std::thread::scope(|scope| {
        let compactor = scope.spawn(|| {
            for p in 0..PARTS {
                store.compact_partition(p).unwrap();
            }
        });
        let mut seen = Vec::new();
        while !compactor.is_finished() || seen.is_empty() {
            let view = store.snapshot_view();
            seen.push((
                (0..PARTS)
                    .map(|p| partition_fingerprint(&view, &spec, p))
                    .collect(),
                store.range_estimate(0, N - 1).to_bits(),
                store.merge_global(MERGE_B).unwrap().to_binary().unwrap(),
            ));
        }
        compactor.join().unwrap();
        seen
    });

    // Quiesced post-compaction reference (the store is now fully merged).
    let quiesced = store.snapshot_view();
    let post: Vec<Vec<u64>> = (0..PARTS)
        .map(|p| partition_fingerprint(&quiesced, &spec, p))
        .collect();

    // Every racing view: each partition bit-equals exactly pre or post,
    // the post-compaction partitions form a prefix within a view, and the
    // observation never regresses across successive views.
    // The prefix states of the commit chain, sealed and compacted on fresh
    // stores over the same stream (seal and merge are deterministic at
    // every pool width).
    let prefixes: Vec<SynopsisStore> = (0..=PARTS)
        .map(|k| {
            let fresh = SynopsisStore::new(cfg.clone()).unwrap();
            fresh.ingest_batch(records.iter().cloned()).unwrap();
            fresh.seal_all().unwrap();
            for p in 0..k {
                fresh.compact_partition(p).unwrap();
            }
            fresh
        })
        .collect();
    let prefix_reads: Vec<(u64, Vec<u8>)> = prefixes
        .iter()
        .map(|s| {
            let merged = s.merge_global(MERGE_B).unwrap().to_binary().unwrap();
            (s.range_estimate(0, N - 1).to_bits(), merged)
        })
        .collect();

    let mut frontier = [false; PARTS]; // partitions already seen post
    for (v, (fingerprints, range_bits, merged)) in observed.iter().enumerate() {
        assert!(
            prefix_reads.iter().any(|(bits, _)| bits == range_bits),
            "racing store query {v}: range_estimate matches no prefix state — torn cut"
        );
        assert!(
            prefix_reads.iter().any(|(_, bytes)| bytes == merged),
            "racing merge {v}: merge_global matches no prefix state — torn cut"
        );
        let mut saw_pre = false;
        for (p, got) in fingerprints.iter().enumerate() {
            let is_pre = *got == pre[p];
            let is_post = *got == post[p];
            assert!(
                is_pre || is_post,
                "racing view {v}, partition {p}: fingerprint matches neither \
                 the pre- nor the post-compaction state bitwise — torn view"
            );
            // `is_pre && is_post` (compaction changed nothing bitwise) is
            // compatible with both sides of the chain; skip it.
            if is_pre && is_post {
                continue;
            }
            if is_post {
                assert!(
                    !saw_pre,
                    "racing view {v}: partition {p} observed post-compaction \
                     after an earlier partition was still pre-compaction — \
                     commits land in partition order, so this cut never existed"
                );
                frontier[p] = true;
            } else {
                saw_pre = true;
                assert!(
                    !frontier[p],
                    "racing view {v}: partition {p} regressed to its \
                     pre-compaction state after a prior view saw it compacted"
                );
            }
        }
    }

    // Fully quiesced rebuild: the last prefix state (every partition
    // compacted) bit-equals the raced store partition by partition.
    let rebuilt_view = prefixes[PARTS].snapshot_view();
    for (p, expected) in post.iter().enumerate() {
        assert_eq!(
            &partition_fingerprint(&rebuilt_view, &spec, p),
            expected,
            "quiesced rebuild, partition {p}: compacted fingerprint drifted \
             from the raced store"
        );
    }
    pool::set_num_threads(None);
}
