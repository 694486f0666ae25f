//! Criterion benchmark for the `pds-store` ingest path: memtable append
//! throughput (tuples/sec) across worker-thread counts, seal latency per
//! segment (one partition and all of them on the thread pool), and the
//! partition merge producing the global histogram.
//!
//! The thread axis (1/2/4/8) drives `SynopsisStore::ingest_batch` through
//! `pds_core::pool::set_num_threads`, so the numbers show how batch ingest
//! scales with cores; on a single-core container every row collapses to the
//! one-thread figure plus scheduling overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pds_core::metrics::ErrorMetric;
use pds_core::pool;
use pds_core::stream::{basic_stream, BasicStreamConfig, StreamRecord};
use pds_store::{PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore, WalSync};

const N: usize = 8192;
const PARTITIONS: usize = 8;

fn config(seal_threshold: usize, segment_budget: usize) -> StoreConfig {
    StoreConfig::new(
        PartitionSpec::uniform(N, PARTITIONS).unwrap(),
        seal_threshold,
        segment_budget,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    )
}

fn records(count: usize) -> Vec<StreamRecord> {
    basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.7,
        seed: 42,
    })
    .take(count)
    .collect()
}

/// Memtable append throughput: no sealing, pure routing + expectation
/// bookkeeping through `ingest_batch` (lock-free routing, one pool task per
/// partition) at 1/2/4/8 workers.  Reported per iteration over a
/// 100k-record batch — divide for tuples/sec.
fn bench_ingest_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_ingest");
    group.sample_size(10);
    let batch = records(100_000);
    for threads in [1usize, 2, 4, 8] {
        pool::set_num_threads(Some(threads));
        group.bench_with_input(
            BenchmarkId::new("memtable_append_100k_batch_threads", threads),
            &threads,
            |bench, _| {
                bench.iter(|| {
                    let store = SynopsisStore::new(config(usize::MAX >> 1, 32)).unwrap();
                    store.ingest_batch(batch.iter().cloned()).unwrap();
                    black_box(store.stats().ingested_records)
                })
            },
        );
    }
    pool::set_num_threads(None);
    group.finish();
}

/// Seal latency: one partition's memtable (~12.5k records over a 1024-item
/// range) into a segment, for a few synopsis budgets.
fn bench_seal_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_seal");
    group.sample_size(10);
    let batch = records(100_000);
    for budget in [16usize, 48] {
        let filled = SynopsisStore::new(config(usize::MAX >> 1, budget)).unwrap();
        filled.ingest_batch(batch.iter().cloned()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("seal_partition", budget),
            &budget,
            |bench, _| {
                bench.iter(|| {
                    let store = filled.clone();
                    black_box(store.seal_partition(0).unwrap())
                })
            },
        );
    }
    // All eight partitions at once: `seal_all` builds on the thread pool.
    for threads in [1usize, 4] {
        let filled = SynopsisStore::new(config(usize::MAX >> 1, 48)).unwrap();
        filled.ingest_batch(batch.iter().cloned()).unwrap();
        pool::set_num_threads(Some(threads));
        group.bench_with_input(
            BenchmarkId::new("seal_all_threads", threads),
            &threads,
            |bench, _| {
                bench.iter(|| {
                    let store = filled.clone();
                    store.seal_all().unwrap();
                    black_box(store.stats().segments)
                })
            },
        );
    }
    pool::set_num_threads(None);
    group.finish();
}

/// WAL durability cost: per-record `ingest` (one commit boundary per
/// record) versus group-committed `ingest_batch` (one commit per touched
/// shard per batch), at the flush tier and the opt-in fsync tier.  The
/// fsync rows are the reason group commit exists: the per-record path pays
/// one `sync_data` per record, the batch path one per shard per batch.
fn bench_wal_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_wal");
    group.sample_size(10);
    let batch = records(5_000);
    let mut run = 0u64;
    let mut dir_for = |tag: &str| {
        run += 1;
        let dir =
            std::env::temp_dir().join(format!("pds-bench-wal-{tag}-{run}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    for (tag, sync) in [("flush", WalSync::Flush), ("fsync", WalSync::Fsync)] {
        group.bench_with_input(
            BenchmarkId::new("ingest_5k_per_record", tag),
            &sync,
            |bench, &sync| {
                bench.iter(|| {
                    let dir = dir_for(tag);
                    let mut cfg = config(usize::MAX >> 1, 32);
                    cfg.wal_sync = sync;
                    let store = SynopsisStore::open_with_wal(cfg, &dir).unwrap();
                    for record in &batch {
                        store.ingest(record.clone()).unwrap();
                    }
                    black_box(store.stats().ingested_records);
                    drop(store);
                    let _ = std::fs::remove_dir_all(&dir);
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ingest_5k_group_commit", tag),
            &sync,
            |bench, &sync| {
                bench.iter(|| {
                    let dir = dir_for(tag);
                    let mut cfg = config(usize::MAX >> 1, 32);
                    cfg.wal_sync = sync;
                    let store = SynopsisStore::open_with_wal(cfg, &dir).unwrap();
                    store.ingest_batch(batch.iter().cloned()).unwrap();
                    black_box(store.stats().ingested_records);
                    drop(store);
                    let _ = std::fs::remove_dir_all(&dir);
                })
            },
        );
    }
    group.finish();
}

/// Global merge over sealed per-partition synopses (piece extraction runs
/// one pool task per partition).
fn bench_global_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_merge");
    group.sample_size(10);
    let store = SynopsisStore::new(config(usize::MAX >> 1, 48)).unwrap();
    store.ingest_batch(records(400_000)).unwrap();
    store.seal_all().unwrap();
    group.bench_function("merge_global_b32", |bench| {
        bench.iter(|| black_box(store.merge_global(32).unwrap().total_cost()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest_throughput,
    bench_seal_latency,
    bench_wal_commit,
    bench_global_merge
);
criterion_main!(benches);
