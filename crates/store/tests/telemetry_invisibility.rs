//! Telemetry is **bit-invisible**.  Recording is unconditional, so the
//! axis is the one an operator controls: two stores fed the same stream
//! through the same lifecycle (batched ingest, sealing, automatic
//! compaction, WAL durability), one scraped (`render_metrics` /
//! `render_events`) between every batch and one never, answer every query
//! bitwise-identically and serialise to byte-identical snapshots and
//! segments — recording and rendering never touch the data path.

use pds_core::metrics::ErrorMetric;
use pds_core::stream::{basic_stream, BasicStreamConfig, StreamRecord};
use pds_store::{CompactionPolicy, PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

const N: usize = 48;

fn config() -> StoreConfig {
    let mut cfg = StoreConfig::new(
        PartitionSpec::uniform(N, 4).unwrap(),
        40,
        6,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    cfg.compaction = Some(CompactionPolicy {
        min_merge: 2,
        tier_ratio: 4.0,
    });
    cfg
}

/// A mixed-model stream: basic records plus cross-partition x-tuples and
/// value pdfs, so the split path and every memtable shape is exercised.
fn workload() -> Vec<StreamRecord> {
    let mut records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.7,
        seed: 23,
    })
    .take(1_500)
    .collect();
    for i in 0..200 {
        let a = (i * 7) % N;
        let b = (i * 13 + N / 2) % N;
        if a != b {
            records.push(StreamRecord::Alternatives(vec![(a, 0.4), (b, 0.3)]));
        }
        records.push(StreamRecord::ValueDistribution {
            item: (i * 3) % N,
            entries: vec![(1.5, 0.5), (3.0, 0.25)],
        });
    }
    records
}

/// Drives one store through the full lifecycle; when `scrape` is set, the
/// metrics/events surfaces are rendered between phases (their output is
/// discarded — only their side effects, which must be none, matter).
fn run(store: &SynopsisStore, records: &[StreamRecord], scrape: bool) {
    for batch in records.chunks(113) {
        store.ingest_batch(batch.iter().cloned()).unwrap();
        if scrape {
            let _ = store.render_metrics();
        }
    }
    store.seal_all().unwrap();
    if scrape {
        let _ = store.render_metrics();
        let _ = store.render_events();
    }
}

fn grid_estimates(store: &SynopsisStore) -> Vec<u64> {
    let mut out = Vec::new();
    for lo in 0..N {
        for hi in [lo, (lo + 5).min(N - 1), N - 1] {
            out.push(store.range_estimate(lo, hi).to_bits());
        }
    }
    for item in 0..N {
        out.push(store.estimate(item).to_bits());
    }
    out
}

#[test]
fn estimates_snapshots_and_segments_are_identical_on_and_off() {
    let records = workload();
    let on = SynopsisStore::new(config()).unwrap();
    let off = SynopsisStore::new(config()).unwrap();
    run(&on, &records, true);
    run(&off, &records, false);

    assert_eq!(grid_estimates(&on), grid_estimates(&off));
    for p in 0..4 {
        assert_eq!(on.segments(p), off.segments(p), "partition {p}");
    }
    assert_eq!(on.to_binary().unwrap(), off.to_binary().unwrap());
    assert_eq!(on.stats(), off.stats());

    // Snapshot views and the global merge agree bitwise too.
    let (view_on, view_off) = (on.snapshot_view(), off.snapshot_view());
    for item in 0..N {
        assert_eq!(
            view_on.estimate(item).to_bits(),
            view_off.estimate(item).to_bits()
        );
    }
    let (merged_on, merged_off) = (on.merge_global(5).unwrap(), off.merge_global(5).unwrap());
    assert_eq!(
        merged_on.to_binary().unwrap(),
        merged_off.to_binary().unwrap()
    );

    // Both stores recorded the workload; scraping is the only difference.
    for store in [&on, &off] {
        let scrape = store.render_metrics();
        assert!(scrape.contains("pds_store_ingest_records_total{partition=\"0\"}"));
        assert!(!scrape.contains("pds_store_ingest_batches_total 0"));
        assert!(!store.render_events().is_empty());
    }
}

#[test]
fn wal_recovery_is_identical_on_and_off() {
    let records = workload();
    let base = std::env::temp_dir().join(format!("pds-telemetry-invis-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut reopened_bits: Vec<Vec<u64>> = Vec::new();
    let mut reopened_bytes: Vec<Vec<u8>> = Vec::new();
    for (label, scrape) in [("on", true), ("off", false)] {
        let dir = base.join(label);
        {
            let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
            run(&store, &records, scrape);
            // More live records on top, left unsealed: the WAL tail must
            // replay them at reopen.
            store
                .ingest_batch(records.iter().take(77).cloned())
                .unwrap();
        }
        let reopened = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        if scrape {
            // Recovery is itself observable.
            assert!(reopened
                .render_events()
                .iter()
                .any(|line| line.contains("recovery")));
            let _ = reopened.render_metrics();
        }
        reopened_bits.push(grid_estimates(&reopened));
        // snapshot() seals the replayed tail before serialising.
        reopened_bytes.push(reopened.snapshot().unwrap());
    }
    assert_eq!(reopened_bits[0], reopened_bits[1]);
    assert_eq!(reopened_bytes[0], reopened_bytes[1]);
    let _ = std::fs::remove_dir_all(&base);
}
