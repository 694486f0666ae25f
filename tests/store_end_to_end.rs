//! End-to-end store pipeline at test scale: stream ingest across
//! partitions, auto-sealing, compaction, global merge, AQP routing, and the
//! merged-vs-monolithic quality bound with genuinely lossy segments.

use probsyn::aqp::{answer_with_histogram, answer_with_store, relative_deviation, FrequencyQuery};
use probsyn::prelude::*;

const N: usize = 512;
const PARTS: usize = 4;

fn stream(records: usize) -> Vec<StreamRecord> {
    basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.7,
        seed: 1234,
    })
    .take(records)
    .collect()
}

fn exact_prefix(records: &[StreamRecord]) -> Vec<f64> {
    let mut exact = vec![0.0f64; N + 1];
    for r in records {
        if let StreamRecord::Basic { item, prob } = r {
            exact[*item + 1] += prob;
        }
    }
    for i in 0..N {
        exact[i + 1] += exact[i];
    }
    exact
}

#[test]
fn pipeline_ingests_seals_compacts_merges_and_serves() {
    let records = stream(20_000);
    let store = SynopsisStore::new(StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).unwrap(),
        2_000,
        24,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    ))
    .unwrap();
    store.ingest_batch(records.iter().cloned()).unwrap();
    let stats = store.stats();
    assert_eq!(stats.ingested_records, 20_000);
    assert!(stats.seals >= PARTS as u64, "auto-seals fired: {stats:?}");
    store.seal_all().unwrap();
    assert_eq!(store.stats().live_records, 0);

    // Multiple segments per partition before compaction, one after.
    assert!(store.stats().segments > PARTS);
    store.compact_all().unwrap();
    assert_eq!(store.stats().segments, PARTS);

    // Merged global histogram vs the monolithic single build.
    let b = 16;
    let merged = store.merge_global(b).unwrap();
    let pairs = records.iter().map(|r| match r {
        StreamRecord::Basic { item, prob } => (*item, *prob),
        _ => unreachable!(),
    });
    let relation: ProbabilisticRelation = BasicModel::from_pairs(N, pairs).unwrap().into();
    let monolithic = build_histogram(&relation, ErrorMetric::Sse, b).unwrap();

    let prefix = exact_prefix(&records);
    let mut merged_err = 0.0;
    let mut mono_err = 0.0;
    let mut store_err = 0.0;
    let mut count = 0usize;
    for width in [1usize, 8, 64, 256] {
        for k in 0..25 {
            let start = (k * 131 * width) % (N - width);
            let query = FrequencyQuery::RangeSum {
                start,
                end: start + width - 1,
            };
            let reference = prefix[start + width] - prefix[start];
            merged_err += (answer_with_histogram(&merged, query).estimate - reference).abs();
            mono_err += (answer_with_histogram(&monolithic, query).estimate - reference).abs();
            store_err += (answer_with_store(&store, query).estimate - reference).abs();
            count += 1;
        }
    }
    merged_err /= count as f64;
    mono_err /= count as f64;
    store_err /= count as f64;
    assert!(
        merged_err <= 2.0 * mono_err + 1e-9,
        "merged {merged_err} vs monolithic {mono_err}"
    );
    // The per-partition store view (more buckets overall) is at least as
    // good as the B-bucket global merge on average.
    assert!(
        store_err <= merged_err + 1e-9,
        "store {store_err} vs merged {merged_err}"
    );
}

#[test]
fn store_binary_snapshot_meets_the_compression_bar() {
    let records = stream(30_000);
    let store = SynopsisStore::new(StoreConfig::new(
        PartitionSpec::uniform(N, 2).unwrap(),
        100_000,
        200,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    ))
    .unwrap();
    store.ingest_batch(records).unwrap();
    store.seal_all().unwrap();

    // A 200-bucket histogram segment: binary at least 5x smaller than the
    // JSON of the histogram it embeds alone.
    let segment = &store.segments(0)[0];
    let binary = segment.to_binary().unwrap();
    let probsyn::store::SegmentSynopsis::Histogram(histogram) = segment.synopsis() else {
        panic!("the store was configured with histogram segments");
    };
    let json = histogram.to_json().unwrap();
    assert!(
        binary.len() * 5 <= json.len(),
        "binary {} bytes vs JSON {} bytes",
        binary.len(),
        json.len()
    );

    // Decoding truncated or version-skewed blobs errors, never panics.
    for cut in [0, 3, 6, binary.len() / 2, binary.len() - 1] {
        assert!(Segment::from_binary(&binary[..cut]).is_err());
    }
    let mut skewed = binary.clone();
    skewed[4] = 99;
    assert!(Segment::from_binary(&skewed).is_err());

    let blob = store.to_binary().unwrap();
    for cut in [0, 5, blob.len() / 3, blob.len() - 1] {
        assert!(SynopsisStore::from_binary(&blob[..cut]).is_err());
    }
    let restored = SynopsisStore::from_binary(&blob).unwrap();
    for (lo, hi) in [(0usize, N - 1), (37, 444), (100, 100)] {
        assert_eq!(
            restored.range_estimate(lo, hi),
            store.range_estimate(lo, hi)
        );
    }
}

#[test]
fn wavelet_segments_flow_through_the_same_pipeline() {
    let records = stream(4_000);
    let store = SynopsisStore::new(StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).unwrap(),
        1_000,
        32,
        SynopsisKind::Wavelet,
    ))
    .unwrap();
    store.ingest_batch(records.iter().cloned()).unwrap();
    store.seal_all().unwrap();
    store.compact_all().unwrap();
    let merged = store.merge_global(16).unwrap();
    assert_eq!(merged.n(), N);

    // Wide ranges are answered within a few percent of the exact answer.
    let prefix = exact_prefix(&records);
    let exact_total = prefix[N];
    let got = answer_with_store(
        &store,
        FrequencyQuery::RangeSum {
            start: 0,
            end: N - 1,
        },
    )
    .estimate;
    assert!(
        relative_deviation(got, exact_total, 1.0) < 0.05,
        "{got} vs {exact_total}"
    );
    let bytes = store.to_binary().unwrap();
    let restored = SynopsisStore::from_binary(&bytes).unwrap();
    assert_eq!(
        restored.range_estimate(10, 200),
        store.range_estimate(10, 200)
    );
}

#[test]
fn concurrent_ingest_answers_aqp_queries_identically_to_serial() {
    // The AQP-level face of the equivalence contract (the byte-level one
    // lives in `crates/store/tests/store_concurrency.rs`): the same stream
    // ingested per-record on one thread versus batched on the pool yields
    // identical `answer_with_store` results.
    let records = stream(12_000);
    let make_config = || {
        StoreConfig::new(
            PartitionSpec::uniform(N, PARTS).unwrap(),
            1_500,
            24,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        )
    };
    let serial = SynopsisStore::new(make_config()).unwrap();
    for record in &records {
        serial.ingest(record.clone()).unwrap();
    }
    serial.seal_all().unwrap();

    let concurrent = SynopsisStore::new(make_config()).unwrap();
    concurrent.ingest_batch(records.iter().cloned()).unwrap();
    concurrent.seal_all().unwrap();

    for (start, end) in [(0usize, N - 1), (3, 3), (17, 230), (100, 101), (400, 511)] {
        let query = FrequencyQuery::RangeSum { start, end };
        let a = answer_with_store(&serial, query).estimate;
        let b = answer_with_store(&concurrent, query).estimate;
        assert_eq!(a.to_bits(), b.to_bits(), "query [{start}, {end}]");
    }
    assert_eq!(serial.to_binary().unwrap(), concurrent.to_binary().unwrap());
}

#[test]
fn durable_store_reopens_and_answers_aqp_queries_identically() {
    // The AQP-level face of the crash-durability contract (the crash-point
    // matrix lives in `crates/store/tests/store_crash_matrix.rs`): a store
    // that sealed into install-time blobs, compacted, and then "crashed"
    // answers every `answer_with_store` query bit-identically after a
    // reopen from manifest + segment blobs + WAL tail alone.
    let dir = std::env::temp_dir().join(format!("pds-e2e-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let make_config = || {
        StoreConfig::new(
            PartitionSpec::uniform(N, PARTS).unwrap(),
            1_500,
            24,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        )
    };
    let records = stream(9_000);
    let queries: Vec<FrequencyQuery> = [(0usize, N - 1), (3, 3), (17, 230), (100, 101), (400, 511)]
        .iter()
        .map(|&(start, end)| FrequencyQuery::RangeSum { start, end })
        .collect();

    let before: Vec<f64> = {
        let store = SynopsisStore::open_with_wal(make_config(), &dir).unwrap();
        store.ingest_batch(records.iter().cloned()).unwrap();
        store.seal_all().unwrap();
        store.compact_all().unwrap();
        // A few live records on top: they must come back from the WAL.
        for record in records.iter().take(40) {
            store.ingest(record.clone()).unwrap();
        }
        queries
            .iter()
            .map(|&q| answer_with_store(&store, q).estimate)
            .collect()
        // Dropped without snapshot(): durability comes from blobs + WAL.
    };

    let reopened = SynopsisStore::open_with_wal(make_config(), &dir).unwrap();
    assert_eq!(reopened.stats().live_records, 40);
    for (q, want) in queries.iter().zip(&before) {
        let got = answer_with_store(&reopened, *q).estimate;
        assert_eq!(got.to_bits(), want.to_bits(), "query {q:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
