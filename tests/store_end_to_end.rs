//! End-to-end store pipeline at test scale: stream ingest across
//! partitions, auto-sealing, compaction, global merge, range queries, and
//! the merged-vs-monolithic quality bound with genuinely lossy segments;
//! plus the served answers' accuracy against possible-worlds semantics on
//! relations small enough to enumerate, in every uncertainty model.

mod common;

use common::exact_expected_answer;
use probsyn::prelude::*;
use probsyn::store::SegmentSynopsis;

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

    // The bare histograms answer through the kernel the store serves.
    let merged = Segment::new(0, 0, SegmentSynopsis::Histogram(merged)).unwrap();
    let monolithic = Segment::new(0, 0, SegmentSynopsis::Histogram(monolithic)).unwrap();
    let prefix = exact_prefix(&records);
    let mut merged_err = 0.0;
    let mut mono_err = 0.0;
    let mut store_err = 0.0;
    let mut count = 0usize;
    for width in [1usize, 8, 64, 256] {
        for k in 0..25 {
            let start = (k * 131 * width) % (N - width);
            let end = start + width - 1;
            let reference = prefix[start + width] - prefix[start];
            merged_err += (merged.range_sum(start, end) - reference).abs();
            mono_err += (monolithic.range_sum(start, end) - reference).abs();
            store_err += (store.range_estimate(start, end) - reference).abs();
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
    let SegmentSynopsis::Histogram(histogram) = segment.synopsis() else {
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
    let got = store.range_estimate(0, N - 1);
    assert!(
        (got - exact_total).abs() / exact_total.max(1.0) < 0.05,
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
    // The query-level face of the equivalence contract (the byte-level one
    // lives in `crates/store/tests/store_concurrency.rs`): the same stream
    // ingested per-record on one thread versus batched on the pool yields
    // identical `range_estimate` results.
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
        let a = serial.range_estimate(start, end);
        let b = concurrent.range_estimate(start, end);
        assert_eq!(a.to_bits(), b.to_bits(), "query [{start}, {end}]");
    }
    assert_eq!(serial.to_binary().unwrap(), concurrent.to_binary().unwrap());
}

#[test]
fn durable_store_reopens_and_answers_aqp_queries_identically() {
    // The query-level face of the crash-durability contract (the
    // crash-point matrix lives in `crates/store/tests/store_crash_matrix.rs`):
    // a store that sealed into install-time blobs, compacted, and then
    // "crashed" answers every `range_estimate` query bit-identically after a
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
    let queries = [(0usize, N - 1), (3, 3), (17, 230), (100, 101), (400, 511)];

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
            .map(|&(lo, hi)| store.range_estimate(lo, hi))
            .collect()
        // Dropped without snapshot(): durability comes from blobs + WAL.
    };

    let reopened = SynopsisStore::open_with_wal(make_config(), &dir).unwrap();
    assert_eq!(reopened.stats().live_records, 40);
    for (&(lo, hi), want) in queries.iter().zip(&before) {
        let got = reopened.range_estimate(lo, hi);
        assert_eq!(got.to_bits(), want.to_bits(), "query [{lo}, {hi}]");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A six-item basic-model relation with 2^5 = 32 enumerable worlds.
fn small_basic() -> ProbabilisticRelation {
    BasicModel::from_pairs(6, [(0, 0.9), (1, 0.4), (1, 0.7), (3, 0.2), (4, 0.6)])
        .unwrap()
        .into()
}

/// A six-item tuple-pdf relation (three x-tuples, two alternatives each;
/// the first straddles two partitions of [`lossless_store`]).
fn small_tuple_pdf() -> ProbabilisticRelation {
    TuplePdfModel::from_alternatives(
        6,
        [
            vec![(0, 0.5), (2, 0.3)],
            vec![(2, 0.25), (3, 0.5)],
            vec![(4, 0.6), (5, 0.2)],
        ],
    )
    .unwrap()
    .into()
}

/// A four-item value-pdf relation with fractional frequencies.
fn small_value_pdf() -> ProbabilisticRelation {
    ValuePdfModel::new(vec![
        ValuePdf::new([(1.0, 0.5), (2.0, 0.25)]).unwrap(),
        ValuePdf::new([(0.5, 0.8)]).unwrap(),
        ValuePdf::new([(3.0, 0.4), (1.0, 0.4)]).unwrap(),
        ValuePdf::new([(2.5, 1.0)]).unwrap(),
    ])
    .into()
}

/// Every inclusive range `[lo, hi]` of an `n`-item domain, points included.
fn ranges_over(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|lo| (lo..n).map(move |hi| (lo, hi)))
        .collect()
}

/// A store of `kind` over two-item partitions with a budget of two per
/// segment, so every sealed segment is lossless (a histogram keeps one
/// bucket per item, a wavelet every Haar coefficient).
fn lossless_store(n: usize, kind: SynopsisKind) -> SynopsisStore {
    SynopsisStore::new(StoreConfig::new(
        PartitionSpec::uniform(n, n / 2).unwrap(),
        1_000_000, // manual sealing
        2,
        kind,
    ))
    .unwrap()
}

/// The exact expected answer must agree with brute-force enumeration of the
/// possible worlds, in every uncertainty model, for every range.
#[test]
fn exact_answers_agree_with_world_enumeration_in_all_models() {
    for rel in [small_basic(), small_tuple_pdf(), small_value_pdf()] {
        let worlds = PossibleWorlds::enumerate(&rel).unwrap();
        for (lo, hi) in ranges_over(rel.n()) {
            let closed_form = exact_expected_answer(&rel, lo, hi);
            let brute = worlds.expectation(|world| world[lo..=hi].iter().sum());
            assert!(
                (closed_form - brute).abs() < 1e-12,
                "[{lo}, {hi}] on {}: closed form {closed_form} vs enumerated {brute}",
                rel.model_name()
            );
        }
    }
}

/// A store whose segments are lossless answers every range count with the
/// possible-worlds expectation, through `range_estimate`: with some
/// partitions sealed and the rest live, and with everything sealed.
#[test]
fn lossless_synopses_answer_range_counts_exactly() {
    for rel in [small_basic(), small_tuple_pdf(), small_value_pdf()] {
        let worlds = PossibleWorlds::enumerate(&rel).unwrap();
        for kind in [
            SynopsisKind::Histogram(ErrorMetric::Sse),
            SynopsisKind::Wavelet,
        ] {
            let store = lossless_store(rel.n(), kind);
            store.ingest_batch(records_of(&rel)).unwrap();
            store.seal_partition(0).unwrap();
            for phase in ["partly sealed", "sealed"] {
                if phase == "sealed" {
                    store.seal_all().unwrap();
                }
                for (lo, hi) in ranges_over(rel.n()) {
                    let brute = worlds.expectation(|world| world[lo..=hi].iter().sum());
                    let got = store.range_estimate(lo, hi);
                    assert!(
                        (got - brute).abs() < 1e-9,
                        "{kind:?} store ({phase}) answer {got} vs possible-worlds {brute} \
                         for [{lo}, {hi}] on {}",
                        rel.model_name()
                    );
                }
            }
        }
    }
}

/// A compressed store answers a whole-domain range count within the error
/// its budget allows; on the small basic relation the SSE representatives
/// preserve per-bucket mass, so the estimate is very close to exact.
#[test]
fn compressed_synopses_stay_close_on_whole_domain_count() {
    let rel = small_basic();
    let n = rel.n();
    let exact = exact_expected_answer(&rel, 0, n - 1);
    for kind in [
        SynopsisKind::Histogram(ErrorMetric::Sse),
        SynopsisKind::Wavelet,
    ] {
        let store = SynopsisStore::new(StoreConfig::new(
            PartitionSpec::uniform(n, 1).unwrap(),
            1_000_000,
            3,
            kind,
        ))
        .unwrap();
        store.ingest_batch(records_of(&rel)).unwrap();
        store.seal_all().unwrap();
        let got = store.range_estimate(0, n - 1);
        assert!(
            (got - exact).abs() / exact.abs().max(1.0) < 0.25,
            "{kind:?} store {got} vs exact {exact}"
        );
        // A range answer is the sum of its point answers even under
        // compression.
        let item_by_item: f64 = (0..n).map(|i| store.estimate(i)).sum();
        assert!((got - item_by_item).abs() < 1e-9);
    }
}

/// Ranges whose end runs past the domain are clamped rather than panicking,
/// by the store and by the reference alike.
#[test]
fn out_of_range_queries_are_clamped() {
    let rel = small_basic();
    let n = rel.n();
    let store = lossless_store(n, SynopsisKind::Histogram(ErrorMetric::Sse));
    store.ingest_batch(records_of(&rel)).unwrap();
    store.seal_all().unwrap();
    let full = store.range_estimate(0, n - 1);
    assert_eq!(store.range_estimate(0, 999).to_bits(), full.to_bits());
    assert_eq!(store.range_estimate(n, 999), 0.0);
    let exact = exact_expected_answer(&rel, 0, n - 1);
    assert!((exact_expected_answer(&rel, 0, 999) - exact).abs() < 1e-12);
    assert!((full - exact).abs() < 1e-9);
}
