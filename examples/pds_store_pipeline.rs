//! End-to-end `pds-store` pipeline at production-ish scale: stream more than
//! a million uncertain tuples into a partitioned synopsis store, let
//! memtables seal into per-partition segments, compact, merge the partition
//! synopses into one global histogram, and serve range-count/sum queries
//! — comparing the sharded pipeline's accuracy against a monolithic
//! single-build histogram over the same data, and the compact binary segment
//! encoding against the JSON form of the histogram it embeds.  The timing
//! lines it prints are narration, not gates: `pds-perf` owns every timed
//! claim.
//!
//! ```text
//! cargo run --release --example pds_store_pipeline
//! ```

use std::time::Instant;

use probsyn::prelude::*;
use probsyn::store::SegmentSynopsis;

const N: usize = 8192;
const PARTITIONS: usize = 8;
const RECORDS: usize = 1_050_000;
const SEAL_THRESHOLD: usize = 100_000;
const SEGMENT_BUCKETS: usize = 48;
const GLOBAL_BUCKETS: usize = 32;

/// Parses `--threads <n>` (or `--threads=<n>`) from the command line: the
/// pool width `seal_all`, `compact_all` and `merge_global` run at (the
/// `PDS_THREADS` / hardware default without the flag).  Ingest itself is
/// single-threaded per call.
fn threads_arg() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = arg.strip_prefix("--threads=") {
            return v.parse().ok();
        }
    }
    None
}

/// `--reopen`: run the whole pipeline against a crash-durable store
/// (write-ahead log + install-time segment blobs + manifest in a temp
/// directory), then drop it, reopen from disk alone and assert the
/// reopened store answers every query identically.
fn reopen_arg() -> bool {
    std::env::args().skip(1).any(|a| a == "--reopen")
}

fn main() -> Result<()> {
    // ------------------------------------------------------------ ingestion
    let threads = threads_arg();
    if let Some(t) = threads {
        pds_core::pool::set_num_threads(Some(t));
    }
    let config = StoreConfig::new(
        PartitionSpec::uniform(N, PARTITIONS)?,
        SEAL_THRESHOLD,
        SEGMENT_BUCKETS,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    let durable_dir = reopen_arg()
        .then(|| std::env::temp_dir().join(format!("pds-pipeline-reopen-{}", std::process::id())));
    let store = match &durable_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            println!(
                "durable mode: WAL + segment blobs + manifest in {}",
                dir.display()
            );
            SynopsisStore::open_with_wal(config.clone(), dir)?
        }
        None => SynopsisStore::new(config.clone())?,
    };
    let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.7,
        seed: 42,
    })
    .take(RECORDS)
    .collect();

    let t0 = Instant::now();
    store.ingest_batch(records.iter().cloned())?;
    let ingest_secs = t0.elapsed().as_secs_f64();
    let mid_stats = store.stats();
    println!(
        "ingested {RECORDS} tuples into {PARTITIONS} partitions in {ingest_secs:.2}s \
         ({:.0} tuples/s, {} auto-seals, {})",
        RECORDS as f64 / ingest_secs,
        mid_stats.seals,
        match threads {
            Some(t) => format!("batch ingest, pool width {t}"),
            None => "batch ingest, default pool width".to_string(),
        },
    );

    // A query served while data is still live in memtables.
    println!(
        "live range-count estimate over the full domain: {:.1} ({} records still in memtables)",
        store.range_estimate(0, N - 1),
        mid_stats.live_records,
    );

    // ------------------------------------------------------ seal + compact
    let t1 = Instant::now();
    store.seal_all()?;
    let stats = store.stats();
    println!(
        "sealed the remaining memtables in {:.2}s: {} seal operations, {} segments",
        t1.elapsed().as_secs_f64(),
        stats.seals,
        stats.segments,
    );
    store.compact_all()?;
    println!(
        "compacted to {} segments (one per touched partition)",
        store.stats().segments,
    );

    // ---------------------------------------------------------- global merge
    let t2 = Instant::now();
    let merged = store.merge_global(GLOBAL_BUCKETS)?;
    println!(
        "merged the partition synopses into a global {GLOBAL_BUCKETS}-bucket histogram \
         in {:.3}s (merge-stage cost {:.3})",
        t2.elapsed().as_secs_f64(),
        merged.total_cost(),
    );

    // ------------------------------------------- monolithic reference build
    let t3 = Instant::now();
    let pairs = records.iter().map(|r| match r {
        StreamRecord::Basic { item, prob } => (*item, *prob),
        _ => unreachable!("the stream generator emits basic records"),
    });
    let relation: ProbabilisticRelation = BasicModel::from_pairs(N, pairs)?.into();
    let monolithic = build_histogram(&relation, ErrorMetric::Sse, GLOBAL_BUCKETS)?;
    println!(
        "monolithic single-build {GLOBAL_BUCKETS}-bucket histogram in {:.2}s",
        t3.elapsed().as_secs_f64(),
    );

    // ------------------------------------------------------- accuracy check
    // Exact expected answers from the per-item expectations (expectation is
    // linear, so prefix sums give every range query in O(1)).
    let exact = relation.expected_frequencies();
    let mut prefix = vec![0.0; N + 1];
    for (i, &e) in exact.iter().enumerate() {
        prefix[i + 1] = prefix[i] + e;
    }
    let exact_range = |s: usize, e: usize| prefix[e + 1] - prefix[s];

    let mut queries = Vec::new();
    for width in [1usize, 16, 256, 1024, 4096] {
        for k in 0..40 {
            let start = (k * 997 * width.max(7)) % (N - width);
            queries.push((start, start + width - 1));
        }
    }
    // The bare histograms answer through the kernel the store serves.
    let merged = Segment::new(0, 0, SegmentSynopsis::Histogram(merged))?;
    let monolithic = Segment::new(0, 0, SegmentSynopsis::Histogram(monolithic))?;
    let mut merged_err = 0.0;
    let mut mono_err = 0.0;
    let mut store_err = 0.0;
    for &(s, e) in &queries {
        let reference = exact_range(s, e);
        store_err += (store.range_estimate(s, e) - reference).abs();
        merged_err += (merged.range_sum(s, e) - reference).abs();
        mono_err += (monolithic.range_sum(s, e) - reference).abs();
    }
    store_err /= queries.len() as f64;
    merged_err /= queries.len() as f64;
    mono_err /= queries.len() as f64;
    println!(
        "mean |error| over {} range-count/sum queries: merged {merged_err:.4}, \
         monolithic {mono_err:.4} (ratio {:.2}x), per-partition store {store_err:.4}",
        queries.len(),
        merged_err / mono_err.max(1e-12),
    );
    assert!(
        merged_err <= 2.0 * mono_err + 1e-9,
        "sharded pipeline error {merged_err} exceeds 2x the monolithic error {mono_err}"
    );

    // --------------------------------------------- binary vs JSON encoding
    // A 200-bucket histogram segment over partition 0's slice of the data.
    let p0_width = N / PARTITIONS;
    let p0_pairs = records.iter().filter_map(|r| match r {
        StreamRecord::Basic { item, prob } if *item < p0_width => Some((*item, *prob)),
        _ => None,
    });
    let p0_relation: ProbabilisticRelation = BasicModel::from_pairs(p0_width, p0_pairs)?.into();
    let wide = Segment::build(
        0,
        store.segments(0)[0].records(),
        &p0_relation,
        SynopsisKind::Histogram(ErrorMetric::Sse),
        200,
    )?;
    let binary = wide.to_binary()?;
    // The embedded histogram's JSON alone: a lower bound on any JSON form
    // of the whole segment.
    let SegmentSynopsis::Histogram(histogram) = wide.synopsis() else {
        unreachable!("built as a histogram segment just above");
    };
    let json = histogram.to_json()?;
    println!(
        "200-bucket histogram segment: binary {} bytes, histogram JSON {} bytes ({:.1}x smaller)",
        binary.len(),
        json.len(),
        json.len() as f64 / binary.len() as f64,
    );
    assert!(
        binary.len() * 5 <= json.len(),
        "binary encoding must be at least 5x smaller than JSON"
    );

    // ------------------------------------------------------- persistence
    let blob = store.to_binary()?;
    let restored = SynopsisStore::from_binary(&blob)?;
    assert_eq!(
        restored.range_estimate(100, 3100),
        store.range_estimate(100, 3100),
    );
    println!(
        "store snapshot: {} bytes for {} segments; restored copy answers identically",
        blob.len(),
        restored.stats().segments,
    );

    // ------------------------------------------------------ crash reopen
    if let Some(dir) = durable_dir {
        // Everything is sealed, so every segment's blob and manifest entry
        // is already on disk: drop the store and come back from files alone.
        let before: Vec<f64> = queries
            .iter()
            .map(|&(s, e)| store.range_estimate(s, e))
            .collect();
        let segments_before = store.stats().segments;
        drop(store);
        let t4 = Instant::now();
        let reopened = SynopsisStore::open_with_wal(config, &dir)?;
        let reopen_secs = t4.elapsed().as_secs_f64();
        assert_eq!(reopened.stats().segments, segments_before);
        for (&(s, e), want) in queries.iter().zip(&before) {
            let got = reopened.range_estimate(s, e);
            assert_eq!(got, *want, "reopened store diverged on [{s}, {e}]");
        }
        println!(
            "reopened {} segments from manifest + blobs in {reopen_secs:.3}s; \
             all {} range queries answer bit-identically",
            segments_before,
            queries.len(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}
