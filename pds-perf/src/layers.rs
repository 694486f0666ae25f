//! The traced run's isolated numbers: each layer replayed alone, through
//! its public entry points, on the data the wire phases used.

use std::hint::black_box;
use std::time::Instant;

use pds_core::io::read_stream;
use pds_core::metrics::ErrorMetric;
use pds_core::pool;
use pds_core::stream::StreamRecord;
use pds_histogram::{optimal_piecewise_histogram, oracle_for_metric, sum_pieces, DpTables, Piece};
use pds_server::proto::parse_command_bytes;
use pds_store::blob::{decode_blob, encode_blob};
use pds_store::wal::frame_record;
use pds_store::{Memtable, Segment, StoreConfig, SynopsisStore};
use pds_wavelet::{build_restricted_wavelet, ExpectedCoefficients, HaarTransform};

use crate::inputs::{relation, Inputs, Query};
use crate::report::{median, percentile};
use crate::run::{disk_bytes, pds, Metrics, RunDir};
use crate::spec;
use crate::wire::{Conn, Result, Scrape};

/// Seconds of the fastest of `repeats` calls.
fn fastest<R>(repeats: usize, mut work: impl FnMut() -> R) -> f64 {
    (0..repeats)
        .map(|_| {
            let started = Instant::now();
            black_box(work());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `pds-histogram` and `pds-wavelet` beside the build phase.
pub fn builds(inputs: &Inputs, m: &mut Metrics) -> Result<()> {
    // The absolute-error and max-error oracles under the same DP, on a
    // quarter of the domain (their bucket costs are not O(1)).
    let quarter = relation(spec::BUILD_N / 4, spec::DATA_SEED ^ 3);
    for (metric, name) in [
        (ErrorMetric::Sae, "histogram.exact_dp_s.sae"),
        (ErrorMetric::Mae, "histogram.exact_dp_s.mae"),
    ] {
        let oracle = oracle_for_metric(&quarter, metric);
        pds(DpTables::build(&*oracle, spec::BUILD_BUCKETS), name)?;
        m.insert(
            name,
            fastest(2, || DpTables::build(&*oracle, spec::BUILD_BUCKETS)),
        );
    }
    let oracle = oracle_for_metric(&inputs.build_rel, spec::BUILD_METRIC);
    let one = fastest(2, || {
        DpTables::build_with_threads(&*oracle, spec::BUILD_BUCKETS, 1)
    });
    let two = fastest(2, || {
        DpTables::build_with_threads(&*oracle, spec::BUILD_BUCKETS, 2)
    });
    m.insert("histogram.exact_dp_speedup.t2", one / two);

    let means = inputs.wavelet_rel.expected_frequencies();
    m.insert(
        "wavelet.transform_ms",
        fastest(3, || HaarTransform::forward(&means)) * 1e3,
    );
    m.insert(
        "wavelet.expected_coeffs_ms",
        fastest(3, || ExpectedCoefficients::of(&inputs.wavelet_rel)) * 1e3,
    );
    let coeffs = ExpectedCoefficients::of(&inputs.wavelet_rel);
    m.insert(
        "wavelet.top_b_select_ms",
        fastest(3, || coeffs.top_indices(spec::WAVELET_COEFFS)) * 1e3,
    );
    let double = relation(spec::RESTRICTED_N * 2, spec::DATA_SEED ^ 4);
    pds(
        build_restricted_wavelet(&double, ErrorMetric::Sae, spec::RESTRICTED_COEFFS),
        "restricted wavelet, n256",
    )?;
    m.insert(
        "wavelet.restricted_dp_ms.n256",
        fastest(2, || {
            build_restricted_wavelet(&double, ErrorMetric::Sae, spec::RESTRICTED_COEFFS)
        }) * 1e3,
    );
    Ok(())
}

/// Seconds to push `batches` through `ingest_batch` of a store built by
/// `open`.
fn ingest_seconds(
    batches: &[Vec<StreamRecord>],
    open: impl FnOnce() -> pds_core::Result<SynopsisStore>,
) -> Result<(f64, SynopsisStore)> {
    let store = pds(open(), "open a replay store")?;
    let copies: Vec<Vec<StreamRecord>> = batches.to_vec();
    let started = Instant::now();
    for batch in copies {
        pds(store.ingest_batch(batch), "replay ingest")?;
    }
    Ok((started.elapsed().as_secs_f64(), store))
}

/// `pds-core` parsing and the `pds-store` write path, each alone, on the
/// first batches of the writer-alone phase; `wire_latencies` are that
/// phase's client-observed seconds per batch.  No server may be running:
/// the pool-width comparison changes the process-wide width.
pub fn write_path(inputs: &Inputs, wire_latencies: &[f64], m: &mut Metrics) -> Result<()> {
    let replayed = spec::REPLAY_BATCHES.min(wire_latencies.len());
    let records = (replayed * spec::BATCH) as f64;
    let per_record = |seconds: f64| seconds * 1e9 / records;

    let started = Instant::now();
    let batches: Vec<Vec<StreamRecord>> = (0..replayed)
        .map(|t| pds(read_stream(inputs.record_lines(t)), "read_stream"))
        .collect::<Result<_>>()?;
    m.insert(
        "core.read_stream_ns_per_record",
        per_record(started.elapsed().as_secs_f64()),
    );

    let started = Instant::now();
    for record in batches.iter().flatten() {
        black_box(pds(frame_record(record), "frame_record")?);
    }
    m.insert(
        "store.wal_frame_ns_per_record",
        per_record(started.elapsed().as_secs_f64()),
    );

    // Memtable alone, memtable + WAL, then the wire phase's configuration
    // (seals and compaction too) driven in-process.
    let unsealed = || StoreConfig {
        seal_threshold: usize::MAX,
        ..spec::store_config()
    };
    let (mem_s, _) = ingest_seconds(&batches, || SynopsisStore::new(unsealed()))?;
    m.insert("store.ingest_mem_ns_per_record", per_record(mem_s));
    let dir = RunDir::create("replay-wal")?;
    let (wal_s, store) = ingest_seconds(&batches, || {
        SynopsisStore::open_with_wal(unsealed(), dir.path())
    })?;
    m.insert("store.ingest_wal_ns_per_record", per_record(wal_s));
    m.insert(
        "store.wal_bytes_per_record",
        disk_bytes(dir.path())?[1] as f64 / records,
    );
    drop(store);
    let dir = RunDir::create("replay-durable")?;
    let (durable_s, store) = ingest_seconds(&batches, || {
        SynopsisStore::open_with_wal(spec::store_config(), dir.path())
    })?;
    let wire_s: f64 = wire_latencies[..replayed].iter().sum();
    m.insert(
        "server.ingest_wire_ns_per_record",
        per_record(wire_s - durable_s),
    );
    drop(store);

    let width = pool::num_threads();
    pool::set_num_threads(Some(1));
    let one = ingest_seconds(&batches, || SynopsisStore::new(spec::store_config()));
    pool::set_num_threads(Some(2));
    let two = ingest_seconds(&batches, || SynopsisStore::new(spec::store_config()));
    pool::set_num_threads(Some(width));
    m.insert("store.ingest_pool_speedup.t2", one?.0 / two?.0);

    // One seal: the DP over a full memtable of partition 0.
    let width = spec::DOMAIN / spec::PARTITIONS;
    let mut memtable = Memtable::new(0, width);
    let inside = |record: &StreamRecord| match record {
        StreamRecord::Basic { item, .. } | StreamRecord::ValueDistribution { item, .. } => {
            *item < width
        }
        StreamRecord::Alternatives(alts) => alts.iter().all(|&(item, _)| item < width),
    };
    for record in batches
        .iter()
        .flatten()
        .filter(|r| inside(r))
        .take(spec::SEAL_THRESHOLD)
    {
        pds(memtable.insert(record.clone()), "memtable insert")?;
    }
    let relation = pds(memtable.to_relation(), "memtable relation")?;
    m.insert(
        "store.seal_relation_ms",
        fastest(3, || memtable.to_relation()) * 1e3,
    );
    let config = spec::store_config();
    let seal = || {
        Segment::build(
            0,
            memtable.len() as u64,
            &relation,
            config.synopsis,
            config.segment_budget,
        )
    };
    let segment = pds(seal(), "Segment::build")?;
    m.insert("histogram.seal_dp_ms", fastest(3, seal) * 1e3);
    let blob = pds(encode_blob(&segment), "encode_blob")?;
    m.insert(
        "store.blob_encode_us",
        fastest(20, || encode_blob(&segment)) * 1e6,
    );
    m.insert(
        "store.blob_decode_us",
        fastest(20, || decode_blob(&blob)) * 1e6,
    );

    // A snapshot view over memtables at half the seal threshold: the cost
    // every read pays beside a writer.
    let half = (spec::SEAL_THRESHOLD * spec::PARTITIONS / 2 / spec::BATCH).min(replayed);
    let (_, store) = ingest_seconds(
        &batches[..half],
        || SynopsisStore::new(spec::store_config()),
    )?;
    m.insert("store.live_records", store.stats().live_records as f64);
    m.insert(
        "store.snapshot_view_us.live",
        fastest(200, || store.snapshot_view()) * 1e6,
    );
    Ok(())
}

/// The read path and the merge over the sealed, fully loaded store, called
/// in-process; then single-request round trips and command parsing.
pub fn read_path(
    store: &SynopsisStore,
    conn: &mut Conn,
    inputs: &Inputs,
    m: &mut Metrics,
) -> Result<()> {
    m.insert(
        "store.snapshot_view_us.sealed",
        fastest(2000, || store.snapshot_view()) * 1e6,
    );
    let view = store.snapshot_view();
    let mean_us = |width: usize| {
        let started = Instant::now();
        for query in &inputs.reads {
            let lo = match *query {
                Query::Est(item) | Query::Range(item, _) => item,
            };
            black_box(view.range_estimate(lo, (lo + width - 1).min(spec::DOMAIN - 1)));
        }
        started.elapsed().as_secs_f64() * 1e6 / inputs.reads.len() as f64
    };
    // Snapshot views do not report scans, so the pruning counters are read
    // around the same requests put to the store's own query path.
    let scans = |store: &SynopsisStore| -> Result<(f64, f64)> {
        let scrape = Scrape::parse(&store.render_metrics());
        Ok((
            scrape.sum("pds_store_segments_visited_total")?,
            scrape.sum("pds_store_segments_pruned_total")?,
        ))
    };
    let before = scans(store)?;
    for query in &inputs.reads {
        black_box(match *query {
            Query::Est(item) => store.estimate(item),
            Query::Range(lo, hi) => store.range_estimate(lo, hi),
        });
    }
    let after = scans(store)?;
    m.insert("store.segments_visited", after.0 - before.0);
    m.insert("store.segments_pruned", after.1 - before.1);
    m.insert("store.range_point_us", mean_us(1));
    m.insert("store.range_w16_us", mean_us(16));
    m.insert("store.range_w1024_us", mean_us(1024));

    // The merge as `merge_global` composes it: per-partition piece sums,
    // then the piecewise DP over their concatenation.
    let layers: Vec<Vec<Vec<Piece>>> = (0..store.num_partitions())
        .map(|p| store.segments(p).iter().map(Segment::pieces).collect())
        .collect();
    let sum_all = || {
        layers
            .iter()
            .map(|l| sum_pieces(l))
            .collect::<pds_core::Result<Vec<_>>>()
    };
    let pieces: Vec<Piece> = pds(sum_all(), "sum_pieces")?.concat();
    m.insert("histogram.sum_pieces_ms", fastest(3, sum_all) * 1e3);
    m.insert("histogram.merge_pieces", pieces.len() as f64);
    m.insert(
        "histogram.piecewise_dp_ms",
        fastest(3, || {
            optimal_piecewise_histogram(&pieces, spec::MERGE_BUDGETS[1])
        }) * 1e3,
    );
    let mut budgets = spec::MERGE_BUDGETS.iter().cycle();
    pds(store.merge_global(spec::MERGE_BUDGETS[1]), "merge_global")?;
    m.insert(
        "store.merge_cold_ms",
        fastest(4, || store.merge_global(*budgets.next().expect("cycle"))) * 1e3,
    );
    m.insert(
        "store.merge_cached_us",
        fastest(100, || store.merge_global(spec::MERGE_BUDGETS[1])) * 1e6,
    );

    let mut bytes = Vec::new();
    let mut round_trips = Vec::with_capacity(inputs.reads.len());
    for query in &inputs.reads {
        bytes.clear();
        query.encode(&mut bytes);
        let started = Instant::now();
        conn.send(&bytes)?;
        conn.reply_value()?;
        round_trips.push(started.elapsed().as_secs_f64() * 1e6);
    }
    m.insert("server.query_rtt_p50_us", median(&round_trips));
    m.insert("server.query_rtt_p99_us", percentile(&round_trips, 99.0));

    let lines: Vec<Vec<u8>> = inputs
        .reads
        .iter()
        .map(|query| {
            let mut line = Vec::new();
            query.encode(&mut line);
            line.pop();
            line
        })
        .collect();
    let started = Instant::now();
    for line in &lines {
        black_box(parse_command_bytes(line).map_err(|e| e.message())?);
    }
    m.insert(
        "server.parse_command_ns",
        started.elapsed().as_secs_f64() * 1e9 / lines.len() as f64,
    );
    Ok(())
}

/// User and system CPU seconds and peak resident megabytes of this process,
/// from `/proc` (zeros where `/proc` is missing).
pub fn process_usage() -> (f64, f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name, in clock ticks (100 per second on Linux).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .take(2)
        .flat_map(str::parse)
        .collect();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak_kb: f64 = status
        .lines()
        .find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0);
    match fields[..] {
        [user, sys] => (user / 100.0, sys / 100.0, peak_kb / 1024.0),
        _ => (0.0, 0.0, peak_kb / 1024.0),
    }
}
