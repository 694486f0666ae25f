//! The benchmark's specification: workloads, operation counts, store
//! shape and the metric tables.  `BENCHMARK.json` at the repository root
//! repeats the workload and metric names; `tests/contract.rs` holds the two
//! in step.
//!
//! **Counts, never the clock, end a phase.**  `--seconds` only scales the
//! counts below, so the same arguments give the same operations on every
//! commit.

use pds_core::metrics::ErrorMetric;
use pds_store::{CompactionPolicy, PartitionSpec, StoreConfig, SynopsisKind, WalSync};

/// The four workloads, in round-robin order.
pub const WORKLOADS: [&str; 4] = ["build_synopsis", "wire_ingest", "wire_query", "wire_mixed"];

/// Why each workload exists (the `why` of `BENCHMARK.json`).
pub const WHY: [&str; 4] = [
    "Twice the build rounds (exact and approximate histogram DPs, SSE and restricted wavelets): a DP, oracle or wavelet gain shows here first; the store and server run only their floor counts.",
    "Twice the write path, one closed-loop writer: server parse, read_stream, routing, memtable, WAL, seal DP, blob publish, compaction; then twice the recoveries of byte-identical copies.",
    "Twice the reads of a sealed, idle, fully loaded store (2 connections, windows of 64 pipelined requests) and cache-missing MERGEs: the workload that fits in the program's caches.",
    "Adds a second closed-loop writer phase beside a reader sending single unpipelined requests: live memtables, shard locks and inline seals in play; its ingest_tuples_per_s is the contended one.",
];

/// `--seconds` at which the counts below apply unscaled (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;

/// Seed of the data set: the relations of the builds, the ingested records
/// and the accuracy queries.  It is fixed, like a checked-in corpus, so that
/// `approx_cost_ratio`, `disk_bytes_per_tuple` and `range_err_pct` are
/// properties of the code alone and can be held to 0.1 %; across ten data
/// seeds they moved 0.08 %, 0.15 % and 9 %, and the timings 2-4x as much as
/// across ten runs of one.  `--seed` draws the request scripts.
pub const DATA_SEED: u64 = 2009;

/// Runs per workload in each set of `--sets 2`.
pub const RUNS_PER_SET: u64 = 5;

// ---------------------------------------------------------------- builds
/// Domain of the exact and approximate histogram builds.
pub const BUILD_N: usize = 2048;
pub const BUILD_BUCKETS: usize = 32;
pub const BUILD_METRIC: ErrorMetric = ErrorMetric::Ssre { c: 0.5 };
pub const BUILD_EPSILON: f64 = 0.1;
/// Domain of the SSE wavelet build.
pub const WAVELET_N: usize = 1 << 18;
pub const WAVELET_COEFFS: usize = 64;
/// Domain of the restricted (SAE) wavelet DP.
pub const RESTRICTED_N: usize = 128;
pub const RESTRICTED_COEFFS: usize = 8;
pub const TUPLES_PER_ITEM: f64 = 4.6;
pub const SKEW: f64 = 0.8;

// ----------------------------------------------------------------- store
pub const DOMAIN: usize = 8192;
pub const PARTITIONS: usize = 8;
pub const SEAL_THRESHOLD: usize = 12_500;
pub const SEGMENT_BUDGET: usize = 16;
pub const WAL_SYNC: WalSync = WalSync::Flush;

/// The durable store every wire phase runs against.
pub fn store_config() -> StoreConfig {
    let partitions = PartitionSpec::uniform(DOMAIN, PARTITIONS).expect("static partition spec");
    let mut config = StoreConfig::new(
        partitions,
        SEAL_THRESHOLD,
        SEGMENT_BUDGET,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    config.compaction = Some(CompactionPolicy::default());
    config.wal_sync = WAL_SYNC;
    config
}

// ------------------------------------------------------------------ wire
/// Records per `INGEST` batch.
pub const BATCH: usize = 2048;
/// Requests per pipelined window on the sealed-store query phase.
pub const WINDOW: usize = 64;
/// Distinct pre-encoded windows per query connection (cycled).
pub const WINDOW_POOL: usize = 256;
/// Client connections of the sealed-store query phase.
pub const QUERY_CONNECTIONS: usize = 2;
/// Pipelined windows per throughput slice.
pub const SLICE_WINDOWS: usize = 100;
/// Distinct single requests of the reader beside the writer (cycled).
pub const READ_POOL: usize = 4096;
/// Fixed accuracy queries against the possible-worlds expectation.
pub const ACCURACY_QUERIES: usize = 2000;
/// Bucket budgets alternated by `MERGE`, so the single-entry cache misses.
pub const MERGE_BUDGETS: [usize; 2] = [31, 32];
/// The items of batch `t` fall in a band of this width inside every
/// partition; the band start advances `BAND_STEP` items per batch, so sealed
/// segments carry narrow fences and pruning has something to prune.
pub const BAND_WIDTH: usize = 128;
pub const BAND_STEP: usize = 2;
/// Batches of one seal cycle (every partition seals once), rounded up: the
/// length of the prologue that opens each ingest phase.  In it partition `p`
/// receives `BATCH / 8 + STAGGER_STEP * (p - 3.5)` records of every batch
/// instead of an eighth: the partitions end it an eighth of a cycle apart,
/// and as every later batch gives each exactly an eighth, one of them seals
/// every 6.1 batches from then on.  With equal shares throughout, all eight
/// would seal inside one batch — a half-second stall every 49 batches.  The
/// prologue is sent and checked like every batch but not sliced.
pub const CYCLE_BATCHES: usize = (SEAL_THRESHOLD * PARTITIONS).div_ceil(BATCH);
pub const STAGGER_STEP: usize = BATCH / PARTITIONS / PARTITIONS;
/// Throughput slices per seal cycle.  A slice is a quarter of a cycle, 12.2
/// batches: its boundaries fall midway between two seals, three batches from
/// either, so every slice pays for exactly two (a seal costs as much as
/// thirty batches; a slice with one more or fewer would read a third off).
pub const SLICES_PER_CYCLE: usize = 4;
/// Batches replayed through a single layer in the traced run.
pub const REPLAY_BATCHES: usize = 56;

/// Operation counts of one run.  Every workload runs the builds, the writer
/// alone, the restart and the sealed-store queries and merges — the contract
/// wants every end-to-end metric from every run — at the *floor* count; the
/// workload's home phase runs `HOME_FACTOR` times longer.  The reader beside
/// the writer runs on `wire_mixed` and in every traced run: nowhere else
/// does a printed number come from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Timed build rounds (one untimed warm-up round precedes them).
    pub build_rounds: usize,
    /// `INGEST` batches of the writer-alone phase: the prologue plus whole
    /// slices.
    pub ingest_batches: usize,
    /// Reopenings of a byte-identical copy of the store directory.
    pub reopenings: usize,
    pub accuracy_queries: usize,
    /// Pipelined windows per query connection.
    pub query_windows: usize,
    /// Timed cache-missing `MERGE` requests (one untimed precedes them).
    pub merges: usize,
    /// `INGEST` batches of the writer while a reader queries; 0 when the
    /// phase does not run.
    pub mixed_batches: usize,
    /// Batches of the unsliced prologue that opens each ingest phase.
    pub prologue_batches: usize,
    /// Batches per throughput slice: a quarter of a seal cycle, not a whole
    /// number.  Slice `k` of a phase ends before batch
    /// `prologue_batches + round(k * slice_batches)`.
    pub slice_batches: f64,
    /// Windows per throughput slice of a query connection.
    pub slice_windows: usize,
}

impl Counts {
    /// Batches of an ingest phase of `slices` slices.
    fn phase_batches(&self, slices: usize) -> usize {
        self.prologue_batches + (slices as f64 * self.slice_batches).round() as usize
    }

    /// The batch ranges of the slices of a phase of `batches` batches.
    pub fn slices(&self, batches: usize) -> Vec<std::ops::Range<usize>> {
        let edge =
            |k: usize| self.prologue_batches + (k as f64 * self.slice_batches).round() as usize;
        (0..)
            .map(|k| edge(k)..edge(k + 1))
            .take_while(|slice| slice.end <= batches)
            .collect()
    }
}

/// Floor counts of every run.  Every number comes from at least 9 timed
/// repetitions or 20 slices, after one untimed warm-up.
const FLOOR_BUILD_ROUNDS: usize = 12;
/// Seven seal cycles.
const FLOOR_INGEST_SLICES: usize = 7 * SLICES_PER_CYCLE;
const FLOOR_REOPENINGS: usize = 15;
const FLOOR_QUERY_WINDOWS: usize = 5000;
const FLOOR_MERGES: usize = 80;
const HOME_FACTOR: usize = 2;

/// Counts for `workload` at `--seconds`, or a twentieth of them under
/// `--smoke`.  `None` for an unknown workload.
pub fn counts(workload: &str, seconds: u64, smoke: bool, trace: bool) -> Option<Counts> {
    let w = WORKLOADS.iter().position(|name| *name == workload)?;
    let home = |phase: usize| if w == phase { HOME_FACTOR } else { 1 };
    let (num, den) = if smoke {
        (1, 20)
    } else {
        (seconds.max(1) as usize, DEFAULT_SECONDS as usize)
    };
    let scale = |count: usize, least: usize| (count * num / den).max(least);
    // Under --smoke the seal cycle itself shrinks (nothing seals), so a short
    // run still has several slices; a shorter --seconds keeps whole slices
    // and runs fewer of them.
    let cycle = (SEAL_THRESHOLD * PARTITIONS) as f64 / BATCH as f64;
    let (prologue_batches, slice_batches, slices) = if smoke {
        (scale(CYCLE_BATCHES, 1), 1.0, FLOOR_INGEST_SLICES)
    } else {
        (
            CYCLE_BATCHES,
            cycle / SLICES_PER_CYCLE as f64,
            scale(FLOOR_INGEST_SLICES, SLICES_PER_CYCLE),
        )
    };
    let mut counts = Counts {
        build_rounds: scale(FLOOR_BUILD_ROUNDS * home(0), 1),
        ingest_batches: 0,
        reopenings: scale(FLOOR_REOPENINGS * home(1), 2),
        accuracy_queries: scale(ACCURACY_QUERIES, 100),
        query_windows: scale(FLOOR_QUERY_WINDOWS * home(2), 100),
        merges: scale(FLOOR_MERGES * home(2), 2),
        mixed_batches: 0,
        prologue_batches,
        slice_batches,
        slice_windows: scale(SLICE_WINDOWS, 5),
    };
    counts.ingest_batches = counts.phase_batches(slices * home(1));
    // `wire_mixed`, and every traced run.
    if w == 3 || trace {
        counts.mixed_batches = counts.phase_batches(slices * home(3));
    }
    Some(counts)
}

/// What the driver runs from the root of a checkout, before its own
/// `--workload <w> --seed <n> --seconds <n> --trace <0|1>`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "pds-perf/Cargo.toml",
    "--",
];

// --------------------------------------------------------------- metrics
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: name, unit, direction, regression bound (share of
/// the parent's median).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Bound of every wall-clock metric: the contract's maximum.  ISSUE 13 asked
/// for 10 %, and ten quiet runs do stay within 2-5 % of their median; but the
/// sandbox drifts by 10-20 % within a quarter of an hour (and has spells of
/// minutes at +20-60 %), so that in each of four ten-seed series at least
/// one pair spread 13-28 % (README, "Noise").  The driver refuses a
/// benchmark, and every later change, whose spread or median shift exceeds
/// the bound; a bound inside the weather would refuse them for the weather.
const WALL_CLOCK: f64 = 0.25;
/// The three numbers that do not depend on the clock repeat exactly; 0.1 %
/// is allowed.
const EXACT: f64 = 0.001;

/// Printed by every untraced run, on every workload.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, WALL_CLOCK),
    e2e("exact_build_s", "s", Better::Lower, WALL_CLOCK),
    e2e("approx_cost_ratio", "ratio", Better::Lower, EXACT),
    e2e("wavelet_sse_build_ms", "ms", Better::Lower, WALL_CLOCK),
    e2e("wavelet_dp_build_ms", "ms", Better::Lower, WALL_CLOCK),
    e2e(
        "ingest_tuples_per_s",
        "tuples/s",
        Better::Higher,
        WALL_CLOCK,
    ),
    e2e("disk_bytes_per_tuple", "B", Better::Lower, EXACT),
    e2e("restart_first_answer_ms", "ms", Better::Lower, WALL_CLOCK),
    e2e("range_err_pct", "%", Better::Lower, EXACT),
    e2e("queries_per_s", "req/s", Better::Higher, WALL_CLOCK),
    e2e("merge_cold_ms", "ms", Better::Lower, WALL_CLOCK),
];

/// A per-layer metric; unit `count` marks a number that repeats exactly for
/// the same arguments (the determinism test holds them to that).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Printed by every traced run, on every workload.
pub const PER_LAYER: [PerLayer; 86] = [
    // pds-core
    lo("core.generator_s", "s"),
    lo("core.write_stream_ns_per_record", "ns"),
    lo("core.read_stream_ns_per_record", "ns"),
    hi("core.pool_threads", "threads"),
    // pds-histogram
    lo("histogram.oracle_prep_ms", "ms"),
    lo("histogram.exact_dp_s", "s"),
    lo("histogram.extract_us", "us"),
    lo("histogram.exact_bucket_evals", "count"),
    lo("histogram.exact_dp_s.sae", "s"),
    lo("histogram.exact_dp_s.mae", "s"),
    // The issue's end-to-end `approx_build_s` (oracle + (1+eps) DP, minimum
    // over the rounds).  On the driver's host the middle half of ten runs of
    // the same code spread 45-77 % of the median on every workload while
    // every other timing held 25 %; by the issue's rule a pair that cannot
    // hold its bound is a per-layer metric (README, "End-to-end metrics").
    lo("histogram.approx_build_s", "s"),
    lo("histogram.approx_dp_s", "s"),
    lo("histogram.approx_bucket_evals", "count"),
    hi("histogram.approx_cache_hits", "count"),
    lo("histogram.seal_dp_ms", "ms"),
    lo("histogram.piecewise_dp_ms", "ms"),
    lo("histogram.sum_pieces_ms", "ms"),
    lo("histogram.merge_pieces", "count"),
    hi("histogram.exact_dp_speedup.t2", "x"),
    // pds-wavelet
    lo("wavelet.transform_ms", "ms"),
    lo("wavelet.expected_coeffs_ms", "ms"),
    lo("wavelet.top_b_select_ms", "ms"),
    lo("wavelet.restricted_dp_ms.n128", "ms"),
    lo("wavelet.restricted_dp_ms.n256", "ms"),
    // pds-store, write path
    lo("store.ingest_mem_ns_per_record", "ns"),
    lo("store.ingest_wal_ns_per_record", "ns"),
    lo("store.wal_frame_ns_per_record", "ns"),
    lo("store.wal_commits", "count"),
    lo("store.wal_commit_s", "s"),
    lo("store.seals", "count"),
    lo("store.seal_build_s", "s"),
    lo("store.seal_commit_s", "s"),
    lo("store.seal_relation_ms", "ms"),
    lo("store.blob_encode_us", "us"),
    lo("store.compaction_rounds", "count"),
    lo("store.compaction_s", "s"),
    lo("store.compaction_bytes", "count"),
    hi("store.ingest_pool_speedup.t2", "x"),
    // pds-store, space
    lo("store.wal_bytes_per_record", "B"),
    lo("store.disk_wal_bytes", "count"),
    lo("store.disk_blob_bytes", "count"),
    lo("store.disk_manifest_bytes", "count"),
    // pds-store, recovery
    lo("store.reopen_ms", "ms"),
    lo("store.recovered_records", "count"),
    lo("store.blob_decode_us", "us"),
    lo("store.block_loads", "count"),
    lo("store.first_answer_us", "us"),
    // pds-store, read path over sealed segments
    lo("store.snapshot_view_us.sealed", "us"),
    lo("store.range_point_us", "us"),
    lo("store.range_w16_us", "us"),
    lo("store.range_w1024_us", "us"),
    lo("store.segments_visited", "count"),
    hi("store.segments_pruned", "count"),
    // pds-store, read path under writes
    lo("store.snapshot_view_us.live", "us"),
    lo("store.live_records", "count"),
    // pds-store, merge
    lo("store.merge_cold_ms", "ms"),
    lo("store.merge_cached_us", "us"),
    hi("store.merge_cache_hits", "count"),
    lo("store.merge_cache_misses", "count"),
    // pds-server
    lo("server.parse_command_ns", "ns"),
    lo("server.query_pipelined_us", "us"),
    lo("server.query_rtt_p50_us", "us"),
    lo("server.query_rtt_p99_us", "us"),
    lo("server.bytes_read", "count"),
    lo("server.bytes_written", "count"),
    lo("server.err_replies", "count"),
    lo("server.ingest_request_ms.p50", "ms"),
    lo("server.ingest_request_ms.p99", "ms"),
    lo("server.ingest_wire_ns_per_record", "ns"),
    hi("server.reader_queries_per_s", "req/s"),
    lo("server.query_p95_ms", "ms"),
    lo("server.reader_stall_ms.p50", "ms"),
    lo("server.reader_stall_ms.max", "ms"),
    hi("server.queries_per_ingest_batch", "req"),
    // process
    lo("proc.cpu_user_s", "s"),
    lo("proc.cpu_sys_s", "s"),
    lo("proc.peak_rss_mb", "MB"),
    // harness: the evidence for the estimators
    lo("bench.exact_build_s.median", "s"),
    lo("bench.approx_build_s.median", "s"),
    lo("bench.merge_cold_ms.median", "ms"),
    lo("bench.restart_first_answer_ms.median", "ms"),
    hi("bench.ingest_tuples_per_s.median", "tuples/s"),
    lo("bench.slice_spread_pct", "%"),
    // tracing
    lo("trace.overhead_est_pct", "%"),
    lo("trace.unexplained_share", "ratio"),
    lo("trace.spans", "spans"),
];
