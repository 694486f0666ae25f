//! Store-side instrumentation: one [`StoreTelemetry`] per
//! [`SynopsisStore`](crate::SynopsisStore), holding the registered
//! counters/gauges/histograms and the event ring for every store
//! subsystem (ingest, seal, WAL, compaction, recovery, queries).
//!
//! Recording is **unconditional** — there is no switch, so no second
//! configuration to test or time (`pds-perf`'s traced runs are the one
//! place its cost is measured).  Recording never takes a lock and never
//! allocates (the primitives are `pds_core::telemetry` atomics), so every
//! site — including those inside shard-guard windows — is legal under the
//! analyzer's lock-discipline rule.  Telemetry reads the clock but never
//! feeds back into results: the `telemetry_invisibility` suite pins that
//! estimates, snapshots and segment bytes are bit-identical whether or not
//! the surfaces are scraped mid-stream.

use std::sync::Arc;
use std::time::Duration;

use pds_core::telemetry::{Counter, EventRing, Gauge, LatencyHistogram, Registry, Stopwatch};
use pds_core::vfs;

use crate::store::StoreStats;

/// Event-kind tags of the store's [`EventRing`].
pub(crate) mod event {
    /// A sealed segment installed: `a`=partition, `b`=seal seq,
    /// `c`=records.
    pub const SEAL_INSTALLED: u64 = 1;
    /// A compaction round committed: `a`=partition, `b`=output seq,
    /// `c`=input segments.
    pub const COMPACTION_COMMITTED: u64 = 2;
    /// A WAL file rotated at a freeze: `a`=partition, `b`=seal seq.
    pub const WAL_ROTATED: u64 = 3;
    /// Crash recovery completed: `a`=segments reloaded, `b`=records
    /// recovered (blob + WAL replay), `c`=milliseconds taken.
    pub const RECOVERY: u64 = 4;
    /// A durable-path I/O operation failed: `a`=fault-site index into
    /// [`FAULT_SITES`](super::FAULT_SITES), `b`=1 when injected by the
    /// test fault injector (0 for a real disk error), `c`=retry attempt
    /// number on which the failure was observed (0 = first try).
    pub const IO_ERROR: u64 = 5;
    /// A best-effort cleanup (stale tmp / retired WAL / orphan blob
    /// removal) failed: `a`=fault-site index.
    pub const CLEANUP_ERROR: u64 = 6;
    /// The store entered its sticky degraded read-only mode:
    /// `a`=fault-site index of the failure that tripped it.
    pub const DEGRADED: u64 = 7;
}

/// Every labeled durable-path fault site, in the order used by the
/// telemetry event encoding and iterated by the fault-matrix suite.
/// One label per distinct durable operation the store performs; the
/// `cleanup` label covers every best-effort removal (stale recovery
/// tmps, absorbed frozen logs, orphan/superseded blobs).
pub const FAULT_SITES: [&str; 12] = [
    "wal-append",
    "wal-commit",
    "wal-rotate",
    "wal-retire",
    "recovery-read",
    "recovery-commit",
    "manifest-install",
    "manifest-replace",
    "blob-write",
    "blob-publish",
    "block-read",
    "cleanup",
];

/// Encodes a site label as its [`FAULT_SITES`] index for the event ring
/// (the array length doubles as "unknown").
fn site_index(site: &str) -> u64 {
    FAULT_SITES
        .iter()
        .position(|s| *s == site)
        .unwrap_or(FAULT_SITES.len()) as u64
}

/// Decodes an event-ring site index back to its label.
fn site_name(index: u64) -> &'static str {
    FAULT_SITES
        .get(index as usize)
        .copied()
        .unwrap_or("unknown")
}

/// The query operations timed into `pds_store_query_seconds{op=...}`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum QueryOp {
    /// [`SynopsisStore::estimate`](crate::SynopsisStore::estimate).
    Point = 0,
    /// [`SynopsisStore::range_estimate`](crate::SynopsisStore::range_estimate).
    Range = 1,
    /// [`SynopsisStore::merge_global`](crate::SynopsisStore::merge_global).
    MergeGlobal = 2,
    /// [`SynopsisStore::snapshot_view`](crate::SynopsisStore::snapshot_view).
    Snapshot = 3,
}

const QUERY_OPS: [(QueryOp, &str); 4] = [
    (QueryOp::Point, "op=\"estimate\""),
    (QueryOp::Range, "op=\"range_estimate\""),
    (QueryOp::MergeGlobal, "op=\"merge_global\""),
    (QueryOp::Snapshot, "op=\"snapshot_view\""),
];

/// Events retained for `METRICS EVENTS`: enough to cover the recent
/// seal/compaction history of a busy store without unbounded growth.
const EVENT_CAPACITY: usize = 256;

/// All store-side metric series plus the event ring (see the module
/// docs).  Constructed fresh per store (a reopened or decoded store
/// restarts at zero — the counters describe a process's activity, not the
/// data).
#[derive(Debug)]
pub(crate) struct StoreTelemetry {
    registry: Registry,
    events: EventRing,
    ingest_records: Vec<Arc<Counter>>,
    ingest_batches: Arc<Counter>,
    ingest_batch_seconds: Arc<LatencyHistogram>,
    freezes: Arc<Counter>,
    wal_rotations: Arc<Counter>,
    wal_commits: Arc<Counter>,
    wal_commit_seconds: Arc<LatencyHistogram>,
    seal_build_seconds: Arc<LatencyHistogram>,
    seal_commit_seconds: Arc<LatencyHistogram>,
    seal_bytes: Arc<Counter>,
    compaction_rounds: Arc<Counter>,
    compaction_input_segments: Arc<Counter>,
    compaction_bytes: Arc<Counter>,
    compaction_seconds: Arc<LatencyHistogram>,
    recovery_seconds: Arc<Gauge>,
    recovered_records: Arc<Counter>,
    query_seconds: Vec<Arc<LatencyHistogram>>,
    segments_visited: Arc<Counter>,
    segments_pruned: Arc<Counter>,
    block_loads: Arc<Counter>,
    merge_cache_hits: Arc<Counter>,
    merge_cache_misses: Arc<Counter>,
    io_retries: Arc<Counter>,
    io_errors_injected: Arc<Counter>,
    io_errors_real: Arc<Counter>,
    io_cleanup_errors: Arc<Counter>,
    degraded: Arc<Gauge>,
}

impl StoreTelemetry {
    /// Registers every store series (one ingest counter per partition).
    pub(crate) fn new(partitions: usize) -> Self {
        let registry = Registry::new();
        let ingest_records = (0..partitions)
            .map(|p| {
                registry.counter(
                    "pds_store_ingest_records_total",
                    &format!("partition=\"{p}\""),
                )
            })
            .collect();
        StoreTelemetry {
            ingest_records,
            ingest_batches: registry.counter("pds_store_ingest_batches_total", ""),
            ingest_batch_seconds: registry.histogram("pds_store_ingest_batch_seconds", ""),
            freezes: registry.counter("pds_store_freezes_total", ""),
            wal_rotations: registry.counter("pds_store_wal_rotations_total", ""),
            wal_commits: registry.counter("pds_store_wal_commits_total", ""),
            wal_commit_seconds: registry.histogram("pds_store_wal_commit_seconds", ""),
            seal_build_seconds: registry.histogram("pds_store_seal_build_seconds", ""),
            seal_commit_seconds: registry.histogram("pds_store_seal_commit_seconds", ""),
            seal_bytes: registry.counter("pds_store_seal_bytes_total", ""),
            compaction_rounds: registry.counter("pds_store_compaction_rounds_total", ""),
            compaction_input_segments: registry
                .counter("pds_store_compaction_input_segments_total", ""),
            compaction_bytes: registry.counter("pds_store_compaction_bytes_total", ""),
            compaction_seconds: registry.histogram("pds_store_compaction_seconds", ""),
            recovery_seconds: registry.gauge("pds_store_recovery_seconds", ""),
            recovered_records: registry.counter("pds_store_recovered_records_total", ""),
            query_seconds: QUERY_OPS
                .iter()
                .map(|(_, labels)| registry.histogram("pds_store_query_seconds", labels))
                .collect(),
            segments_visited: registry.counter("pds_store_segments_visited_total", ""),
            segments_pruned: registry.counter("pds_store_segments_pruned_total", ""),
            block_loads: registry.counter("pds_store_block_loads_total", ""),
            merge_cache_hits: registry.counter("pds_store_merge_cache_hits_total", ""),
            merge_cache_misses: registry.counter("pds_store_merge_cache_misses_total", ""),
            io_retries: registry.counter("pds_store_io_retries_total", ""),
            io_errors_injected: registry.counter("pds_store_io_errors_total", "kind=\"injected\""),
            io_errors_real: registry.counter("pds_store_io_errors_total", "kind=\"real\""),
            io_cleanup_errors: registry.counter("pds_store_io_cleanup_errors_total", ""),
            degraded: registry.gauge("pds_store_degraded", ""),
            events: EventRing::new(EVENT_CAPACITY),
            registry,
        }
    }

    /// One record inserted into partition `p`'s shard (the single choke
    /// point shared by the per-record and batched ingest paths).
    pub(crate) fn record_ingest(&self, p: usize) {
        if let Some(counter) = self.ingest_records.get(p) {
            counter.inc();
        }
    }

    /// One per-partition sub-batch inserted under a single shard lock.
    pub(crate) fn record_batch(&self, sw: Stopwatch) {
        self.ingest_batches.inc();
        self.ingest_batch_seconds.observe(sw);
    }

    /// One memtable frozen for sealing; `rotated` when the shard's WAL
    /// rotated with it (emits a [`event::WAL_ROTATED`] event).
    pub(crate) fn record_frozen(&self, p: usize, seq: u64, rotated: bool) {
        self.freezes.inc();
        if rotated {
            self.wal_rotations.inc();
            self.events.push(event::WAL_ROTATED, p as u64, seq, 0);
        }
    }

    /// One WAL group commit (the flush/fsync at the ingest-call or
    /// sub-batch boundary).
    pub(crate) fn record_wal_commit(&self, sw: Stopwatch) {
        self.wal_commits.inc();
        self.wal_commit_seconds.observe(sw);
    }

    /// One segment built from a frozen memtable.
    pub(crate) fn record_seal_build(&self, sw: Stopwatch) {
        self.seal_build_seconds.observe(sw);
    }

    /// One durable seal commit (blob publish + manifest record) of
    /// `bytes` blob bytes.
    pub(crate) fn record_seal_commit(&self, sw: Stopwatch, bytes: u64) {
        self.seal_bytes.add(bytes);
        self.seal_commit_seconds.observe(sw);
    }

    /// One segment installed in memory at its sequence position.
    pub(crate) fn record_installed(&self, p: usize, seq: u64, records: u64) {
        self.events
            .push(event::SEAL_INSTALLED, p as u64, seq, records);
    }

    /// One compaction round committed (`inputs` segments merged into the
    /// output at `out_seq`, whose blob is `bytes` long when durable).
    pub(crate) fn record_compaction(
        &self,
        sw: Stopwatch,
        p: usize,
        out_seq: u64,
        inputs: u64,
        bytes: u64,
    ) {
        self.compaction_rounds.inc();
        self.compaction_input_segments.add(inputs);
        self.compaction_bytes.add(bytes);
        self.compaction_seconds.observe(sw);
        self.events
            .push(event::COMPACTION_COMMITTED, p as u64, out_seq, inputs);
    }

    /// Crash recovery finished: `segments` reloaded from blobs and
    /// `records` recovered in `seconds` wall time.
    pub(crate) fn record_recovery(&self, seconds: f64, segments: u64, records: u64) {
        self.recovery_seconds.set(seconds);
        self.recovered_records.add(records);
        self.events
            .push(event::RECOVERY, segments, records, (seconds * 1e3) as u64);
    }

    /// One durable-path I/O failure at `site` on retry `attempt`
    /// (0 = first try).  Injected (fault-injector) and real disk errors
    /// count into separate `kind` label series so a matrix run can tell
    /// them apart from genuine environment trouble.
    pub(crate) fn record_io_error(&self, site: &str, e: &std::io::Error, attempt: u32) {
        let injected = vfs::fault::is_injected(e);
        if injected {
            self.io_errors_injected.inc();
        } else {
            self.io_errors_real.inc();
        }
        self.events.push(
            event::IO_ERROR,
            site_index(site),
            u64::from(injected),
            u64::from(attempt),
        );
    }

    /// One bounded retry issued after a transient-class failure.
    pub(crate) fn record_io_retry(&self) {
        self.io_retries.inc();
    }

    /// One best-effort cleanup (tmp/frozen-log/orphan-blob removal) that
    /// failed with something other than `NotFound`.
    pub(crate) fn record_cleanup_error(&self, site: &str) {
        self.io_cleanup_errors.inc();
        self.events
            .push(event::CLEANUP_ERROR, site_index(site), 0, 0);
    }

    /// The store entered its sticky degraded read-only mode.
    pub(crate) fn record_degraded(&self, site: &str) {
        self.degraded.set(1.0);
        self.events.push(event::DEGRADED, site_index(site), 0, 0);
    }

    /// One range query's sealed-segment scan: `visited` segments had
    /// their synopsis consulted, `pruned` were skipped by fence/filter
    /// metadata — together, every segment of the partitions the window
    /// spans.  The store's own queries (so `EST`/`RANGE` over the wire,
    /// answered in place) and every [`SnapshotView`] taken from it report
    /// here.
    ///
    /// [`SnapshotView`]: crate::SnapshotView
    pub(crate) fn record_scan(&self, visited: u64, pruned: u64) {
        self.segments_visited.add(visited);
        self.segments_pruned.add(pruned);
    }

    /// One lazy synopsis block loaded from a blob on first touch.
    pub(crate) fn record_block_load(&self) {
        self.block_loads.inc();
    }

    /// One `merge_global` call served from (or missing) the
    /// version-stamped merged-synopsis cache.
    pub(crate) fn record_merge_cache(&self, hit: bool) {
        if hit {
            self.merge_cache_hits.inc();
        } else {
            self.merge_cache_misses.inc();
        }
    }

    /// One timed query operation.
    pub(crate) fn record_query(&self, op: QueryOp, sw: Stopwatch) {
        if let Some(hist) = self.query_seconds.get(op as usize) {
            hist.observe(sw);
        }
    }

    /// The full store exposition: every registered series plus the
    /// point-in-time [`StoreStats`] counters rendered as series of their
    /// own (`pds_store_ingested_records_total`, `pds_store_live_records`,
    /// `pds_store_seals_total`, `pds_store_segments`,
    /// `pds_store_split_tuples_total`).
    pub(crate) fn render(&self, stats: &StoreStats) -> String {
        use std::fmt::Write as _;
        let mut out = self.registry.render();
        let _ = writeln!(out, "# TYPE pds_store_ingested_records_total counter");
        let _ = writeln!(
            out,
            "pds_store_ingested_records_total {}",
            stats.ingested_records
        );
        let _ = writeln!(out, "# TYPE pds_store_live_records gauge");
        let _ = writeln!(out, "pds_store_live_records {}", stats.live_records);
        let _ = writeln!(out, "# TYPE pds_store_seals_total counter");
        let _ = writeln!(out, "pds_store_seals_total {}", stats.seals);
        let _ = writeln!(out, "# TYPE pds_store_segments gauge");
        let _ = writeln!(out, "pds_store_segments {}", stats.segments);
        let _ = writeln!(out, "# TYPE pds_store_split_tuples_total counter");
        let _ = writeln!(out, "pds_store_split_tuples_total {}", stats.split_tuples);
        let _ = writeln!(out, "# TYPE pds_store_events_total counter");
        let _ = writeln!(out, "pds_store_events_total {}", self.events.pushed());
        out
    }

    /// The retained store events, oldest first, decoded to one line each.
    pub(crate) fn render_events(&self) -> Vec<String> {
        self.events.dump(|kind, a, b, c| match kind {
            event::SEAL_INSTALLED => {
                format!("seal-installed partition={a} seq={b} records={c}")
            }
            event::COMPACTION_COMMITTED => {
                format!("compaction-committed partition={a} out_seq={b} inputs={c}")
            }
            event::WAL_ROTATED => format!("wal-rotated partition={a} seq={b}"),
            event::RECOVERY => {
                format!("recovery segments={a} records={b} took_ms={c}")
            }
            event::IO_ERROR => format!(
                "io-error site={} injected={} attempt={c}",
                site_name(a),
                b != 0
            ),
            event::CLEANUP_ERROR => format!("cleanup-error site={}", site_name(a)),
            event::DEGRADED => format!("degraded site={}", site_name(a)),
            other => format!("unknown-event kind={other} a={a} b={b} c={c}"),
        })
    }
}

/// The store's durable-path failure policy: bounded retry with
/// exponential backoff for idempotent operations, plus the telemetry
/// hooks that make every I/O failure (retried, surfaced, or best-effort
/// cleanup) observable.  Cloned into each [`PartitionWal`] and
/// [`Manifest`] handle; the default (used by handles opened outside a
/// store) retries the same way and records nothing.
///
/// [`PartitionWal`]: crate::wal::PartitionWal
/// [`Manifest`]: crate::manifest::Manifest
#[derive(Debug, Clone, Default)]
pub(crate) struct IoPolicy {
    /// Telemetry sink; `None` for standalone WAL/manifest handles.
    telemetry: Option<Arc<StoreTelemetry>>,
}

impl IoPolicy {
    /// Retries after the first failed attempt.
    const RETRIES: u32 = 2;
    /// Base backoff: retry `k` first sleeps `BACKOFF_MS << k` milliseconds.
    const BACKOFF_MS: u64 = 1;

    /// The policy of a store-owned handle, reporting into the store's
    /// telemetry.
    pub(crate) fn new(telemetry: Arc<StoreTelemetry>) -> Self {
        IoPolicy {
            telemetry: Some(telemetry),
        }
    }

    /// Runs an **idempotent** durable operation with bounded retry:
    /// every failure is observed into telemetry, every retry counted and
    /// backed off exponentially (`BACKOFF_MS << attempt`), and the final
    /// failure returned to the caller (who degrades the store).  Only
    /// operations safe to re-issue belong here — `wal-append` notably
    /// does not (see [`PartitionWal::append`](crate::wal::PartitionWal::append)).
    pub(crate) fn run<T>(
        &self,
        site: &str,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) => {
                    self.observe_attempt(site, &e, attempt);
                    if attempt >= Self::RETRIES {
                        return Err(e);
                    }
                    if let Some(tel) = &self.telemetry {
                        tel.record_io_retry();
                    }
                    std::thread::sleep(Duration::from_millis(Self::BACKOFF_MS << attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Observes a failure of a **non-retryable** operation (one whose
    /// side effects cannot be rewound, like a buffered WAL append).
    pub(crate) fn observe_error(&self, site: &str, e: &std::io::Error) {
        self.observe_attempt(site, e, 0);
    }

    /// Accounts the outcome of a best-effort cleanup removal: `NotFound`
    /// is the idempotent no-op, anything else is counted and traced —
    /// never silently dropped, never fatal.
    pub(crate) fn cleanup(&self, site: &str, result: std::io::Result<()>) {
        if let Err(e) = result {
            if e.kind() == std::io::ErrorKind::NotFound {
                return;
            }
            if let Some(tel) = &self.telemetry {
                tel.record_io_error(site, &e, 0);
                tel.record_cleanup_error(site);
            }
        }
    }

    fn observe_attempt(&self, site: &str, e: &std::io::Error, attempt: u32) {
        if let Some(tel) = &self.telemetry {
            tel.record_io_error(site, e, attempt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_telemetry_counts_and_traces() {
        let tel = StoreTelemetry::new(2);
        tel.record_ingest(0);
        tel.record_ingest(0);
        tel.record_ingest(1);
        tel.record_ingest(99); // out of range: ignored, never panics
        tel.record_batch(Stopwatch::start());
        tel.record_frozen(1, 7, true);
        tel.record_installed(1, 7, 1234);
        tel.record_compaction(Stopwatch::start(), 1, 9, 3, 77);
        tel.record_recovery(0.25, 2, 500);
        tel.record_scan(10, 7);
        tel.record_block_load();
        tel.record_merge_cache(true);
        tel.record_merge_cache(true);
        tel.record_merge_cache(false);
        let stats = StoreStats {
            ingested_records: 3,
            live_records: 1,
            seals: 1,
            segments: 2,
            split_tuples: 0,
        };
        let text = tel.render(&stats);
        assert!(text.contains("pds_store_ingest_records_total{partition=\"0\"} 2"));
        assert!(text.contains("pds_store_ingest_records_total{partition=\"1\"} 1"));
        assert!(text.contains("pds_store_ingest_batches_total 1"));
        assert!(text.contains("pds_store_ingest_batch_seconds_count 1"));
        assert!(text.contains("pds_store_freezes_total 1"));
        assert!(text.contains("pds_store_wal_rotations_total 1"));
        assert!(text.contains("pds_store_compaction_rounds_total 1"));
        assert!(text.contains("pds_store_compaction_input_segments_total 3"));
        assert!(text.contains("pds_store_recovery_seconds 0.25"));
        assert!(text.contains("pds_store_segments_visited_total 10"));
        assert!(text.contains("pds_store_segments_pruned_total 7"));
        assert!(text.contains("pds_store_block_loads_total 1"));
        assert!(text.contains("pds_store_merge_cache_hits_total 2"));
        assert!(text.contains("pds_store_merge_cache_misses_total 1"));
        assert!(text.contains("pds_store_ingested_records_total 3"));
        assert!(text.contains("pds_store_segments 2"));
        let events = tel.render_events();
        assert_eq!(events.len(), 4);
        assert!(events[0].contains("wal-rotated partition=1 seq=7"));
        assert!(events[1].contains("seal-installed partition=1 seq=7 records=1234"));
        assert!(events[2].contains("compaction-committed partition=1 out_seq=9 inputs=3"));
        assert!(events[3].contains("recovery segments=2 records=500 took_ms=250"));
    }

    #[test]
    fn io_errors_split_injected_from_real() {
        let tel = StoreTelemetry::new(1);
        let real = std::io::Error::other("disk on fire");
        let injected = std::io::Error::other("injected eio at wal-commit");
        tel.record_io_error("wal-commit", &real, 0);
        tel.record_io_error("wal-commit", &injected, 1);
        tel.record_io_retry();
        tel.record_cleanup_error("cleanup");
        tel.record_degraded("wal-commit");
        let stats = StoreStats {
            ingested_records: 0,
            live_records: 0,
            seals: 0,
            segments: 0,
            split_tuples: 0,
        };
        let text = tel.render(&stats);
        assert!(text.contains("pds_store_io_errors_total{kind=\"real\"} 1"));
        assert!(text.contains("pds_store_io_errors_total{kind=\"injected\"} 1"));
        assert!(text.contains("pds_store_io_retries_total 1"));
        assert!(text.contains("pds_store_io_cleanup_errors_total 1"));
        assert!(text.contains("pds_store_degraded 1"));
        let events = tel.render_events();
        assert_eq!(events.len(), 4);
        assert!(events[0].ends_with("io-error site=wal-commit injected=false attempt=0"));
        assert!(events[1].ends_with("io-error site=wal-commit injected=true attempt=1"));
        assert!(events[2].ends_with("cleanup-error site=cleanup"));
        assert!(events[3].ends_with("degraded site=wal-commit"));
    }

    #[test]
    fn io_policy_retries_then_surfaces_final_failure() {
        let tel = Arc::new(StoreTelemetry::new(1));
        let policy = IoPolicy::new(Arc::clone(&tel));
        let mut calls = 0u32;
        let out: std::io::Result<u32> = policy.run("manifest-install", || {
            calls += 1;
            if calls < 3 {
                Err(std::io::Error::other("transient"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
        let mut calls = 0u32;
        let out: std::io::Result<()> = policy.run("manifest-install", || {
            calls += 1;
            Err(std::io::Error::other("persistent"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 3); // first try + 2 retries, then give up
        let stats = StoreStats {
            ingested_records: 0,
            live_records: 0,
            seals: 0,
            segments: 0,
            split_tuples: 0,
        };
        let text = tel.render(&stats);
        assert!(text.contains("pds_store_io_retries_total 4"));
        assert!(text.contains("pds_store_io_errors_total{kind=\"real\"} 5"));
    }

    #[test]
    fn cleanup_ignores_not_found_counts_the_rest() {
        let tel = Arc::new(StoreTelemetry::new(1));
        let policy = IoPolicy::new(Arc::clone(&tel));
        policy.cleanup(
            "cleanup",
            Err(std::io::Error::from(std::io::ErrorKind::NotFound)),
        );
        policy.cleanup("cleanup", Ok(()));
        policy.cleanup("wal-retire", Err(std::io::Error::other("busy")));
        let stats = StoreStats {
            ingested_records: 0,
            live_records: 0,
            seals: 0,
            segments: 0,
            split_tuples: 0,
        };
        let text = tel.render(&stats);
        assert!(text.contains("pds_store_io_cleanup_errors_total 1"));
        let events = tel.render_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].ends_with("io-error site=wal-retire injected=false attempt=0"));
        assert!(events[1].ends_with("cleanup-error site=wal-retire"));
    }

    #[test]
    fn fault_sites_round_trip_through_event_encoding() {
        for (i, site) in FAULT_SITES.iter().enumerate() {
            assert_eq!(site_index(site), i as u64);
            assert_eq!(site_name(i as u64), *site);
        }
        assert_eq!(site_index("no-such-site"), FAULT_SITES.len() as u64);
        assert_eq!(site_name(FAULT_SITES.len() as u64), "unknown");
    }
}
