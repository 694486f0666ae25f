//! One run: set-up, then the phases — builds, writer alone, restart,
//! sealed-store queries and merges, and (on `wire_mixed` and when tracing)
//! reader beside writer — against one store life cycle, with the counts of
//! [`spec::counts`].  Each phase checks its outputs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use pds_core::metrics::ErrorMetric;
use pds_core::pool;
use pds_histogram::{approx_histogram, expected_cost, oracle_for_metric, DpTables, Histogram};
use pds_store::SynopsisStore;
use pds_wavelet::{build_restricted_wavelet, build_sse_wavelet};

use crate::inputs::{Inputs, Query};
use crate::layers;
use crate::report::{median, minimum, percentile, spread, sustained};
use crate::spec::{self, Counts};
use crate::trace::Tracer;
use crate::wire::{Conn, Result, Scrape, ServerUnderTest};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct Outcome {
    /// Every end-to-end metric; in a traced run every per-layer one too.
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Operations attempted and checks violated.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("pds-perf: check failed: {}", what());
            }
        }
    }
}

/// What every phase reads and writes.
struct Ctx<'a> {
    inputs: &'a Inputs,
    counts: Counts,
    tracer: Tracer,
    checks: Checks,
    m: Metrics,
}

/// The `pds-perf/` directory: where `cargo run` says the manifest is, else
/// where it was at build time.
pub fn perf_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// A fresh directory under `pds-perf/target/`, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(tag: &str) -> Result<RunDir> {
        let path = perf_root()
            .join("target")
            .join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A library error with the step that met it.
pub fn pds<T>(result: pds_core::Result<T>, context: &str) -> Result<T> {
    result.map_err(|e| format!("{context}: {e}"))
}

/// Everything that exists before the first timed operation.
struct Stage {
    inputs: Inputs,
    dir: RunDir,
    server: ServerUnderTest,
    writer: Conn,
}

impl Stage {
    fn set_up(seed: u64, counts: &Counts) -> Result<Stage> {
        let inputs = Inputs::generate(seed, counts);
        let dir = RunDir::create("store")?;
        let store = pds(
            SynopsisStore::open_with_wal(spec::store_config(), dir.path()),
            "open store",
        )?;
        let server = ServerUnderTest::start(store)?;
        let writer = server.connect()?;
        Ok(Stage {
            inputs,
            dir,
            server,
            writer,
        })
    }

    fn tear_down(self) -> Result<()> {
        self.writer.quit()?;
        self.server.stop().map(drop)
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub fn run(args: &RunArgs) -> Result<Outcome> {
    let counts = spec::counts(&args.workload, args.seconds, args.smoke, args.trace);
    let counts = counts.ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            spec::WORKLOADS
        )
    })?;
    // The query phase needs two client connections, each pinning a server
    // worker; a one-core host gets a second worker instead of a refusal.
    if pool::num_threads() < spec::QUERY_CONNECTIONS {
        pool::set_num_threads(Some(spec::QUERY_CONNECTIONS));
    }
    let mut lap = Instant::now();
    // `setup_s` is one set-up.  The contract asks for several in a run and
    // their median, so three run back to back and the last one stays: three
    // times `setup_s` pass before the first timed operation.
    let mut setup_times = Vec::new();
    let mut stage = None;
    for _ in 0..SETUPS {
        if let Some(previous) = stage.take() {
            Stage::tear_down(previous)?;
        }
        let started = Instant::now();
        stage = Some(Stage::set_up(args.seed, &counts)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let Stage {
        inputs,
        dir,
        server,
        writer,
    } = stage.expect("the set-ups ran");
    let mut ctx = Ctx {
        inputs: &inputs,
        counts,
        tracer: Tracer::new(args.trace),
        checks: Checks::default(),
        m: Metrics::new(),
    };
    ctx.m.insert("setup_s", median(&setup_times));
    ctx.m.insert("core.generator_s", inputs.generator_s);
    ctx.m.insert(
        "core.write_stream_ns_per_record",
        inputs.write_stream_s * 1e9 / (inputs.batches.len() * spec::BATCH) as f64,
    );
    ctx.m
        .insert("core.pool_threads", pool::num_threads() as f64);
    println!(
        "# pds-perf workload={} seed={} seconds={} trace={} smoke={} nproc={} pool_threads={} wal_sync={:?} script_hash={:016x}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        pool::num_threads(),
        spec::WAL_SYNC,
        inputs.script_hash,
    );
    println!("# counts {counts:?}");

    let mut phase_done = |name: &str| {
        println!("# phase {name} took {:.2} s", lap.elapsed().as_secs_f64());
        lap = Instant::now();
    };
    phase_done("set-up, three times");
    // Warm-up round plus a quarter of the timed rounds now, a quarter midway
    // through the writer-alone phase, a quarter between the reopenings, the
    // rest at the end.
    let mut builds = Builds::default();
    let quarter = counts.build_rounds / 4;
    builds.stint(1 + quarter, &mut ctx)?;
    phase_done("builds, first stint");
    if args.trace {
        layers::builds(&inputs, &mut ctx.m)?;
        phase_done("build replays");
    }

    let alone = ingest_phase(&mut ctx, &dir, &server, writer, &mut builds, quarter)?;
    let first_life = server.store.render_metrics();
    phase_done("writer alone, builds midway");
    let mut restarts = Restarts::begin(&ctx, server)?;
    restarts.stint(1 + counts.reopenings / 2, &mut ctx, &dir)?;
    phase_done("restart, first stint");
    builds.stint(quarter, &mut ctx)?;
    phase_done("builds, third stint");
    restarts.stint(counts.reopenings - counts.reopenings / 2, &mut ctx, &dir)?;
    restarts.report(&mut ctx.m);
    let recovered = restarts.acknowledged;
    phase_done("restart, second stint");
    if args.trace {
        layers::write_path(&inputs, &alone.latencies, &mut ctx.m)?;
        phase_done("write-path replays");
    }

    let store = pds(
        SynopsisStore::open_with_wal(spec::store_config(), dir.path()),
        "reopen store",
    )?;
    let server = ServerUnderTest::start(store)?;
    let sealed = query_phase(&mut ctx, &server, args.trace)?;
    phase_done("sealed queries and merges");
    let mixed = if counts.mixed_batches > 0 {
        let mixed = mixed_phase(&mut ctx, &server, recovered)?;
        phase_done("reader beside writer");
        Some(mixed)
    } else {
        None
    };
    builds.stint(counts.build_rounds - 3 * quarter, &mut ctx)?;
    phase_done("builds, last stint");
    let Ctx {
        tracer,
        mut checks,
        mut m,
        ..
    } = ctx;
    builds.report(&mut m);

    // On `wire_mixed` the writer beside the reader speaks for
    // `ingest_tuples_per_s`; the reader's own rate is a per-layer metric (it
    // spreads more than a tenth of its median from run to run).
    println!(
        "# ingest alone {:.0} tuples/s, queries sealed {:.0} req/s",
        alone.rate, sealed.query_rate
    );
    let mut ingest_rate = alone.rate;
    if let Some(mixed) = &mixed {
        println!(
            "# ingest beside a reader {:.0} tuples/s, queries beside a writer {:.0} req/s",
            mixed.ingest_rate, mixed.query_rate
        );
        m.insert("server.reader_queries_per_s", mixed.query_rate);
        if args.workload == "wire_mixed" {
            ingest_rate = mixed.ingest_rate;
        }
    }
    m.insert("ingest_tuples_per_s", ingest_rate);
    m.insert("queries_per_s", sealed.query_rate);

    let mut conn = server.connect()?;
    let last = conn.scrape()?;
    conn.quit()?;
    let store = server.stop()?;
    checks.require(store.degraded().is_none(), || {
        "the store ended degraded".into()
    });
    drop(store);

    if args.trace {
        let first = Scrape::parse(&first_life);
        // Program-side sums over both lives of the store directory.  Seals
        // are counted where they are built: a reopened store starts its
        // `seals_total` at the number of segments it recovered.
        for (metric, series) in [
            ("store.wal_commits", "pds_store_wal_commits_total"),
            ("store.wal_commit_s", "pds_store_wal_commit_seconds_sum"),
            ("store.seals", "pds_store_seal_build_seconds_count"),
            ("store.seal_build_s", "pds_store_seal_build_seconds_sum"),
            ("store.seal_commit_s", "pds_store_seal_commit_seconds_sum"),
            (
                "store.compaction_rounds",
                "pds_store_compaction_rounds_total",
            ),
            ("store.compaction_s", "pds_store_compaction_seconds_sum"),
            ("store.compaction_bytes", "pds_store_compaction_bytes_total"),
        ] {
            m.insert(metric, first.sum(series)? + last.sum(series)?);
        }
        m.insert(
            "store.merge_cache_hits",
            last.sum("pds_store_merge_cache_hits_total")?,
        );
        m.insert(
            "store.merge_cache_misses",
            last.sum("pds_store_merge_cache_misses_total")?,
        );
        m.insert(
            "server.err_replies",
            alone.err_replies + last.sum("pds_server_err_replies_total")?,
        );
        let mixed = mixed.ok_or("a traced run has a mixed phase")?;
        let phases = [
            ("writer alone", alone.time),
            ("sealed queries", sealed.time),
            ("reader beside writer", mixed.time),
        ];
        let client_s: f64 = phases.iter().map(|(_, t)| t.client_s).sum();
        let explained_s: f64 = phases.iter().map(|(_, t)| t.send_s + t.server_s).sum();
        m.insert(
            "trace.unexplained_share",
            (client_s - explained_s) / client_s,
        );
        // An estimate from inside the traced run: the difference between a
        // traced and an untraced run is far below their run-to-run spread.
        m.insert(
            "trace.overhead_est_pct",
            100.0 * tracer.span_count() as f64 * Tracer::cost_per_span() / client_s,
        );
        m.insert("trace.spans", tracer.span_count() as f64);
        let (user, sys, rss) = layers::process_usage();
        m.insert("proc.cpu_user_s", user);
        m.insert("proc.cpu_sys_s", sys);
        m.insert("proc.peak_rss_mb", rss);
        // PR 4 set these targets on paper; a number confirms or retracts them.
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        for (metric, target) in [
            ("histogram.exact_dp_speedup.t2", 2.0),
            ("store.ingest_pool_speedup.t2", 3.0),
        ] {
            let observed = m.get(metric).copied().unwrap_or(f64::NAN);
            let verdict = if observed >= target { "met" } else { "not met" };
            println!("# thread scaling: {metric} = {observed:.2}x on {nproc} cores, target >= {target}x: {verdict}");
        }
        println!("# span                      count     total_s      self_s");
        for (name, (count, total, own)) in tracer.self_times() {
            println!("# {name:<24} {count:>6} {total:>11.4} {own:>11.4}");
        }
        phases.iter().for_each(|(phase, time)| time.print(phase));
        println!(
            "# of the server's time, the store reports: seal builds {:.3} s, seal commits {:.3} s, WAL commits {:.3} s, compaction {:.3} s",
            m["store.seal_build_s"], m["store.seal_commit_s"], m["store.wal_commit_s"], m["store.compaction_s"]
        );
        let path = perf_root()
            .join("target")
            .join(format!("pds-perf-spans-{}.tsv", args.workload));
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    Ok(Outcome {
        metrics: m,
        attempted: checks.attempted,
        failed: checks.failed,
    })
}

// ---------------------------------------------------------------- builds
/// The paper's experiment with no store and no server: rounds of exact
/// histogram, (1+eps) histogram, SSE wavelet and restricted wavelet builds.
/// The four builds alternate inside a round, and the rounds come in four
/// stints spread over the run, so a slow half-minute of the machine is shared
/// by everything instead of landing on the builds.
#[derive(Default)]
struct Builds {
    next_round: u32,
    first: Option<(Histogram, Histogram)>,
    exact: Vec<f64>,
    approx: Vec<f64>,
    sse: Vec<f64>,
    restricted: Vec<f64>,
    prep: Vec<f64>,
    dp: Vec<f64>,
    extract: Vec<f64>,
    approx_dp: Vec<f64>,
}

impl Builds {
    /// Runs `rounds` rounds; the very first is the untimed warm-up, which
    /// also takes the exact numbers.
    fn stint(&mut self, rounds: usize, ctx: &mut Ctx) -> Result<()> {
        let Ctx {
            inputs,
            tracer,
            checks,
            m,
            ..
        } = ctx;
        for _ in 0..rounds {
            let round = self.next_round;
            self.next_round += 1;
            let whole = tracer.open("build.round", 0, round);

            let build = tracer.open("build.exact", whole.id, round);
            let (oracle, prep_s) = tracer.span("histogram.oracle_prep", build.id, round, || {
                oracle_for_metric(&inputs.build_rel, spec::BUILD_METRIC)
            });
            let (tables, dp_s) = tracer.span("histogram.exact_dp", build.id, round, || {
                DpTables::build(&*oracle, spec::BUILD_BUCKETS)
            });
            let tables = pds(tables, "exact DP")?;
            let (optimal, extract_s) = tracer.span("histogram.extract", build.id, round, || {
                tables.extract(spec::BUILD_BUCKETS, &*oracle)
            });
            let optimal = pds(optimal, "extract")?;
            let exact_s = tracer.close(build);

            let build = tracer.open("build.approx", whole.id, round);
            let (oracle, _) = tracer.span("histogram.oracle_prep", build.id, round, || {
                oracle_for_metric(&inputs.build_rel, spec::BUILD_METRIC)
            });
            let (cheap, approx_dp_s) = tracer.span("histogram.approx_dp", build.id, round, || {
                approx_histogram(&*oracle, spec::BUILD_BUCKETS, spec::BUILD_EPSILON)
            });
            let cheap = pds(cheap, "approximate DP")?;
            let approx_s = tracer.close(build);

            let (synopsis, sse_s) = tracer.span("wavelet.sse_build", whole.id, round, || {
                build_sse_wavelet(&inputs.wavelet_rel, spec::WAVELET_COEFFS)
            });
            let synopsis = pds(synopsis, "SSE wavelet")?;
            let (tree, restricted_s) =
                tracer.span("wavelet.restricted_dp", whole.id, round, || {
                    build_restricted_wavelet(
                        &inputs.restricted_rel,
                        ErrorMetric::Sae,
                        spec::RESTRICTED_COEFFS,
                    )
                });
            let tree = pds(tree, "restricted wavelet")?;
            tracer.close(whole);

            checks.attempted += 4;
            checks.require(optimal.num_buckets() == spec::BUILD_BUCKETS, || {
                format!("exact build has {} buckets", optimal.num_buckets())
            });
            checks.require(
                synopsis.len() <= spec::WAVELET_COEFFS && !synopsis.is_empty(),
                || "SSE wavelet size".into(),
            );
            checks.require(
                tree.synopsis.len() <= spec::RESTRICTED_COEFFS && tree.objective.is_finite(),
                || "restricted wavelet".into(),
            );
            match &self.first {
                None => {
                    let best = expected_cost(&inputs.build_rel, spec::BUILD_METRIC, &optimal);
                    let ratio =
                        expected_cost(&inputs.build_rel, spec::BUILD_METRIC, &cheap.histogram)
                            / best;
                    checks.require(ratio <= 1.0 + spec::BUILD_EPSILON, || {
                        format!("approximate cost is {ratio} x optimal")
                    });
                    m.insert("approx_cost_ratio", ratio);
                    m.insert(
                        "histogram.exact_bucket_evals",
                        tables.bucket_evaluations() as f64,
                    );
                    m.insert(
                        "histogram.approx_bucket_evals",
                        cheap.stats.bucket_evaluations as f64,
                    );
                    m.insert("histogram.approx_cache_hits", cheap.stats.cache_hits as f64);
                    self.first = Some((optimal, cheap.histogram));
                }
                Some((first_optimal, first_cheap)) => {
                    checks.require(
                        *first_optimal == optimal && *first_cheap == cheap.histogram,
                        || {
                            format!(
                                "round {round} built a different histogram than the warm-up round"
                            )
                        },
                    );
                    self.exact.push(exact_s);
                    self.approx.push(approx_s);
                    self.sse.push(sse_s * 1e3);
                    self.restricted.push(restricted_s * 1e3);
                    self.prep.push(prep_s * 1e3);
                    self.dp.push(dp_s);
                    self.extract.push(extract_s * 1e6);
                    self.approx_dp.push(approx_dp_s);
                }
            }
        }
        Ok(())
    }

    /// Deterministic single-shot work reports the minimum: interference on
    /// a shared box only ever adds time.
    fn report(&self, m: &mut Metrics) {
        m.insert("exact_build_s", minimum(&self.exact));
        m.insert("histogram.approx_build_s", minimum(&self.approx));
        m.insert("wavelet_sse_build_ms", minimum(&self.sse));
        m.insert("wavelet_dp_build_ms", minimum(&self.restricted));
        m.insert("bench.exact_build_s.median", median(&self.exact));
        m.insert("bench.approx_build_s.median", median(&self.approx));
        m.insert("histogram.oracle_prep_ms", minimum(&self.prep));
        m.insert("histogram.exact_dp_s", minimum(&self.dp));
        m.insert("histogram.extract_us", minimum(&self.extract));
        m.insert("histogram.approx_dp_s", minimum(&self.approx_dp));
        m.insert("wavelet.restricted_dp_ms.n128", minimum(&self.restricted));
    }
}

// ---------------------------------------------------------- writer alone
/// Where a wire phase's client-observed seconds went, as far as the
/// outside can tell: the client's own sends (spans) and the server's request
/// timer (execution through the reply write, from `METRICS`).  The rest —
/// loopback transit, wake-ups, reading replies — is unexplained.
#[derive(Clone, Copy)]
struct WireTime {
    client_s: f64,
    send_s: f64,
    server_s: f64,
}

impl WireTime {
    fn print(&self, phase: &str) {
        let unexplained = self.client_s - self.send_s - self.server_s;
        println!(
            "# {phase:<22} client {:>8.3} s = send {:>7.3} + server {:>8.3} + unexplained {:>7.3} ({:.1} %)",
            self.client_s,
            self.send_s,
            self.server_s,
            unexplained,
            100.0 * unexplained / self.client_s
        );
    }
}

struct IngestPhase {
    rate: f64,
    latencies: Vec<f64>,
    time: WireTime,
    err_replies: f64,
}

/// Sends `batches` one at a time, each after the previous reply; returns
/// the client-observed seconds per batch and the seconds spent sending.
fn ingest_batches(
    conn: &mut Conn,
    batches: &[Vec<u8>],
    first_request: u32,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<(Vec<f64>, f64)> {
    let expected = spec::BATCH.to_string();
    let mut latencies = Vec::with_capacity(batches.len());
    let mut send_s = 0.0;
    for (i, payload) in batches.iter().enumerate() {
        let request = first_request + i as u32;
        let whole = tracer.open("wire.ingest", 0, request);
        let (sent, sending) = tracer.span("client.send", whole.id, request, || conn.send(payload));
        sent?;
        let (acked, _) = tracer.span("client.await", whole.id, request, || {
            conn.reply_ok().map(|rest| rest == expected)
        });
        latencies.push(tracer.close(whole));
        send_s += sending;
        checks.attempted += 1;
        checks.require(acked?, || {
            format!("batch {request} was not acknowledged with OK {expected}")
        });
    }
    Ok((latencies, send_s))
}

/// Units completed per second in each whole slice of `per_slice`
/// operations.
fn slice_rates(latencies: &[f64], per_slice: usize, units_each: usize) -> Vec<f64> {
    latencies
        .chunks_exact(per_slice)
        .map(|slice| (per_slice * units_each) as f64 / slice.iter().sum::<f64>())
        .collect()
}

/// Tuples acknowledged per second in each slice of an ingest phase (two
/// seals each, see [`spec::SLICES_PER_CYCLE`]), from its per-batch seconds.
fn ingest_slice_rates(latencies: &[f64], counts: &Counts) -> Vec<f64> {
    counts
        .slices(latencies.len())
        .into_iter()
        .map(|slice| (slice.len() * spec::BATCH) as f64 / latencies[slice].iter().sum::<f64>())
        .collect()
}

fn stats_field(stats: &str, key: &str) -> Result<u64> {
    stats
        .split_whitespace()
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .ok_or_else(|| format!("STATS reply {stats:?} has no {key}="))
}

/// Wire replies to `queries` against the same questions put to a snapshot
/// view directly: bitwise equal on a quiet store.
fn check_against_direct(
    conn: &mut Conn,
    store: &SynopsisStore,
    queries: &[Query],
    checks: &mut Checks,
) -> Result<()> {
    let view = store.snapshot_view();
    let mut bytes = Vec::new();
    for query in queries {
        bytes.clear();
        query.encode(&mut bytes);
        conn.send(&bytes)?;
        let wire = conn.reply_value()?;
        checks.attempted += 1;
        checks.require(wire.to_bits() == query.direct(&view).to_bits(), || {
            format!("{query:?}: wire {wire} differs from the direct call")
        });
    }
    Ok(())
}

/// Bytes under `dir`: total, WAL, segment blobs, manifest.
pub fn disk_bytes(dir: &Path) -> Result<[u64; 4]> {
    let mut bytes = [0u64; 4];
    for entry in std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let len = entry.metadata().map_err(|e| e.to_string())?.len();
        let name = entry.file_name().to_string_lossy().into_owned();
        bytes[0] += len;
        match () {
            _ if name.starts_with("wal-") => bytes[1] += len,
            _ if name.starts_with("seg-") => bytes[2] += len,
            _ if name.starts_with("MANIFEST") => bytes[3] += len,
            _ => {}
        }
    }
    Ok(bytes)
}

/// The writer alone, in two halves with `build_rounds` build rounds between
/// them: the slices of both halves are pooled, so a burst of interference
/// that covers one half leaves the upper quartile alone.
fn ingest_phase(
    ctx: &mut Ctx,
    dir: &RunDir,
    server: &ServerUnderTest,
    mut writer: Conn,
    builds: &mut Builds,
    build_rounds: usize,
) -> Result<IngestPhase> {
    let stats = server.store.stats();
    ctx.checks
        .require(stats.segments == 0 && stats.live_records == 0, || {
            format!("writer-alone phase starts on {stats:?}")
        });
    let batches = &ctx.inputs.batches[..ctx.counts.ingest_batches];
    let (first, second) = batches.split_at(batches.len() / 2);
    let (mut latencies, mut send_s) =
        ingest_batches(&mut writer, first, 0, &mut ctx.tracer, &mut ctx.checks)?;
    builds.stint(build_rounds, ctx)?;
    let (more, sending) = ingest_batches(
        &mut writer,
        second,
        first.len() as u32,
        &mut ctx.tracer,
        &mut ctx.checks,
    )?;
    latencies.extend(more);
    send_s += sending;
    let Ctx {
        inputs,
        counts,
        checks,
        m,
        ..
    } = ctx;
    let rates = ingest_slice_rates(&latencies, counts);
    let tuples = (counts.ingest_batches * spec::BATCH) as u64;

    let stats = writer.command("STATS")?;
    let ingested = stats_field(&stats, "ingested")?;
    checks.require(ingested == tuples, || {
        format!("STATS reports {ingested} tuples, {tuples} were acknowledged")
    });
    println!("# after the writer-alone phase: {stats}");
    check_against_direct(&mut writer, &server.store, &inputs.reads[..64], checks)?;

    let [total, wal, blobs, manifest] = disk_bytes(dir.path())?;
    m.insert("disk_bytes_per_tuple", total as f64 / tuples as f64);
    m.insert("store.disk_wal_bytes", wal as f64);
    m.insert("store.disk_blob_bytes", blobs as f64);
    m.insert("store.disk_manifest_bytes", manifest as f64);
    m.insert("server.ingest_request_ms.p50", median(&latencies) * 1e3);
    m.insert(
        "server.ingest_request_ms.p99",
        percentile(&latencies, 99.0) * 1e3,
    );
    m.insert("bench.slice_spread_pct", spread(&rates) * 100.0);
    m.insert("bench.ingest_tuples_per_s.median", median(&rates));

    let scrape = writer.scrape()?;
    writer.quit()?;
    let client_s: f64 = latencies.iter().sum();
    let server_s = scrape.sum_where("pds_server_request_seconds_sum", "verb=\"ingest\"")?;
    Ok(IngestPhase {
        rate: sustained(&rates),
        latencies,
        time: WireTime {
            client_s,
            send_s,
            server_s,
        },
        err_replies: scrape.sum("pds_server_err_replies_total")?,
    })
}

// --------------------------------------------------------------- restart
/// Close the server, drop the store, then reopen byte-identical copies of
/// its directory: manifest, lazily mapped blobs and the WAL tail, through
/// the first answered range query.  The reopenings come in two stints with
/// builds between them, so a burst of interference has to hit both to show
/// in the minimum.
struct Restarts {
    /// The accuracy queries' and the widest range's answers before the drop.
    before: Vec<u64>,
    wide: u64,
    /// Records a reopened store must count.
    acknowledged: u64,
    next_round: u32,
    whole: Vec<f64>,
    reopen: Vec<f64>,
    first_answer: Vec<f64>,
}

impl Restarts {
    fn begin(ctx: &Ctx, server: ServerUnderTest) -> Result<Restarts> {
        let view = server.store.snapshot_view();
        let before = ctx
            .inputs
            .accuracy
            .iter()
            .map(|&(lo, hi)| view.range_estimate(lo, hi).to_bits())
            .collect();
        let wide = view.range_estimate(0, spec::DOMAIN - 1).to_bits();
        drop(view);
        let store = server.stop()?;
        // A reopened store counts each part of an x-tuple that was split
        // across partitions as a record of its own.
        let acknowledged = store.stats().ingested_records + store.stats().split_tuples;
        Arc::try_unwrap(store).map_err(|_| "the store is still shared after the server stopped")?;
        Ok(Restarts {
            before,
            wide,
            acknowledged,
            next_round: 0,
            whole: vec![],
            reopen: vec![],
            first_answer: vec![],
        })
    }

    /// `rounds` reopenings; the very first is the untimed warm-up, which
    /// also takes the full bitwise comparison, the accuracy pass and the
    /// recovery counters.
    fn stint(&mut self, rounds: usize, ctx: &mut Ctx, dir: &RunDir) -> Result<()> {
        let Ctx {
            inputs,
            tracer,
            checks,
            m,
            ..
        } = ctx;
        for _ in 0..rounds {
            let round = self.next_round;
            self.next_round += 1;
            let copy = RunDir::create("copy")?;
            for entry in std::fs::read_dir(dir.path()).map_err(|e| e.to_string())? {
                let entry = entry.map_err(|e| e.to_string())?;
                std::fs::copy(entry.path(), copy.path().join(entry.file_name()))
                    .map_err(|e| format!("copy store file: {e}"))?;
            }
            let restart = tracer.open("store.restart", 0, round);
            let (store, reopen_s) = tracer.span("store.reopen", restart.id, round, || {
                SynopsisStore::open_with_wal(spec::store_config(), copy.path())
            });
            let store = pds(store, "reopen a copy")?;
            let (answer, answer_s) = tracer.span("store.first_answer", restart.id, round, || {
                store.range_estimate(0, spec::DOMAIN - 1)
            });
            let whole_s = tracer.close(restart);

            checks.attempted += 1;
            let (recovered, acknowledged) = (store.stats().ingested_records, self.acknowledged);
            checks.require(recovered == acknowledged, || {
                format!("reopening {round} holds {recovered} of {acknowledged} acknowledged tuples")
            });
            checks.require(answer.to_bits() == self.wide, || {
                format!("reopening {round} answers {answer}, not as before the drop")
            });
            if round > 0 {
                self.whole.push(whole_s * 1e3);
                self.reopen.push(reopen_s * 1e3);
                self.first_answer.push(answer_s * 1e6);
                continue;
            }
            let view = store.snapshot_view();
            let after: Vec<f64> = inputs
                .accuracy
                .iter()
                .map(|&(lo, hi)| view.range_estimate(lo, hi))
                .collect();
            checks.require(
                after
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(self.before.iter().copied()),
                || "a reopened copy answers the accuracy queries differently".into(),
            );
            let mut prefix = vec![0.0; spec::DOMAIN + 1];
            for (i, mass) in inputs.expected.iter().enumerate() {
                prefix[i + 1] = prefix[i] + mass;
            }
            // Total absolute error over the fixed queries as a share of
            // their total exact answer: a per-query ratio would be ruled by
            // the narrow queries whose exact answer is next to nothing.
            let (mut error, mut mass) = (0.0, 0.0);
            for (&(lo, hi), estimate) in inputs.accuracy.iter().zip(&after) {
                let exact = prefix[hi + 1] - prefix[lo];
                error += (estimate - exact).abs();
                mass += exact;
            }
            m.insert("range_err_pct", 100.0 * error / mass);
            let scrape = Scrape::parse(&store.render_metrics());
            m.insert(
                "store.recovered_records",
                scrape.sum("pds_store_recovered_records_total")?,
            );
            m.insert(
                "store.block_loads",
                scrape.sum("pds_store_block_loads_total")?,
            );
        }
        Ok(())
    }

    fn report(&self, m: &mut Metrics) {
        m.insert("restart_first_answer_ms", minimum(&self.whole));
        m.insert("bench.restart_first_answer_ms.median", median(&self.whole));
        m.insert("store.reopen_ms", minimum(&self.reopen));
        m.insert("store.first_answer_us", minimum(&self.first_answer));
    }
}

// --------------------------------------------- sealed store: query, merge
struct QueryPhase {
    query_rate: f64,
    time: WireTime,
}

/// One connection's share of the pipelined query phase: its slice rates,
/// client-observed seconds, seconds spent sending, and its spans.
fn query_client(
    mut conn: Conn,
    windows: &[crate::inputs::Window],
    direct: &[Vec<u64>],
    counts: &Counts,
    start: &Barrier,
    mut tracer: Tracer,
    request_base: u32,
) -> Result<(Vec<f64>, f64, f64, Checks, Tracer)> {
    let mut checks = Checks::default();
    let mut latencies = Vec::with_capacity(counts.query_windows);
    let mut send_s = 0.0;
    start.wait();
    for w in 0..counts.query_windows {
        let window = &windows[w % windows.len()];
        let request = request_base + w as u32;
        let whole = tracer.open("wire.query_window", 0, request);
        let (sent, sending) = tracer.span("client.send", whole.id, request, || {
            conn.send(&window.bytes)
        });
        sent?;
        let waiting = tracer.open("client.await", whole.id, request);
        // The first windows of the pool are checked bitwise against direct
        // calls every time they come round; the rest must be `OK`.
        match direct.get(w % windows.len()) {
            Some(bits) => {
                for (query, &bits) in window.queries.iter().zip(bits) {
                    let wire = conn.reply_value()?;
                    checks.require(wire.to_bits() == bits, || {
                        format!("{query:?}: wire {wire} differs from the direct call")
                    });
                }
            }
            None => {
                for _ in &window.queries {
                    conn.reply_ok()?;
                }
            }
        }
        tracer.close(waiting);
        latencies.push(tracer.close(whole));
        send_s += sending;
        checks.attempted += spec::WINDOW as u64;
    }
    conn.quit()?;
    let client_s = latencies.iter().sum();
    Ok((
        slice_rates(&latencies, counts.slice_windows, spec::WINDOW),
        client_s,
        send_s,
        checks,
        tracer,
    ))
}

/// Cache-missing `MERGE` requests: the budget alternates from one to the
/// next, so the single-entry cache misses every time.
#[derive(Default)]
struct Merges {
    next_round: u32,
    ms: Vec<f64>,
}

impl Merges {
    /// `rounds` merges; the very first is the untimed warm-up.
    fn stint(
        &mut self,
        rounds: usize,
        conn: &mut Conn,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<()> {
        for _ in 0..rounds {
            let round = self.next_round;
            self.next_round += 1;
            let budget = spec::MERGE_BUDGETS[round as usize % 2];
            let (body, merge_s) = tracer.span("wire.merge", 0, round, || {
                conn.send(format!("MERGE {budget}\n").as_bytes())?;
                conn.reply_bin()
            });
            let merged = pds(Histogram::from_binary(&body?), "decode MERGE body")?;
            checks.attempted += 1;
            checks.require(merged.num_buckets() == budget, || {
                format!("MERGE {budget} returned {} buckets", merged.num_buckets())
            });
            if round > 0 {
                self.ms.push(merge_s * 1e3);
            }
        }
        Ok(())
    }
}

fn query_phase(ctx: &mut Ctx, server: &ServerUnderTest, trace: bool) -> Result<QueryPhase> {
    let Ctx {
        inputs,
        counts,
        tracer,
        checks,
        m,
    } = ctx;
    let (inputs, counts) = (*inputs, &*counts);
    // Everything sealed, every block loaded, memtables empty: the regime
    // that fits in the program's own caches.
    let mut admin = server.connect()?;
    admin.command("SEAL")?;
    admin.command(&format!("RANGE 0 {}", spec::DOMAIN - 1))?;
    let stats = admin.command("STATS")?;
    println!("# sealed for the query phase: {stats}");
    checks.require(
        stats_field(&stats, "live")? == 0 && stats_field(&stats, "segments")? > 0,
        || format!("query phase starts on {stats}"),
    );
    if trace {
        layers::read_path(&server.store, &mut admin, inputs, m)?;
    }
    // Cold merges, in two stints around the queries so that a burst of
    // interference has to hit both to show in the minimum.
    let misses_before = admin.scrape()?.sum("pds_store_merge_cache_misses_total")?;
    let mut merges = Merges::default();
    merges.stint(1 + counts.merges / 2, &mut admin, tracer, checks)?;
    let before = admin.scrape()?;
    admin.quit()?;

    let view = server.store.snapshot_view();
    let direct: Vec<Vec<Vec<u64>>> = inputs
        .windows
        .iter()
        .map(|pool| {
            pool.iter()
                .take(16)
                .map(|w| {
                    w.queries
                        .iter()
                        .map(|q| q.direct(&view).to_bits())
                        .collect()
                })
                .collect()
        })
        .collect();
    drop(view);

    let start = Barrier::new(spec::QUERY_CONNECTIONS);
    let clients: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec::QUERY_CONNECTIONS)
            .map(|c| {
                let conn = server.connect();
                let (windows, direct, start, forked) =
                    (&inputs.windows[c], &direct[c], &start, tracer.fork());
                scope.spawn(move || {
                    query_client(
                        conn?,
                        windows,
                        direct,
                        counts,
                        start,
                        forked,
                        (c * counts.query_windows) as u32,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a query client panicked".into()))
            })
            .collect::<Result<_>>()
    })?;
    let (mut query_rate, mut client_s, mut send_s, mut spreads) = (0.0, 0.0, 0.0, vec![]);
    for (rates, client, send, client_checks, forked) in clients {
        query_rate += sustained(&rates);
        spreads.push(spread(&rates));
        client_s += client;
        send_s += send;
        checks.attempted += client_checks.attempted;
        checks.failed += client_checks.failed;
        tracer.absorb(forked);
    }
    println!(
        "# query slices: spread {:.1} % and {:.1} % of the median",
        spreads[0] * 100.0,
        spreads[1] * 100.0
    );

    let mut admin = server.connect()?;
    let after = admin.scrape()?;
    let delta = |series: &str| -> Result<f64> { Ok(after.sum(series)? - before.sum(series)?) };
    let requests = (spec::QUERY_CONNECTIONS * counts.query_windows * spec::WINDOW) as f64;
    // Besides the queries: each client's QUIT, the admin's QUIT and the
    // second scrape itself.
    let served = delta("pds_server_requests_total")? - (spec::QUERY_CONNECTIONS + 2) as f64;
    checks.require(served == requests, || {
        format!("the server counted {served} of {requests} queries")
    });
    m.insert("server.query_pipelined_us", client_s * 1e6 / requests);
    m.insert("server.bytes_read", delta("pds_server_bytes_read_total")?);
    m.insert(
        "server.bytes_written",
        delta("pds_server_bytes_written_total")? - before.reply_bytes as f64,
    );
    let server_s = delta("pds_server_request_seconds_sum")?;

    merges.stint(
        counts.merges - counts.merges / 2,
        &mut admin,
        tracer,
        checks,
    )?;
    let misses = admin.scrape()?.sum("pds_store_merge_cache_misses_total")? - misses_before;
    checks.require(misses == (counts.merges + 1) as f64, || {
        format!("{misses} of {} merges missed the cache", counts.merges + 1)
    });
    admin.quit()?;
    m.insert("merge_cold_ms", minimum(&merges.ms));
    m.insert("bench.merge_cold_ms.median", median(&merges.ms));
    Ok(QueryPhase {
        query_rate,
        time: WireTime {
            client_s,
            send_s,
            server_s,
        },
    })
}

// ------------------------------------------------- reader beside a writer
struct MixedPhase {
    ingest_rate: f64,
    query_rate: f64,
    time: WireTime,
}

fn mixed_phase(ctx: &mut Ctx, server: &ServerUnderTest, recovered: u64) -> Result<MixedPhase> {
    let Ctx {
        inputs,
        counts,
        tracer,
        checks,
        m,
    } = ctx;
    let inputs = *inputs;
    let mut writer = server.connect()?;
    let before = writer.scrape()?;
    let stats = writer.command("STATS")?;
    checks.require(stats_field(&stats, "live")? == 0, || {
        format!("mixed phase starts on {stats}")
    });
    let batches = &inputs.batches[counts.ingest_batches..];
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let mut reader_tracer = tracer.fork();

    // The reader sends single requests, each after the previous reply,
    // until the writer's last batch is acknowledged.
    let (written, read) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| -> Result<(Vec<f64>, Vec<f64>, f64)> {
            let mut conn = server.connect()?;
            let (mut latencies, mut done_at) = (Vec::new(), Vec::new());
            let mut send_s = 0.0;
            let mut bytes = Vec::new();
            start.wait();
            let origin = Instant::now();
            while !done.load(Ordering::Acquire) {
                let request = latencies.len() as u32;
                bytes.clear();
                inputs.reads[latencies.len() % inputs.reads.len()].encode(&mut bytes);
                let whole = reader_tracer.open("wire.read", 0, request);
                let (sent, sending) =
                    reader_tracer.span("client.send", whole.id, request, || conn.send(&bytes));
                sent?;
                let (reply, _) =
                    reader_tracer.span("client.await", whole.id, request, || conn.reply_value());
                reply?;
                latencies.push(reader_tracer.close(whole));
                done_at.push(origin.elapsed().as_secs_f64());
                send_s += sending;
            }
            conn.quit()?;
            Ok((latencies, done_at, send_s))
        });
        start.wait();
        let written = ingest_batches(
            &mut writer,
            batches,
            counts.ingest_batches as u32,
            tracer,
            checks,
        );
        // Release pairs with the reader's Acquire load: it stops after the
        // request in flight.
        done.store(true, Ordering::Release);
        (written, reader.join())
    });
    tracer.absorb(reader_tracer);
    let (write_latencies, write_send_s) = written?;
    let (read_latencies, read_done_at, read_send_s) = read.map_err(|_| "the reader panicked")??;
    checks.attempted += read_latencies.len() as u64;

    let tuples = recovered + (batches.len() * spec::BATCH) as u64;
    let stats = writer.command("STATS")?;
    let ingested = stats_field(&stats, "ingested")?;
    checks.require(ingested == tuples, || {
        format!("STATS reports {ingested} tuples, {tuples} were acknowledged")
    });
    println!(
        "# after the mixed phase: {stats}; the reader got {} replies",
        read_latencies.len()
    );
    let after = writer.scrape()?;
    writer.quit()?;

    // The reader's slices are the writer's: replies per second while the
    // writer sent each slice (both threads left the barrier together, and
    // the writer sends each batch as soon as the last is acknowledged).
    let mut sent_by = vec![0.0];
    for seconds in &write_latencies {
        sent_by.push(sent_by[sent_by.len() - 1] + seconds);
    }
    let read_rates: Vec<f64> = counts
        .slices(write_latencies.len())
        .into_iter()
        .map(|slice| {
            let (from, to) = (sent_by[slice.start], sent_by[slice.end]);
            let replies = read_done_at.iter().filter(|&&at| from <= at && at < to);
            replies.count() as f64 / (to - from)
        })
        .collect();
    let typical = median(&read_latencies);
    let stalls: Vec<f64> = read_latencies
        .iter()
        .filter(|&&l| l > 5.0 * typical)
        .map(|l| l * 1e3)
        .collect();
    // With a few hundred samples the 95th percentile is the highest that
    // keeps ten samples beyond it.
    checks.require(
        read_latencies.len() >= 200 || counts.prologue_batches < spec::CYCLE_BATCHES,
        || {
            format!(
                "only {} reads completed beside the writer",
                read_latencies.len()
            )
        },
    );
    m.insert(
        "server.query_p95_ms",
        percentile(&read_latencies, 95.0) * 1e3,
    );
    m.insert(
        "server.reader_stall_ms.p50",
        if stalls.is_empty() {
            0.0
        } else {
            median(&stalls)
        },
    );
    m.insert(
        "server.reader_stall_ms.max",
        stalls.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "server.queries_per_ingest_batch",
        read_latencies.len() as f64 / batches.len() as f64,
    );
    println!(
        "# reader beside the writer: {} samples, median {:.1} us, p95 {:.3} ms, {} stalls over 5x the median",
        read_latencies.len(),
        typical * 1e6,
        percentile(&read_latencies, 95.0) * 1e3,
        stalls.len()
    );
    let client_s = write_latencies.iter().chain(&read_latencies).sum::<f64>();
    let server_s = after.sum("pds_server_request_seconds_sum")?
        - before.sum("pds_server_request_seconds_sum")?;
    Ok(MixedPhase {
        ingest_rate: sustained(&ingest_slice_rates(&write_latencies, counts)),
        query_rate: sustained(&read_rates),
        time: WireTime {
            client_s,
            send_s: write_send_s + read_send_s,
            server_s,
        },
    })
}
