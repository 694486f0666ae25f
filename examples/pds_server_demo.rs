//! The TCP front-end under concurrent load: stream 100k+ uncertain tuples
//! through `pds-server`'s `INGEST` command while query clients hammer
//! `RANGE`/`EST` (answered by the store in place), then prove the served
//! store is **bitwise indistinguishable** from a `SynopsisStore` driven
//! directly by the same batches — float replies use Rust's shortest
//! round-trip formatting, so even the text protocol loses no bits.  A final phase
//! arms the deterministic I/O fault injector against a durable store and
//! proves the wire surface of degraded read-only mode: `ERR DEGRADED`
//! write refusals, the `HEALTH` cause, the METRICS gauge, and bit-stable
//! reads of the acknowledged prefix.
//!
//! ```text
//! cargo run --release --example pds_server_demo
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use probsyn::core::io::{read_stream, write_stream};
use probsyn::core::pool;
use probsyn::prelude::*;
use probsyn::server::{Server, ServerConfig, ServerHandle};

const TUPLES: usize = 120_000;
const BATCH: usize = 2_048;
const DOMAIN: usize = 4_096;
const PARTITIONS: usize = 16;
const COMPARISON_QUERIES: usize = 1_500;

/// A tiny line-protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> std::io::Result<Client> {
        let stream = TcpStream::connect(handle.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn cmd(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        Ok(reply.trim_end_matches(['\r', '\n']).to_string())
    }

    fn ok_value(&mut self, line: &str) -> std::io::Result<f64> {
        let reply = self.cmd(line)?;
        reply
            .strip_prefix("OK ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad reply: {reply}")))
    }

    fn bin_body(&mut self, reply: &str) -> std::io::Result<Vec<u8>> {
        let len: usize = reply
            .strip_prefix("OK BIN ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad binary reply: {reply}")))?;
        let mut bytes = vec![0u8; len];
        self.reader.read_exact(&mut bytes)?;
        Ok(bytes)
    }
}

fn store_config() -> Result<StoreConfig> {
    Ok(StoreConfig::new(
        PartitionSpec::uniform(DOMAIN, PARTITIONS)?,
        2_000,
        24,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    ))
}

fn main() -> Result<()> {
    let io_err = |e: std::io::Error| PdsError::InvalidParameter {
        message: format!("demo i/o failure: {e}"),
    };
    // The server multiplexes connections over the shared pool; the demo
    // drives one ingest client plus several query clients concurrently, so
    // make sure enough workers exist for all of them to be in flight.
    if pool::num_threads() < 4 {
        pool::set_num_threads(Some(4));
    }
    let queriers = (pool::num_threads() - 1).clamp(1, 3);

    let store = Arc::new(SynopsisStore::new(store_config()?)?);
    let server = Server::bind(
        Arc::clone(&store),
        ("127.0.0.1", 0),
        ServerConfig::default(),
    )
    .map_err(io_err)?;
    let handle = server.handle();
    let serve_thread = std::thread::spawn(move || server.serve());
    println!(
        "pds-server listening on {} ({} pool workers, {queriers} query clients)\n",
        handle.addr(),
        pool::num_threads()
    );

    // Deterministic workload, pre-encoded into protocol batches.
    let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
        n: DOMAIN,
        skew: 0.7,
        seed: 2009,
    })
    .take(TUPLES)
    .collect();
    let batches: Vec<String> = records
        .chunks(BATCH)
        .map(|batch| {
            let mut bytes = Vec::new();
            write_stream(batch.iter(), &mut bytes)?;
            String::from_utf8(bytes).map_err(|_| PdsError::InvalidParameter {
                message: "stream text must be UTF-8".into(),
            })
        })
        .collect::<Result<_>>()?;

    // Phase 1: ingest through the socket while query clients race.
    let done = AtomicBool::new(false);
    let concurrent_queries = AtomicU64::new(0);
    let ingest_started = Instant::now();
    let ingest_time = std::thread::scope(|scope| -> std::io::Result<Duration> {
        for q in 0..queriers {
            let (handle, done, counter) = (&handle, &done, &concurrent_queries);
            scope.spawn(move || -> std::io::Result<()> {
                let mut client = Client::connect(handle)?;
                let mut i = q as u64;
                while !done.load(Ordering::SeqCst) {
                    let lo = (i as usize * 131) % DOMAIN;
                    let hi = lo + (i as usize % 257);
                    let range = client.ok_value(&format!("RANGE {lo} {hi}"))?;
                    let point = client.ok_value(&format!("EST {}", (i as usize * 17) % DOMAIN))?;
                    assert!(range.is_finite() && point.is_finite());
                    counter.fetch_add(2, Ordering::Relaxed);
                    i += 1;
                }
                client.cmd("QUIT")?;
                Ok(())
            });
        }
        let mut ingest = Client::connect(&handle)?;
        for text in &batches {
            let lines = text.lines().count();
            let mut payload = format!("INGEST {lines}\n").into_bytes();
            payload.extend_from_slice(text.as_bytes());
            ingest.writer.write_all(&payload)?;
            let mut reply = String::new();
            ingest.reader.read_line(&mut reply)?;
            if !reply.starts_with("OK ") {
                return Err(std::io::Error::other(format!("ingest refused: {reply}")));
            }
        }
        ingest.cmd("QUIT")?;
        let elapsed = ingest_started.elapsed();
        done.store(true, Ordering::SeqCst);
        Ok(elapsed)
    })
    .map_err(io_err)?;

    let served_queries = concurrent_queries.load(Ordering::Relaxed);
    println!(
        "ingested {TUPLES} tuples over the socket in {ingest_time:.2?} \
         ({:.0} tuples/s) in {} batches of {BATCH}",
        TUPLES as f64 / ingest_time.as_secs_f64(),
        batches.len(),
    );
    println!("answered {served_queries} in-place queries concurrently with ingest\n");

    // Phase 2: a mirror store fed the identical batches directly — same
    // text, same parser, same chunking.
    let mirror = SynopsisStore::new(store_config()?)?;
    for text in &batches {
        mirror.ingest_batch(read_stream(text.as_bytes())?)?;
    }

    // Phase 3: quiesced bitwise comparison, server reply vs direct call.
    let mut client = Client::connect(&handle).map_err(io_err)?;
    let compare_started = Instant::now();
    let mut compared = 0usize;
    for step in 0..COMPARISON_QUERIES {
        let lo = (step * 89) % DOMAIN;
        let hi = lo + (step * 13) % 501;
        let via_server = client
            .ok_value(&format!("RANGE {lo} {hi}"))
            .map_err(io_err)?;
        let direct = mirror.range_estimate(lo, hi);
        assert_eq!(
            via_server.to_bits(),
            direct.to_bits(),
            "RANGE {lo} {hi}: server {via_server} != direct {direct}"
        );
        compared += 1;
    }
    let compare_time = compare_started.elapsed();
    println!(
        "verified {compared} RANGE queries bitwise-equal to direct calls \
         in {compare_time:.2?} ({:.0} queries/s round-trip)",
        compared as f64 / compare_time.as_secs_f64(),
    );

    // STATS must agree exactly with the direct counters.
    let stats = mirror.stats();
    let via_server = client.cmd("STATS").map_err(io_err)?;
    let direct = format!(
        "OK ingested={} live={} seals={} segments={} split={}",
        stats.ingested_records, stats.live_records, stats.seals, stats.segments, stats.split_tuples
    );
    assert_eq!(via_server, direct, "STATS diverged from the direct store");
    println!("STATS agrees with the direct store: {via_server}");

    // A global merged histogram over the socket, byte-identical to the
    // library call after both stores seal.
    client.cmd("SEAL").map_err(io_err)?;
    mirror.seal_all()?;
    let reply = client.cmd("MERGE 48").map_err(io_err)?;
    let over_socket = client.bin_body(&reply).map_err(io_err)?;
    let direct = mirror.merge_global(48)?.to_binary()?;
    assert_eq!(over_socket, direct, "MERGE envelope diverged");
    let merged = Histogram::from_binary(&over_socket)?;
    println!(
        "MERGE 48 returned {} bytes over the socket, byte-identical to \
         merge_global(48) ({} buckets)",
        over_socket.len(),
        merged.num_buckets()
    );

    // Phase 4: METRICS scrape gate.  The exposition must cover both layers,
    // agree exactly with the client side's own command tally, and be
    // internally consistent: every histogram's +Inf bucket equals its
    // _count, every value is finite and non-negative.
    let reply = client.cmd("METRICS").map_err(io_err)?;
    let text = String::from_utf8(client.bin_body(&reply).map_err(io_err)?).map_err(|_| {
        PdsError::InvalidParameter {
            message: "METRICS exposition must be UTF-8".into(),
        }
    })?;
    let series: Vec<(String, f64)> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').expect("metric line has a value");
            (name.to_string(), value.parse().expect("numeric value"))
        })
        .collect();
    let value = |name: &str| -> f64 {
        series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("series {name} missing from METRICS"))
    };
    for (name, v) in &series {
        assert!(
            v.is_finite() && *v >= 0.0,
            "series {name} has bad value {v}"
        );
    }
    // Per-verb counters vs the demo's own tally.  The querier threads
    // incremented `concurrent_queries` once per RANGE and once per EST, and
    // this METRICS request counted itself before rendering.
    let verb = |v: &str| value(&format!("pds_server_requests_total{{verb=\"{v}\"}}")) as u64;
    let querier_pairs = served_queries / 2;
    assert_eq!(verb("range"), querier_pairs + COMPARISON_QUERIES as u64);
    assert_eq!(verb("est"), querier_pairs);
    assert_eq!(verb("ingest"), batches.len() as u64);
    assert_eq!(verb("stats"), 1);
    assert_eq!(verb("seal"), 1);
    assert_eq!(verb("merge"), 1);
    assert_eq!(verb("metrics"), 1);
    assert_eq!(verb("quit"), queriers as u64 + 1);
    assert_eq!(value("pds_server_err_replies_total"), 0.0);
    assert_eq!(
        value("pds_server_connections_total") as u64,
        queriers as u64 + 2
    );
    assert_eq!(value("pds_server_connections_active"), 1.0);
    assert_eq!(value("pds_store_ingested_records_total") as usize, TUPLES);
    assert!(value("pds_store_seal_build_seconds_count") >= 1.0);
    // Histogram consistency: +Inf cumulative bucket == _count, for every
    // histogram of both layers.
    let mut histograms_checked = 0usize;
    for (name, v) in &series {
        let Some(idx) = name.find("_bucket{") else {
            continue;
        };
        if !name.contains("le=\"+Inf\"") {
            continue;
        }
        let inner = name[idx + "_bucket".len()..]
            .trim_start_matches('{')
            .trim_end_matches('}');
        let kept: Vec<&str> = inner.split(',').filter(|l| !l.starts_with("le=")).collect();
        let count_name = if kept.is_empty() {
            format!("{}_count", &name[..idx])
        } else {
            format!("{}_count{{{}}}", &name[..idx], kept.join(","))
        };
        assert_eq!(*v, value(&count_name), "{name} disagrees with {count_name}");
        histograms_checked += 1;
    }
    assert!(histograms_checked >= 10, "too few histograms in METRICS");
    let distinct: std::collections::BTreeSet<&str> = series
        .iter()
        .map(|(n, _)| n.split('{').next().unwrap_or(n))
        .collect();
    assert!(
        distinct.len() >= 25,
        "METRICS must cover at least 25 distinct series, got {}",
        distinct.len()
    );
    assert!(distinct.iter().any(|n| n.starts_with("pds_server_")));
    assert!(distinct.iter().any(|n| n.starts_with("pds_store_")));
    println!(
        "METRICS scrape: {} series over {} names span both layers; per-verb \
         counters match the client tally, {histograms_checked} histograms \
         internally consistent",
        series.len(),
        distinct.len(),
    );

    client.cmd("QUIT").map_err(io_err)?;
    handle.shutdown();
    serve_thread
        .join()
        .map_err(|_| PdsError::InvalidParameter {
            message: "server thread panicked".into(),
        })?
        .map_err(io_err)?;
    println!("\nserver drained and shut down cleanly");

    // Phase 5: fault-injected degradation over the wire.  A second server
    // fronts a *durable* store; a persistently failing WAL append flips it
    // into sticky degraded read-only mode, and every surface that reports
    // health must agree — the HEALTH verb, the `ERR DEGRADED` write
    // refusals, and the METRICS gauge — while reads keep serving the
    // acknowledged prefix, bit for bit.
    use pds_core::vfs::fault::{self, ErrorClass, FaultSpec};

    let dir = std::env::temp_dir().join(format!("pds-server-demo-degrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(SynopsisStore::open_with_wal(store_config()?, &dir)?);
    let server = Server::bind(
        Arc::clone(&store),
        ("127.0.0.1", 0),
        ServerConfig::default(),
    )
    .map_err(io_err)?;
    let handle = server.handle();
    let serve_thread = std::thread::spawn(move || server.serve());
    println!(
        "\ndurable server listening on {} for the degradation phase",
        handle.addr()
    );

    let mut client = Client::connect(&handle).map_err(io_err)?;
    let ingest = |client: &mut Client, text: &str| -> std::io::Result<String> {
        let mut payload = format!("INGEST {}\n", text.lines().count()).into_bytes();
        payload.extend_from_slice(text.as_bytes());
        client.writer.write_all(&payload)?;
        let mut reply = String::new();
        client.reader.read_line(&mut reply)?;
        Ok(reply.trim_end_matches(['\r', '\n']).to_string())
    };

    // Acknowledge one batch on a healthy store, then pin a query answer.
    let reply = ingest(&mut client, &batches[0]).map_err(io_err)?;
    assert!(reply.starts_with("OK "), "healthy ingest refused: {reply}");
    assert_eq!(client.cmd("HEALTH").map_err(io_err)?, "OK healthy");
    let acked_answer = client.ok_value("RANGE 0 4095").map_err(io_err)?;

    // A persistently failing disk at the WAL append site, scoped to this
    // store's directory.
    let guard = fault::arm(FaultSpec::persistent("wal-append", ErrorClass::Eio).scoped(&dir));
    let refusal = ingest(&mut client, &batches[1]).map_err(io_err)?;
    assert!(
        refusal.starts_with("ERR DEGRADED ") && refusal.contains("injected"),
        "degraded ingest must answer ERR DEGRADED with the cause: {refusal}"
    );
    let health = client.cmd("HEALTH").map_err(io_err)?;
    assert!(
        health.starts_with("OK degraded ") && health.contains("wal-append"),
        "HEALTH must surface the degradation cause: {health}"
    );
    let seal_refusal = client.cmd("SEAL").map_err(io_err)?;
    assert!(
        seal_refusal.starts_with("ERR DEGRADED "),
        "every write verb must refuse on a degraded store: {seal_refusal}"
    );
    // Reads keep serving the acknowledged prefix, bit for bit.
    let during = client.ok_value("RANGE 0 4095").map_err(io_err)?;
    assert_eq!(
        during.to_bits(),
        acked_answer.to_bits(),
        "degraded reads must keep the acknowledged answer"
    );
    let reply = client.cmd("METRICS").map_err(io_err)?;
    let text = String::from_utf8(client.bin_body(&reply).map_err(io_err)?).map_err(|_| {
        PdsError::InvalidParameter {
            message: "METRICS exposition must be UTF-8".into(),
        }
    })?;
    assert!(
        text.lines().any(|l| l == "pds_store_degraded 1"),
        "the degradation gauge must be set in METRICS"
    );

    // Disarming the injector does not heal the store: degradation is
    // sticky until the directory is reopened.
    drop(guard);
    let health = client.cmd("HEALTH").map_err(io_err)?;
    assert!(
        health.starts_with("OK degraded "),
        "degradation must be sticky after the fault clears: {health}"
    );
    println!(
        "degradation phase: ERR DEGRADED refusals, HEALTH cause, METRICS \
         gauge and bit-stable reads all agree; mode is sticky once the \
         fault clears"
    );

    client.cmd("QUIT").map_err(io_err)?;
    handle.shutdown();
    serve_thread
        .join()
        .map_err(|_| PdsError::InvalidParameter {
            message: "server thread panicked".into(),
        })?
        .map_err(io_err)?;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    println!("degraded server drained and shut down cleanly");
    Ok(())
}
