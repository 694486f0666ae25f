//! Integration suite for the TCP front-end: concurrent clients querying
//! during ingest answer bitwise-identically to direct library calls, and
//! malformed / oversized / torn input costs a protocol error line, never
//! the connection (let alone the process).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pds_core::io::{read_stream, write_stream};
use pds_core::stream::{basic_stream, BasicStreamConfig, StreamRecord};
use pds_core::{pool, ErrorMetric};
use pds_histogram::Histogram;
use pds_server::{Server, ServerConfig, ServerHandle};
use pds_store::{PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

fn store_config(n: usize, parts: usize, threshold: usize) -> StoreConfig {
    StoreConfig::new(
        PartitionSpec::uniform(n, parts).unwrap(),
        threshold,
        8,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    )
}

/// A server bound to an ephemeral port, serving on its own thread; shut
/// down and joined on drop so no test leaks a listener.
struct RunningServer {
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl RunningServer {
    fn start(store: Arc<SynopsisStore>, config: ServerConfig) -> RunningServer {
        let server = Server::bind(store, ("127.0.0.1", 0), config).expect("bind");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        RunningServer {
            handle,
            thread: Some(thread),
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread").expect("serve");
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed).expect("send");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send raw");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end_matches(['\r', '\n']).to_string()
    }

    /// Sends one command and returns its reply line.
    fn cmd(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Reads the `<len>` raw bytes after an `OK BIN <len>` reply.
    fn recv_bin(&mut self, reply: &str) -> Vec<u8> {
        let len: usize = reply
            .strip_prefix("OK BIN ")
            .unwrap_or_else(|| panic!("not a binary reply: {reply}"))
            .parse()
            .expect("length");
        let mut bytes = vec![0u8; len];
        self.reader.read_exact(&mut bytes).expect("binary body");
        bytes
    }

    fn quit(mut self) {
        assert_eq!(self.cmd("QUIT"), "OK bye");
    }
}

fn ok_value(reply: &str) -> f64 {
    reply
        .strip_prefix("OK ")
        .unwrap_or_else(|| panic!("not an OK reply: {reply}"))
        .parse()
        .expect("float reply")
}

/// Deterministic workload shared by server-vs-direct comparisons.
fn workload(len: usize, seed: u64, n: usize) -> Vec<StreamRecord> {
    basic_stream(BasicStreamConfig { n, skew: 0.6, seed })
        .take(len)
        .collect()
}

/// Encodes a batch in the stream text format and counts its lines.
fn stream_text(records: &[StreamRecord]) -> (String, usize) {
    let mut bytes = Vec::new();
    write_stream(records.iter(), &mut bytes).expect("encode batch");
    let text = String::from_utf8(bytes).expect("stream text is UTF-8");
    let lines = text.lines().count();
    (text, lines)
}

/// Ingests one batch through an open connection and asserts its `OK`.
fn ingest_over(client: &mut Client, batch: &[StreamRecord]) -> String {
    let (text, lines) = stream_text(batch);
    client.send(&format!("INGEST {lines}"));
    client.send_raw(text.as_bytes());
    let reply = client.recv();
    assert_eq!(reply, format!("OK {}", batch.len()));
    text
}

#[test]
fn basic_commands_round_trip_bitwise() {
    let store = Arc::new(SynopsisStore::new(store_config(64, 4, 1 << 20)).unwrap());
    store.ingest_batch(workload(200, 7, 64)).unwrap();
    let server = RunningServer::start(Arc::clone(&store), ServerConfig::default());
    let mut client = Client::connect(&server.handle);

    assert_eq!(client.cmd("PING"), "OK pong");
    for item in [0usize, 1, 17, 63, 64, 1000] {
        let via_server = ok_value(&client.cmd(&format!("EST {item}")));
        assert_eq!(
            via_server.to_bits(),
            store.estimate(item).to_bits(),
            "EST {item} must be bitwise-equal to the direct call"
        );
    }
    for (lo, hi) in [(0usize, 63usize), (5, 5), (10, 3), (40, 10_000)] {
        let via_server = ok_value(&client.cmd(&format!("RANGE {lo} {hi}")));
        assert_eq!(via_server.to_bits(), store.range_estimate(lo, hi).to_bits());
    }
    let stats = store.stats();
    assert_eq!(
        client.cmd("STATS"),
        format!(
            "OK ingested={} live={} seals={} segments={} split={}",
            stats.ingested_records,
            stats.live_records,
            stats.seals,
            stats.segments,
            stats.split_tuples
        )
    );
    assert_eq!(client.cmd("SEAL"), "OK sealed");
    // Seals are synchronous, so there is no wait verb: `FLUSH` is as
    // unknown as any other word.
    assert!(client.cmd("FLUSH").starts_with("ERR unknown command"));
    client.quit();
}

/// Out-of-domain and empty-window reads are well-formed questions whose
/// answer is zero mass — the wire contract is the **literal line**
/// `OK 0`, never `ERR`, and clients are entitled to match the text.
/// This pins the `clamp_range` contract (store and snapshot view share
/// it) at the protocol boundary.
#[test]
fn out_of_domain_reads_answer_the_literal_ok_zero_line() {
    let store = Arc::new(SynopsisStore::new(store_config(64, 4, 1 << 20)).unwrap());
    store.ingest_batch(workload(500, 13, 64)).unwrap();
    let server = RunningServer::start(Arc::clone(&store), ServerConfig::default());
    let mut client = Client::connect(&server.handle);

    for cmd in [
        "EST 64",                       // first item past the domain
        "EST 18446744073709551615",     // u64::MAX parses, answers zero
        "RANGE 64 99",                  // window entirely past the domain
        "RANGE 10 3",                   // inverted window
        "RANGE 63 0",                   // inverted at the domain edge
        "RANGE 18446744073709551615 0", // hostile lo, inverted
    ] {
        assert_eq!(client.cmd(cmd), "OK 0", "{cmd} must answer literally");
    }
    // Clamping is one-sided: an in-domain `lo` with an oversized `hi`
    // answers the full tail, not zero.
    let clamped = ok_value(&client.cmd("RANGE 0 18446744073709551615"));
    assert_eq!(clamped.to_bits(), store.range_estimate(0, 63).to_bits());
    assert!(clamped > 0.0, "ingested mass must show through the clamp");
    client.quit();
}

#[test]
fn ingest_through_the_server_matches_direct_ingest_bitwise() {
    let store = Arc::new(SynopsisStore::new(store_config(128, 4, 64)).unwrap());
    let mirror = SynopsisStore::new(store_config(128, 4, 64)).unwrap();
    let server = RunningServer::start(Arc::clone(&store), ServerConfig::default());
    let mut client = Client::connect(&server.handle);

    let records = workload(3_000, 11, 128);
    for batch in records.chunks(257) {
        let text = ingest_over(&mut client, batch);
        // The mirror ingests exactly what the server decoded: the same
        // text, through the same stream parser.
        mirror
            .ingest_batch(read_stream(text.as_bytes()).unwrap())
            .unwrap();
    }
    for (lo, hi) in [(0usize, 127usize), (3, 90), (64, 64), (100, 5_000)] {
        let via_server = ok_value(&client.cmd(&format!("RANGE {lo} {hi}")));
        assert_eq!(
            via_server.to_bits(),
            mirror.range_estimate(lo, hi).to_bits(),
            "server ingest must be indistinguishable from direct ingest"
        );
    }
    for item in 0..128usize {
        let via_server = ok_value(&client.cmd(&format!("EST {item}")));
        assert_eq!(via_server.to_bits(), mirror.estimate(item).to_bits());
    }
    client.quit();
}

#[test]
fn concurrent_clients_query_during_ingest_then_match_direct_calls() {
    let store = Arc::new(SynopsisStore::new(store_config(256, 8, 128)).unwrap());
    let mirror = SynopsisStore::new(store_config(256, 8, 128)).unwrap();
    let server = RunningServer::start(Arc::clone(&store), ServerConfig::default());
    // One worker must stay free for the ingest connection, or the query
    // clients would pin every worker until `done` — which only ingest can
    // set.  On a single-worker pool the test degrades to ingest-then-query.
    let queriers = pool::num_threads().max(1).saturating_sub(1).min(3);
    let done = AtomicBool::new(false);

    let records = workload(20_000, 23, 256);
    std::thread::scope(|scope| {
        // Concurrent query clients: replies must always be well-formed,
        // finite and non-negative while ingest is racing.
        for t in 0..queriers {
            let (handle, done) = (&server.handle, &done);
            scope.spawn(move || {
                let mut client = Client::connect(handle);
                let mut i = t;
                while !done.load(Ordering::SeqCst) {
                    let lo = (i * 37) % 256;
                    let hi = lo + (i % 64);
                    let value = ok_value(&client.cmd(&format!("RANGE {lo} {hi}")));
                    assert!(value.is_finite() && value >= 0.0, "bad estimate {value}");
                    let point = ok_value(&client.cmd(&format!("EST {}", (i * 13) % 300)));
                    assert!(point.is_finite() && point >= 0.0);
                    i += 1;
                }
                client.quit();
            });
        }
        // One ingest client streams the whole workload in batches.
        let mut ingest = Client::connect(&server.handle);
        for batch in records.chunks(512) {
            ingest_over(&mut ingest, batch);
        }
        ingest.quit();
        done.store(true, Ordering::SeqCst);
    });

    // Quiesced: the served store must now answer exactly like a store a
    // direct caller fed the same batches.
    for batch in records.chunks(512) {
        let (text, _) = stream_text(batch);
        mirror
            .ingest_batch(read_stream(text.as_bytes()).unwrap())
            .unwrap();
    }
    let mut client = Client::connect(&server.handle);
    for step in 0..1_000usize {
        let lo = (step * 3) % 256;
        let hi = lo + step % 41;
        let via_server = ok_value(&client.cmd(&format!("RANGE {lo} {hi}")));
        assert_eq!(
            via_server.to_bits(),
            mirror.range_estimate(lo, hi).to_bits(),
            "RANGE {lo} {hi} diverged after concurrent ingest"
        );
    }
    client.quit();
}

#[test]
fn merge_and_snapshot_bulk_responses_decode_and_match_direct() {
    let store = Arc::new(SynopsisStore::new(store_config(64, 4, 32)).unwrap());
    let mirror = SynopsisStore::new(store_config(64, 4, 32)).unwrap();
    let records = workload(1_000, 31, 64);
    store.ingest_batch(records.clone()).unwrap();
    mirror.ingest_batch(records).unwrap();
    let server = RunningServer::start(Arc::clone(&store), ServerConfig::default());
    let mut client = Client::connect(&server.handle);

    assert_eq!(client.cmd("SEAL"), "OK sealed");
    mirror.seal_all().unwrap();

    let reply = client.cmd("MERGE 6");
    let merged_bytes = client.recv_bin(&reply);
    let direct = mirror.merge_global(6).unwrap();
    assert_eq!(merged_bytes, direct.to_binary().unwrap());
    let decoded = Histogram::from_binary(&merged_bytes).unwrap();
    assert_eq!(decoded.num_buckets(), direct.num_buckets());

    // A repeated MERGE on the unchanged store serves from the store's
    // merged-synopsis cache: byte-identical body, and the cache-hit
    // counter moves in the METRICS scrape.  The wire shape is unchanged —
    // clients cannot tell a hit from a recomputation except by speed.
    let reply = client.cmd("MERGE 6");
    assert_eq!(client.recv_bin(&reply), merged_bytes);
    let scrape = client.cmd("METRICS");
    let text = String::from_utf8(client.recv_bin(&scrape)).unwrap();
    assert!(
        text.lines()
            .any(|l| l.starts_with("pds_store_merge_cache_hits_total ") && !l.ends_with(" 0")),
        "repeat MERGE must register a merge-cache hit:\n{text}"
    );

    // The merge edge cases surface as protocol errors, not panics.
    assert!(client.cmd("MERGE 0").starts_with("ERR "));
    assert!(client.cmd("MERGE 99999999").starts_with("ERR "));

    let reply = client.cmd("SNAPSHOT");
    let snapshot_bytes = client.recv_bin(&reply);
    let reopened = SynopsisStore::from_binary(&snapshot_bytes).unwrap();
    assert_eq!(
        reopened.range_estimate(0, 63).to_bits(),
        mirror.range_estimate(0, 63).to_bits()
    );
    client.quit();
}

#[test]
fn malformed_oversized_and_torn_input_never_kills_the_process() {
    let store = Arc::new(SynopsisStore::new(store_config(64, 4, 1 << 20)).unwrap());
    let config = ServerConfig::default();
    let max_line = config.max_line_bytes;
    let server = RunningServer::start(Arc::clone(&store), config);
    let mut client = Client::connect(&server.handle);

    // Malformed commands: one ERR each, the connection survives them all.
    for bad in [
        "FROB 12",
        "est 1",
        "EST",
        "EST notanumber",
        "EST 1 2 3",
        "RANGE 4",
        "MERGE -3",
        "INGEST",
        "",
        "   ",
    ] {
        let reply = client.cmd(bad);
        assert!(reply.starts_with("ERR "), "{bad:?} -> {reply}");
    }
    // Non-UTF-8 garbage.
    client.send_raw(&[0xC0, 0xAF, 0xFE, b'\n']);
    assert!(client.recv().starts_with("ERR "));
    // Oversized command line: discarded, answered, survived.
    let huge = "EST ".to_string() + &"9".repeat(max_line * 2);
    let reply = client.cmd(&huge);
    assert!(reply.starts_with("ERR "), "{reply}");
    assert_eq!(client.cmd("PING"), "OK pong");

    // A batch with a malformed record line is wholly rejected with the
    // framing kept: nothing reaches the store, the next command works.
    client.send("INGEST 3");
    client.send("b 1 0.5");
    client.send("b 2 not-a-probability");
    client.send("b 3 0.25");
    assert!(client.recv().starts_with("ERR "));
    assert!(client.cmd("STATS").contains("ingested=0"));
    // An oversized INGEST declaration is refused before reading anything.
    assert!(client.cmd("INGEST 999999999999").starts_with("ERR "));
    // A valid batch after all of the above still works.
    client.send("INGEST 2");
    client.send("b 1 0.5");
    client.send("b 2 0.25");
    assert_eq!(client.recv(), "OK 2");
    client.quit();

    // Torn batch: a client dies mid-INGEST; nothing of it is ingested and
    // the server keeps serving everyone else.
    let mut torn = Client::connect(&server.handle);
    torn.send("INGEST 5");
    torn.send("b 7 0.5");
    drop(torn);
    let mut after = Client::connect(&server.handle);
    assert!(after.cmd("STATS").contains("ingested=2"));
    assert_eq!(after.cmd("PING"), "OK pong");
    after.quit();
}

/// Connects and classifies the outcome: `Some(client)` when admitted (no
/// unsolicited reply arrives), `None` when refused by the admission gate.
fn probe(handle: &ServerHandle) -> Option<Client> {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    match reader.fill_buf() {
        // A bare close or the refusal line arrived unprompted.
        Ok([]) => None,
        Ok(_) => {
            let mut line = String::new();
            reader.read_line(&mut line).expect("refusal line");
            assert!(line.starts_with("ERR server at capacity"), "{line}");
            None
        }
        // Silence for 250ms: the connection was admitted and is waiting
        // for a command.
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            Some(Client {
                reader,
                writer: stream,
            })
        }
        Err(e) => panic!("probe read failed: {e}"),
    }
}

#[test]
fn admission_gate_refuses_connections_over_the_cap() {
    let store = Arc::new(SynopsisStore::new(store_config(64, 4, 1 << 20)).unwrap());
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = RunningServer::start(Arc::clone(&store), config);
    let mut first = Client::connect(&server.handle);
    assert_eq!(first.cmd("PING"), "OK pong");

    // The only slot is taken: the next connection is answered with the
    // capacity ERR and closed, not queued forever.
    let mut second = Client::connect(&server.handle);
    assert!(second.recv().starts_with("ERR server at capacity"));
    let mut end = String::new();
    assert_eq!(second.reader.read_line(&mut end).expect("eof"), 0);
    drop(second);

    // Releasing the slot readmits new connections.
    first.quit();
    for _ in 0..100 {
        if let Some(mut readmitted) = probe(&server.handle) {
            assert_eq!(readmitted.cmd("PING"), "OK pong");
            readmitted.quit();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("the admission slot was never released");
}

#[test]
fn metrics_scrape_and_stats_json_cover_both_layers() {
    let store = Arc::new(SynopsisStore::new(store_config(64, 4, 32)).unwrap());
    let server = RunningServer::start(Arc::clone(&store), ServerConfig::default());
    let mut client = Client::connect(&server.handle);

    // Drive every instrumented path at least once: ingest (sealing some
    // memtables via the low threshold), queries, an ERR reply.
    ingest_over(&mut client, &workload(100, 3, 64));
    assert_eq!(client.cmd("SEAL"), "OK sealed");
    let _ = ok_value(&client.cmd("EST 7"));
    let _ = ok_value(&client.cmd("RANGE 0 63"));
    assert!(client.cmd("BOGUS").starts_with("ERR "));

    // STATS JSON: the versioned envelope, parseable back into StoreStats.
    let reply = client.cmd("STATS JSON");
    let json = reply.strip_prefix("OK ").expect("OK <json> reply");
    assert!(json.starts_with("{\"version\":1,"), "{json}");
    let parsed = pds_store::StoreStats::from_json(json).expect("parse STATS JSON");
    assert_eq!(parsed, store.stats());

    // METRICS: one scrape covers server and store series.
    let reply = client.cmd("METRICS");
    let text = String::from_utf8(client.recv_bin(&reply)).expect("exposition is UTF-8");
    for needle in [
        "pds_server_requests_total{verb=\"ingest\"} 1",
        "pds_server_requests_total{verb=\"est\"} 1",
        "pds_server_requests_total{verb=\"stats\"} 1",
        "pds_server_request_seconds_count{verb=\"range\"} 1",
        "pds_server_err_replies_total 1",
        "pds_server_connections_total 1",
        "pds_server_connections_active 1",
        "# TYPE pds_server_request_seconds histogram",
        "pds_store_ingested_records_total 100",
        // One client batch fans out to one per-shard commit group per
        // partition it touches — all 4, with 100 records over 64 items.
        "pds_store_ingest_batches_total 4",
        "# TYPE pds_store_query_seconds histogram",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let series: std::collections::HashSet<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| l.split(['{', ' ']).next())
        .collect();
    assert!(
        series.len() >= 25,
        "a scrape must expose at least 25 distinct series, got {}: {series:?}",
        series.len()
    );

    // METRICS EVENTS: the seal surfaced as a store event line.
    let reply = client.cmd("METRICS EVENTS");
    let events = String::from_utf8(client.recv_bin(&reply)).expect("events are UTF-8");
    assert!(
        events
            .lines()
            .any(|l| l.starts_with("store ") && l.contains("seal-installed")),
        "no seal-installed event in:\n{events}"
    );
    client.quit();
}

/// `EST`/`RANGE` are answered by the store in place — never through a
/// snapshot view — and report their scans into the store's telemetry:
/// every sealed segment of a touched partition is either visited or
/// pruned, so N requests move `visited + pruned` by exactly N times the
/// segments in the partitions the window spans, and the store's
/// `range_estimate` / `estimate` latency counts by exactly N.
#[test]
fn wire_queries_move_the_segment_scan_counters() {
    const REQUESTS: u64 = 25;
    let store = Arc::new(SynopsisStore::new(store_config(64, 4, 8)).unwrap());
    let server = RunningServer::start(Arc::clone(&store), ServerConfig::default());
    let mut client = Client::connect(&server.handle);
    ingest_over(&mut client, &workload(200, 11, 64));
    assert_eq!(client.cmd("SEAL"), "OK sealed");

    let counter = |name: &str| -> u64 {
        let text = store.render_metrics();
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
            .parse::<u64>()
            .expect("counter value")
    };
    let scanned =
        || counter("pds_store_segments_visited_total") + counter("pds_store_segments_pruned_total");
    let queries = |op: &str| counter(&format!("pds_store_query_seconds_count{{op=\"{op}\"}}"));
    let segments_in = |parts: std::ops::RangeInclusive<usize>| -> u64 {
        parts.map(|p| store.segments(p).len() as u64).sum()
    };
    assert!(segments_in(0..=3) >= 8, "need several segments a partition");
    let views = queries("snapshot_view");

    // Items 20..=40 span partitions 1 and 2 (16 items each).
    let (before, ranges) = (scanned(), queries("range_estimate"));
    for _ in 0..REQUESTS {
        let _ = ok_value(&client.cmd("RANGE 20 40"));
    }
    assert_eq!(scanned() - before, REQUESTS * segments_in(1..=2));
    assert_eq!(queries("range_estimate") - ranges, REQUESTS);

    // A point query touches one partition; an out-of-domain one, none.
    let (before, points) = (scanned(), queries("estimate"));
    for _ in 0..REQUESTS {
        let _ = ok_value(&client.cmd("EST 50"));
        assert_eq!(client.cmd("EST 64"), "OK 0");
    }
    assert_eq!(scanned() - before, REQUESTS * segments_in(3..=3));
    assert_eq!(queries("estimate") - points, 2 * REQUESTS);
    assert_eq!(
        queries("snapshot_view"),
        views,
        "no wire read builds a view"
    );
    client.quit();
}
