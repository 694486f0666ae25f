//! The TCP front-end: accept loop, worker pool, per-connection command
//! loop.  See the crate docs for the protocol and the concurrency model.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pds_core::error::PdsError;
use pds_core::io::read_stream;
use pds_core::pool;
use pds_core::telemetry::{Counter, Stopwatch};
use pds_store::SynopsisStore;

use crate::proto::{self, Command};
use crate::telemetry::ServerTelemetry;

/// Transport knobs; `..Default::default()` friendly.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission gate: connections admitted (queued + being served) at
    /// once.  Connections beyond the cap are answered
    /// `ERR server at capacity` and closed immediately — bounded queueing,
    /// no silent pile-up.
    pub max_connections: usize,
    /// Per-connection read timeout; a client idle longer is disconnected.
    pub read_timeout: Duration,
    /// Per-connection write timeout; a client draining slower than this is
    /// disconnected rather than parking a worker.
    pub write_timeout: Duration,
    /// Per-line byte cap (commands *and* ingest lines); longer lines are
    /// answered with `ERR`, the line is discarded, the connection
    /// survives.
    pub max_line_bytes: usize,
    /// Largest accepted `INGEST <count>`.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_line_bytes: proto::MAX_COMMAND_BYTES,
            max_batch: 1 << 20,
        }
    }
}

/// Accepted connections waiting for a worker, plus the shutdown latch.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
    /// Connections admitted and not yet finished (queued + in service);
    /// the admission gate compares this against `max_connections`.
    admitted: AtomicUsize,
}

impl ConnQueue {
    fn pop(&self) -> Option<TcpStream> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // Shutdown first: queued-but-unserved connections are dropped,
            // not served, so shutdown is never gated on idle clients.
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(stream) = queue.pop_front() {
                return Some(stream);
            }
            queue = self.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Handle for stopping a running [`Server`] from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to stop.  In-flight connections finish their
    /// current command loop; queued-but-unserved connections are dropped.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A bound, not-yet-serving server: [`Server::bind`] then
/// [`Server::serve`] (which blocks until [`ServerHandle::shutdown`]).
#[derive(Debug)]
pub struct Server {
    store: Arc<SynopsisStore>,
    listener: TcpListener,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    telemetry: Arc<ServerTelemetry>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over `store`.
    pub fn bind(
        store: Arc<SynopsisStore>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            store,
            listener,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            addr,
            telemetry: Arc::new(ServerTelemetry::new()),
        })
    }

    /// The bound address (the resolved port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop [`Server::serve`] from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.addr,
        }
    }

    /// Runs the accept loop, multiplexing connections over
    /// `pds_core::pool::num_threads()` worker threads (the workspace-wide
    /// `PDS_THREADS` resolution).  Blocks until [`ServerHandle::shutdown`];
    /// returns the first accept-loop I/O error, if any.
    pub fn serve(self) -> io::Result<()> {
        let workers = pool::num_threads().max(1);
        let conns = ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            admitted: AtomicUsize::new(0),
        };
        let store = &self.store;
        let config = &self.config;
        let telemetry = &self.telemetry;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(stream) = conns.pop() {
                        // Errors are per-connection: a broken socket ends
                        // that session, never the worker.
                        telemetry.record_admitted();
                        let result = serve_connection(store, config, telemetry, stream);
                        telemetry.record_closed(result.as_ref().err().map(io::Error::kind));
                        conns.admitted.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
            let result = self.accept_loop(&conns);
            conns.shutdown.store(true, Ordering::SeqCst);
            conns.ready.notify_all();
            result
        })
    }

    fn accept_loop(&self, conns: &ConnQueue) -> io::Result<()> {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            // Admission gate: reserve a slot or refuse loudly.
            let admitted = conns.admitted.fetch_add(1, Ordering::SeqCst);
            if admitted >= self.config.max_connections {
                conns.admitted.fetch_sub(1, Ordering::SeqCst);
                self.telemetry.record_refused();
                refuse(stream, &self.config);
                continue;
            }
            let mut queue = conns.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.push_back(stream);
            drop(queue);
            conns.ready.notify_one();
        }
    }
}

/// Best-effort `ERR` + close for a connection refused by the admission
/// gate.
fn refuse(mut stream: TcpStream, config: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.write_all(b"ERR server at capacity, retry later\n");
}

/// One line read through the bounded reader.
enum LineOutcome {
    /// End of stream before any byte of a new line.
    Eof,
    /// A complete line, newline stripped.
    Line(Vec<u8>),
    /// The line exceeded the cap; it was drained through its newline (or
    /// EOF) so the stream stays framing-aligned.
    Oversized,
}

/// Reads one `\n`-terminated line of at most `max` bytes without ever
/// buffering more than `max` bytes of an oversized line.
fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> io::Result<LineOutcome> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (consumed, saw_newline) = {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                return Ok(if line.is_empty() {
                    LineOutcome::Eof
                } else if line.len() > max {
                    LineOutcome::Oversized
                } else {
                    // A torn final line without its newline still counts as
                    // a (malformed or complete) command.
                    LineOutcome::Line(std::mem::take(&mut line))
                });
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let take = (pos + 1).min(buf.len());
                    line.extend_from_slice(&buf[..take]);
                    (take, true)
                }
                None => {
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if line.len() > max.saturating_add(1) {
            if !saw_newline {
                drain_through_newline(reader)?;
            }
            return Ok(LineOutcome::Oversized);
        }
        if saw_newline {
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(LineOutcome::Line(line));
        }
    }
}

/// Discards bytes up to and including the next newline (or EOF).
fn drain_through_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let (consumed, done) = {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                return Ok(());
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => ((pos + 1).min(buf.len()), true),
                None => (buf.len(), false),
            }
        };
        reader.consume(consumed);
        if done {
            return Ok(());
        }
    }
}

/// [`Write`] adapter feeding every byte written into the server's
/// bytes-written counter (lock-free, so counting costs one atomic add per
/// socket write).
struct CountingWriter<W: Write> {
    inner: W,
    written: Arc<Counter>,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The per-connection command loop.  Malformed input is answered with an
/// `ERR` line and the loop continues; I/O errors (including timeouts) end
/// the connection.
fn serve_connection(
    store: &Arc<SynopsisStore>,
    config: &ServerConfig,
    tel: &ServerTelemetry,
    stream: TcpStream,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let _ = stream.set_nodelay(true);
    let mut writer = CountingWriter {
        inner: stream.try_clone()?,
        written: tel.bytes_written_handle(),
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, config.max_line_bytes)? {
            LineOutcome::Eof => return Ok(()),
            LineOutcome::Oversized => {
                write_err(
                    tel,
                    &mut writer,
                    &format!("line exceeds {} bytes", config.max_line_bytes),
                )?;
                continue;
            }
            LineOutcome::Line(line) => line,
        };
        tel.add_bytes_read(line.len() as u64 + 1);
        let command = match proto::parse_command_bytes(&line) {
            Ok(command) => command,
            Err(e) => {
                write_err(tel, &mut writer, &e.message())?;
                continue;
            }
        };
        // Per-verb accounting: the request counts once it parses, and the
        // latency histogram spans execution including the reply write.
        tel.record_request(&command);
        let sw = Stopwatch::start();
        let quit = execute_command(store, config, tel, &mut reader, &mut writer, command)?;
        tel.record_latency(&command, sw);
        if quit {
            return Ok(());
        }
    }
}

/// Executes one parsed command, writing its reply; returns `true` for
/// `QUIT` (close after the reply).
fn execute_command<R: BufRead, W: Write>(
    store: &Arc<SynopsisStore>,
    config: &ServerConfig,
    tel: &ServerTelemetry,
    reader: &mut R,
    writer: &mut W,
    command: Command,
) -> io::Result<bool> {
    match command {
        Command::Ping => writer.write_all(b"OK pong\n")?,
        // Answered in place: the store captures only the spanned shards,
        // and no lock is held by the time the reply is written.
        Command::Est { item } => write_ok_value(writer, store.estimate(item))?,
        Command::Range { lo, hi } => write_ok_value(writer, store.range_estimate(lo, hi))?,
        Command::Stats { json: false } => {
            let stats = store.stats();
            let reply = format!(
                "OK ingested={} live={} seals={} segments={} split={}\n",
                stats.ingested_records,
                stats.live_records,
                stats.seals,
                stats.segments,
                stats.split_tuples
            );
            writer.write_all(reply.as_bytes())?;
        }
        Command::Stats { json: true } => match store.stats().to_json() {
            Ok(json) => writer.write_all(format!("OK {json}\n").as_bytes())?,
            Err(e) => write_err(tel, writer, &e.to_string())?,
        },
        Command::Metrics { events: false } => {
            // One scrape covers both layers: the server exposition first,
            // then the store's (disjoint series name prefixes).
            let mut text = tel.render();
            text.push_str(&store.render_metrics());
            write_ok_bin(writer, text.as_bytes())?;
        }
        Command::Metrics { events: true } => {
            let mut text = String::new();
            for line in tel.render_events() {
                text.push_str("server ");
                text.push_str(&line);
                text.push('\n');
            }
            for line in store.render_events() {
                text.push_str("store ");
                text.push_str(&line);
                text.push('\n');
            }
            write_ok_bin(writer, text.as_bytes())?;
        }
        Command::Merge { b } => match store.merge_global(b).and_then(|h| h.to_binary()) {
            Ok(bytes) => write_ok_bin(writer, &bytes)?,
            Err(e) => write_store_err(tel, writer, &e)?,
        },
        Command::Snapshot => match store.snapshot() {
            Ok(bytes) => write_ok_bin(writer, &bytes)?,
            Err(e) => write_store_err(tel, writer, &e)?,
        },
        Command::Seal => match store.seal_all() {
            Ok(()) => writer.write_all(b"OK sealed\n")?,
            Err(e) => write_store_err(tel, writer, &e)?,
        },
        Command::Ingest { count } => {
            ingest_batch(store, config, tel, reader, writer, count)?;
        }
        Command::Health => match store.degraded() {
            // Degraded is still `OK`: the probe succeeded and reads keep
            // serving — only the durable write path is down.
            None => writer.write_all(b"OK healthy\n")?,
            Some(cause) => {
                let clean: String = cause
                    .chars()
                    .map(|c| if c.is_control() { ' ' } else { c })
                    .collect();
                writer.write_all(format!("OK degraded {clean}\n").as_bytes())?;
            }
        },
        Command::Quit => {
            writer.write_all(b"OK bye\n")?;
            return Ok(true);
        }
    }
    Ok(false)
}

/// Consumes the `count` declared batch lines, then parses and ingests the
/// whole batch.  All `count` lines are consumed even when the batch is
/// rejected, so the connection stays framing-aligned; nothing from a
/// rejected batch reaches the store.
fn ingest_batch<R: BufRead>(
    store: &Arc<SynopsisStore>,
    config: &ServerConfig,
    tel: &ServerTelemetry,
    reader: &mut R,
    writer: &mut impl Write,
    count: usize,
) -> io::Result<()> {
    if count > config.max_batch {
        return write_err(
            tel,
            writer,
            &format!("INGEST count {count} exceeds the {} cap", config.max_batch),
        );
    }
    let mut text = String::new();
    let mut defect: Option<String> = None;
    for i in 0..count {
        match read_line_bounded(reader, config.max_line_bytes)? {
            LineOutcome::Eof => {
                // Torn batch: the client vanished mid-declaration.  Nothing
                // was ingested; there is no one left to answer.
                return Ok(());
            }
            LineOutcome::Oversized => {
                defect.get_or_insert_with(|| {
                    format!(
                        "ingest line {} exceeds {} bytes",
                        i + 1,
                        config.max_line_bytes
                    )
                });
            }
            LineOutcome::Line(line) => {
                tel.add_bytes_read(line.len() as u64 + 1);
                match String::from_utf8(line) {
                    Ok(record_line) => {
                        text.push_str(&record_line);
                        text.push('\n');
                    }
                    Err(_) => {
                        defect.get_or_insert_with(|| format!("ingest line {} is not UTF-8", i + 1));
                    }
                }
            }
        }
    }
    if let Some(reason) = defect {
        return write_err(tel, writer, &reason);
    }
    let outcome = read_stream(text.as_bytes()).and_then(|records| {
        let n = records.len();
        store.ingest_batch(records).map(|()| n)
    });
    match outcome {
        Ok(n) => writer.write_all(format!("OK {n}\n").as_bytes()),
        Err(e) => write_store_err(tel, writer, &e),
    }
}

/// Routes a store-surfaced error to its `ERR` form.  A degraded store
/// answers with the machine-matchable `ERR DEGRADED <cause>` so clients
/// can tell "this store is read-only now" from a malformed request;
/// everything else ships its display form.
fn write_store_err(tel: &ServerTelemetry, writer: &mut impl Write, e: &PdsError) -> io::Result<()> {
    match e {
        PdsError::Degraded { cause } => write_err(tel, writer, &format!("DEGRADED {cause}")),
        other => write_err(tel, writer, &other.to_string()),
    }
}

fn write_ok_value(writer: &mut impl Write, value: f64) -> io::Result<()> {
    // Rust's shortest round-trip float formatting: parsing the reply text
    // back yields the bit-identical f64.
    writer.write_all(format!("OK {value}\n").as_bytes())
}

fn write_ok_bin(writer: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    writer.write_all(format!("OK BIN {}\n", bytes.len()).as_bytes())?;
    writer.write_all(bytes)
}

/// One sanitised `ERR` line: the reason can never smuggle a newline.
/// Every command-loop `ERR` reply routes through here, so
/// `pds_server_err_replies_total` counts them all.
fn write_err(tel: &ServerTelemetry, writer: &mut impl Write, reason: &str) -> io::Result<()> {
    tel.record_err_reply();
    let clean: String = reason
        .chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect();
    writer.write_all(format!("ERR {clean}\n").as_bytes())
}
