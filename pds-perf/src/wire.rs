//! The real `pds-server` on a loopback socket, and the client side of its
//! line protocol.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pds_core::pool;
use pds_server::{Server, ServerConfig, ServerHandle};
use pds_store::SynopsisStore;

pub type Result<T> = std::result::Result<T, String>;

fn io_err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// A serving `pds-server` over `store`, plus the count of client
/// connections open against it.
pub struct ServerUnderTest {
    pub store: Arc<SynopsisStore>,
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    /// `Server::serve` pins one of its `pool::num_threads()` workers per
    /// open connection; one more would queue silently behind an idle one.
    workers: usize,
    open: Arc<AtomicUsize>,
}

impl ServerUnderTest {
    pub fn start(store: SynopsisStore) -> Result<ServerUnderTest> {
        let store = Arc::new(store);
        let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
            .map_err(io_err("bind 127.0.0.1:0"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(ServerUnderTest {
            store,
            addr,
            handle,
            thread,
            workers: pool::num_threads().max(1),
            open: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Opens a client connection, or refuses when every server worker
    /// already has one — the benchmark would hang, not slow down.
    pub fn connect(&self) -> Result<Conn> {
        let open = self.open.fetch_add(1, Ordering::SeqCst);
        if open >= self.workers {
            self.open.fetch_sub(1, Ordering::SeqCst);
            return Err(format!(
                "connection budget: {open} connections are open and the server has {} workers \
                 (pool::num_threads); close one first or raise PDS_THREADS",
                self.workers
            ));
        }
        let stream = TcpStream::connect(self.addr).map_err(io_err("connect"))?;
        stream.set_nodelay(true).map_err(io_err("set_nodelay"))?;
        let reader = BufReader::with_capacity(
            64 << 10,
            stream.try_clone().map_err(io_err("clone socket"))?,
        );
        Ok(Conn {
            stream,
            reader,
            line: Vec::new(),
            open: Arc::clone(&self.open),
        })
    }

    /// Stops the accept loop and joins the server; every connection must be
    /// closed first (a worker serves its connection until the client leaves).
    pub fn stop(self) -> Result<Arc<SynopsisStore>> {
        let open = self.open.load(Ordering::SeqCst);
        if open != 0 {
            return Err(format!(
                "server stopped with {open} client connections still open"
            ));
        }
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(self.store),
            Ok(Err(e)) => Err(format!("server accept loop: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One client connection.  Dropping it frees its slot in the budget;
/// [`Conn::quit`] also waits for the server's goodbye, so the worker is free
/// before the next connection opens.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    open: Arc<AtomicUsize>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Conn {
    pub fn send(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream.write_all(bytes).map_err(io_err("send"))
    }

    /// The next reply line, newline stripped.
    pub fn reply(&mut self) -> Result<&[u8]> {
        self.line.clear();
        let read = self
            .reader
            .read_until(b'\n', &mut self.line)
            .map_err(io_err("read reply"))?;
        if read == 0 {
            return Err("server closed the connection".into());
        }
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
        }
        Ok(&self.line)
    }

    /// The next reply, which must be `OK <rest>`; returns `<rest>`.
    pub fn reply_ok(&mut self) -> Result<&str> {
        let line = self.reply()?;
        match line.strip_prefix(b"OK ") {
            Some(rest) => std::str::from_utf8(rest).map_err(|e| format!("reply is not UTF-8: {e}")),
            None => Err(format!(
                "expected OK, got {:?}",
                String::from_utf8_lossy(line)
            )),
        }
    }

    /// The next reply as the float of `OK <f64>`.
    pub fn reply_value(&mut self) -> Result<f64> {
        let rest = self.reply_ok()?;
        rest.parse()
            .map_err(|_| format!("expected OK <f64>, got OK {rest}"))
    }

    /// The body of an `OK BIN <len>` reply.
    pub fn reply_bin(&mut self) -> Result<Vec<u8>> {
        let rest = self.reply_ok()?;
        let len: usize = rest
            .strip_prefix("BIN ")
            .and_then(|len| len.parse().ok())
            .ok_or_else(|| format!("expected OK BIN <len>, got OK {rest}"))?;
        let mut body = vec![0; len];
        self.reader
            .read_exact(&mut body)
            .map_err(io_err("read body"))?;
        Ok(body)
    }

    /// Sends one command line and returns the rest of its `OK` reply.
    pub fn command(&mut self, line: &str) -> Result<String> {
        self.send(format!("{line}\n").as_bytes())?;
        self.reply_ok().map(str::to_owned)
    }

    pub fn quit(mut self) -> Result<()> {
        self.command("QUIT").map(drop)
    }

    /// `METRICS`: the server's and the store's exposition in one scrape.
    pub fn scrape(&mut self) -> Result<Scrape> {
        self.send(b"METRICS\n")?;
        let body = self.reply_bin()?;
        let mut scrape = Scrape::parse(&String::from_utf8_lossy(&body));
        scrape.reply_bytes = format!("OK BIN {}\n", body.len()).len() + body.len();
        Ok(scrape)
    }
}

/// A parsed Prometheus-style exposition.
#[derive(Default, Clone)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
    /// Bytes of the `METRICS` reply that carried it (0 when rendered
    /// in-process): the server counts them as written only after it has
    /// rendered, so they show up in the *next* scrape.
    pub reply_bytes: usize,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.parse::<f64>() {
                    series.insert(name.to_owned(), value);
                }
            }
        }
        Scrape {
            series,
            reply_bytes: 0,
        }
    }

    /// The series `name`, summed over its label sets (a missing series is
    /// an error: the name was mistyped or the program dropped it).
    pub fn sum(&self, name: &str) -> Result<f64> {
        self.sum_where(name, "")
    }

    /// As [`Scrape::sum`], over the label sets containing `label`.
    pub fn sum_where(&self, name: &str, label: &str) -> Result<f64> {
        let mut found = false;
        let mut total = 0.0;
        for (series, value) in self.series.range(name.to_owned()..) {
            let Some(rest) = series.strip_prefix(name) else {
                break;
            };
            if (rest.is_empty() || rest.starts_with('{')) && rest.contains(label) {
                found = true;
                total += value;
            }
        }
        found
            .then_some(total)
            .ok_or_else(|| format!("METRICS has no series {name} {label}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn a_connection_beyond_the_server_workers_is_refused_not_queued() {
        let store = SynopsisStore::new(spec::store_config()).expect("in-memory store");
        let server = ServerUnderTest::start(store).expect("server");
        let held: Vec<Conn> = (0..server.workers)
            .map(|_| server.connect().expect("within budget"))
            .collect();
        let refused = server.connect().err().expect("one connection too many");
        assert!(refused.contains("connection budget"), "{refused}");
        assert!(
            server.open.load(Ordering::SeqCst) == server.workers,
            "a refusal must not leak a slot"
        );
        // A closed connection frees its slot.
        let mut held = held;
        held.pop().expect("a connection").quit().expect("QUIT");
        let again = server.connect().expect("a slot was freed");
        assert_eq!(again_reply(again), "pong");
        held.into_iter().for_each(|conn| conn.quit().expect("QUIT"));
        server.stop().expect("clean stop");
    }

    fn again_reply(mut conn: Conn) -> String {
        let reply = conn.command("PING").expect("PING");
        conn.quit().expect("QUIT");
        reply
    }

    #[test]
    fn scrape_sums_label_sets_and_rejects_unknown_series() {
        let scrape =
            Scrape::parse("# TYPE a counter\na{p=\"0\"} 2\na{p=\"1\"} 3\na_total 7\nb 1.5\n");
        assert_eq!(scrape.sum("a"), Ok(5.0));
        assert_eq!(scrape.sum_where("a", "p=\"1\""), Ok(3.0));
        assert_eq!(scrape.sum("b"), Ok(1.5));
        assert!(scrape.sum("c").is_err());
    }
}
