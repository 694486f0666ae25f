//! Server-side instrumentation: per-verb request counters and latency
//! histograms, connection/byte accounting and a bounded event ring,
//! rendered (together with the store's exposition) by the `METRICS`
//! verb.
//!
//! Unlike the store's knob-gated telemetry, the server always records —
//! the per-request cost is a few relaxed atomic adds, far below the
//! socket round-trip it measures.  All primitives are
//! `pds_core::telemetry` atomics: recording never locks, never
//! allocates, and every path here is held to the crate's panic-freedom
//! rule (guarded indexing, no unwraps).

use std::sync::Arc;

use pds_core::telemetry::{Counter, EventRing, Gauge, LatencyHistogram, Registry, Stopwatch};

use crate::proto::Command;

/// Event-kind tags of the server's [`EventRing`].
mod event {
    /// A connection refused by the admission gate.
    pub const CONN_REFUSED: u64 = 1;
}

/// Label values of the per-verb series, indexed by [`verb_index`].
const VERBS: [&str; 11] = [
    "ping", "est", "range", "stats", "merge", "ingest", "seal", "snapshot", "metrics", "health",
    "quit",
];

/// The per-verb series index of a parsed command.
fn verb_index(command: &Command) -> usize {
    match command {
        Command::Ping => 0,
        Command::Est { .. } => 1,
        Command::Range { .. } => 2,
        Command::Stats { .. } => 3,
        Command::Merge { .. } => 4,
        Command::Ingest { .. } => 5,
        Command::Seal => 6,
        Command::Snapshot => 7,
        Command::Metrics { .. } => 8,
        Command::Health => 9,
        Command::Quit => 10,
    }
}

/// Events retained for `METRICS EVENTS`.
const EVENT_CAPACITY: usize = 128;

/// All server-side metric series plus the event ring (see the module
/// docs).  One per [`Server`](crate::Server), shared with every worker.
#[derive(Debug)]
pub(crate) struct ServerTelemetry {
    registry: Registry,
    events: EventRing,
    requests: Vec<Arc<Counter>>,
    request_seconds: Vec<Arc<LatencyHistogram>>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    connections: Arc<Counter>,
    active: Arc<Gauge>,
    refused: Arc<Counter>,
    timeouts: Arc<Counter>,
    err_replies: Arc<Counter>,
}

impl ServerTelemetry {
    /// Registers every server series (one counter + histogram per verb).
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let requests = VERBS
            .iter()
            .map(|verb| registry.counter("pds_server_requests_total", &format!("verb=\"{verb}\"")))
            .collect();
        let request_seconds = VERBS
            .iter()
            .map(|verb| {
                registry.histogram("pds_server_request_seconds", &format!("verb=\"{verb}\""))
            })
            .collect();
        ServerTelemetry {
            requests,
            request_seconds,
            bytes_read: registry.counter("pds_server_bytes_read_total", ""),
            bytes_written: registry.counter("pds_server_bytes_written_total", ""),
            connections: registry.counter("pds_server_connections_total", ""),
            active: registry.gauge("pds_server_connections_active", ""),
            refused: registry.counter("pds_server_connections_refused_total", ""),
            timeouts: registry.counter("pds_server_timeouts_total", ""),
            err_replies: registry.counter("pds_server_err_replies_total", ""),
            events: EventRing::new(EVENT_CAPACITY),
            registry,
        }
    }

    /// A handle to the bytes-written counter, for wrapping a connection's
    /// writer in the transport's `CountingWriter`.
    pub(crate) fn bytes_written_handle(&self) -> Arc<Counter> {
        Arc::clone(&self.bytes_written)
    }

    /// One parsed command about to execute; bump its verb counter.
    pub(crate) fn record_request(&self, command: &Command) {
        if let Some(counter) = self.requests.get(verb_index(command)) {
            counter.inc();
        }
    }

    /// The execution latency of one command (reply written included).
    pub(crate) fn record_latency(&self, command: &Command, sw: Stopwatch) {
        if let Some(hist) = self.request_seconds.get(verb_index(command)) {
            hist.observe(sw);
        }
    }

    /// `n` request bytes consumed off a connection.
    pub(crate) fn add_bytes_read(&self, n: u64) {
        self.bytes_read.add(n);
    }

    /// One connection admitted and handed to a worker.
    pub(crate) fn record_admitted(&self) {
        self.connections.inc();
        self.active.add(1.0);
    }

    /// A served connection finished (cleanly or not); a timeout error is
    /// counted separately.
    pub(crate) fn record_closed(&self, error: Option<std::io::ErrorKind>) {
        self.active.add(-1.0);
        if matches!(
            error,
            Some(std::io::ErrorKind::TimedOut) | Some(std::io::ErrorKind::WouldBlock)
        ) {
            self.timeouts.inc();
        }
    }

    /// One connection refused by the admission gate.
    pub(crate) fn record_refused(&self) {
        self.refused.inc();
        self.events.push(event::CONN_REFUSED, 0, 0, 0);
    }

    /// One `ERR` reply line written.
    pub(crate) fn record_err_reply(&self) {
        self.err_replies.inc();
    }

    /// The server half of the `METRICS` exposition.
    pub(crate) fn render(&self) -> String {
        self.registry.render()
    }

    /// The retained server events, oldest first, one decoded line each.
    pub(crate) fn render_events(&self) -> Vec<String> {
        self.events.dump(|kind, a, b, c| match kind {
            event::CONN_REFUSED => "connection-refused at-capacity".to_string(),
            other => format!("unknown-event kind={other} a={a} b={b} c={c}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_verb_series_count_independently() {
        let tel = ServerTelemetry::new();
        tel.record_request(&Command::Ping);
        tel.record_request(&Command::Est { item: 1 });
        tel.record_request(&Command::Est { item: 2 });
        let sw = Stopwatch::start();
        tel.record_latency(&Command::Est { item: 1 }, sw);
        tel.add_bytes_read(10);
        tel.record_admitted();
        tel.record_closed(Some(std::io::ErrorKind::TimedOut));
        tel.record_refused();
        tel.record_err_reply();
        let text = tel.render();
        assert!(text.contains("pds_server_requests_total{verb=\"ping\"} 1"));
        assert!(text.contains("pds_server_requests_total{verb=\"est\"} 2"));
        assert!(text.contains("pds_server_requests_total{verb=\"quit\"} 0"));
        assert!(text.contains("pds_server_request_seconds_count{verb=\"est\"} 1"));
        assert!(text.contains("pds_server_bytes_read_total 10"));
        assert!(text.contains("pds_server_connections_total 1"));
        assert!(text.contains("pds_server_connections_active 0"));
        assert!(text.contains("pds_server_connections_refused_total 1"));
        assert!(text.contains("pds_server_timeouts_total 1"));
        assert!(text.contains("pds_server_err_replies_total 1"));
        let events = tel.render_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("connection-refused"));
    }

    #[test]
    fn every_command_maps_to_a_registered_verb() {
        let commands = [
            Command::Ping,
            Command::Est { item: 0 },
            Command::Range { lo: 0, hi: 1 },
            Command::Stats { json: false },
            Command::Merge { b: 4 },
            Command::Ingest { count: 1 },
            Command::Seal,
            Command::Snapshot,
            Command::Metrics { events: false },
            Command::Health,
            Command::Quit,
        ];
        let mut seen = [false; VERBS.len()];
        for command in &commands {
            let i = verb_index(command);
            assert!(!seen[i], "verb index {i} mapped twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "every verb label is reachable");
    }
}
