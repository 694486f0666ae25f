//! # pds-server
//!
//! A concurrent TCP front-end serving approximate-query-processing reads
//! (and ingest) over a [`SynopsisStore`] — the network surface on top of
//! the panic-free query path: reads are answered by the store in place,
//! through its one version-fenced capture (brief read guards on only the
//! shards a window spans, nothing copied), so queries never block ingest
//! and never hold a shard lock across socket I/O.
//!
//! ## Protocol
//!
//! Line-oriented text commands, one per line (`\n`-terminated; a trailing
//! `\r` is tolerated).  Fields are separated by ASCII whitespace and verbs
//! are case-sensitive upper-case.  Every command is answered by exactly one
//! response line — optionally followed by a raw binary body — so clients
//! can pipeline freely:
//!
//! | Command | Reply | Meaning |
//! |---|---|---|
//! | `PING` | `OK pong` | liveness probe |
//! | `EST <item>` | `OK <f64>` | expected frequency of one item |
//! | `RANGE <lo> <hi>` | `OK <f64>` | expected total frequency over the inclusive range |
//! | `STATS` | `OK ingested=<u64> live=<u64> seals=<u64> segments=<n> split=<u64>` | point-in-time counters |
//! | `STATS JSON` | `OK {"version":1,"stats":{…}}` | the same counters as the versioned single-line JSON envelope ([`StoreStats::to_json`]) |
//! | `MERGE <b>` | `OK BIN <len>` + `<len>` bytes | global `b`-bucket merged histogram, `PDSH` binio envelope |
//! | `SNAPSHOT` | `OK BIN <len>` + `<len>` bytes | seal everything and serialise, `PDST` binio envelope |
//! | `INGEST <count>` | `OK <records>` | the next `count` lines are stream-format records (see below) |
//! | `SEAL` | `OK sealed` | seal every live memtable (the segments are installed when the reply arrives) |
//! | `METRICS` | `OK BIN <len>` + `<len>` bytes | telemetry scrape: Prometheus-style text exposition, server + store series |
//! | `METRICS EVENTS` | `OK BIN <len>` + `<len>` bytes | recent notable events, one `server …`/`store …` line each, oldest first |
//! | `HEALTH` | `OK healthy` \| `OK degraded <cause>` | store health probe (degraded = sticky read-only mode, see below) |
//! | `QUIT` | `OK bye` | close the connection |
//!
//! Replies beginning `OK` are successes; anything the server cannot parse
//! or execute is answered with a single `ERR <reason>` line and the
//! **connection survives** — a malformed, oversized, or torn command can
//! cost at most its own batch, never the process or the session.  Float
//! replies use Rust's shortest round-trip formatting, so parsing the text
//! back yields bit-identical values to direct [`SynopsisStore`] calls.
//!
//! **Out-of-domain reads are zero, not errors.**  `EST <item>` with
//! `item` at or past the domain size, and `RANGE <lo> <hi>` whose window
//! misses the domain entirely (`hi < lo`, or `lo` past the last item),
//! answer the literal line `OK 0` — a well-formed question about items
//! the store doesn't track has zero expected mass.  An in-domain `lo`
//! with an oversized `hi` is clamped to the last item and answers the
//! tail normally.  Clients may match the `OK 0` text; the contract is
//! pinned by the integration suite and shared bit-for-bit with direct
//! [`SynopsisStore`] calls (both route through the same `clamp_range`).
//!
//! **`MERGE` is served from the merged-synopsis cache when possible.**
//! The store memoises the most recent global merge keyed on its internal
//! version counter (bumped at every structural commit: a sealed-segment
//! install or a compaction swap) plus the bucket budget `b`.  Repeating
//! `MERGE <b>` against a structurally unchanged store replays the cached
//! histogram — byte-identical body, no DP recomputation — and any seal
//! or compaction invalidates the entry, so a reply is always exactly
//! what a fresh merge would produce.  The wire shape never changes;
//! cache effectiveness is visible as
//! `pds_store_merge_cache_{hits,misses}_total` in `METRICS` scrapes.
//!
//! ## Degraded read-only mode
//!
//! When the store's durable write path fails persistently (a WAL, segment
//! blob or manifest write still failing after its bounded retries), the
//! store flips into **sticky degraded read-only mode** rather than
//! crashing or silently dropping data: every acknowledged record stays
//! queryable, and reads (`EST`, `RANGE`, `STATS`, `MERGE`, `METRICS`)
//! keep serving.  The server surfaces the mode two ways:
//!
//! * `HEALTH` answers `OK degraded <cause>` (still `OK` — the probe
//!   itself succeeded; only the write path is down).
//! * Write verbs (`INGEST`, `SEAL`, `SNAPSHOT`) answer
//!   `ERR DEGRADED <cause>` — the machine-matchable prefix lets clients
//!   tell "this store is read-only now, fail over" from a bad request.
//!   Every write verb is synchronous: a seal that an `INGEST` batch
//!   triggers runs on that connection's worker, off the shard lock (so
//!   concurrent readers and writers of the partition are not stalled by
//!   the build or the disk), and has committed — or reported its error —
//!   by the time the batch is acknowledged.  There is nothing to wait for
//!   afterwards, hence no `FLUSH` verb.
//!
//! The mode is cleared only by restarting the server over the reopened
//! directory (recovery replays the durable state).  The store-side
//! `pds_store_degraded` gauge and `io-error`/`degraded` events appear in
//! `METRICS` / `METRICS EVENTS` scrapes.
//!
//! `INGEST <count>` is followed by exactly `count` lines in the existing
//! stream text format of `pds_core::io` (`b <item> <prob>`,
//! `x <item>:<prob> ...`, `v <item> <freq>:<prob> ...`, `#` comments and
//! blank lines ignored).  The batch is parsed **after** all `count` lines
//! are consumed, so a malformed record rejects the whole batch with `ERR`
//! while the connection stays framing-aligned; nothing from a rejected
//! batch is ingested.  Bulk responses (`MERGE`, `SNAPSHOT`) reuse the
//! workspace's versioned binio envelopes verbatim — the `<len>` bytes
//! after `OK BIN <len>` are exactly what `Histogram::from_binary` /
//! `SynopsisStore::from_binary` accept.
//!
//! ## Concurrency model
//!
//! Connections are multiplexed over a fixed worker pool sized by
//! `pds_core::pool::num_threads()` — the same `PDS_THREADS` /
//! `set_num_threads` resolution every other parallel path in the
//! workspace uses.  An admission gate caps concurrently admitted
//! connections ([`ServerConfig::max_connections`]); excess connections are
//! answered `ERR server at capacity` and closed instead of queueing
//! unboundedly.  Every connection carries read and write timeouts, and a
//! per-line byte cap bounds memory per connection.
//!
//! The whole crate is covered by the pds-analyze **panic-freedom** rule
//! (and lock-discipline): no `unwrap`/`expect`/indexing on the serving
//! path, no lock held across I/O — hostile input degrades to `ERR` lines.
//!
//! ## Observability
//!
//! The server keeps its own always-on telemetry (`pds_core::telemetry`
//! atomics — recording never locks or allocates): per-verb request
//! counters and log₂-bucketed latency histograms
//! (`pds_server_requests_total{verb="…"}`,
//! `pds_server_request_seconds…{verb="…"}` — latency spans execution
//! including the reply write), bytes read/written, connections
//! total/active/refused, timeout-terminated connections, and `ERR` reply
//! lines written by the command loop (capacity refusals are counted under
//! `pds_server_connections_refused_total` instead).  `METRICS`
//! concatenates this server exposition with
//! [`SynopsisStore::render_metrics`] — one scrape covers both layers —
//! and `METRICS EVENTS` dumps the bounded event rings (each line
//! prefixed `server ` or `store `, then `t=<secs-since-start>` and the
//! decoded event).  Store-side recording is unconditional and
//! bit-invisible to query results; see the pds-store crate docs.
//!
//! [`SynopsisStore`]: pds_store::SynopsisStore
//! [`SynopsisStore::render_metrics`]: pds_store::SynopsisStore::render_metrics
//! [`StoreStats::to_json`]: pds_store::StoreStats::to_json

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod proto;
mod server;
mod telemetry;

pub use server::{Server, ServerConfig, ServerHandle};
