//! # pds-store
//!
//! A **partitioned streaming-ingest and persistent synopsis store** on top
//! of the paper's probabilistic histogram and wavelet synopses: the
//! scale-out path from "build one synopsis over one relation" to "serve
//! approximate queries over a stream of arriving uncertain tuples".
//!
//! The lifecycle mirrors an LSM tree, with synopses in place of sorted runs:
//!
//! 1. **Ingest** — arriving [`StreamRecord`]s (any of the three uncertainty
//!    models) are routed to the item-range partition that owns them and
//!    buffered in that partition's [`Memtable`], which keeps exact expected
//!    frequencies (so live data stays queryable) and per-item variances
//!    incrementally.
//! 2. **Seal** — when a memtable reaches the configured threshold it is
//!    sealed into an immutable [`Segment`] carrying the configured synopsis
//!    (histogram via the batched-sweep DP, or an SSE-optimal wavelet).  One
//!    `match` on (synopsis kind, buffer content) picks the input: the
//!    wavelet reads the expected frequencies, the SSE histogram over
//!    independent items reads the moment sums, and only x-tuple buffers
//!    without value pdfs and the non-SSE metrics turn the records into a
//!    probabilistic relation first.
//! 3. **Compact** — segments of one partition are recombined by summing
//!    their piecewise-constant estimates on the union of their boundaries
//!    and re-running the merge DP.  A size-tiered [`CompactionPolicy`]
//!    triggers rounds automatically at install time (run by the installing
//!    thread against cloned segment handles, swapped in under a short
//!    write lock); [`SynopsisStore::merge_global`] recombines all
//!    partitions into one global `B`-bucket histogram (the candidate cut
//!    points are exactly the partition/bucket edges).
//! 4. **Serve** — range-sum/count estimates
//!    ([`SynopsisStore::range_estimate`], [`SynopsisStore::estimate`],
//!    which the server's `RANGE` and `EST` call) combine live memtables
//!    with sealed segments.  The read path is **sub-linear in store size**
//!    (see below): segment pruning, lazily-loaded synopsis blocks and a
//!    merged-synopsis cache keep a point query from touching cold segments
//!    at all.
//!
//! ## Read path
//!
//! The whole read side lives in one module (`query.rs`) and has **no
//! knobs**.  Reads are answered **in place**: every reader that spans
//! partitions — queries, `merge_global`, `to_binary`, `snapshot_view` —
//! takes its shards through one version-fenced capture (brief read guards,
//! retried until no seal install or compaction swap interleaved, else all
//! guards at once), so each sees one consistent cut, and a query captures
//! only the partitions its window spans.  Three layers make reads skip
//! work without changing a single bit of any answer (pinned bitwise
//! against a full-walk reference, with count assertions on the work
//! skipped, by `tests/store_read_path.rs`; timed by `pds-perf`):
//!
//! * **Segment pruning.**  Every sealed segment carries prune metadata in
//!   its blob: the item-range fence and a small presence filter over the
//!   items its synopsis actually supports.  One accumulation kernel serves
//!   [`SynopsisStore::range_estimate`] and the detached [`SnapshotView`]
//!   alike: it consults the fence/filter first and skips segments whose
//!   metadata proves a zero contribution.  Skipping is **bit-invisible**
//!   because a skipped segment's range sum is exactly `0.0` and the
//!   accumulation order of the remaining terms is preserved (segments in
//!   install order, then the live memtable, then each frozen memtable);
//!   `pds_store_segments_{visited,pruned}_total` count the effect, for
//!   store and view queries both.
//! * **Lazy synopsis blocks.**  Blobs are block-structured (see below), and
//!   [`SynopsisStore::open_with_wal`] always verifies and maps only each
//!   blob's header, footer and prune-metadata block — corruption there
//!   fails the open.  The synopsis block loads on first touch, so a
//!   pruned-away or never-queried segment is never read from disk again.
//!   Loads go through the fault-injectable vfs under the `block-read`
//!   site: a corrupt or unreadable block surfaces at first touch as the
//!   sticky degraded mode (the segment contributes `0.0`; reads keep
//!   serving; a clean reopen recovers).
//! * **Merged-synopsis cache.**  [`SynopsisStore::merge_global`] memoises
//!   its result keyed on the store's version counter (bumped at every
//!   structural commit: a sealed-segment install or a compaction swap) and
//!   the bucket budget; a repeat merge over a structurally unchanged store
//!   replays the cached histogram bit-identically.
//!   `pds_store_merge_cache_{hits,misses}_total` make the hit rate
//!   observable.
//!
//! Query bounds share one contract, `clamp_range`: an empty store, a
//! window past the domain, or an inverted window answers `0.0` (the
//! server pins this as the literal `OK 0` wire line); an in-domain `lo`
//! with an oversized `hi` clamps to the last item.
//!
//! ## Crash durability
//!
//! A store opened with [`SynopsisStore::open_with_wal`] is **restart-safe
//! end to end**.  Three artefacts share its directory, each CRC-checked:
//!
//! * **WAL** ([`wal`]) — every routed record as a binary frame whose every
//!   byte, length included, is CRC-checked; group-committed once per ingest
//!   call per touched shard; covers the live and mid-seal window.
//! * **Segment blobs** — at install, each sealed segment is published as
//!   `seg-<p>-<seq>.bin` in the block-structured `PDSB` v2 container
//!   ([`blob`]): a prune-metadata block (item fence + presence filter) and
//!   the `PDSG` synopsis block, each CRC-checked, behind an index footer —
//!   so reopen can verify and map the metadata without reading the
//!   synopsis bytes (atomic tmp-rename publish).  This is the only layout:
//!   a v1 / unframed blob fails the open with an error naming the file.
//! * **`MANIFEST`** ([`manifest`]) — the append-only, versioned record of
//!   which blobs are live; *a manifest entry is a seal's commit point*, and
//!   compaction replaces entries through an atomic tmp-rename publish.
//!
//! Reopen order is **manifest → segment blobs → WAL tail**.  What a crash
//! can cost at each lifecycle stage — and, since the fault-injectable vfs
//! layer, what a *failing disk* at the same stage does to a store that
//! stays up (fault sites from [`FAULT_SITES`]; "degrades" means the sticky
//! read-only mode of [`SynopsisStore::degraded`], entered only after the
//! bounded retry budget — two retries, a constant of the store — is
//! exhausted):
//!
//! | crash while the record/segment is… | crash outcome | I/O failure at the same stage (site) |
//! |---|---|---|
//! | buffered in a live memtable | replayed from the WAL (checksummed frames: a torn final frame is dropped, never replayed wrong; a damaged one fails the open) | `wal-append` degrades before the memtable insert (nothing acknowledged, nothing lost; the counters do not move, though another shard's sub-batch of the same call — a split x-tuple's other half included — may have landed); `wal-commit` degrades after it (the batch is unacknowledged but visible — the documented over-inclusion window) |
//! | frozen, segment build in flight (no shard lock held; queries read the frozen memtable) | replayed from the frozen WAL log | `wal-rotate` restores the records to the live memtable and degrades |
//! | built, blob/manifest not yet written (still off-lock) | replayed from the frozen WAL log | `blob-write` / `blob-publish` unfreeze the records back into the live memtable and WAL, then degrade |
//! | **installed** (manifest entry written; the short write lock swaps the segment in and retires the frozen log) | reloaded from its blob via the manifest | `manifest-install` unfreezes and degrades (the published blob becomes an orphan, swept at the next reopen); a failed `wal-retire` afterwards is counted, never fatal — the manifest entry already covers the log |
//! | mid-compaction (merge or swap) | inputs stay authoritative until the manifest publish; the half-done output blob is swept at reopen | `manifest-replace` degrades with the inputs still authoritative; a failed superseded-blob `cleanup` is counted, never fatal |
//! | being recovered at reopen | n/a | `recovery-read` / `recovery-commit` abort [`SynopsisStore::open_with_wal`] with a [`PdsError`] — an open never half-succeeds or degrades |
//! | installed, synopsis block loaded lazily at first query | n/a (blocks reload from the blob) | `block-read` degrades at first touch: the segment contributes `0.0`, reads keep serving, writes refuse; a clean reopen recovers |
//!
//! Every deliverable of that table is pinned by the deterministic
//! crash-injection matrix (`tests/store_crash_matrix.rs`, labels in
//! [`crashpoint`]), the exhaustive **fault matrix**
//! (`tests/store_fault_matrix.rs`: every [`FAULT_SITES`] label × every
//! `pds_core::vfs::fault::ErrorClass`, 60 rows) and the corruption/fault
//! property suites: a torn file replays exactly the acknowledged prefix, a
//! bit-flipped blob or frame is a [`PdsError`], an injected EIO/ENOSPC/
//! short-write/fsync/rename failure is retried, degraded or counted per
//! the table — never a panic, never a silently wrong answer.  Transient
//! faults on idempotent steps are absorbed by the bounded retry (two
//! retries, exponential backoff from 1 ms — constants, not options: no
//! caller ever set them); appends are the designed exception (a partially
//! buffered frame cannot be rewound), so they degrade on first failure.
//! Dropping a degraded handle and reopening the directory recovers a
//! healthy, writable store.
//!
//! Persistence of whole stores additionally uses the versioned **compact
//! binary format** (see `pds_core::binio`): segments and stores encode to
//! self-describing byte blobs whose corrupted/truncated/version-skewed
//! variants decode to [`PdsError`]s.  Store types have this one encoding
//! (JSON stays on the embedded `Histogram` / `WaveletSynopsis` and on
//! [`StoreStats`], the `STATS JSON` wire form).
//! [`SynopsisStore::snapshot`] seals everything live and serialises in one
//! step.
//!
//! ## Concurrency
//!
//! The store is **concurrent and sharded**: every partition sits behind its
//! own reader–writer lock and all mutating operations take `&self`.  The
//! write side exists once:
//!
//! * **One ingest path.**  [`SynopsisStore::ingest_batch`] routes a batch
//!   to shards lock-free, then — in partition order, on the calling thread
//!   — inserts each shard's sub-batch under its lock and group-commits its
//!   WAL once; [`SynopsisStore::ingest`] is a batch of one.  Dispatch is
//!   single-threaded per call by design (a pooled dispatch measured
//!   0.81–1.12x): write parallelism comes from concurrent callers.
//! * **One seal sequence, never under a shard guard.**  A full memtable is
//!   *frozen* under the write lock (an `O(1)` swap plus the WAL rotation),
//!   the guard drops, and the thread that froze it builds the segment,
//!   publishes the blob and commits the manifest entry with no lock held;
//!   a short write lock then swaps the segment in (or, on failure, returns
//!   the records to the live memtable).  Threshold seals inside ingest,
//!   [`SynopsisStore::seal_partition`] and [`SynopsisStore::seal_all`] all
//!   run that one sequence, and `pds-analyze` rejects a call to it under a
//!   live guard.  Compaction likewise holds the write lock only to reserve
//!   a round and to swap the merged segment in.
//! * **What a query sees while a seal is in flight.**  The frozen memtable
//!   stays on its shard (shared with the sealing thread) until the segment
//!   installs, and the swap is atomic under the write lock: a reader — the
//!   store's own queries or a [`SnapshotView`] — sees the records either
//!   as the frozen memtable or as the segment, never neither and never
//!   both, and across partitions it sees one consistent cut (the fenced
//!   capture above).  Readers and other writers of the same partition wait
//!   only for inserts and the swap, not for the build or the disk.
//! * **Determinism.**  Seal *k* of a partition — and the compaction chain
//!   it triggers — completes before the sealing thread inserts record
//!   *k+1*, and per-partition seal sequence numbers place segments
//!   regardless of which concurrent seal installs first.  So the same
//!   per-partition record sequences yield byte-identical sealed segments at
//!   every thread count and every batch cut (pinned by the
//!   `store_concurrency` suite).  When several threads ingest into the
//!   *same* partition the interleaving is the scheduler's, so there record
//!   conservation and mass — not byte layout — are the invariant.
//! * [`SynopsisStore::snapshot`] racing a writer errs (the writer's new
//!   records are live again after the seal) rather than drop records;
//!   [`SynopsisStore::to_binary`] refuses while any memtable is live or
//!   frozen.
//!
//! Thread counts (for `seal_all`, `compact_all` and `merge_global`) come
//! from `pds_core::pool` (the `PDS_THREADS` environment variable or
//! `pool::set_num_threads`).
//!
//! ## Configuration
//!
//! [`StoreConfig`] holds what defines a store (`partitions`,
//! `seal_threshold`, `segment_budget`, `synopsis` — persisted by
//! [`SynopsisStore::to_binary`]) and exactly two runtime knobs, the two
//! that callers really set differently:
//!
//! | knob | default | who sets it otherwise |
//! |---|---|---|
//! | `compaction` | `None` (manual) | the server demo, `pds-perf`, the durability suites (size-tiered auto-compaction) |
//! | `wal_sync` | [`WalSync::Flush`] | the fault/crash matrices and power-loss deployments ([`WalSync::Fsync`]) |
//!
//! ## Observability
//!
//! Every store carries a lock-free telemetry layer (`pds_core::telemetry`
//! primitives, wired in the crate-private `telemetry` module):
//! per-partition ingest counters,
//! freeze/WAL-rotation/compaction counters, log₂-bucketed latency
//! histograms for WAL group commits, seal builds, durable seal commits,
//! compaction rounds and every query operation
//! (`estimate`/`range_estimate`/`merge_global`/`snapshot_view`), a
//! recovery-time gauge, read-path effectiveness counters
//! (`pds_store_segments_{visited,pruned}_total`,
//! `pds_store_block_loads_total`,
//! `pds_store_merge_cache_{hits,misses}_total`), and a bounded event ring
//! of recent notable events
//! (seal installed, compaction committed, WAL rotated, recovery).  The
//! fault-injectable I/O layer feeds the same surface: retry counts
//! (`pds_store_io_retries_total`), I/O errors split by injected/real
//! (`pds_store_io_errors_total`), tolerated cleanup failures
//! (`pds_store_io_cleanup_errors_total`) and the
//! `pds_store_degraded` health gauge.
//! [`SynopsisStore::render_metrics`] renders the Prometheus-style text
//! exposition (including the [`SynopsisStore::stats`] counters as
//! series); [`SynopsisStore::render_events`] dumps the decoded event
//! lines.  Recording is **unconditional** — there is no switch; it never
//! takes a lock, never allocates on the record path, and is
//! **bit-invisible**: estimates, snapshots and segment bytes are identical
//! whether or not the surfaces are scraped mid-stream (pinned by the
//! `telemetry_invisibility` suite).
//!
//! ## Sharding semantics
//!
//! Basic-model and value-pdf records are per-item and route exactly.  An
//! x-tuple whose alternatives span several partitions is **split** into one
//! sub-tuple per partition: this preserves every per-item marginal (hence
//! every expected frequency and every synopsis built from moments) and
//! drops only the cross-partition exclusivity correlation — the same
//! boundary approximation the paper already accepts for its tuple-pdf
//! prefix arrays (Section 3.1).
//!
//! [`StreamRecord`]: pds_core::stream::StreamRecord
//! [`PdsError`]: pds_core::error::PdsError

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blob;
mod compaction;
pub mod crashpoint;
pub mod manifest;
mod memtable;
mod query;
mod segment;
mod store;
mod telemetry;
pub mod wal;

pub use compaction::CompactionPolicy;
pub use memtable::Memtable;
pub use query::SnapshotView;
pub use segment::{Segment, SegmentSynopsis, SynopsisKind};
pub use store::{PartitionSpec, StoreConfig, StoreStats, SynopsisStore};
pub use telemetry::FAULT_SITES;
pub use wal::{PartitionWal, WalSync};
