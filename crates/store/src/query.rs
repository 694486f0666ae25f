//! The store's read side: segment handles (and the lazy blob source behind
//! them), the one capture protocol, the one range-accumulation kernel, the
//! store's query entry points, the merged-synopsis cache and the detached
//! [`SnapshotView`].
//!
//! Everything here sits on the **panic-free serving contract** — a network
//! front-end exposes these paths directly, so hostile bounds, a degenerate
//! partition spec, a poisoned shard lock or an unreadable synopsis block
//! must degrade to `0.0`, an empty partition or a [`PdsError`], never a
//! panic (`pds-analyze` holds this whole file to its panic-freedom rule).
//! Write paths live in `store.rs` and are *supposed* to panic on a
//! poisoned lock rather than keep mutating.
//!
//! Reads are answered **in place**.  Every reader that spans partitions
//! takes its shards through `SynopsisStore::capture_cut` — one
//! version-fenced pass of brief read guards that yields a consistent cut —
//! and does everything else (block loads, sums, piece extraction,
//! encoding) after the guards have dropped.  `estimate` / `range_estimate`
//! capture only the partitions their window spans; `merge_global`,
//! `to_binary` and `snapshot_view` capture all of them.
//!
//! A range estimate is a pure function of the captured synopses, and f64
//! addition is order- and grouping-sensitive, so every path that computes
//! one goes through [`accumulate`]: the store's and the view's
//! `estimate`/`range_estimate` differ only in how they *capture* a
//! partition, never in how they sum it.

use std::borrow::Cow;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

use pds_core::error::{PdsError, Result};
use pds_core::pool;
use pds_core::telemetry::Stopwatch;
use pds_core::vfs;
use pds_histogram::merge::{optimal_piecewise_histogram, sum_pieces, Piece};
use pds_histogram::Histogram;

use crate::blob::{self, BlobFooter, BlobMeta, FOOTER_LEN, HEADER_LEN};
use crate::memtable::Memtable;
use crate::segment::Segment;
use crate::store::{PartitionSpec, Shard, StoreInner, StoreStats, SynopsisStore};
use crate::telemetry::{IoPolicy, QueryOp, StoreTelemetry};

/// A shared handle to one sealed segment's synopsis, decoded **at most
/// once**: segments installed by a seal or a compaction carry their
/// [`Segment`] from construction; segments installed by
/// [`SynopsisStore::open_with_wal`] carry only their decoded meta block
/// (header fields + prune metadata) plus a [`BlobSource`], and the
/// synopsis block is read and decoded on the first query that actually
/// needs it.  The meta block alone answers `records()` and every pruning
/// decision, so a fully pruned (or never-queried) segment never touches
/// its blob again after reopen.
///
/// Handles are shared by `Arc` between shards, snapshot views and
/// compaction tasks, so one load serves every reader.  Loading never runs
/// under a shard lock — query paths clone the handle `Arc`s out of the
/// guard window first.
#[derive(Debug)]
pub(crate) struct SegmentHandle {
    meta: BlobMeta,
    synopsis: OnceLock<Arc<Segment>>,
    source: Option<BlobSource>,
}

impl SegmentHandle {
    /// A handle around an already-decoded segment, computing its prune
    /// metadata (a pure function of the synopsis — see
    /// [`blob::PruneMeta::of`]).
    pub(crate) fn eager(segment: Segment) -> SegmentHandle {
        SegmentHandle {
            meta: BlobMeta::of(&segment),
            synopsis: OnceLock::from(Arc::new(segment)),
            source: None,
        }
    }

    /// Opens the manifest-committed blob at `path` for `store`: reads the
    /// fixed footer and the meta block (three small `recovery-read`
    /// accesses), validates the blob's geometry against the real file
    /// length, and returns a handle whose synopsis block loads on first
    /// use.  Header, meta and footer damage fail here; synopsis-block
    /// damage surfaces at first touch (see [`BlobSource::fetch`]).  A file
    /// without a valid `PDSF` footer — a v1 blob (`PDSG` + CRC trailer)
    /// from before the block layout, or a torn one — is an error naming
    /// the file, never a silent skip.
    pub(crate) fn open(path: &Path, store: &StoreInner) -> Result<SegmentHandle> {
        let blob_io = |e: std::io::Error| PdsError::InvalidParameter {
            message: format!("store: reading segment blob {}: {e}", path.display()),
        };
        let unframed = |why: String| PdsError::InvalidParameter {
            message: format!(
                "store: segment blob {} is a v1 / unframed blob ({why}); only PDSB v2 \
                 blobs with a valid PDSF footer open",
                path.display()
            ),
        };
        let file_len = vfs::path_len("recovery-read", path).map_err(blob_io)?;
        if file_len < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(unframed(format!("{file_len} bytes cannot hold a footer")));
        }
        let tail = vfs::read_range(
            "recovery-read",
            path,
            file_len - FOOTER_LEN as u64,
            FOOTER_LEN,
        )
        .map_err(blob_io)?;
        let footer = BlobFooter::decode(&tail).map_err(|e| unframed(e.to_string()))?;
        // The footer is authentic (CRC over its fields), so from here on a
        // mismatch is corruption, not version skew.
        if !footer.tiles(file_len) {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "store: segment blob {} is {file_len} bytes but its footer describes \
                     a {}-byte blob",
                    path.display(),
                    footer.total_len
                ),
            });
        }
        let prefix = vfs::read_range(
            "recovery-read",
            path,
            0,
            HEADER_LEN + footer.meta_len as usize,
        )
        .map_err(blob_io)?;
        Ok(SegmentHandle {
            meta: blob::decode_meta_block(&prefix, footer.meta_crc)?,
            synopsis: OnceLock::new(),
            source: Some(BlobSource {
                path: path.to_path_buf(),
                syn_off: footer.synopsis_offset(),
                syn_len: footer.syn_len as usize,
                syn_crc: footer.syn_crc,
                policy: store.io_policy(),
                telemetry: Arc::clone(&store.telemetry),
                degraded: Arc::clone(&store.degraded),
            }),
        })
    }

    /// The global item range `(start, width)` the segment covers.
    pub(crate) fn span(&self) -> (usize, usize) {
        (self.meta.start, self.meta.width)
    }

    /// Records sealed into the segment — answered from the meta block,
    /// never loading the synopsis.
    pub(crate) fn records(&self) -> u64 {
        self.meta.records
    }

    /// Whether the segment may contribute a nonzero amount to the clamped
    /// global query window `[lo, hi]` — the prune gate, answered from the
    /// meta block alone (`false` proves a bitwise-exact zero
    /// contribution, see [`blob::PruneMeta::may_overlap`]).
    fn may_overlap(&self, lo: usize, hi: usize) -> bool {
        self.meta.prune.may_overlap(self.meta.start, lo, hi)
    }

    /// The decoded synopsis: the cached `Arc` when present, otherwise one
    /// bounded-retry read + decode of the blob's synopsis block, cached on
    /// success so every later call (from any sharer of the handle) is an
    /// `Arc` clone.  Failures are **not** cached — a transient fault that
    /// outlives the retry budget degrades the owning store, but a reopen
    /// (or a later call under a healed disk) can still succeed.
    pub(crate) fn load(&self) -> Result<Arc<Segment>> {
        if let Some(segment) = self.synopsis.get() {
            return Ok(Arc::clone(segment));
        }
        let Some(source) = &self.source else {
            // Unreachable by construction — eager handles pre-set the
            // cell — but the query path degrades rather than panics.
            return Err(PdsError::InvalidParameter {
                message: "store: segment handle has neither a synopsis nor a blob source".into(),
            });
        };
        let segment = source.fetch(&self.meta)?;
        Ok(Arc::clone(self.synopsis.get_or_init(|| Arc::new(segment))))
    }

    /// The segment's estimated mass over the inclusive global range
    /// `[lo, hi]`.  A synopsis block that cannot be loaded contributes
    /// `0.0` — the degraded latch (set by the failed load) records the
    /// cause, and queries keep serving everything still readable.
    fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        match self.load() {
            Ok(segment) => segment.range_sum(lo, hi),
            Err(_) => 0.0,
        }
    }
}

/// Where (and how) a reopened [`SegmentHandle`] finds its synopsis block:
/// the blob path, the block's offset/length/CRC from the footer, and the
/// owning store's I/O policy, telemetry and degraded latch — so a view or
/// compaction task loading through the handle retries, reports and
/// degrades exactly like the store itself would.
#[derive(Debug)]
struct BlobSource {
    path: PathBuf,
    syn_off: u64,
    syn_len: usize,
    syn_crc: u32,
    policy: IoPolicy,
    telemetry: Arc<StoreTelemetry>,
    degraded: Arc<OnceLock<String>>,
}

impl BlobSource {
    /// Reads and decodes the synopsis block (bounded retry at the
    /// `block-read` fault site), verifying the block CRC and that the
    /// decoded synopsis reproduces the meta block it was installed under.
    fn fetch(&self, meta: &BlobMeta) -> Result<Segment> {
        let bytes = self
            .policy
            .run("block-read", || {
                vfs::read_range("block-read", &self.path, self.syn_off, self.syn_len)
            })
            .map_err(|e| {
                self.degrade(format!(
                    "reading the synopsis block of {}: {e}",
                    self.path.display()
                ))
            })?;
        self.telemetry.record_block_load();
        blob::decode_synopsis_block(&bytes, self.syn_crc, meta).map_err(|e| {
            self.degrade(format!(
                "decoding the synopsis block of {}: {e}",
                self.path.display()
            ))
        })
    }

    /// Trips the owning store's sticky degraded latch (same contract as
    /// `StoreInner::degrade`, reachable without the store — snapshot
    /// views and compaction tasks load through shared handles).
    fn degrade(&self, cause: String) -> PdsError {
        let cause = format!("block-read: {cause}");
        if self.degraded.set(cause.clone()).is_ok() {
            self.telemetry.record_degraded("block-read");
        }
        PdsError::Degraded {
            cause: self.degraded.get().cloned().unwrap_or(cause),
        }
    }
}

/// One memoised global merge (see `StoreInner::merge_cache`).
#[derive(Debug)]
pub(crate) struct MergeCache {
    version: u64,
    b: usize,
    histogram: Histogram,
}

/// The one bound-handling contract shared by every read path: clamps the
/// inclusive query range `[lo, hi]` to the store domain `[0, n)` and names
/// the partitions the clamped window spans.  Returns `None` — the caller
/// answers `0.0` — when the domain is empty, `lo` lies at or past the
/// domain end, or the range is inverted (`hi < lo`); otherwise
/// `Some((lo, min(hi, n - 1), first..last + 1))`.  The server pins the
/// resulting wire behaviour: an out-of-domain `RANGE`/`EST` answers `OK 0`,
/// never an error.
fn clamp_range(
    partitions: &PartitionSpec,
    lo: usize,
    hi: usize,
) -> Option<(usize, usize, Range<usize>)> {
    let n = partitions.n();
    if n == 0 || lo >= n || hi < lo {
        return None;
    }
    let hi = hi.min(n - 1);
    // `lo <= hi < n`, so both lookups are in-domain; degrade to an empty
    // answer rather than panic if that invariant ever breaks.
    let (Ok(first), Ok(last)) = (partitions.partition_of(lo), partitions.partition_of(hi)) else {
        return None;
    };
    Some((lo, hi, first..last + 1))
}

/// Shared read access to one shard, recovering from lock poisoning.
/// Poison recovery is sound for readers: a writer that panicked
/// mid-mutation left the shard in whatever state its last completed
/// assignment produced, and every shard field is a valid value at every
/// assignment boundary (memtables and segment vectors are replaced
/// wholesale, never patched in place) — so one crashed writer must not
/// wedge every query forever.
pub(crate) fn read_shard(shard: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

/// One partition as [`accumulate`] consumes it: the sealed-segment handles
/// in install order plus the live memtable's and each frozen memtable's
/// already-summed contribution to the clamped window.
struct Captured<'a> {
    segments: Cow<'a, [Arc<SegmentHandle>]>,
    live: f64,
    frozen: Vec<f64>,
}

/// **The** range-accumulation kernel: over the partitions a clamped window
/// `[lo, hi]` spans, in partition order, adds the unpruned segments in
/// install order, then the live memtable, then each frozen memtable
/// individually.  The order is load-bearing (f64 addition is order- and
/// grouping-sensitive): the store and every view answer bitwise the same
/// value because this is the only place that sums.  A segment whose
/// fence/filter proves a zero contribution is skipped — it would have added
/// an exact `±0.0` to an accumulator that never holds `-0.0`, so pruning is
/// bit-invisible.
///
/// A handle's first touch may read its synopsis block from disk, so the
/// parts must be captured — every shard guard released — before they get
/// here.  Returns the sum and the segments `(visited, pruned)`.
fn accumulate<'a>(
    lo: usize,
    hi: usize,
    parts: impl IntoIterator<Item = Captured<'a>>,
) -> (f64, u64, u64) {
    let (mut total, mut visited, mut pruned) = (0.0, 0u64, 0u64);
    for part in parts {
        for handle in part.segments.iter() {
            if !handle.may_overlap(lo, hi) {
                pruned += 1;
                continue;
            }
            visited += 1;
            total += handle.range_sum(lo, hi);
        }
        total += part.live;
        for sum in part.frozen {
            total += sum;
        }
    }
    (total, visited, pruned)
}

/// The summed piecewise-constant summary of sealed-segment handles — one
/// partition's captured cut, or a compaction round's inputs (`None` when
/// there are none).  Runs off-guard: a reopened segment's first touch
/// reads its synopsis block here, and an unreadable block fails the merge
/// (which must be complete or an error, never silently partial).
pub(crate) fn partition_pieces<'a>(
    handles: impl IntoIterator<Item = &'a Arc<SegmentHandle>>,
) -> Result<Option<Vec<Piece>>> {
    let mut layers = handles
        .into_iter()
        .map(|handle| Ok(handle.load()?.pieces()))
        .collect::<Result<Vec<_>>>()?;
    match layers.len() {
        0 => Ok(None),
        1 => Ok(layers.pop()),
        _ => sum_pieces(&layers).map(Some),
    }
}

impl SynopsisStore {
    /// **The** capture protocol — the only way a reader that spans
    /// partitions takes its shards: `f` applied to each shard of `parts`
    /// under a brief read guard (poison-recovering, see [`read_shard`]), in
    /// partition order, returned with the structural version of the cut.
    ///
    /// Consistency: capturing shard by shard can interleave with a
    /// concurrent structural commit and observe partition `p` from *before*
    /// it and partition `q` from *after* it — a torn cut.  The capture runs
    /// an optimistic loop against the store-wide structural version
    /// counter: read `v0`, capture every shard, re-read `v1` — equal
    /// versions prove no seal install or compaction swap landed inside the
    /// capture window, so the parts form one consistent cut at `v0`.  Under
    /// sustained structural churn the loop falls back (after a bounded
    /// number of retries) to holding **every** spanned read guard at once,
    /// acquired in ascending partition order: a cut that is consistent by
    /// construction and merely delays concurrent installs briefly.  (The
    /// fallback's version is exact whenever `parts` covers every partition
    /// — the only case that reads it.)
    ///
    /// `f` runs under the guard, so it may clone handle `Arc`s and sum
    /// memtables, never load a block or touch a file: `pds-analyze` holds
    /// every `capture_cut(..)` argument list to the lock-discipline rule.
    pub(crate) fn capture_cut<T>(
        &self,
        parts: Range<usize>,
        mut f: impl FnMut(&Shard) -> T,
    ) -> (Vec<T>, u64) {
        const CAPTURE_RETRIES: usize = 8;
        let shards = self.inner.shards.get(parts).unwrap_or_default();
        let version = || self.inner.version.load(Ordering::SeqCst);
        for _ in 0..CAPTURE_RETRIES {
            let v0 = version();
            // One brief read guard per shard: a pass on its own can tear,
            // hence the version check around it.
            let cut = shards.iter().map(|s| f(&read_shard(s))).collect();
            if version() == v0 {
                return (cut, v0);
            }
        }
        // Fallback: with every spanned shard read-locked for the whole
        // capture no structural commit can interleave with it.
        let guards: Vec<_> = shards.iter().map(read_shard).collect();
        let v = version();
        let cut = guards.iter().map(|g| f(g)).collect();
        drop(guards);
        (cut, v)
    }

    /// Point-in-time counters.  Poison-recovering (see [`read_shard`]): a
    /// panicked writer cannot take the stats endpoint down with it.
    pub fn stats(&self) -> StoreStats {
        let mut live_records = 0u64;
        let mut segments = 0usize;
        for shard in &self.inner.shards {
            let shard = read_shard(shard);
            live_records += shard.memtable.len() as u64;
            // In-flight frozen memtables are still unsealed records.
            live_records += shard
                .frozen
                .iter()
                .map(|(_, m)| m.len() as u64)
                .sum::<u64>();
            segments += shard.segments.len();
        }
        StoreStats {
            ingested_records: self.inner.ingested.load(Ordering::Relaxed),
            live_records,
            seals: self.inner.seals.load(Ordering::Relaxed),
            segments,
            split_tuples: self.inner.split_tuples.load(Ordering::Relaxed),
        }
    }

    /// The store's Prometheus-style text exposition: every telemetry
    /// series (ingest/freeze/WAL/seal/compaction counters, latency
    /// histograms, the recovery gauge) plus the [`SynopsisStore::stats`]
    /// counters rendered as series.  Total on the panic-free serving
    /// contract — a scrape endpoint can expose this path directly.
    pub fn render_metrics(&self) -> String {
        self.inner.telemetry.render(&self.stats())
    }

    /// The store's retained telemetry events (seal installs, compaction
    /// commits, WAL rotations, recovery), oldest first, one decoded line
    /// per event.  Panic-free.
    pub fn render_events(&self) -> Vec<String> {
        self.inner.telemetry.render_events()
    }

    /// Recombines the sealed per-partition synopses of one consistent cut
    /// into one global `b`-bucket histogram via the partition-merge DP: the
    /// candidate cut points are exactly the partition/bucket boundaries,
    /// and partitions with no sealed data contribute a zero run.  Piece
    /// extraction runs off-guard, one pool task per partition.  Live
    /// memtable records are **not** included — seal first for a full
    /// snapshot.
    pub fn merge_global(&self, b: usize) -> Result<Histogram> {
        let sw = Stopwatch::start();
        let merged = self.merge_global_core(b);
        self.inner.telemetry.record_query(QueryOp::MergeGlobal, sw);
        merged
    }

    /// The untimed body of [`SynopsisStore::merge_global`] (the public
    /// wrapper only adds the query-latency observation).
    ///
    /// Memoised: the result is cached keyed on `(version, b)` (see
    /// `StoreInner::version`), so repeated merges over a quiet store are
    /// one mutex lock and a histogram clone — `O(b)`, not a re-run of the
    /// merge DP.  Any seal install or compaction swap bumps the version
    /// and the next merge recomputes; the entry is stamped with the version
    /// of the cut it was computed from, so it is always exactly what a
    /// recompute at that version produces (pinned by the `store_read_path`
    /// and `store_concurrency` suites).
    fn merge_global_core(&self, b: usize) -> Result<Histogram> {
        if b == 0 {
            return Err(PdsError::InvalidParameter {
                message: "merge_global needs a bucket budget of at least 1".into(),
            });
        }
        {
            let cache = self
                .inner
                .merge_cache
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = cache.as_ref() {
                if entry.version == self.inner.version.load(Ordering::SeqCst) && entry.b == b {
                    self.inner.telemetry.record_merge_cache(true);
                    return Ok(entry.histogram.clone());
                }
            }
        }
        self.inner.telemetry.record_merge_cache(false);
        let (cut, version) = self.capture_cut(0..self.num_partitions(), Shard::handles);
        let per_partition = pool::parallel_map(cut, |handles| partition_pieces(&handles));
        let mut pieces: Vec<Piece> = Vec::new();
        for (p, extracted) in per_partition.into_iter().enumerate() {
            match extracted? {
                Some(mut summed) => pieces.append(&mut summed),
                None => {
                    let (_, width) = self.inner.config.partitions.range(p);
                    pieces.push(Piece { width, value: 0.0 });
                }
            }
        }
        // More buckets than candidate cut ranges would silently clamp in
        // the DP and hand back fewer buckets than asked for; surface the
        // bad budget instead of a degenerate histogram.
        if b > pieces.len() {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "merge budget {b} exceeds the {} available synopsis piece(s); \
                     seal more data or lower b",
                    pieces.len()
                ),
            });
        }
        let merged = optimal_piecewise_histogram(&pieces, b)?;
        *self
            .inner
            .merge_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(MergeCache {
            version,
            b,
            histogram: merged.clone(),
        });
        Ok(merged)
    }

    /// Estimated expected total frequency over the **global** inclusive
    /// item range `[lo, hi]`: sealed segments answer from their synopses,
    /// live memtables from their exact running expectations.  Answered in
    /// place from one consistent cut of only the shards the range spans.
    ///
    /// Total on the panic-free serving contract: a range lying (partly or
    /// wholly) outside the domain is clamped to it, an empty-domain store
    /// answers 0.0, and shard-lock poisoning is recovered from (see
    /// `read_shard`) — a network front-end can expose this path directly.
    pub fn range_estimate(&self, lo: usize, hi: usize) -> f64 {
        let sw = Stopwatch::start();
        let total = self.range_estimate_core(lo, hi);
        self.inner.telemetry.record_query(QueryOp::Range, sw);
        total
    }

    /// The estimated expected frequency of one item.
    pub fn estimate(&self, item: usize) -> f64 {
        let sw = Stopwatch::start();
        let value = self.range_estimate_core(item, item);
        self.inner.telemetry.record_query(QueryOp::Point, sw);
        value
    }

    /// The untimed body shared by [`SynopsisStore::range_estimate`] and
    /// [`SynopsisStore::estimate`] (so a point query records one
    /// `op="estimate"` sample, never an extra `op="range_estimate"` one):
    /// [`accumulate`] over one cut of the spanned partitions — handle
    /// `Arc`s cloned out and memtable sums taken under each guard, nothing
    /// copied.
    fn range_estimate_core(&self, lo: usize, hi: usize) -> f64 {
        let Some((lo, hi, spanned)) = clamp_range(&self.inner.config.partitions, lo, hi) else {
            return 0.0;
        };
        let (cut, _) = self.capture_cut(spanned, |shard| Captured {
            segments: Cow::Owned(shard.handles()),
            live: shard.memtable.range_sum(lo, hi),
            // A memtable frozen for an in-flight seal still carries its
            // mass until the segment installs.
            frozen: shard
                .frozen
                .iter()
                .map(|(_, m)| m.range_sum(lo, hi))
                .collect(),
        });
        let (total, visited, pruned) = accumulate(lo, hi, cut);
        self.inner.telemetry.record_scan(visited, pruned);
        total
    }

    /// A detached, consistent point-in-time copy of the whole store: per
    /// partition, the `Arc`-cloned sealed-segment handles, the `Arc`-cloned
    /// frozen memtables and a copy of the live memtable, taken as one cut
    /// through the store's capture protocol.  The view answers
    /// [`SnapshotView::range_estimate`] with **bitwise** the value the
    /// store itself would have answered at capture time, holds no locks,
    /// and is unaffected by later ingest, seals and compactions.  Queries
    /// do not need one — the store answers them in place — so a view is
    /// for callers that want many reads of one frozen state.
    pub fn snapshot_view(&self) -> SnapshotView {
        let sw = Stopwatch::start();
        let (parts, _) = self.capture_cut(0..self.num_partitions(), Self::capture_one);
        let view = SnapshotView {
            partitions: self.inner.config.partitions.clone(),
            telemetry: Arc::clone(&self.inner.telemetry),
            parts,
        };
        self.inner.telemetry.record_query(QueryOp::Snapshot, sw);
        view
    }

    /// Captures one shard's contents as a [`ViewPartition`]: `Arc` clones
    /// for the segment handles and frozen memtables, one live-memtable
    /// copy.  No I/O, no allocation proportional to sealed data volume.
    fn capture_one(shard: &Shard) -> ViewPartition {
        ViewPartition {
            segments: shard.handles(),
            memtable: shard.memtable.clone(),
            frozen: shard.frozen.iter().map(|(_, m)| Arc::clone(m)).collect(),
        }
    }
}

/// One partition of a [`SnapshotView`]: the `Arc`-shared sealed-segment
/// handles, the `Arc`-shared frozen memtables and a copy of the live
/// memtable at capture time.
#[derive(Debug, Clone)]
struct ViewPartition {
    segments: Vec<Arc<SegmentHandle>>,
    memtable: Memtable,
    frozen: Vec<Arc<Memtable>>,
}

/// A detached, consistent point-in-time copy of a [`SynopsisStore`],
/// captured by [`SynopsisStore::snapshot_view`]: answers point/range
/// estimates **bitwise-identically** to the store at capture time, holds no
/// locks, shares the sealed segments (and frozen memtables) by `Arc` rather
/// than copying them, and is isolated from every later ingest, seal or
/// compaction.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    partitions: PartitionSpec,
    /// The capturing store's telemetry (as every `BlobSource` shares it):
    /// a view's scans move `pds_store_segments_{visited,pruned}_total`
    /// exactly like the store's own queries do.
    telemetry: Arc<StoreTelemetry>,
    parts: Vec<ViewPartition>,
}

impl SnapshotView {
    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.partitions.n()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Records still unsealed at capture time (live + frozen memtables).
    pub fn live_records(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.memtable.len() as u64 + p.frozen.iter().map(|m| m.len() as u64).sum::<u64>())
            .sum()
    }

    /// Estimated expected total frequency over the inclusive item range
    /// `[lo, hi]` **at capture time**: the same kernel over the owned
    /// partition copies, so bitwise the value
    /// [`SynopsisStore::range_estimate`] answered on the store the view was
    /// taken from.  Panic-free on any input.
    pub fn range_estimate(&self, lo: usize, hi: usize) -> f64 {
        let Some((lo, hi, spanned)) = clamp_range(&self.partitions, lo, hi) else {
            return 0.0;
        };
        let parts = self.parts.get(spanned).unwrap_or_default();
        let (total, visited, pruned) = accumulate(
            lo,
            hi,
            parts.iter().map(|part| Captured {
                segments: Cow::Borrowed(&part.segments),
                live: part.memtable.range_sum(lo, hi),
                frozen: part.frozen.iter().map(|m| m.range_sum(lo, hi)).collect(),
            }),
        );
        self.telemetry.record_scan(visited, pruned);
        total
    }

    /// The estimated expected frequency of one item at capture time.
    pub fn estimate(&self, item: usize) -> f64 {
        self.range_estimate(item, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::config;
    use crate::CompactionPolicy;
    use pds_core::stream::{basic_stream, BasicStreamConfig, StreamRecord};

    #[test]
    fn merge_global_covers_empty_partitions_with_zero_runs() {
        let store = SynopsisStore::new(config(12, 3, 100)).unwrap();
        for i in 0..4 {
            store
                .ingest(StreamRecord::Basic {
                    item: i,
                    prob: 0.75,
                })
                .unwrap();
        }
        store.seal_all().unwrap();
        let merged = store.merge_global(4).unwrap();
        assert_eq!(merged.n(), 12);
        assert!((merged.estimates().iter().sum::<f64>() - 3.0).abs() < 1e-9);
        // Items in the never-touched partitions estimate to ~zero.
        assert!(merged.estimate(11).abs() < 1e-9);
    }

    #[test]
    fn out_of_domain_ranges_clamp_to_zero() {
        let store = SynopsisStore::new(config(16, 4, 1 << 20)).unwrap();
        store
            .ingest(StreamRecord::Basic { item: 2, prob: 0.5 })
            .unwrap();
        // Both endpoints past the domain: nothing to sum.
        assert_eq!(store.range_estimate(16, 20), 0.0);
        assert_eq!(store.estimate(usize::MAX), 0.0);
        // `lo` in domain, `hi` clamped: the in-domain prefix still answers.
        assert!((store.range_estimate(0, usize::MAX) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn poisoned_shard_still_answers_queries() {
        let store = SynopsisStore::new(config(16, 2, 4)).unwrap();
        for i in 0..8 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 16,
                    prob: 0.5,
                })
                .unwrap();
        }
        let before = store.range_estimate(0, 15);
        let stats_before = store.stats();
        // Poison shard 0: a thread panics while holding the write lock.
        let lock = &store.inner.shards[0];
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = lock.write().unwrap();
                panic!("poison the shard on purpose");
            })
            .join()
            .is_err()
        });
        assert!(poisoned);
        assert!(lock.is_poisoned(), "the write lock must now be poisoned");
        // Read-only paths recover instead of propagating the panic.
        assert_eq!(store.range_estimate(0, 15), before);
        assert_eq!(store.estimate(2), store.estimate(2));
        let stats_after = store.stats();
        assert_eq!(stats_after.live_records, stats_before.live_records);
        assert!(store.merge_global(1).is_ok());
        let view = store.snapshot_view();
        assert_eq!(view.range_estimate(0, 15), before);
        let _ = store.memtable_snapshot(0);
        let _ = store.segments(0);
        assert!(store.to_binary().is_ok());
    }

    #[test]
    fn merge_global_rejects_zero_budget() {
        let store = SynopsisStore::new(config(16, 4, 2)).unwrap();
        store
            .ingest_batch(
                basic_stream(BasicStreamConfig {
                    n: 16,
                    skew: 0.5,
                    seed: 9,
                })
                .take(24),
            )
            .unwrap();
        store.seal_all().unwrap();
        assert!(matches!(
            store.merge_global(0),
            Err(PdsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn merge_global_rejects_budget_over_available_pieces() {
        // No sealed data: every partition contributes exactly one zero-run
        // piece, so the available piece count is the partition count.
        let store = SynopsisStore::new(config(16, 4, 1 << 20)).unwrap();
        let merged = store.merge_global(4).unwrap();
        assert_eq!(merged.n(), 16);
        assert!(matches!(
            store.merge_global(5),
            Err(PdsError::InvalidParameter { .. })
        ));
        assert!(matches!(
            store.merge_global(usize::MAX),
            Err(PdsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn snapshot_view_is_bitwise_equal_and_isolated() {
        let store = SynopsisStore::new(config(64, 4, 8)).unwrap();
        store
            .ingest_batch(
                basic_stream(BasicStreamConfig {
                    n: 64,
                    skew: 0.5,
                    seed: 41,
                })
                .take(300),
            )
            .unwrap();
        let view = store.snapshot_view();
        assert_eq!(view.n(), 64);
        assert_eq!(view.num_partitions(), 4);
        // Bitwise equality against the live store on a sweep of ranges,
        // including clamped and inverted ones.
        for lo in (0..64).step_by(7) {
            for hi in [lo, lo + 3, 63, 200] {
                assert_eq!(
                    view.range_estimate(lo, hi).to_bits(),
                    store.range_estimate(lo, hi).to_bits(),
                    "view must answer bitwise-identically at [{lo}, {hi}]"
                );
            }
        }
        let frozen_answer = view.range_estimate(0, 63);
        let live_before = store.range_estimate(0, 63);
        // Later ingest and sealing change the store, never the view.
        store
            .ingest_batch(
                basic_stream(BasicStreamConfig {
                    n: 64,
                    skew: 0.5,
                    seed: 42,
                })
                .take(100),
            )
            .unwrap();
        store.seal_all().unwrap();
        assert!(store.range_estimate(0, 63) > live_before);
        assert_eq!(
            view.range_estimate(0, 63).to_bits(),
            frozen_answer.to_bits()
        );
        let segments: usize = view.parts.iter().map(|p| p.segments.len()).sum();
        assert!(view.live_records() + segments as u64 > 0);
    }

    #[test]
    fn render_metrics_exposes_store_series_and_events() {
        let mut cfg = config(12, 3, 4);
        cfg.compaction = Some(CompactionPolicy {
            min_merge: 2,
            tier_ratio: 2.0,
        });
        let store = SynopsisStore::new(cfg).unwrap();
        for i in 0..24 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 4,
                    prob: 0.5,
                })
                .unwrap();
        }
        let _ = store.estimate(0);
        let _ = store.range_estimate(0, 11);
        let _ = store.snapshot_view();
        store.seal_all().unwrap();
        let text = store.render_metrics();
        assert!(text.contains("pds_store_ingest_records_total{partition=\"0\"} 24"));
        assert!(text.contains("pds_store_freezes_total"));
        assert!(text.contains("pds_store_query_seconds_count{op=\"estimate\"} 1"));
        assert!(text.contains("pds_store_query_seconds_count{op=\"range_estimate\"} 1"));
        assert!(text.contains("pds_store_query_seconds_count{op=\"snapshot_view\"} 1"));
        assert!(text.contains("pds_store_ingested_records_total 24"));
        assert!(text.contains("pds_store_compaction_rounds_total"));
        let events = store.render_events();
        assert!(
            events.iter().any(|e| e.contains("seal-installed")),
            "{events:?}"
        );
        assert!(
            events.iter().any(|e| e.contains("compaction-committed")),
            "{events:?}"
        );
    }
}
