//! The partitioned synopsis store: concurrent sharded routing, sealing,
//! compaction, queries and whole-store persistence.
//!
//! ## Concurrency model
//!
//! Every partition lives behind its own [`RwLock`] (a *shard*): ingest
//! write-locks exactly the shard owning a record, queries read-lock only the
//! shards overlapping their range, and independent partitions never contend.
//! All mutating operations take `&self`, so one store can be shared across
//! ingest threads (`Arc<SynopsisStore>` or scoped borrows) without external
//! locking.
//!
//! **One ingest path.**  [`SynopsisStore::ingest_batch`] routes records to
//! shards **lock-free** — one pass over the batch groups records
//! per-partition in arrival order — then inserts each partition's sub-batch
//! in partition order on the calling thread, group-committing the shard's
//! WAL once per call.  Ingest dispatch is **single-threaded per call by
//! design** (a pooled dispatch measured 0.81–1.12x): cross-partition write
//! parallelism comes from concurrent callers — server connections — and
//! the scoped pool (`pds_core::pool`) stays under `seal_all`,
//! `compact_all` and `merge_global`.  [`SynopsisStore::ingest`] is a batch
//! of one.
//!
//! **One seal sequence, never under a shard guard.**  A memtable becomes a
//! segment in exactly one way: it is *frozen* under the shard write lock (an
//! `O(1)` swap and, with a WAL, one file rename), the guard drops, the
//! thread that froze it builds the segment — from the memtable's moment
//! sums unless the synopsis needs the full model (the memtable module's
//! seal `match`) — and commits it durably (blob, then manifest entry) with
//! **no lock held**, and a short write lock swaps
//! the segment in — or, on failure, returns the records to the live
//! memtable.  An ingest call that reaches the seal threshold runs that
//! sequence itself before inserting the rest of its sub-batch, so seal *k*
//! of a partition (and the compaction chain it triggers) completes before
//! record *k+1* is inserted on that thread: the sealed state is a function
//! of the per-partition record sequence, whatever the batch cut.  While a
//! seal is in flight its frozen memtable stays on the shard's `frozen`
//! list, so queries and snapshot views keep seeing its records;
//! other threads keep ingesting into (and may freeze and seal) the same
//! partition, and per-partition seal **sequence numbers** place each
//! segment at its position regardless of which seal installs first — the
//! same per-partition record streams produce byte-identical sealed segments
//! at every thread count, a property the `store_concurrency` suite pins.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockWriteGuard};

use pds_core::binio::{ByteReader, ByteWriter};
use pds_core::error::{PdsError, Result};
use pds_core::metrics::ErrorMetric;
use pds_core::pool;
use pds_core::stream::StreamRecord;
use pds_core::telemetry::Stopwatch;
use pds_core::vfs;
use pds_histogram::merge::optimal_piecewise_histogram;
use pds_wavelet::build_sse_wavelet_from_means;
use serde::{Deserialize, Serialize};

use crate::compaction::CompactionPolicy;
use crate::crashpoint;
use crate::manifest::{segment_blob_name, Manifest};
use crate::memtable::Memtable;
use crate::query::{partition_pieces, read_shard, MergeCache, SegmentHandle};
use crate::segment::{Segment, SegmentSynopsis, SynopsisKind};
use crate::telemetry::{IoPolicy, StoreTelemetry};
use crate::wal::{PartitionWal, WalSync};

/// A partition of the item domain `[0, n)` into contiguous ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Ascending boundary positions: partition `i` covers
    /// `[bounds[i], bounds[i+1])`.
    bounds: Vec<usize>,
}

impl PartitionSpec {
    /// Builds a spec from explicit boundaries (`bounds[0] == 0`, strictly
    /// ascending, last entry is the domain size).
    fn from_bounds(bounds: Vec<usize>) -> Result<Self> {
        if bounds.len() < 2 || bounds[0] != 0 {
            return Err(PdsError::InvalidParameter {
                message: "partition bounds must start at 0 and name at least one range".into(),
            });
        }
        if bounds.windows(2).any(|w| w[1] <= w[0]) {
            return Err(PdsError::InvalidParameter {
                message: "partition bounds must be strictly ascending".into(),
            });
        }
        Ok(PartitionSpec { bounds })
    }

    /// Splits `[0, n)` into `parts` near-equal contiguous ranges.
    pub fn uniform(n: usize, parts: usize) -> Result<Self> {
        if parts == 0 || n < parts {
            return Err(PdsError::InvalidParameter {
                message: format!("cannot split a domain of {n} items into {parts} partitions"),
            });
        }
        let mut bounds = Vec::with_capacity(parts + 1);
        for i in 0..=parts {
            bounds.push(i * n / parts);
        }
        PartitionSpec::from_bounds(bounds)
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        // `from_bounds` guarantees at least two bounds, but the query path
        // must stay panic-free even on a degenerate spec: an empty or
        // single-`0` bounds vector is simply an empty domain.
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Always false: a spec names at least one partition.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The global item range `(start, width)` of partition `p`.
    pub fn range(&self, p: usize) -> (usize, usize) {
        (self.bounds[p], self.bounds[p + 1] - self.bounds[p])
    }

    /// The partition owning `item`, or an error outside the domain.
    pub fn partition_of(&self, item: usize) -> Result<usize> {
        if item >= self.n() {
            return Err(PdsError::ItemOutOfDomain {
                item,
                domain: self.n(),
            });
        }
        Ok(self.bounds.partition_point(|&b| b <= item) - 1)
    }
}

/// Configuration of a [`SynopsisStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// How the item domain is partitioned.
    pub partitions: PartitionSpec,
    /// Records a partition's memtable buffers before it is auto-sealed.
    pub seal_threshold: usize,
    /// Synopsis budget (buckets or coefficients) per sealed segment.
    pub segment_budget: usize,
    /// Which synopsis sealed segments get.
    pub synopsis: SynopsisKind,
    /// Automatic size-tiered compaction: when set, every segment install
    /// evaluates the policy (once the partition has no seals in flight) and
    /// the installing thread merges full tiers right after the install, off
    /// the shard lock.  `None` (the default) keeps compaction manual
    /// ([`SynopsisStore::compact_partition`] / `compact_all`).  A runtime
    /// knob: not persisted by [`SynopsisStore::to_binary`].
    pub compaction: Option<CompactionPolicy>,
    /// Durability tier of WAL/manifest commits: [`WalSync::Flush`] (the
    /// default, survives process crashes) or the opt-in [`WalSync::Fsync`]
    /// (survives power loss, paid once per group commit).  A runtime knob:
    /// not persisted by [`SynopsisStore::to_binary`].
    pub wal_sync: WalSync,
}

impl StoreConfig {
    /// A configuration with the default runtime knobs: manual compaction
    /// and flush-tier WAL durability.  Nothing else is switchable: segment
    /// pruning, lazy synopsis blocks and telemetry recording are
    /// unconditional (all bit-invisible), and the durable-path retry budget
    /// is a constant of the store (two retries, 1 ms base backoff).
    pub fn new(
        partitions: PartitionSpec,
        seal_threshold: usize,
        segment_budget: usize,
        synopsis: SynopsisKind,
    ) -> Self {
        StoreConfig {
            partitions,
            seal_threshold,
            segment_budget,
            synopsis,
            compaction: None,
            wal_sync: WalSync::Flush,
        }
    }
}

/// Point-in-time counters describing a store.
///
/// Serializes to stable, versioned JSON via [`StoreStats::to_json`] /
/// [`StoreStats::from_json`] — the machine-parseable form behind the
/// server's `STATS JSON` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Stream records accepted by [`SynopsisStore::ingest_batch`].
    pub ingested_records: u64,
    /// Records not yet sealed into a segment: live memtables plus memtables
    /// frozen for a seal in flight on another thread (queries see both).
    pub live_records: u64,
    /// Seal operations performed (counted when the memtable freezes).
    pub seals: u64,
    /// Segments currently stored (compaction shrinks this; the segment of a
    /// seal in flight on another thread appears — moving its records out
    /// of `live_records` — once that seal installs).
    pub segments: usize,
    /// X-tuples whose alternatives were split across partitions.
    pub split_tuples: u64,
}

/// Versioned wire envelope for [`StoreStats::to_json`] /
/// [`StoreStats::from_json`].
#[derive(Serialize, Deserialize)]
struct StatsEnvelope {
    version: u32,
    stats: StoreStats,
}

impl StoreStats {
    /// The stats JSON envelope version written by [`StoreStats::to_json`].
    pub const FORMAT_VERSION: u32 = 1;

    /// Serialises the counters into a single-line, versioned JSON envelope
    /// (`{"version":1,"stats":{...}}`) so `STATS JSON` consumers can detect
    /// skew instead of mis-reading renamed fields.
    pub fn to_json(&self) -> Result<String> {
        let envelope = StatsEnvelope {
            version: Self::FORMAT_VERSION,
            stats: *self,
        };
        serde_json::to_string(&envelope).map_err(|e| PdsError::InvalidParameter {
            message: format!("store stats serialization failed: {e}"),
        })
    }

    /// Reconstructs counters from [`StoreStats::to_json`] output, rejecting
    /// malformed JSON and version skew with a [`PdsError`].
    pub fn from_json(text: &str) -> Result<Self> {
        let envelope: StatsEnvelope =
            serde_json::from_str(text).map_err(|e| PdsError::InvalidParameter {
                message: format!("store stats deserialization failed: {e}"),
            })?;
        if envelope.version != Self::FORMAT_VERSION {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "store stats envelope version {} is not supported (expected {})",
                    envelope.version,
                    Self::FORMAT_VERSION
                ),
            });
        }
        Ok(envelope.stats)
    }
}

/// One sealed segment as held by its shard: the seal sequence and the
/// shared (possibly lazily-backed) segment handle.
#[derive(Debug)]
pub(crate) struct SealedSegment {
    pub(crate) seq: u64,
    pub(crate) handle: Arc<SegmentHandle>,
}

/// One partition's mutable state: the live memtable, the sealed segments
/// (ascending by seal sequence) and the optional write-ahead log.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) memtable: Memtable,
    /// Memtables frozen for sealing whose segment build is still in flight,
    /// by seal sequence: kept readable (shared with the [`SealTask`]) so a
    /// query racing a seal never transiently loses the frozen records'
    /// mass; the entry is dropped when its segment installs.
    pub(crate) frozen: Vec<(u64, Arc<Memtable>)>,
    /// Sealed segments, ascending by sequence; the sequence restores
    /// deterministic order when concurrent seals install out of order.
    pub(crate) segments: Vec<SealedSegment>,
    /// Next seal sequence number for this partition.
    next_seq: u64,
    /// A compaction round is in flight for this partition (selection made,
    /// swap pending) — serialises compaction per partition.
    compacting: bool,
    wal: Option<PartitionWal>,
}

impl Shard {
    /// `Arc` clones of the sealed-segment handles, in install order — what
    /// readers take out of a guard window so that no synopsis block is
    /// ever loaded under a shard lock.
    pub(crate) fn handles(&self) -> Vec<Arc<SegmentHandle>> {
        self.segments
            .iter()
            .map(|s| Arc::clone(&s.handle))
            .collect()
    }

    /// Inserts a freshly built segment at its sequence position.
    fn install(&mut self, seq: u64, segment: Segment) {
        let pos = self.segments.partition_point(|s| s.seq < seq);
        let handle = Arc::new(SegmentHandle::eager(segment));
        self.segments.insert(pos, SealedSegment { seq, handle });
    }

    /// **The** compaction reservation, made under the held write lock:
    /// takes the output sequence, marks the partition compacting and clones
    /// the `selected` segments' handles (in install order) into the task,
    /// so the merge itself runs lock-free.
    fn reserve_compaction(&mut self, partition: usize, selected: &[u64]) -> CompactTask {
        let inputs = self
            .segments
            .iter()
            .filter(|s| selected.contains(&s.seq))
            .map(|s| (s.seq, Arc::clone(&s.handle)))
            .collect();
        let out_seq = self.next_seq;
        self.next_seq += 1;
        self.compacting = true;
        CompactTask {
            partition,
            out_seq,
            inputs,
        }
    }
}

/// The durable half of a store opened with
/// [`SynopsisStore::open_with_wal`]: the directory holding the WAL files,
/// the segment blobs and the [`Manifest`] that commits them.
#[derive(Debug)]
struct Durable {
    dir: PathBuf,
    manifest: Mutex<Manifest>,
}

/// The lock-protected core of a store (shards + counters).
#[derive(Debug)]
pub(crate) struct StoreInner {
    pub(crate) config: StoreConfig,
    pub(crate) shards: Vec<RwLock<Shard>>,
    durable: Option<Durable>,
    pub(crate) ingested: AtomicU64,
    pub(crate) seals: AtomicU64,
    pub(crate) split_tuples: AtomicU64,
    /// Process-local instrumentation (never persisted):
    /// recording is lock-free, so every path — including shard-guard
    /// windows — may record.  Shared (`Arc`) so the I/O policies inside
    /// the WAL and manifest handles can report into it.
    pub(crate) telemetry: Arc<StoreTelemetry>,
    /// The sticky degraded read-only latch: set (once, with the cause) by
    /// the first durable-path failure that survives the retry budget.
    /// Every mutating path checks it and returns [`PdsError::Degraded`];
    /// queries never look at it.  Only reopening the store clears it.
    /// Shared (`Arc`) with every reopened [`SegmentHandle`]'s blob source,
    /// so a deferred synopsis-block read that fails degrades the store
    /// exactly like an install-time failure would.
    pub(crate) degraded: Arc<OnceLock<String>>,
    /// Counts **structural commits** — seal installs and compaction swaps,
    /// bumped inside the owning shard's write lock.  Two uses: the fence of
    /// the one capture protocol, `capture_cut` (equal loads before/after
    /// the per-shard captures prove no structural commit interleaved, so
    /// the cross-shard cut is consistent) and the merged-synopsis cache key
    /// (an entry stamped with an older version can never be served).
    /// Record-level ingest does not bump it: live memtable contents are
    /// outside both protocols (the merge covers sealed state only, and a
    /// shard's memtable is captured atomically under its own lock).
    pub(crate) version: AtomicU64,
    /// The memoised [`SynopsisStore::merge_global`] result: one entry,
    /// keyed on `(version, b)`.  Structural commits invalidate it purely
    /// by bumping `version` — nothing is recomputed until the next merge
    /// asks.  Stamped with the version of the cut the pieces came from, so
    /// it never serves a histogram of any other state.
    pub(crate) merge_cache: Mutex<Option<MergeCache>>,
}

impl StoreInner {
    /// The store's durable-path failure policy (bounded retry, reporting
    /// into the store's telemetry).
    pub(crate) fn io_policy(&self) -> IoPolicy {
        IoPolicy::new(Arc::clone(&self.telemetry))
    }

    /// Refuses mutating work while the store is degraded.
    fn check_writable(&self) -> Result<()> {
        match self.degraded.get() {
            Some(cause) => Err(PdsError::Degraded {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Trips (or re-reports) the sticky degraded mode after a durable-path
    /// failure at `site`, converting the failure into the
    /// [`PdsError::Degraded`] the mutating operation returns.  The first
    /// caller wins the latch and emits the telemetry gauge/event; later
    /// failures keep the original cause.
    fn degrade(&self, site: &str, e: PdsError) -> PdsError {
        if let PdsError::Degraded { .. } = e {
            return e;
        }
        let cause = format!("{site}: {e}");
        if self.degraded.set(cause.clone()).is_ok() {
            self.telemetry.record_degraded(site);
        }
        PdsError::Degraded {
            cause: self.degraded.get().cloned().unwrap_or(cause),
        }
    }
}

/// A frozen memtable on its way to becoming a segment (shared with its
/// shard's `frozen` list so the records stay queryable until the segment
/// installs).
#[derive(Debug)]
struct SealTask {
    partition: usize,
    seq: u64,
    memtable: Arc<Memtable>,
    /// The frozen WAL file covering exactly this memtable's records; removed
    /// once the segment is installed.
    wal_frozen: Option<PathBuf>,
}

/// A compaction round selected by the policy (or requested manually): the
/// reserved output sequence and the cloned input segment handles, merged
/// off-lock and swapped in under a short write lock.  Lazily-backed input
/// handles load during the (already off-lock) merge.
#[derive(Debug)]
struct CompactTask {
    partition: usize,
    out_seq: u64,
    inputs: Vec<(u64, Arc<SegmentHandle>)>,
}

/// The partitioned streaming-ingest synopsis store (see the crate docs for
/// the lifecycle and the module docs for the concurrency model).
#[derive(Debug)]
pub struct SynopsisStore {
    pub(crate) inner: StoreInner,
}

impl SynopsisStore {
    /// Magic bytes of the whole-store binary encoding.
    pub const BINARY_MAGIC: [u8; 4] = *b"PDST";

    /// Version stamp of the whole-store binary encoding.
    pub const BINARY_VERSION: u16 = 1;

    /// Creates an empty store (no write-ahead log, no durable directory).
    pub fn new(config: StoreConfig) -> Result<Self> {
        let telemetry = Arc::new(StoreTelemetry::new(config.partitions.len()));
        Self::with_parts(config, None, telemetry)
    }

    /// The shared constructor.  Telemetry arrives pre-built: the durable
    /// open constructs it *before* recovery so the recovery-path I/O
    /// policies can already report into it.
    fn with_parts(
        config: StoreConfig,
        durable: Option<Durable>,
        telemetry: Arc<StoreTelemetry>,
    ) -> Result<Self> {
        if config.seal_threshold == 0 || config.segment_budget == 0 {
            return Err(PdsError::InvalidParameter {
                message: "the seal threshold and the segment budget must be positive".into(),
            });
        }
        let shards = (0..config.partitions.len())
            .map(|p| {
                let (start, width) = config.partitions.range(p);
                RwLock::new(Shard {
                    memtable: Memtable::new(start, width),
                    frozen: Vec::new(),
                    segments: Vec::new(),
                    next_seq: 0,
                    compacting: false,
                    wal: None,
                })
            })
            .collect();
        Ok(SynopsisStore {
            inner: StoreInner {
                config,
                shards,
                durable,
                ingested: AtomicU64::new(0),
                seals: AtomicU64::new(0),
                split_tuples: AtomicU64::new(0),
                telemetry,
                degraded: Arc::new(OnceLock::new()),
                version: AtomicU64::new(0),
                merge_cache: Mutex::new(None),
            },
        })
    }

    /// Opens a **crash-durable** store backed by `dir`: sealed segments are
    /// reloaded from their install-time blobs via the [`Manifest`], and any
    /// records logged by a previous process — live or frozen mid-seal — are
    /// replayed from the per-partition write-ahead logs, so nothing
    /// acknowledged is lost to a crash.
    ///
    /// Reopen order is **manifest → segment blobs → WAL tail**:
    ///
    /// 1. The manifest is loaded (torn-tail tolerant, atomically
    ///    republished) and every live `seg-<p>-<seq>.bin` blob is opened
    ///    **lazily** — footer and meta block verified now, the synopsis
    ///    block on the first query that touches it — and installed at its
    ///    seal sequence.  Orphaned blobs (their manifest record never
    ///    landed) are swept; their records replay from the WAL instead.
    /// 2. The WAL is scanned read-only ([`crate::wal`]'s three-phase
    ///    protocol — an error anywhere leaves all files intact), **skipping
    ///    frozen logs whose seal sequence the manifest covers** (the
    ///    manifest entry is a seal's commit point), then replayed into the
    ///    memtables with auto-sealing suppressed and committed atomically.
    ///
    /// Counters restart at the recovered state: `ingested_records` counts
    /// the blob-installed segments' records plus the replayed WAL records
    /// (per-partition *sub*-records, so an x-tuple split across partitions
    /// before logging counts once per partition, and `split_tuples`
    /// restarts at 0); `seals` counts the loaded segments.  Post-recovery
    /// counters describe the recovered process, not the pre-crash one.
    pub fn open_with_wal(config: StoreConfig, dir: impl AsRef<Path>) -> Result<Self> {
        let recovery_sw = Stopwatch::start();
        let dir = dir.as_ref();
        // The logs are only meaningful under the partition layout that
        // wrote them: a `wal.meta` stamp pins the bounds, so reopening with
        // a different layout errors instead of silently ignoring logs of
        // partitions that no longer exist (or mis-routing records).
        Self::check_wal_meta(&config, dir)?;
        // Telemetry first, so recovery's own I/O (and any cleanup errors
        // swept along the way) is already counted.
        let telemetry = Arc::new(StoreTelemetry::new(config.partitions.len()));
        let policy = IoPolicy::new(Arc::clone(&telemetry));
        let (manifest, live) = Manifest::open_with(dir, config.wal_sync, policy.clone())?;
        let store = Self::with_parts(
            config,
            Some(Durable {
                dir: dir.to_path_buf(),
                manifest: Mutex::new(manifest),
            }),
            telemetry,
        )?;
        // Phase 0: reload the manifest-committed segments from their blobs
        // (entries arrive ascending by (partition, seq), so each shard's
        // segment list stays sequence-ordered).
        let mut loaded_records = 0u64;
        let mut loaded_segments = 0u64;
        for (p, seq) in live {
            if p >= store.num_partitions() {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "manifest names partition {p} but the store has only {} partitions",
                        store.num_partitions()
                    ),
                });
            }
            let path = dir.join(segment_blob_name(p, seq));
            let (start, width) = store.inner.config.partitions.range(p);
            let handle = SegmentHandle::open(&path, &store.inner)?;
            let (blob_start, blob_width) = handle.span();
            if (blob_start, blob_width) != (start, width) {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "segment blob {} covers [{blob_start}, {}] but partition {p} is [{start}, {}]",
                        path.display(),
                        blob_start + blob_width - 1,
                        start + width - 1
                    ),
                });
            }
            loaded_records += handle.records();
            loaded_segments += 1;
            let mut shard = store.write_shard(p);
            shard.segments.push(SealedSegment {
                seq,
                handle: Arc::new(handle),
            });
            shard.next_seq = shard.next_seq.max(seq + 1);
        }
        store
            .inner
            .ingested
            .fetch_add(loaded_records, Ordering::Relaxed);
        store
            .inner
            .seals
            .fetch_add(loaded_segments, Ordering::Relaxed);
        // Phase 1: read-only WAL scans, skipping manifest-covered frozen
        // logs.  Nothing is deleted or truncated, so a corrupt log in any
        // partition aborts with every file intact.
        let mut replays = Vec::with_capacity(store.num_partitions());
        for p in 0..store.num_partitions() {
            let covered = {
                let durable = store.inner.durable.as_ref().expect("durable store");
                let manifest = durable.manifest.lock().expect("manifest lock poisoned");
                manifest.covered_seqs(p)
            };
            replays.push(PartitionWal::scan(dir, p, &covered, &policy)?);
        }
        // Phase 2: replay into the memtables.  Records were already routed
        // (x-tuples split per partition) when first logged; sealing is
        // suppressed so the replayed set stays exactly the set the commit
        // re-logs.
        let mut replayed_records = 0u64;
        for (p, replay) in replays.iter().enumerate() {
            let mut shard = store.write_shard(p);
            for record in &replay.records {
                shard.memtable.insert(record.clone())?;
            }
            replayed_records += replay.records.len() as u64;
        }
        store
            .inner
            .ingested
            .fetch_add(replayed_records, Ordering::Relaxed);
        // Phase 3: publish each partition's recovered live log atomically
        // and attach the append handles.
        for (p, replay) in replays.iter().enumerate() {
            let wal =
                PartitionWal::commit(dir, p, replay, store.inner.config.wal_sync, policy.clone())?;
            store.write_shard(p).wal = Some(wal);
        }
        store.inner.telemetry.record_recovery(
            recovery_sw.elapsed_secs(),
            loaded_segments,
            loaded_records + replayed_records,
        );
        Ok(store)
    }

    /// Validates (or, on first use, writes) the WAL directory's partition
    /// stamp: a space-separated list of the partition bounds in `wal.meta`.
    fn check_wal_meta(config: &StoreConfig, dir: &Path) -> Result<()> {
        let meta_io = |context: &str, e: std::io::Error| PdsError::InvalidParameter {
            message: format!("wal: {context}: {e}"),
        };
        vfs::create_dir_all("recovery-read", dir)
            .map_err(|e| meta_io("creating the wal directory", e))?;
        let path = dir.join("wal.meta");
        let bounds = &config.partitions.bounds;
        let stamp = bounds
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        if path.exists() {
            let on_disk = vfs::read_to_string("recovery-read", &path)
                .map_err(|e| meta_io("reading the partition stamp", e))?;
            if on_disk.trim() != stamp {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "wal directory was written under partition bounds [{}] but the store \
                         is configured with [{stamp}]; reopen with the original layout",
                        on_disk.trim()
                    ),
                });
            }
        } else {
            vfs::write("recovery-commit", &path, format!("{stamp}\n").as_bytes())
                .map_err(|e| meta_io("writing the partition stamp", e))?;
        }
        Ok(())
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.inner.config
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.inner.config.partitions.n()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.inner.config.partitions.len()
    }

    fn write_shard(&self, p: usize) -> RwLockWriteGuard<'_, Shard> {
        self.inner.shards[p].write().expect("shard lock poisoned")
    }

    /// A point-in-time copy of partition `p`'s live memtable.
    ///
    /// # Panics
    ///
    /// Panics when `p >= num_partitions()` (like slice indexing).
    pub fn memtable_snapshot(&self, p: usize) -> Memtable {
        read_shard(&self.inner.shards[p]).memtable.clone()
    }

    /// A point-in-time copy of partition `p`'s sealed segments, oldest
    /// (lowest seal sequence) first.  Lazily-backed segments are decoded
    /// on the way out (off the shard lock); a segment whose synopsis
    /// block cannot be loaded is skipped — the failed load has already
    /// tripped the degraded latch with the cause
    /// ([`SynopsisStore::degraded`]).
    ///
    /// # Panics
    ///
    /// Panics when `p >= num_partitions()` (like slice indexing).
    pub fn segments(&self, p: usize) -> Vec<Segment> {
        let handles = {
            let shard = read_shard(&self.inner.shards[p]);
            shard.handles()
        };
        handles
            .iter()
            .filter_map(|h| h.load().ok())
            .map(|segment| (*segment).clone())
            .collect()
    }

    /// The cause that flipped this store into degraded read-only mode, or
    /// `None` while it is healthy.
    ///
    /// A store degrades when a durable-path write (WAL append/commit/rotate,
    /// blob publish, manifest install/replace) still fails after the
    /// bounded retries.  Degradation is
    /// **sticky**: mutating calls return [`PdsError::Degraded`] from then
    /// on, queries keep serving everything acknowledged before the fault,
    /// and only reopening the directory (which replays the durable state)
    /// clears the condition.
    pub fn degraded(&self) -> Option<String> {
        self.inner.degraded.get().cloned()
    }

    /// Appends one stream record: a batch of one, with everything
    /// [`SynopsisStore::ingest_batch`] documents (x-tuples spanning several
    /// partitions are split per partition, each touched shard's WAL is
    /// group-committed once, a partition whose memtable reaches the seal
    /// threshold is sealed before the call returns).  Thread-safe through
    /// `&self`.
    ///
    /// # Errors
    ///
    /// Returns [`PdsError::Degraded`] without touching any state once the
    /// store has entered degraded read-only mode (see the crate docs).
    pub fn ingest(&self, record: StreamRecord) -> Result<()> {
        self.ingest_batch(std::iter::once(record))
    }

    /// The group-commit boundary of one shard: flushes the WAL appends of
    /// the current ingest call's sub-batch, adding `File::sync_data` on the
    /// [`WalSync::Fsync`] tier — one flush per call per touched shard,
    /// never one per record.
    fn commit_wal_locked(&self, shard: &mut Shard) -> Result<()> {
        if let Some(wal) = shard.wal.as_mut() {
            let sw = Stopwatch::start();
            wal.commit_group(self.inner.config.wal_sync)
                .map_err(|e| self.inner.degrade("wal-commit", e))?;
            self.inner.telemetry.record_wal_commit(sw);
            crashpoint::reached("post-wal-append");
        }
        Ok(())
    }

    /// Runs a reserved compaction round (if any) and every follow-up round
    /// it selects, with no lock held.  A failed round has already cleared
    /// its partition's `compacting` flag and reserves no follow-up, so the
    /// chain simply ends with the error.
    fn run_compaction_chain(&self, mut next: Option<CompactTask>) -> Result<()> {
        while let Some(task) = next {
            next = Self::run_compact_task(&self.inner, task)?;
        }
        Ok(())
    }

    /// Appends a batch of records — the one way a record enters a memtable.
    /// The batch is routed to per-partition sub-batches lock-free (one
    /// pass, arrival order preserved within each partition), then every
    /// partition's sub-batch is inserted in partition order on the calling
    /// thread and its WAL group-committed once.  A partition whose memtable
    /// reaches the seal threshold mid-batch is sealed (and its compaction
    /// chain run) off the shard lock before the rest of its sub-batch is
    /// inserted.  Because each partition sees exactly the sub-sequence of
    /// records it owns — in arrival order, with the same seal points — the
    /// resulting state is **identical to per-record ingest at every batch
    /// cut**.
    ///
    /// A **validation** error rejects the whole batch before anything is
    /// inserted — routing happens first, so the batch is the all-or-nothing
    /// unit for invalid input.  An **insert-time** error (a WAL write
    /// failure, a seal build or commit error) can still leave the batch
    /// partially applied across partitions; such a failed batch is not
    /// added to the accepted-record counters.
    pub fn ingest_batch(&self, records: impl IntoIterator<Item = StreamRecord>) -> Result<()> {
        self.inner.check_writable()?;
        let mut routed: Vec<Vec<StreamRecord>> = vec![Vec::new(); self.num_partitions()];
        let mut ingested = 0u64;
        let mut split = 0u64;
        for record in records {
            split += self.route_one(record, &mut routed)?;
            ingested += 1;
        }
        // Count only after the inserts land, so a failed batch never
        // inflates the accepted-record counters.
        self.insert_routed(routed)?;
        self.inner.ingested.fetch_add(ingested, Ordering::Relaxed);
        self.inner.split_tuples.fetch_add(split, Ordering::Relaxed);
        Ok(())
    }

    /// Validates one record and appends it (split per partition for
    /// x-tuples) to the routing buffers; returns 1 when an x-tuple was split
    /// across partitions.
    fn route_one(&self, record: StreamRecord, routed: &mut [Vec<StreamRecord>]) -> Result<u64> {
        record.validate()?;
        match record {
            StreamRecord::Basic { item, .. } | StreamRecord::ValueDistribution { item, .. } => {
                let p = self.inner.config.partitions.partition_of(item)?;
                routed[p].push(record);
                Ok(0)
            }
            StreamRecord::Alternatives(alts) => {
                let mut by_partition: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
                for (item, prob) in alts {
                    let p = self.inner.config.partitions.partition_of(item)?;
                    by_partition.entry(p).or_default().push((item, prob));
                }
                let split = u64::from(by_partition.len() > 1);
                for (p, sub) in by_partition {
                    routed[p].push(StreamRecord::Alternatives(sub));
                }
                Ok(split)
            }
        }
    }

    /// Inserts the routed sub-batches into their shards in partition order
    /// on the calling thread.  Every non-empty partition is attempted even
    /// after a failure (the fold does not short-circuit: a failed shard must
    /// not decide whether a later shard's records land); the first error in
    /// partition order surfaces.
    fn insert_routed(&self, routed: Vec<Vec<StreamRecord>>) -> Result<()> {
        routed
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(p, batch)| self.ingest_partition_batch(p, batch))
            .fold(Ok(()), Result::and)
    }

    /// Inserts one partition's sub-batch, group-committing the shard's WAL
    /// exactly once, at the end.  Records are inserted under the shard lock
    /// until the sub-batch ends **or a memtable freezes**; at a freeze the
    /// guard drops (the WAL rotation already flushed everything this window
    /// appended), the frozen memtable is sealed off-lock by
    /// [`SynopsisStore::seal_frozen`], and the remainder resumes under a
    /// fresh guard — so seal *k* completes before record *k+1* of this
    /// partition is inserted on this thread.  On the [`WalSync::Fsync`]
    /// tier the records before a freeze are made durable by that seal's own
    /// blob and manifest fsyncs, the remainder by the final commit.
    fn ingest_partition_batch(&self, p: usize, records: Vec<StreamRecord>) -> Result<()> {
        let sw = Stopwatch::start();
        let mut records = records.into_iter();
        loop {
            let frozen = {
                let mut shard = self.write_shard(p);
                let mut frozen = None;
                for record in records.by_ref() {
                    // analyze:allow(lock-discipline) appends to this shard's own WAL (plus, at the threshold, the memtable swap and the rotation of that log) — the shard lock is the log's serialisation point; no build, blob or manifest I/O is reachable from here
                    frozen = self.insert_locked(p, &mut shard, record)?;
                    if frozen.is_some() {
                        break;
                    }
                }
                if frozen.is_none() {
                    // analyze:allow(lock-discipline) the call's single group commit of this shard's own WAL; acknowledging before the flush would lose acknowledged records on a crash
                    self.commit_wal_locked(&mut shard)?;
                }
                frozen
            };
            match frozen {
                Some(task) => self.seal_frozen(task)?,
                None => break,
            }
        }
        self.inner.telemetry.record_batch(sw);
        Ok(())
    }

    /// Inserts one routed record into a locked shard (WAL first).  When the
    /// insert fills the memtable to the seal threshold it is frozen and the
    /// task returned — the caller seals it after releasing the shard lock.
    fn insert_locked(
        &self,
        p: usize,
        shard: &mut Shard,
        record: StreamRecord,
    ) -> Result<Option<SealTask>> {
        if let Some(wal) = shard.wal.as_mut() {
            // Appends are not retryable (a partially buffered frame cannot
            // be rewound), so a failed append degrades immediately.  The
            // record was never acknowledged and never reached the
            // memtable; if the torn buffer ever flushes, replay drops it
            // as the tolerated torn tail.
            wal.append(&record)
                .map_err(|e| self.inner.degrade("wal-append", e))?;
        }
        shard.memtable.insert(record)?;
        self.inner.telemetry.record_ingest(p);
        if shard.memtable.len() >= self.inner.config.seal_threshold {
            return self.freeze(p, shard);
        }
        Ok(None)
    }

    /// Freezes a non-empty memtable for sealing: swaps in an empty memtable,
    /// assigns the seal sequence and rotates the WAL.  `O(1)` plus one file
    /// rename; runs under the shard write lock.  The returned task goes to
    /// [`SynopsisStore::seal_frozen`] once the guard has dropped.
    fn freeze(&self, p: usize, shard: &mut Shard) -> Result<Option<SealTask>> {
        if shard.memtable.is_empty() {
            return Ok(None);
        }
        let (start, width) = self.inner.config.partitions.range(p);
        let memtable = std::mem::replace(&mut shard.memtable, Memtable::new(start, width));
        let seq = shard.next_seq;
        shard.next_seq += 1;
        let wal_frozen = match shard.wal.as_mut() {
            Some(wal) => match wal.rotate(seq) {
                Ok(frozen) => Some(frozen),
                Err(e) => {
                    // The lock is held and the fresh memtable is untouched:
                    // swap the records straight back so a failed rotation
                    // (disk full, rename error) loses nothing.  The retry
                    // budget is already spent inside rotate, so the store
                    // degrades.
                    shard.memtable = memtable;
                    shard.next_seq = seq;
                    return Err(self.inner.degrade("wal-rotate", e));
                }
            },
            None => None,
        };
        self.inner.seals.fetch_add(1, Ordering::Relaxed);
        self.inner
            .telemetry
            .record_frozen(p, seq, wal_frozen.is_some());
        let memtable = Arc::new(memtable);
        shard.frozen.push((seq, Arc::clone(&memtable)));
        Ok(Some(SealTask {
            partition: p,
            seq,
            memtable,
            wal_frozen,
        }))
    }

    /// Builds the configured synopsis segment from a frozen memtable — from
    /// its moment sums where the synopsis reads nothing else (the memtable
    /// module's seal `match`).
    fn build_task(inner: &StoreInner, task: &SealTask) -> Result<Segment> {
        crashpoint::reached("frozen-pre-build");
        let sw = Stopwatch::start();
        let budget = inner.config.segment_budget.min(task.memtable.width());
        let segment = task.memtable.build_segment(inner.config.synopsis, budget)?;
        inner.telemetry.record_seal_build(sw);
        Ok(segment)
    }

    /// Publishes a segment's durable blob — the block-structured `PDSB`
    /// encoding, self-framed by its footer and per-block CRCs — as
    /// `seg-<p>-<seq>.bin` via an atomic tmp-rename.  Both halves are
    /// idempotent (staging re-creates the tmp from scratch, rename/dir-sync
    /// re-issue cleanly), so each gets the policy's bounded retry.  A
    /// failure that outlives it degrades the store under the faulting
    /// site's label (`blob-write` or `blob-publish`).
    fn write_segment_blob(
        inner: &StoreInner,
        durable: &Durable,
        partition: usize,
        seq: u64,
        blob: &[u8],
    ) -> Result<()> {
        let fail = |site: &str, context: &str, e: std::io::Error| {
            let message = format!("store: {context}: {e}");
            inner.degrade(site, PdsError::InvalidParameter { message })
        };
        let (policy, sync) = (inner.io_policy(), inner.config.wal_sync);
        let name = segment_blob_name(partition, seq);
        let tmp = durable.dir.join(format!("{name}.tmp"));
        policy
            .run("blob-write", || {
                // `create` truncates, so a retry restages from byte zero.
                let mut staged = vfs::create("blob-write", &tmp)?;
                vfs::write_all("blob-write", &tmp, &mut staged, blob)?;
                if sync == WalSync::Fsync {
                    vfs::sync_data("blob-write", &tmp, &staged)?;
                }
                Ok(())
            })
            .map_err(|e| fail("blob-write", "staging a segment blob", e))?;
        crashpoint::reached("mid-blob-publish");
        policy
            .run("blob-publish", || {
                vfs::rename("blob-publish", &tmp, &durable.dir.join(&name))
            })
            .map_err(|e| fail("blob-publish", "publishing a segment blob", e))?;
        if sync == WalSync::Fsync {
            // The manifest entry written next is the seal's commit point:
            // the blob's directory entry must hit the device first, or a
            // power loss could persist the entry but not the blob.
            policy
                .run("blob-publish", || {
                    vfs::sync_dir("blob-publish", &durable.dir)
                })
                .map_err(|e| fail("blob-publish", "fsyncing the store directory", e))?;
        }
        Ok(())
    }

    /// The durable half of an install: encodes the segment's blob once,
    /// publishes it and appends the manifest record (the seal's commit
    /// point) — all **before** the frozen WAL file retires, and with **no
    /// shard lock** held, so seal commits never stall ingest or queries on
    /// the shard.  A no-op (past its crash point) on a store without a
    /// durable directory.
    fn commit_durable(
        inner: &StoreInner,
        partition: usize,
        seq: u64,
        segment: &Segment,
    ) -> Result<()> {
        crashpoint::reached("built-pre-install");
        let Some(durable) = &inner.durable else {
            return Ok(());
        };
        let blob = segment.to_blob()?;
        let sw = Stopwatch::start();
        Self::write_segment_blob(inner, durable, partition, seq, &blob)?;
        durable
            .manifest
            .lock()
            .expect("manifest lock poisoned")
            .install(partition, seq)
            .map_err(|e| inner.degrade("manifest-install", e))?;
        inner.telemetry.record_seal_commit(sw, blob.len() as u64);
        crashpoint::reached("installed-pre-wal-retire");
        Ok(())
    }

    /// The in-memory half of an install, run under the shard write lock
    /// after [`SynopsisStore::commit_durable`]: retires the frozen WAL
    /// file, swaps the segment in at its sequence position, drops the
    /// frozen memtable (the segment now carries the mass) and evaluates
    /// the compaction policy, returning the round a full size tier
    /// reserved.  Infallible by design — the commit already happened, so
    /// nothing past this point may lose it.
    fn install_in_memory(
        inner: &StoreInner,
        shard: &mut Shard,
        task: &SealTask,
        segment: Segment,
    ) -> Option<CompactTask> {
        let (partition, seq) = (task.partition, task.seq);
        if let Some(frozen) = &task.wal_frozen {
            // The seal is already manifest-committed, so a failed retire
            // costs nothing but disk space (the covered log is skipped at
            // reopen); count it rather than drop it.
            inner
                .io_policy()
                .cleanup("wal-retire", PartitionWal::retire(frozen));
        }
        inner
            .telemetry
            .record_installed(partition, seq, segment.records());
        shard.install(seq, segment);
        shard.frozen.retain(|&(s, _)| s != seq);
        // A structural commit, made visible under this shard's write lock:
        // invalidates the merge cache and fences snapshot-view captures.
        inner.version.fetch_add(1, Ordering::SeqCst);
        Self::maybe_compaction(inner, shard, partition)
    }

    /// Completes a frozen task with no lock held on entry: durable commit
    /// (blob + manifest), then the shard write lock for the in-memory swap
    /// only — never for file I/O beyond retiring the frozen log.  A failed
    /// build or commit never loses records: they rejoin the live memtable
    /// (ahead of any newer arrivals) and the error surfaces.
    fn complete_seal(
        inner: &StoreInner,
        task: SealTask,
        built: Result<Segment>,
    ) -> Result<Option<CompactTask>> {
        let committed = built.and_then(|segment| {
            Self::commit_durable(inner, task.partition, task.seq, &segment)?;
            Ok(segment)
        });
        let mut shard = inner.shards[task.partition]
            .write()
            .expect("shard lock poisoned");
        match committed {
            Ok(segment) => Ok(Self::install_in_memory(inner, &mut shard, &task, segment)),
            Err(e) => {
                Self::unfreeze(inner, &mut shard, task);
                Err(e)
            }
        }
    }

    /// **The one seal sequence** — the only way a frozen memtable becomes a
    /// segment.  Runs on the thread that froze it, with **no shard lock
    /// held** (calling it under a live guard is a `pds-analyze`
    /// lock-discipline finding): build the segment, commit it durably, swap
    /// it in under a short write lock, then run the compaction chain the
    /// install reserved.  A store that degraded since the freeze skips the
    /// build: the frozen records rejoin the live memtable, still queryable.
    fn seal_frozen(&self, task: SealTask) -> Result<()> {
        let built = self
            .inner
            .check_writable()
            .and_then(|()| Self::build_task(&self.inner, &task));
        let reserved = Self::complete_seal(&self.inner, task, built)?;
        self.run_compaction_chain(reserved)
    }

    /// Evaluates the size-tiered policy after an install (or a completed
    /// compaction round): once the partition has no seals in flight and no
    /// round running, a full tier reserves the next round
    /// (`Shard::reserve_compaction`, under the held write lock).
    fn maybe_compaction(
        inner: &StoreInner,
        shard: &mut Shard,
        partition: usize,
    ) -> Option<CompactTask> {
        let policy = inner.config.compaction?;
        if shard.compacting || !shard.frozen.is_empty() {
            return None;
        }
        let sizes: Vec<(u64, u64)> = shard
            .segments
            .iter()
            .map(|s| (s.seq, s.handle.records()))
            .collect();
        let selected = policy.select(&sizes)?;
        Some(shard.reserve_compaction(partition, &selected))
    }

    /// Returns a frozen memtable's records to the live buffer (and its
    /// frozen WAL file to the live log) after a segment build failed, so a
    /// build error never loses records.
    fn unfreeze(inner: &StoreInner, shard: &mut Shard, task: SealTask) {
        shard.frozen.retain(|&(s, _)| s != task.seq);
        // The shard's shared reference was just dropped, so this is the
        // last one unless a snapshot view captured mid-seal still holds
        // the frozen memtable; clone only then.
        let memtable = Arc::try_unwrap(task.memtable).unwrap_or_else(|shared| (*shared).clone());
        shard.memtable.absorb_front(memtable);
        if let (Some(wal), Some(frozen)) = (shard.wal.as_mut(), task.wal_frozen.as_deref()) {
            // Best-effort: the records are back in memory either way, and
            // at reopen the un-reabsorbed frozen log replays them (its
            // seal never committed) — but a failure is counted, not
            // dropped.
            if wal.reabsorb(frozen).is_err() {
                inner.telemetry.record_cleanup_error("cleanup");
            }
        }
        inner.seals.fetch_sub(1, Ordering::Relaxed);
    }

    /// Seals partition `p`'s memtable into an immutable segment (a no-op on
    /// an empty memtable).  Returns whether a seal was performed.
    pub fn seal_partition(&self, p: usize) -> Result<bool> {
        self.inner.check_writable()?;
        let frozen = {
            let mut shard = self.write_shard(p);
            // analyze:allow(lock-discipline) freeze swaps the memtable and rotates this shard's own WAL atomically with the swap; the build and the blob/manifest commit run in seal_frozen, after this guard drops
            self.freeze(p, &mut shard)?
        };
        match frozen {
            Some(task) => self.seal_frozen(task).map(|()| true),
            None => Ok(false),
        }
    }

    /// Seals every non-empty memtable and waits for the resulting segments:
    /// the freezes happen serially (cheap swaps), then each frozen memtable
    /// runs the one seal sequence on the scoped thread pool.  Partitions are
    /// independent and installation follows the seal sequence, so the
    /// sealed state is identical to serial sealing at every thread count.
    pub fn seal_all(&self) -> Result<()> {
        self.inner.check_writable()?;
        let mut tasks: Vec<SealTask> = Vec::new();
        for p in 0..self.num_partitions() {
            let frozen = {
                let mut shard = self.write_shard(p);
                // analyze:allow(lock-discipline) freeze only swaps the memtable and rotates this shard's own WAL; every build and blob/manifest commit runs in seal_frozen on the pool, after the guards have dropped
                self.freeze(p, &mut shard)
            };
            match frozen {
                Ok(Some(task)) => tasks.push(task),
                Ok(None) => {}
                Err(e) => {
                    // Nothing will seal the partitions frozen so far: give
                    // their records back before surfacing the error.
                    for task in tasks {
                        let mut shard = self.write_shard(task.partition);
                        Self::unfreeze(&self.inner, &mut shard, task);
                    }
                    return Err(e);
                }
            }
        }
        pool::parallel_map(tasks, |task| self.seal_frozen(task))
            .into_iter()
            .collect()
    }

    /// Builds a compaction round's merged segment from the cloned input
    /// handles — the expensive half (piece summing + the merge DP), run
    /// with **no lock held**.
    fn build_compacted(inner: &StoreInner, task: &CompactTask) -> Result<Segment> {
        // Lazily-backed inputs load here, with no lock held; a block that
        // cannot be read fails the round (the inputs stay authoritative)
        // rather than merging a silently incomplete set.  A round has at
        // least two inputs, so the pieces always go through `sum_pieces`.
        let summed =
            partition_pieces(task.inputs.iter().map(|(_, handle)| handle))?.unwrap_or_default();
        let (start, width) = inner.config.partitions.range(task.partition);
        let budget = inner.config.segment_budget.min(width);
        let synopsis = match inner.config.synopsis {
            SynopsisKind::Histogram(_) => {
                SegmentSynopsis::Histogram(optimal_piecewise_histogram(&summed, budget)?)
            }
            SynopsisKind::Wavelet => {
                // Re-threshold the summed estimate vector: wavelets have no
                // piece-level DP, so go through the dense reconstruction.
                let dense: Vec<f64> = summed
                    .iter()
                    .flat_map(|piece| std::iter::repeat_n(piece.value, piece.width))
                    .collect();
                SegmentSynopsis::Wavelet(build_sse_wavelet_from_means(&dense, budget)?)
            }
        };
        let records = task.inputs.iter().map(|(_, h)| h.records()).sum();
        Segment::new(start, records, synopsis)
    }

    /// The fallible half of a compaction round, run with **no lock held**:
    /// merge, stage the output blob, then commit the replacement through
    /// the manifest (same discipline as seal installs).  A crash before the
    /// publish leaves the inputs authoritative and the output blob an
    /// orphan (swept at open); a crash after it reopens compacted.  Returns
    /// the merged segment and its blob size.
    fn commit_compaction(
        inner: &StoreInner,
        task: &CompactTask,
        input_seqs: &[u64],
    ) -> Result<(Segment, u64)> {
        // A degraded store runs no rounds: the inputs stay authoritative
        // and queryable.
        inner.check_writable()?;
        let merged = Self::build_compacted(inner, task)?;
        crashpoint::reached("mid-compaction-swap");
        // The reservation serialises rounds per partition and seals only
        // add segments, so the inputs must still be present; anything else
        // is a logic error worth surfacing (checked before the durable
        // commit makes the round irreversible).
        {
            let shard = inner.shards[task.partition]
                .read()
                .expect("shard lock poisoned");
            if input_seqs
                .iter()
                .any(|seq| !shard.segments.iter().any(|s| s.seq == *seq))
            {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "compaction inputs of partition {} changed under a reserved round",
                        task.partition
                    ),
                });
            }
        }
        let Some(durable) = &inner.durable else {
            return Ok((merged, 0));
        };
        let blob = merged.to_blob()?;
        Self::write_segment_blob(inner, durable, task.partition, task.out_seq, &blob)?;
        let committed = durable
            .manifest
            .lock()
            .expect("manifest lock poisoned")
            .replace(task.partition, input_seqs, task.out_seq);
        if let Err(e) = committed {
            // The manifest still names the inputs; drop the orphan output
            // blob (counted on failure, and swept again at the next open
            // either way) and surface the error.
            let orphan = durable
                .dir
                .join(segment_blob_name(task.partition, task.out_seq));
            inner
                .io_policy()
                .cleanup("cleanup", vfs::remove_file("cleanup", &orphan));
            return Err(inner.degrade("manifest-replace", e));
        }
        Ok((merged, blob.len() as u64))
    }

    /// Runs one reserved compaction round end to end: the off-lock
    /// [`SynopsisStore::commit_compaction`], then the **short write lock**
    /// — remove the inputs, insert the output at its reserved sequence and
    /// re-evaluate the policy — then delete the superseded blobs.  Returns
    /// the follow-up round, if the swap filled another tier.  Every exit
    /// clears the partition's `compacting` flag.
    fn run_compact_task(inner: &StoreInner, task: CompactTask) -> Result<Option<CompactTask>> {
        let sw = Stopwatch::start();
        let input_seqs: Vec<u64> = task.inputs.iter().map(|&(seq, _)| seq).collect();
        let committed = Self::commit_compaction(inner, &task, &input_seqs);
        let mut shard = inner.shards[task.partition]
            .write()
            .expect("shard lock poisoned");
        shard.compacting = false;
        let (merged, blob_bytes) = committed?;
        shard.segments.retain(|s| !input_seqs.contains(&s.seq));
        shard.install(task.out_seq, merged);
        // The swap is a structural commit (see `StoreInner::version`).
        inner.version.fetch_add(1, Ordering::SeqCst);
        let next = Self::maybe_compaction(inner, &mut shard, task.partition);
        drop(shard);
        inner.telemetry.record_compaction(
            sw,
            task.partition,
            task.out_seq,
            input_seqs.len() as u64,
            blob_bytes,
        );
        if let Some(durable) = &inner.durable {
            // Superseded input blobs are garbage once the replace record is
            // durable; a failed delete is counted, not fatal (the orphan
            // sweep at the next open removes the leftover).
            let policy = inner.io_policy();
            for seq in &input_seqs {
                let superseded = durable.dir.join(segment_blob_name(task.partition, *seq));
                policy.cleanup("cleanup", vfs::remove_file("cleanup", &superseded));
            }
        }
        Ok(next)
    }

    /// Compacts partition `p`: its sealed segments are summed on the union
    /// of their bucket boundaries and re-bucketed to the segment budget via
    /// the merge DP, leaving one segment.  A no-op with fewer than two
    /// segments, or while another thread's round is already running for
    /// the partition.
    ///
    /// The shard write lock is held only to reserve the round and to swap
    /// the merged segment in — the merge DP runs against cloned segment
    /// handles with no lock held, so ingest and queries proceed during
    /// compaction.
    pub fn compact_partition(&self, p: usize) -> Result<()> {
        self.inner.check_writable()?;
        let task = {
            let mut shard = self.write_shard(p);
            if shard.compacting || shard.segments.len() < 2 {
                return Ok(());
            }
            let all: Vec<u64> = shard.segments.iter().map(|s| s.seq).collect();
            shard.reserve_compaction(p, &all)
        };
        self.run_compaction_chain(Some(task))
    }

    /// Compacts every partition, one pool task per partition (partitions
    /// are independent, so the result is identical to serial compaction).
    pub fn compact_all(&self) -> Result<()> {
        let results = pool::parallel_map((0..self.num_partitions()).collect(), |p| {
            self.compact_partition(p)
        });
        results.into_iter().collect()
    }

    /// Serialises the sealed state into the compact binary format.  Live
    /// memtable records are intentionally **not** persisted — the store
    /// refuses to serialise while unsealed data exists (a memtable frozen
    /// for a seal in flight on another thread counts), so a snapshot can
    /// never silently drop records; call [`SynopsisStore::snapshot`] to
    /// seal and serialise in one step, or [`SynopsisStore::seal_all`]
    /// first.
    pub fn to_binary(&self) -> Result<Vec<u8>> {
        let live = self.stats().live_records;
        if live > 0 {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "store has {live} unsealed records; call snapshot() or seal_all() before persisting"
                ),
            });
        }
        let mut w = ByteWriter::envelope(Self::BINARY_MAGIC, Self::BINARY_VERSION);
        let bounds = &self.inner.config.partitions.bounds;
        w.put_varint(bounds.len() as u64);
        let mut prev = 0u64;
        for &b in bounds {
            w.put_varint(b as u64 - prev);
            prev = b as u64;
        }
        w.put_varint(self.inner.config.seal_threshold as u64);
        w.put_varint(self.inner.config.segment_budget as u64);
        encode_synopsis_kind(&mut w, self.inner.config.synopsis);
        w.put_varint(self.inner.ingested.load(Ordering::Relaxed));
        w.put_varint(self.inner.seals.load(Ordering::Relaxed));
        w.put_varint(self.inner.split_tuples.load(Ordering::Relaxed));
        // One consistent cut of every partition's handles, encoded
        // off-guard: a reopened segment's first touch reads its synopsis
        // block from disk, which must never run under a shard lock.
        let (cut, _) = self.capture_cut(0..self.num_partitions(), Shard::handles);
        for sealed in cut {
            w.put_varint(sealed.len() as u64);
            for handle in sealed {
                let pdsg = handle.load()?.to_binary()?;
                w.put_varint(pdsg.len() as u64);
                w.put_bytes(&pdsg);
            }
        }
        Ok(w.into_bytes())
    }

    /// Seals every live memtable and serialises the result: the "persist
    /// everything now" entry point.  Racing a concurrent writer it errs
    /// (records that arrive after the seal are live again) rather than
    /// drop them.
    /// Sealing — rather than copying raw records into the snapshot — keeps
    /// the binary format segment-only and the write amplification bounded;
    /// records that must survive *without* being sealed into synopses
    /// belong to the write-ahead log ([`SynopsisStore::open_with_wal`]),
    /// which covers exactly the live/in-flight window this method closes.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        self.seal_all()?;
        self.to_binary()
    }

    /// Reconstructs a store from [`SynopsisStore::to_binary`] output,
    /// rejecting truncation, version skew and segments that do not tile
    /// their partition with a [`PdsError`] — never a panic.
    pub fn from_binary(bytes: &[u8]) -> Result<Self> {
        let (mut r, version) = ByteReader::envelope(bytes, "synopsis store", Self::BINARY_MAGIC)?;
        if version != Self::BINARY_VERSION {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "store binary version {version} is not supported (expected {})",
                    Self::BINARY_VERSION
                ),
            });
        }
        let bound_count = r.get_len(1 << 24)?;
        let mut bounds = Vec::with_capacity(bound_count);
        let mut acc = 0usize;
        for i in 0..bound_count {
            let delta = r.get_len(u32::MAX as usize)?;
            acc += delta;
            if i == 0 && delta != 0 {
                return Err(PdsError::InvalidParameter {
                    message: "store: partition bounds must start at 0".into(),
                });
            }
            bounds.push(acc);
        }
        let partitions = PartitionSpec::from_bounds(bounds)?;
        // Plain scalars, not allocation sizes: any value the writer accepted
        // must decode (the "never auto-seal" configs use huge thresholds).
        let seal_threshold = r.get_len(usize::MAX)?;
        let segment_budget = r.get_len(usize::MAX)?;
        let synopsis = decode_synopsis_kind(&mut r)?;
        let ingested = r.get_varint()?;
        let seals = r.get_varint()?;
        let split_tuples = r.get_varint()?;
        // The runtime knobs (compaction policy, durability tier) are not
        // part of the persistent format; a decoded store gets the defaults.
        let store = SynopsisStore::new(StoreConfig::new(
            partitions,
            seal_threshold,
            segment_budget,
            synopsis,
        ))?;
        for p in 0..store.num_partitions() {
            let count = r.get_len(1 << 24)?;
            let (start, width) = store.inner.config.partitions.range(p);
            let mut shard = store.write_shard(p);
            for seq in 0..count {
                let len = r.get_len(r.remaining())?;
                let blob = r.get_bytes(len)?;
                let segment = Segment::from_binary(blob)?;
                if segment.start() != start || segment.width() != width {
                    return Err(PdsError::InvalidParameter {
                        message: format!(
                            "segment [{}, {}] does not tile partition {p} ([{start}, {}])",
                            segment.start(),
                            segment.end(),
                            start + width - 1
                        ),
                    });
                }
                shard.install(seq as u64, segment);
            }
            shard.next_seq = count as u64;
        }
        r.finish()?;
        store.inner.ingested.store(ingested, Ordering::Relaxed);
        store.inner.seals.store(seals, Ordering::Relaxed);
        store
            .inner
            .split_tuples
            .store(split_tuples, Ordering::Relaxed);
        Ok(store)
    }
}

fn encode_synopsis_kind(w: &mut ByteWriter, kind: SynopsisKind) {
    match kind {
        SynopsisKind::Histogram(metric) => {
            w.put_u8(0);
            match metric {
                ErrorMetric::Sse => w.put_u8(0),
                ErrorMetric::Ssre { c } => {
                    w.put_u8(1);
                    w.put_f64(c);
                }
                ErrorMetric::Sae => w.put_u8(2),
                ErrorMetric::Sare { c } => {
                    w.put_u8(3);
                    w.put_f64(c);
                }
                ErrorMetric::Mae => w.put_u8(4),
                ErrorMetric::Mare { c } => {
                    w.put_u8(5);
                    w.put_f64(c);
                }
            }
        }
        SynopsisKind::Wavelet => w.put_u8(1),
    }
}

fn decode_synopsis_kind(r: &mut ByteReader<'_>) -> Result<SynopsisKind> {
    match r.get_u8()? {
        0 => {
            let metric = match r.get_u8()? {
                0 => ErrorMetric::Sse,
                1 => ErrorMetric::Ssre { c: r.get_f64()? },
                2 => ErrorMetric::Sae,
                3 => ErrorMetric::Sare { c: r.get_f64()? },
                4 => ErrorMetric::Mae,
                5 => ErrorMetric::Mare { c: r.get_f64()? },
                other => {
                    return Err(PdsError::InvalidParameter {
                        message: format!("store: unknown error metric tag {other}"),
                    })
                }
            };
            Ok(SynopsisKind::Histogram(metric))
        }
        1 => Ok(SynopsisKind::Wavelet),
        other => Err(PdsError::InvalidParameter {
            message: format!("store: unknown synopsis kind tag {other}"),
        }),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pds_core::stream::{basic_stream, BasicStreamConfig};

    pub(crate) fn config(n: usize, parts: usize, threshold: usize) -> StoreConfig {
        StoreConfig::new(
            PartitionSpec::uniform(n, parts).unwrap(),
            threshold,
            8,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        )
    }

    #[test]
    fn partition_spec_routes_and_validates() {
        let spec = PartitionSpec::uniform(10, 3).unwrap();
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.n(), 10);
        assert_eq!(spec.range(0), (0, 3));
        assert_eq!(spec.range(2), (6, 4));
        assert_eq!(spec.partition_of(0).unwrap(), 0);
        assert_eq!(spec.partition_of(5).unwrap(), 1);
        assert_eq!(spec.partition_of(9).unwrap(), 2);
        assert!(spec.partition_of(10).is_err());
        assert!(PartitionSpec::uniform(2, 3).is_err());
        assert!(PartitionSpec::from_bounds(vec![1, 5]).is_err());
        assert!(PartitionSpec::from_bounds(vec![0, 5, 5]).is_err());
        assert!(PartitionSpec::from_bounds(vec![0]).is_err());
    }

    #[test]
    fn ingest_routes_seals_and_serves() {
        let store = SynopsisStore::new(config(12, 3, 4)).unwrap();
        // Exactly threshold records into partition 0 trigger an auto-seal.
        for i in 0..4 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 4,
                    prob: 0.5,
                })
                .unwrap();
        }
        assert_eq!(store.segments(0).len(), 1);
        assert!(store.memtable_snapshot(0).is_empty());
        // Live records in another partition are served exactly.
        store
            .ingest(StreamRecord::Basic { item: 8, prob: 0.9 })
            .unwrap();
        assert!((store.range_estimate(8, 8) - 0.9).abs() < 1e-12);
        // The sealed partition serves from its synopsis; with 8 buckets over
        // width 4 the histogram is exact.
        assert!((store.range_estimate(0, 3) - 2.0).abs() < 1e-9);
        let stats = store.stats();
        assert_eq!(stats.ingested_records, 5);
        assert_eq!(stats.live_records, 1);
        assert_eq!(stats.seals, 1);
        assert_eq!(stats.segments, 1);
    }

    #[test]
    fn batch_ingest_matches_serial_ingest_exactly() {
        let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
            n: 48,
            skew: 0.6,
            seed: 77,
        })
        .take(500)
        .chain([
            StreamRecord::Alternatives(vec![(3, 0.25), (40, 0.5)]),
            StreamRecord::ValueDistribution {
                item: 9,
                entries: vec![(2.0, 0.5)],
            },
        ])
        .collect();
        let serial = SynopsisStore::new(config(48, 4, 64)).unwrap();
        for record in &records {
            serial.ingest(record.clone()).unwrap();
        }
        let batched = SynopsisStore::new(config(48, 4, 64)).unwrap();
        batched.ingest_batch(records).unwrap();
        assert_eq!(batched.stats(), serial.stats());
        serial.seal_all().unwrap();
        batched.seal_all().unwrap();
        assert_eq!(batched.to_binary().unwrap(), serial.to_binary().unwrap());
    }

    #[test]
    fn cross_partition_x_tuples_are_split_preserving_marginals() {
        let store = SynopsisStore::new(config(12, 3, 100)).unwrap();
        store
            .ingest(StreamRecord::Alternatives(vec![
                (1, 0.25),
                (5, 0.25),
                (10, 0.5),
            ]))
            .unwrap();
        assert_eq!(store.stats().split_tuples, 1);
        assert!((store.range_estimate(1, 1) - 0.25).abs() < 1e-12);
        assert!((store.range_estimate(5, 5) - 0.25).abs() < 1e-12);
        assert!((store.range_estimate(10, 10) - 0.5).abs() < 1e-12);
        assert!((store.range_estimate(0, 11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compaction_preserves_the_summed_estimates_when_lossless() {
        let store = SynopsisStore::new(config(8, 2, 100)).unwrap();
        // Two seal rounds for partition 0 produce two segments whose
        // histograms are exact (budget 8 >= width 4).
        for round in 0..2 {
            for i in 0..4 {
                store
                    .ingest(StreamRecord::Basic {
                        item: i,
                        prob: 0.25 * (round + 1) as f64,
                    })
                    .unwrap();
            }
            store.seal_partition(0).unwrap();
        }
        assert_eq!(store.segments(0).len(), 2);
        let before: Vec<f64> = (0..4).map(|i| store.estimate(i)).collect();
        store.compact_partition(0).unwrap();
        assert_eq!(store.segments(0).len(), 1);
        let after: Vec<f64> = (0..4).map(|i| store.estimate(i)).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9);
        }
        assert_eq!(store.segments(0)[0].records(), 8);
        // Compacting a single segment is a no-op.
        store.compact_partition(0).unwrap();
        assert_eq!(store.segments(0).len(), 1);
    }

    #[test]
    fn binary_round_trip_preserves_queries_and_stats() {
        let store = SynopsisStore::new(config(32, 4, 16)).unwrap();
        let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
            n: 32,
            skew: 0.7,
            seed: 5,
        })
        .take(200)
        .collect();
        store.ingest_batch(records).unwrap();
        // Unsealed data blocks persistence.
        if store.stats().live_records > 0 {
            assert!(store.to_binary().is_err());
        }
        store.seal_all().unwrap();
        let bytes = store.to_binary().unwrap();
        let back = SynopsisStore::from_binary(&bytes).unwrap();
        assert_eq!(back.stats(), store.stats());
        assert_eq!(back.config(), store.config());
        for (lo, hi) in [(0usize, 31usize), (3, 17), (20, 20), (9, 30)] {
            assert!((back.range_estimate(lo, hi) - store.range_estimate(lo, hi)).abs() < 1e-12);
        }
        // Corruption surfaces as errors, never panics.
        for cut in 0..bytes.len().min(64) {
            assert!(SynopsisStore::from_binary(&bytes[..cut]).is_err());
        }
        assert!(SynopsisStore::from_binary(&bytes[..bytes.len() - 1]).is_err());
        let mut skewed = bytes.clone();
        skewed[4] = 9;
        assert!(SynopsisStore::from_binary(&skewed).is_err());
    }

    #[test]
    fn snapshot_seals_live_records_first() {
        let store = SynopsisStore::new(config(16, 2, 1000)).unwrap();
        store
            .ingest(StreamRecord::Basic { item: 3, prob: 0.5 })
            .unwrap();
        // to_binary still refuses while records are live ...
        assert!(store.to_binary().is_err());
        // ... but snapshot seals and serialises in one step.
        let bytes = store.snapshot().unwrap();
        assert_eq!(store.stats().live_records, 0);
        let back = SynopsisStore::from_binary(&bytes).unwrap();
        assert!((back.range_estimate(3, 3) - 0.5).abs() < 1e-12);
    }

    /// The WAL frame of one basic record.
    fn wal_frame(item: usize, prob: f64) -> Vec<u8> {
        crate::wal::frame_record(&StreamRecord::Basic { item, prob }).unwrap()
    }

    #[test]
    fn wal_replay_recovers_live_and_in_flight_records() {
        let dir = std::env::temp_dir().join(format!("pds-store-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
            for i in 0..5 {
                store
                    .ingest(StreamRecord::Basic { item: i, prob: 0.5 })
                    .unwrap();
            }
            store
                .ingest(StreamRecord::Alternatives(vec![(1, 0.25), (12, 0.5)]))
                .unwrap();
            assert_eq!(store.stats().live_records, 7); // x-tuple split into 2
                                                       // Dropped without sealing: records survive only in the WAL.
        }
        // Simulate a crash mid-seal on top: a frozen log whose segment never
        // landed must replay as live records too.
        std::fs::write(dir.join("wal-1.7.sealing"), wal_frame(14, 0.25)).unwrap();
        let reopened = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
        assert_eq!(reopened.stats().live_records, 8);
        for (item, expected) in [(0usize, 0.5), (1, 0.75), (4, 0.5), (12, 0.5), (14, 0.25)] {
            assert!(
                (reopened.range_estimate(item, item) - expected).abs() < 1e-12,
                "item {item}"
            );
        }
        // Sealing retires the logs and installs durable segment blobs: a
        // third open replays no live records but reloads every sealed
        // segment through the manifest — sealed state now survives a crash
        // without any snapshot.
        reopened.seal_all().unwrap();
        drop(reopened);
        let after_seal = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
        assert_eq!(after_seal.stats().live_records, 0);
        assert_eq!(after_seal.stats().segments, 2);
        for (item, expected) in [(0usize, 0.5), (1, 0.75), (4, 0.5), (12, 0.5), (14, 0.25)] {
            assert!(
                (after_seal.range_estimate(item, item) - expected).abs() < 1e-9,
                "item {item} after reopen-from-blobs"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_wal_replay_destroys_nothing() {
        // A corrupt log in one partition must abort the open while leaving
        // every other partition's log intact for a later attempt.
        let dir =
            std::env::temp_dir().join(format!("pds-store-wal-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
            store
                .ingest(StreamRecord::Basic { item: 2, prob: 0.5 })
                .unwrap();
        }
        // Corrupt partition 1's live log by hand (a frame with one payload
        // bit flipped, so its checksum fails — mid-file, so the torn-tail
        // lenience does not apply).
        let good = wal_frame(10, 0.5);
        let mut bad = good.clone();
        bad[good.len() - 5] ^= 0x10;
        std::fs::write(dir.join("wal-1.log"), [bad, good].concat()).unwrap();
        assert!(SynopsisStore::open_with_wal(config(16, 2, 100), &dir).is_err());
        // Partition 0's records survived the failed recovery.
        std::fs::write(dir.join("wal-1.log"), wal_frame(9, 0.25)).unwrap();
        let recovered = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
        assert!((recovered.range_estimate(2, 2) - 0.5).abs() < 1e-12);
        assert!((recovered.range_estimate(9, 9) - 0.25).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_segments_survive_reopen_through_manifest_and_blobs() {
        let dir = std::env::temp_dir().join(format!("pds-store-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = config(16, 2, 4);
        {
            let store = SynopsisStore::open_with_wal(cfg.clone(), &dir).unwrap();
            // Two auto-seals in partition 0, one manual in partition 1,
            // plus two live records.
            for i in 0..8 {
                store
                    .ingest(StreamRecord::Basic {
                        item: i % 4,
                        prob: 0.5,
                    })
                    .unwrap();
            }
            store
                .ingest(StreamRecord::Basic {
                    item: 9,
                    prob: 0.25,
                })
                .unwrap();
            store.seal_partition(1).unwrap();
            store
                .ingest(StreamRecord::Basic {
                    item: 2,
                    prob: 0.125,
                })
                .unwrap();
            store
                .ingest(StreamRecord::Basic {
                    item: 14,
                    prob: 0.5,
                })
                .unwrap();
            assert_eq!(store.stats().segments, 3);
            assert_eq!(store.stats().live_records, 2);
            // Blobs and manifest exist without any snapshot() call.
            assert!(dir.join("MANIFEST").exists());
            assert!(dir.join("seg-0-0.bin").exists());
            assert!(dir.join("seg-0-1.bin").exists());
            assert!(dir.join("seg-1-0.bin").exists());
        }
        // Reopen: segments come back from blobs, live records from the WAL.
        let reopened = SynopsisStore::open_with_wal(cfg, &dir).unwrap();
        let stats = reopened.stats();
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.live_records, 2);
        assert_eq!(stats.seals, 3);
        assert_eq!(stats.ingested_records, 11);
        // Dyadic probabilities: the estimates are exact, so equality is
        // bitwise.
        assert_eq!(reopened.range_estimate(0, 0), 1.0);
        assert_eq!(reopened.range_estimate(2, 2), 1.0 + 0.125);
        assert_eq!(reopened.range_estimate(9, 9), 0.25);
        assert_eq!(reopened.range_estimate(14, 14), 0.5);
        // A fresh seal continues the sequence without colliding.
        reopened.seal_all().unwrap();
        assert_eq!(reopened.stats().live_records, 0);
        assert!(dir.join("seg-0-2.bin").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_merges_full_tiers_and_preserves_estimates() {
        let mut cfg = config(8, 2, 4);
        cfg.compaction = Some(crate::CompactionPolicy {
            min_merge: 2,
            tier_ratio: 2.0,
        });
        let store = SynopsisStore::new(cfg).unwrap();
        // Eight records into partition 0 = two threshold seals; the second
        // install fills the 2-segment tier and auto-compacts to one.
        for round in 0..2 {
            for i in 0..4 {
                store
                    .ingest(StreamRecord::Basic {
                        item: i,
                        prob: 0.25 * (round + 1) as f64,
                    })
                    .unwrap();
            }
        }
        assert_eq!(store.segments(0).len(), 1, "tier of two auto-compacted");
        assert_eq!(store.segments(0)[0].records(), 8);
        for i in 0..4 {
            assert!((store.estimate(i) - 0.75).abs() < 1e-9, "item {i}");
        }
        // The compacted output participates in the next tier: two more
        // seals (8 records, similar size) eventually merge with it.
        for _ in 0..2 {
            for i in 0..4 {
                store
                    .ingest(StreamRecord::Basic { item: i, prob: 0.5 })
                    .unwrap();
            }
        }
        let sizes: Vec<u64> = store.segments(0).iter().map(Segment::records).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 16, "no records lost: {sizes:?}");
        for i in 0..4 {
            assert!((store.estimate(i) - 1.75).abs() < 1e-9, "item {i}");
        }
    }

    #[test]
    fn durable_auto_compaction_retires_superseded_blobs() {
        let dir =
            std::env::temp_dir().join(format!("pds-store-compact-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = config(8, 1, 4);
        cfg.compaction = Some(crate::CompactionPolicy {
            min_merge: 2,
            tier_ratio: 4.0,
        });
        {
            let store = SynopsisStore::open_with_wal(cfg.clone(), &dir).unwrap();
            for round in 0..2u32 {
                for i in 0..4 {
                    store
                        .ingest(StreamRecord::Basic {
                            item: i + 4 * ((round as usize) % 2),
                            prob: 0.5,
                        })
                        .unwrap();
                }
            }
            assert_eq!(store.segments(0).len(), 1);
            // Inputs 0 and 1 merged into seq 2: their blobs are gone, the
            // output's blob is live.
            assert!(!dir.join("seg-0-0.bin").exists());
            assert!(!dir.join("seg-0-1.bin").exists());
            assert!(dir.join("seg-0-2.bin").exists());
        }
        let reopened = SynopsisStore::open_with_wal(cfg, &dir).unwrap();
        assert_eq!(reopened.stats().segments, 1);
        assert_eq!(reopened.range_estimate(0, 7), 4.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wavelet_store_lifecycle() {
        let store = SynopsisStore::new(StoreConfig::new(
            PartitionSpec::uniform(16, 2).unwrap(),
            8,
            4,
            SynopsisKind::Wavelet,
        ))
        .unwrap();
        let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
            n: 16,
            skew: 0.5,
            seed: 9,
        })
        .take(40)
        .collect();
        store.ingest_batch(records).unwrap();
        store.seal_all().unwrap();
        let sealed: Vec<Vec<Segment>> = (0..2).map(|p| store.segments(p)).collect();
        store.compact_all().unwrap();
        for p in 0..2 {
            assert_eq!(store.segments(p).len().min(1), store.segments(p).len());
        }
        // Re-thresholding from the summed estimate vector is bitwise the
        // deterministic-relation build it replaced.
        let layers: Vec<Vec<_>> = sealed[0].iter().map(Segment::pieces).collect();
        assert!(layers.len() >= 2, "partition 0 compacted");
        let dense: Vec<f64> = pds_histogram::sum_pieces(&layers)
            .unwrap()
            .iter()
            .flat_map(|piece| std::iter::repeat_n(piece.value, piece.width))
            .collect();
        let relation = pds_core::model::ValuePdfModel::deterministic(&dense).into();
        assert_eq!(
            store.segments(0)[0].synopsis(),
            &SegmentSynopsis::Wavelet(pds_wavelet::build_sse_wavelet(&relation, 4).unwrap())
        );
        let merged = store.merge_global(6).unwrap();
        assert_eq!(merged.n(), 16);
        let bytes = store.to_binary().unwrap();
        let back = SynopsisStore::from_binary(&bytes).unwrap();
        assert!((back.range_estimate(0, 15) - store.range_estimate(0, 15)).abs() < 1e-12);
    }

    #[test]
    fn huge_seal_thresholds_survive_the_binary_round_trip() {
        // The "never auto-seal" configs (benches, manual-seal tests) use
        // near-usize::MAX thresholds; the snapshot must round-trip them.
        let store = SynopsisStore::new(StoreConfig::new(
            PartitionSpec::uniform(8, 2).unwrap(),
            usize::MAX >> 1,
            4,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        ))
        .unwrap();
        store
            .ingest(StreamRecord::Basic { item: 1, prob: 0.5 })
            .unwrap();
        store.seal_all().unwrap();
        let bytes = store.to_binary().unwrap();
        let back = SynopsisStore::from_binary(&bytes).unwrap();
        assert_eq!(back.config(), store.config());
        assert_eq!(back.range_estimate(0, 7), store.range_estimate(0, 7));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let spec = PartitionSpec::uniform(8, 2).unwrap();
        assert!(
            SynopsisStore::new(StoreConfig::new(spec.clone(), 0, 4, SynopsisKind::Wavelet))
                .is_err()
        );
        assert!(SynopsisStore::new(StoreConfig::new(spec, 4, 0, SynopsisKind::Wavelet)).is_err());
    }

    #[test]
    fn empty_domain_store_answers_zero_not_panic() {
        // Regression: `estimate(0)` used to clamp `hi` to 0 via
        // `n().saturating_sub(1)` and then die on
        // `partition_of(lo).expect("lo in domain")`.  A degenerate spec is
        // only constructible in-module (from_bounds demands two bounds),
        // which is exactly how a decoder bug or future refactor would
        // produce it — the query path must shrug, not crash.
        let spec = PartitionSpec { bounds: vec![0] };
        assert_eq!(spec.n(), 0);
        assert_eq!(spec.len(), 0);
        let store = SynopsisStore::new(StoreConfig::new(
            spec,
            4,
            4,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        ))
        .unwrap();
        assert_eq!(store.n(), 0);
        assert_eq!(store.estimate(0), 0.0);
        assert_eq!(store.range_estimate(0, 0), 0.0);
        assert_eq!(store.range_estimate(0, usize::MAX), 0.0);
        assert_eq!(store.stats().live_records, 0);
        let view = store.snapshot_view();
        assert_eq!(view.estimate(0), 0.0);
        assert_eq!(view.range_estimate(3, 99), 0.0);
    }

    #[test]
    fn stats_json_round_trips_and_rejects_skew() {
        let store = SynopsisStore::new(config(12, 3, 4)).unwrap();
        for i in 0..7 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 12,
                    prob: 0.5,
                })
                .unwrap();
        }
        store
            .ingest(StreamRecord::Alternatives(vec![(0, 0.25), (11, 0.5)]))
            .unwrap();
        let stats = store.stats();
        let json = stats.to_json().unwrap();
        // Single line (the server sends it as one `OK <json>` reply) with
        // the versioned envelope shape.
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"version\":1,"));
        assert_eq!(StoreStats::from_json(&json).unwrap(), stats);
        // Version skew and malformed payloads are errors, not panics.
        assert!(StoreStats::from_json(&json.replace("\"version\":1", "\"version\":99")).is_err());
        assert!(StoreStats::from_json("not json").is_err());
        assert!(StoreStats::from_json("{\"version\":1}").is_err());
    }
}
