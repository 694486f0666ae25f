//! Read-path acceleration equivalence suite: segment pruning, lazy
//! synopsis blocks and the merged-synopsis cache must all be **bitwise
//! invisible**.  The store has no knob to turn them off, so the reference
//! is written here: a full walk over `segments(p)` + `memtable_snapshot(p)`
//! that prunes nothing.  Every store and view answer must bit-equal it at
//! every pool width, a reopened store must bit-equal the store that wrote
//! it, and the telemetry counters prove the fast paths actually engaged.

use pds_core::metrics::ErrorMetric;
use pds_core::pool;
use pds_core::stream::StreamRecord;
use pds_store::{PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

/// Domain and partitioning: 4 partitions of 24 items each, 12 two-item
/// bands per partition — a point query can need at most 1 segment in 12.
const N: usize = 96;
const PARTS: usize = 4;
const BAND: usize = 2;
const BANDS: usize = 12;

fn config() -> StoreConfig {
    StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).unwrap(),
        1 << 20, // manual seals only: bursts control segment fences
        8,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    )
}

/// One burst of records confined to band `k` of every partition: items
/// `p*24 + [2k, 2k+2)`.  Sealing after each burst yields `BANDS` segments
/// per partition with narrow, disjoint support fences — the shape pruning
/// exists for.
fn burst(k: usize) -> Vec<StreamRecord> {
    let width = N / PARTS;
    let mut records = Vec::new();
    for p in 0..PARTS {
        for j in 0..BAND {
            let item = p * width + k * BAND + j;
            for rep in 0..4usize {
                let prob = 0.05 + ((item * 7 + rep * 3) % 17) as f64 * 0.05;
                records.push(StreamRecord::Basic { item, prob });
            }
        }
    }
    records
}

/// Fills `store` segment-band by segment-band, then leaves two live
/// records behind so the memtable term of the sum is exercised too.
fn fill_banded(store: &SynopsisStore) {
    for k in 0..BANDS {
        store.ingest_batch(burst(k)).unwrap();
        store.seal_all().unwrap();
    }
    assert_eq!(store.stats().segments, PARTS * BANDS);
    for (item, prob) in [(1usize, 0.3), (N - 2, 0.6)] {
        store.ingest(StreamRecord::Basic { item, prob }).unwrap();
    }
}

/// The query grid every comparison runs over: each point, plus narrow,
/// partition-wide, to-the-end and past-the-domain ranges from each `lo`.
fn grid() -> Vec<(usize, usize)> {
    (0..N)
        .flat_map(|lo| [lo, lo + 2, lo + 11, N - 1, N + 100].map(|hi| (lo, hi)))
        .collect()
}

/// The unaccelerated reference: every segment of every partition in
/// install order — no prune gate, no partition-span shortcut — then the
/// partition's live memtable (`Segment::range_sum` and
/// `Memtable::range_sum` answer an exact zero outside their own span, so
/// walking everything adds zeros only).
fn full_walk(store: &SynopsisStore, lo: usize, hi: usize) -> f64 {
    let mut total = 0.0;
    for p in 0..store.num_partitions() {
        for segment in store.segments(p) {
            total += segment.range_sum(lo, hi);
        }
        total += store.memtable_snapshot(p).range_sum(lo, hi);
    }
    total
}

/// The store's and its snapshot view's answers over the grid, as bits.
fn answer_bits(store: &SynopsisStore) -> Vec<u64> {
    let view = store.snapshot_view();
    let mut out = Vec::new();
    for (lo, hi) in grid() {
        out.push(store.range_estimate(lo, hi).to_bits());
        out.push(view.range_estimate(lo, hi).to_bits());
        if lo == hi {
            out.push(store.estimate(lo).to_bits());
            out.push(view.estimate(lo).to_bits());
        }
    }
    out
}

/// The value of one counter in the Prometheus-style exposition.
fn metric(store: &SynopsisStore, name: &str) -> u64 {
    let text = store.render_metrics();
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
}

/// The store and its views answer bit-identically to the full-walk
/// reference — per point, per range — at every pool width, while actually
/// skipping most segments on narrow queries.
#[test]
fn pruning_is_bitwise_invisible_at_every_pool_width() {
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 4] {
        pool::set_num_threads(Some(threads));
        let store = SynopsisStore::new(config()).unwrap();
        fill_banded(&store);
        let view = store.snapshot_view();
        for (lo, hi) in grid() {
            // The reference knows no clamp: a past-the-domain `hi` reads
            // the same as the last item, and every grid `lo` is in-domain.
            let want = full_walk(&store, lo, hi.min(N - 1)).to_bits();
            assert_eq!(
                store.range_estimate(lo, hi).to_bits(),
                want,
                "store vs full walk at [{lo}, {hi}], {threads} threads"
            );
            assert_eq!(
                view.range_estimate(lo, hi).to_bits(),
                want,
                "view vs full walk at [{lo}, {hi}], {threads} threads"
            );
        }
        let bits = answer_bits(&store);
        match &reference {
            None => reference = Some(bits),
            Some(reference) => assert_eq!(
                &bits, reference,
                "answers drifted across pool widths at {threads} threads"
            ),
        }
        // Point queries over the banded store consult at most a tenth of
        // the segments a full walk would (`visited + pruned` is every
        // segment of the touched partition).
        let scan = || {
            let visited = metric(&store, "pds_store_segments_visited_total");
            (visited, metric(&store, "pds_store_segments_pruned_total"))
        };
        let (visited_before, pruned_before) = scan();
        for item in 0..N {
            let _ = store.estimate(item);
        }
        let (visited, pruned) = scan();
        let (visited, pruned) = (visited - visited_before, pruned - pruned_before);
        assert_eq!(visited + pruned, (N * BANDS) as u64);
        assert!(
            visited * 10 <= visited + pruned,
            "point queries visited {visited} of {} segments (budget 10%)",
            visited + pruned
        );
    }
    pool::set_num_threads(None);
}

/// A point query inside a segment's fence but outside its synopsis
/// support is pruned by the presence filter — the fence alone could not
/// have skipped it.
#[test]
fn point_queries_consult_the_presence_filter() {
    let store = SynopsisStore::new(StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).unwrap(),
        1 << 20,
        N / PARTS, // lossless per partition: support is exactly the fed items
        SynopsisKind::Histogram(ErrorMetric::Sse),
    ))
    .unwrap();
    // Support {0, 5} in partition 0: the fence is [0, 5], so only the
    // filter can prove item 3 absent.
    for item in [0usize, 5] {
        for _ in 0..3 {
            store
                .ingest(StreamRecord::Basic { item, prob: 0.4 })
                .unwrap();
        }
    }
    store.seal_all().unwrap();
    assert_eq!(store.stats().segments, 1);

    let before = metric(&store, "pds_store_segments_pruned_total");
    assert_eq!(store.range_estimate(3, 3).to_bits(), 0f64.to_bits());
    assert_eq!(
        metric(&store, "pds_store_segments_pruned_total"),
        before + 1,
        "an in-fence point miss must be pruned by the filter"
    );
    // The supported item is visited, not pruned, and answers its mass.
    let before = metric(&store, "pds_store_segments_pruned_total");
    assert!(store.range_estimate(5, 5) > 0.0);
    assert_eq!(metric(&store, "pds_store_segments_pruned_total"), before);
}

/// A reopened store answers bit-identically to the store that wrote the
/// directory, loads no synopsis block until a query touches it, and loads
/// only the touched segments for a narrow query.
#[test]
fn lazy_reopen_is_bitwise_identical_and_loads_on_touch() {
    let dir = std::env::temp_dir().join(format!("pds-read-path-lazy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let written_bits = {
        let store = SynopsisStore::open_with_wal(config(), &dir).unwrap();
        fill_banded(&store);
        answer_bits(&store)
    };

    let lazy = SynopsisStore::open_with_wal(config(), &dir).unwrap();
    assert_eq!(
        metric(&lazy, "pds_store_block_loads_total"),
        0,
        "a lazy reopen must not read any synopsis block"
    );
    // A one-band query in one partition touches exactly one segment
    // (band 1: the replayed live record at item 1 sits in band 0).
    let narrow = lazy.range_estimate(BAND, 2 * BAND - 1);
    assert!(narrow > 0.0);
    assert_eq!(metric(&lazy, "pds_store_block_loads_total"), 1);

    assert_eq!(
        answer_bits(&lazy),
        written_bits,
        "the reopened store diverged from the store that wrote it"
    );
    assert_eq!(
        metric(&lazy, "pds_store_block_loads_total"),
        (PARTS * BANDS) as u64,
        "the full grid touches every block, each loaded exactly once"
    );
    drop(lazy);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A repeated `merge_global` over a structurally unchanged store replays
/// the cached histogram bit-identically; a seal or compaction invalidates
/// the entry and the recomputed merge matches a cache-less store.
#[test]
fn merge_cache_replays_bitwise_and_invalidates_on_structural_commits() {
    let store = SynopsisStore::new(config()).unwrap();
    fill_banded(&store);
    let cold = store.merge_global(6).unwrap();
    assert_eq!(metric(&store, "pds_store_merge_cache_misses_total"), 1);

    let warm = store.merge_global(6).unwrap();
    assert_eq!(
        cold.to_binary().unwrap(),
        warm.to_binary().unwrap(),
        "cache replay must be byte-identical"
    );
    assert_eq!(metric(&store, "pds_store_merge_cache_hits_total"), 1);

    // A different budget is a different merge — never served from the
    // cached entry.
    let other = store.merge_global(4).unwrap();
    assert_eq!(other.num_buckets(), 4);
    assert_eq!(metric(&store, "pds_store_merge_cache_misses_total"), 2);

    // A structural commit (a sealed install) invalidates; the recomputed
    // merge equals the merge of a fresh store with the same content.
    store.ingest_batch(burst(0)).unwrap();
    store.seal_all().unwrap();
    let after = store.merge_global(6).unwrap();
    assert_eq!(metric(&store, "pds_store_merge_cache_misses_total"), 3);

    let mirror = SynopsisStore::new(config()).unwrap();
    fill_banded(&mirror);
    mirror.ingest_batch(burst(0)).unwrap();
    mirror.seal_all().unwrap();
    assert_eq!(
        after.to_binary().unwrap(),
        mirror.merge_global(6).unwrap().to_binary().unwrap(),
        "post-invalidation merge must equal a cache-cold rebuild"
    );

    // Compaction is a structural commit too.
    store.compact_all().unwrap();
    let compacted = store.merge_global(6).unwrap();
    assert_eq!(metric(&store, "pds_store_merge_cache_misses_total"), 4);
    let _ = compacted;
}
