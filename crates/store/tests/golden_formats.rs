//! Byte-pinned golden fixtures for the on-disk formats: `PDSG` (segment,
//! as sealed in `segment.pdsg` and as compacted in `compacted.pdsg`),
//! `PDST` (whole store), the block-structured `PDSB` segment blob (plus a
//! fixture of its retired v1 CRC-trailed predecessor, pinned as *rejected*),
//! the `MANIFEST` and the WAL log's binary frames.
//!
//! The fixtures in `tests/golden/` are checked into the repository.  Every
//! test here (a) re-encodes a deterministic artefact and asserts the bytes
//! are **identical** to the fixture, and (b) decodes the fixture and
//! asserts it still means the same thing — so an accidental format change
//! fails review instead of silently breaking stores written by older
//! builds.
//!
//! To bless an *intentional* format change, bump the affected
//! `BINARY_VERSION`, run with `PDS_GOLDEN_BLESS=1`, and commit the new
//! fixtures together with the decoder that still reads the old version.

use std::path::PathBuf;

use pds_core::metrics::ErrorMetric;
use pds_core::stream::StreamRecord;
use pds_store::blob;
use pds_store::manifest::Manifest;
use pds_store::{wal, PartitionSpec, Segment, StoreConfig, SynopsisKind, SynopsisStore, WalSync};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `bytes` against the checked-in fixture (or writes it under
/// `PDS_GOLDEN_BLESS=1`).
fn check_golden(name: &str, bytes: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var("PDS_GOLDEN_BLESS").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with PDS_GOLDEN_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden, bytes,
        "the {name} disk format drifted from its golden fixture; if the change \
         is intentional, bump the format version and re-bless"
    );
}

/// The deterministic store every fixture derives from: 2 partitions over
/// 16 items, dyadic probabilities, two seals in partition 0 and one in
/// partition 1.
fn fixture_store() -> SynopsisStore {
    let store = SynopsisStore::new(StoreConfig::new(
        PartitionSpec::uniform(16, 2).unwrap(),
        4,
        8,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    ))
    .unwrap();
    let probs = [0.5, 0.25, 0.125, 0.75];
    for round in 0..2 {
        for (i, &prob) in probs.iter().enumerate() {
            store
                .ingest(StreamRecord::Basic {
                    item: i + 2 * round,
                    prob,
                })
                .unwrap();
        }
    }
    for (i, &prob) in probs.iter().enumerate() {
        store
            .ingest(StreamRecord::Basic { item: 10 + i, prob })
            .unwrap();
    }
    store.seal_all().unwrap();
    store
}

#[test]
fn segment_pdsg_format_is_pinned() {
    let store = fixture_store();
    let segment = &store.segments(0)[0];
    let bytes = segment.to_binary().unwrap();
    check_golden("segment.pdsg", &bytes);
    // The fixture still decodes to the same segment.
    let decoded =
        Segment::from_binary(&std::fs::read(golden_dir().join("segment.pdsg")).unwrap()).unwrap();
    assert_eq!(&decoded, segment);
}

#[test]
fn compacted_segment_format_is_pinned() {
    // Compaction sums partition 0's two sealed segments and re-buckets the
    // sum with the partition-merge DP: this pins that DP's output as the
    // disk artefact it becomes.
    let store = fixture_store();
    store.compact_partition(0).unwrap();
    let segments = store.segments(0);
    assert_eq!(segments.len(), 1);
    let segment = &segments[0];
    check_golden("compacted.pdsg", &segment.to_binary().unwrap());
    let decoded =
        Segment::from_binary(&std::fs::read(golden_dir().join("compacted.pdsg")).unwrap()).unwrap();
    assert_eq!(&decoded, segment);
}

#[test]
fn segment_blob_format_is_pinned() {
    let store = fixture_store();
    let segment = &store.segments(1)[0];
    let encoded = segment.to_blob().unwrap();
    check_golden("segment.blob", &encoded);
    let fixture = std::fs::read(golden_dir().join("segment.blob")).unwrap();
    let decoded = Segment::from_blob(&fixture).unwrap();
    assert_eq!(&decoded, segment);
    // The v2 block structure itself is pinned, not just the whole-blob
    // round trip: the footer describes the fixture's exact geometry, the
    // meta block decodes on its own (the lazy-open path reads nothing
    // else), and the synopsis block is byte-for-byte the segment's PDSG
    // encoding (the lazy-load path decodes it in isolation).
    let footer = blob::decode_footer(&fixture).unwrap();
    assert_eq!(footer.total_len, fixture.len() as u64);
    let meta = blob::decode_blob_meta(&fixture).unwrap();
    assert_eq!(meta.start, segment.start());
    assert_eq!(meta.width, segment.width());
    assert_eq!(meta.records, segment.records());
    let syn_off = footer.synopsis_offset() as usize;
    let syn = &fixture[syn_off..syn_off + footer.syn_len as usize];
    assert_eq!(syn, segment.to_binary().unwrap().as_slice());
    let block = blob::decode_synopsis_block(syn, footer.syn_crc, &meta).unwrap();
    assert_eq!(&block, segment);
}

#[test]
fn segment_blob_v1_format_is_rejected() {
    // v1 blobs (raw PDSG bytes + CRC-32 trailer) predate the
    // block-structured PDSB container and are no longer accepted: the
    // fixture must be refused by name — by the whole-blob decoder and by a
    // store asked to reopen a directory holding it — never mis-decoded.
    let fixture = std::fs::read(golden_dir().join("segment-v1.blob")).unwrap();
    assert_eq!(&fixture[..4], b"PDSG");
    let err = Segment::from_blob(&fixture).unwrap_err().to_string();
    assert!(err.contains("v1 / unframed blob"), "{err}");
    assert!(blob::decode_footer(&fixture).is_err());

    let dir = std::env::temp_dir().join(format!("pds-golden-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = fixture_store().config().clone();
    drop(SynopsisStore::open_with_wal(config.clone(), &dir).unwrap());
    Manifest::open(&dir, WalSync::Flush)
        .unwrap()
        .0
        .install(1, 0)
        .unwrap();
    std::fs::write(dir.join("seg-1-0.bin"), &fixture).unwrap();
    let err = SynopsisStore::open_with_wal(config, &dir)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("seg-1-0.bin") && err.contains("v1 / unframed blob"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_pdst_format_is_pinned() {
    let store = fixture_store();
    let bytes = store.to_binary().unwrap();
    check_golden("store.pdst", &bytes);
    let fixture = std::fs::read(golden_dir().join("store.pdst")).unwrap();
    let decoded = SynopsisStore::from_binary(&fixture).unwrap();
    // No cached bytes ride along with a decoded store, so this re-encodes
    // every segment: the encoder must be canonical.
    assert_eq!(decoded.to_binary().unwrap(), fixture);
    assert_eq!(decoded.config(), store.config());
    assert_eq!(decoded.stats(), store.stats());
    for (lo, hi) in [(0usize, 15usize), (0, 7), (10, 13), (5, 5)] {
        assert_eq!(decoded.range_estimate(lo, hi), store.range_estimate(lo, hi));
    }
}

#[test]
fn manifest_format_is_pinned() {
    // A deterministic manifest history: three installs, then a compaction
    // replacing partition 0's two segments with one.  `replace` publishes a
    // full rewrite, so the resulting file is exactly the canonical encoding
    // of the final live set.
    let dir = std::env::temp_dir().join(format!("pds-golden-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut manifest, live) = Manifest::open(&dir, WalSync::Flush).unwrap();
        assert!(live.is_empty());
        manifest.install(0, 0).unwrap();
        manifest.install(1, 0).unwrap();
        manifest.install(0, 1).unwrap();
        manifest.replace(0, &[0, 1], 2).unwrap();
    }
    let bytes = std::fs::read(dir.join("MANIFEST")).unwrap();
    check_golden("MANIFEST.golden", &bytes);
    // The fixture still loads to the same live set.
    let golden_dir_copy =
        std::env::temp_dir().join(format!("pds-golden-manifest-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&golden_dir_copy);
    std::fs::create_dir_all(&golden_dir_copy).unwrap();
    std::fs::copy(
        golden_dir().join("MANIFEST.golden"),
        golden_dir_copy.join("MANIFEST"),
    )
    .unwrap();
    let (_m, live) = Manifest::open(&golden_dir_copy, WalSync::Flush).unwrap();
    assert_eq!(live, vec![(0, 2), (1, 0)]);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&golden_dir_copy);
}

#[test]
fn wal_log_format_is_pinned() {
    // One frame of each record kind, exactly as `PartitionWal::append`
    // writes them.
    let records = [
        StreamRecord::Basic {
            item: 3,
            prob: 0.625,
        },
        StreamRecord::Alternatives(vec![(1, 0.25), (300, 0.5)]),
        StreamRecord::ValueDistribution {
            item: 12,
            entries: vec![(2.0, 0.5), (5.0, 0.25)],
        },
    ];
    let bytes: Vec<u8> = records
        .iter()
        .flat_map(|r| wal::frame_record(r).unwrap())
        .collect();
    check_golden("wal.log", &bytes);
    // The fixture still decodes to the same records.
    let fixture = std::fs::read(golden_dir().join("wal.log")).unwrap();
    assert_eq!(wal::decode_log(&fixture).unwrap(), records);
}
