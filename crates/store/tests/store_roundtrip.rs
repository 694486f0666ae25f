//! Property tests for the store lifecycle: ingest → seal → binary
//! encode/decode → query equality, corruption handling, and the
//! merged-vs-monolithic error bound.

use proptest::prelude::*;

use pds_core::metrics::ErrorMetric;
use pds_core::model::{BasicModel, ProbabilisticRelation};
use pds_core::stream::StreamRecord;
use pds_histogram::{build_histogram, expected_cost, Histogram};
use pds_store::{
    Memtable, PartitionSpec, Segment, SegmentSynopsis, StoreConfig, SynopsisKind, SynopsisStore,
};

const N: usize = 24;

/// Strategy: a mixed-model record stream over the `N`-item domain (the
/// vendored proptest shim has no `prop_oneof`, so the variant is drawn as a
/// plain integer and mapped).
fn record_stream(max_len: usize) -> impl Strategy<Value = Vec<StreamRecord>> {
    prop::collection::vec(
        (
            0usize..3,
            (0..N, 0.01f64..0.5),
            (0..N, 0.01f64..0.5),
            0.5f64..6.0,
        ),
        1..max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, (i1, p1), (i2, p2), v)| match kind {
                0 => StreamRecord::Basic { item: i1, prob: p1 },
                1 if i1 != i2 => StreamRecord::Alternatives(vec![(i1, p1), (i2, p2)]),
                1 => StreamRecord::Alternatives(vec![(i1, p1)]),
                _ => StreamRecord::ValueDistribution {
                    item: i1,
                    entries: vec![(v, p1)],
                },
            })
            .collect()
    })
}

fn full_budget_config(parts: usize, threshold: usize) -> StoreConfig {
    StoreConfig::new(
        PartitionSpec::uniform(N, parts).unwrap(),
        threshold,
        // Budget >= partition width: segment histograms are exact.
        N,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ingest → seal → encode → decode → the restored store answers every
    /// range query exactly like the live one, and (with a full per-segment
    /// budget) exactly like the expectations of the ingested records.
    #[test]
    fn ingest_seal_encode_decode_preserves_answers(
        records in record_stream(60),
        parts in 1usize..5,
        threshold in 1usize..16,
    ) {
        let store = SynopsisStore::new(full_budget_config(parts, threshold)).unwrap();
        // Exact reference: expectation is linear.
        let mut exact = [0.0f64; N];
        for r in &records {
            match r {
                StreamRecord::Basic { item, prob } => exact[*item] += prob,
                StreamRecord::Alternatives(alts) => {
                    for &(i, p) in alts {
                        exact[i] += p;
                    }
                }
                StreamRecord::ValueDistribution { item, entries } => {
                    exact[*item] += entries.iter().map(|&(v, p)| v * p).sum::<f64>();
                }
            }
        }
        store.ingest_batch(records.iter().cloned()).unwrap();
        store.seal_all().unwrap();
        prop_assert_eq!(store.stats().live_records, 0);

        let bytes = store.to_binary().unwrap();
        let restored = SynopsisStore::from_binary(&bytes).unwrap();
        for lo in (0..N).step_by(3) {
            for hi in (lo..N).step_by(4) {
                let want: f64 = exact[lo..=hi].iter().sum();
                let live = store.range_estimate(lo, hi);
                let back = restored.range_estimate(lo, hi);
                prop_assert!((live - want).abs() < 1e-6, "[{},{}] {} vs {}", lo, hi, live, want);
                prop_assert!((back - live).abs() < 1e-9);
            }
        }
        // Compaction keeps the answers (full budget: lossless).
        restored.compact_all().unwrap();
        prop_assert!(restored.stats().segments <= parts);
        for lo in (0..N).step_by(5) {
            let a = restored.range_estimate(lo, N - 1);
            let b = store.range_estimate(lo, N - 1);
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Truncating or bit-flipping an encoded store/segment yields a
    /// `PdsError`, never a panic or a silently wrong value.
    #[test]
    fn corrupted_encodings_error_cleanly(
        records in record_stream(40),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_bit in 0usize..8,
    ) {
        let store = SynopsisStore::new(full_budget_config(2, 8)).unwrap();
        store.ingest_batch(records).unwrap();
        store.seal_all().unwrap();
        let bytes = store.to_binary().unwrap();

        // Any strict prefix fails.
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(SynopsisStore::from_binary(&bytes[..cut]).is_err());

        // A flipped bit either fails or round-trips to a *valid* store —
        // decoding must never panic.  (Flips in representative bytes can
        // decode to a structurally valid store with different estimates;
        // the invariant under test is no-panic + validated structure.)
        let mut flipped = bytes.clone();
        let pos = ((bytes.len() as f64 * flip_frac) as usize).min(bytes.len() - 1);
        flipped[pos] ^= 1u8 << flip_bit;
        let _ = SynopsisStore::from_binary(&flipped);

        // Same treatment for a single segment blob.
        let segment = &store.segments(0)[0];
        let seg_bytes = segment.to_binary().unwrap();
        let seg_cut = ((seg_bytes.len() as f64 * cut_frac) as usize).min(seg_bytes.len() - 1);
        prop_assert!(Segment::from_binary(&seg_bytes[..seg_cut]).is_err());
    }

    /// Seal equivalence: a store seal reads the memtable's moment sums, and
    /// builds what `Segment::build` builds from the buffer's relation —
    /// bitwise for basic-only and tuple-without-value-pdf buffers; with
    /// value pdfs, the same bucket boundaries and an expected SSE within
    /// 1e-9 relative.
    #[test]
    fn seals_match_the_relation_path(
        records in record_stream(60),
        basic_only in 0usize..2,
        budget in 1usize..8,
    ) {
        let records: Vec<StreamRecord> = if basic_only == 1 {
            records
                .into_iter()
                .map(|r| match r {
                    StreamRecord::Alternatives(alts) => StreamRecord::Basic {
                        item: alts[0].0,
                        prob: alts[0].1,
                    },
                    StreamRecord::ValueDistribution { item, entries } => StreamRecord::Basic {
                        item,
                        prob: entries[0].1,
                    },
                    basic => basic,
                })
                .collect()
        } else {
            records
        };
        let mut memtable = Memtable::new(0, N);
        for r in &records {
            memtable.insert(r.clone()).unwrap();
        }
        let relation = memtable.to_relation().unwrap();
        for kind in [SynopsisKind::Histogram(ErrorMetric::Sse), SynopsisKind::Wavelet] {
            let store = SynopsisStore::new(StoreConfig::new(
                PartitionSpec::uniform(N, 1).unwrap(),
                usize::MAX >> 1,
                budget,
                kind,
            ))
            .unwrap();
            store.ingest_batch(records.iter().cloned()).unwrap();
            store.seal_all().unwrap();
            let sealed = &store.segments(0)[0];
            let reference =
                Segment::build(0, records.len() as u64, &relation, kind, budget).unwrap();
            if relation.model_name() != "value-pdf" {
                prop_assert_eq!(sealed.to_binary().unwrap(), reference.to_binary().unwrap());
                continue;
            }
            let (SegmentSynopsis::Histogram(new), SegmentSynopsis::Histogram(old)) =
                (sealed.synopsis(), reference.synopsis())
            else {
                continue;
            };
            let spans = |h: &Histogram| -> Vec<(usize, usize)> {
                h.buckets().iter().map(|b| (b.start, b.end)).collect()
            };
            prop_assert_eq!(spans(new), spans(old));
            let new_cost = expected_cost(&relation, ErrorMetric::Sse, new);
            let old_cost = expected_cost(&relation, ErrorMetric::Sse, old);
            prop_assert!(
                (new_cost - old_cost).abs() <= 1e-9 * old_cost.abs(),
                "{} vs {}", new_cost, old_cost
            );
        }
    }

    /// Reopening a durable store replays each live WAL tail into a
    /// memtable whose moment sums are bitwise those the live store held.
    #[test]
    fn wal_replay_rebuilds_moments_bitwise(
        records in record_stream(80),
        parts in 1usize..4,
        threshold in 4usize..40,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("pds-roundtrip-moments-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig::new(
            PartitionSpec::uniform(N, parts).unwrap(),
            threshold,
            4,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        );
        let bits = |store: &SynopsisStore| -> Vec<Vec<[u64; 3]>> {
            (0..parts)
                .map(|p| {
                    store
                        .memtable_snapshot(p)
                        .moments()
                        .iter()
                        .map(|m| {
                            [m.mean.to_bits(), m.variance.to_bits(), m.second_moment.to_bits()]
                        })
                        .collect()
                })
                .collect()
        };
        let live = {
            let store = SynopsisStore::open_with_wal(config.clone(), &dir).unwrap();
            store.ingest_batch(records).unwrap();
            bits(&store)
        };
        let reopened = SynopsisStore::open_with_wal(config, &dir).unwrap();
        prop_assert_eq!(bits(&reopened), live);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sharded pipeline (per-partition segments merged into a global
    /// histogram) stays within 2x of the monolithic single-build error for
    /// the same global bucket budget.
    #[test]
    fn merged_error_is_within_twice_the_monolithic_error(
        pairs in prop::collection::vec((0..N, 0.01f64..1.0), 24..120),
        parts in 2usize..5,
    ) {
        let store = SynopsisStore::new(StoreConfig::new(
            PartitionSpec::uniform(N, parts).unwrap(),
            1000,
            // A generous per-segment budget, as a real deployment would use.
            N,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        ))
        .unwrap();
        for &(item, prob) in &pairs {
            store.ingest(StreamRecord::Basic { item, prob }).unwrap();
        }
        store.seal_all().unwrap();
        let b = 4;
        let merged = store.merge_global(b).unwrap();

        let relation: ProbabilisticRelation =
            BasicModel::from_pairs(N, pairs).unwrap().into();
        let monolithic = build_histogram(&relation, ErrorMetric::Sse, b).unwrap();

        let exact = relation.expected_frequencies();
        let sse = |h: &pds_histogram::Histogram| -> f64 {
            (0..N).map(|i| (h.estimate(i) - exact[i]).powi(2)).sum()
        };
        let merged_sse = sse(&merged);
        let mono_sse = sse(&monolithic);
        prop_assert!(
            merged_sse <= 2.0 * mono_sse + 1e-9,
            "merged {} vs monolithic {}", merged_sse, mono_sse
        );
    }
}
