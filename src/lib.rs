//! # probsyn — histogram and wavelet synopses on probabilistic data
//!
//! Umbrella crate re-exporting the whole workspace, which reproduces
//! *Cormode & Garofalakis, "Histograms and Wavelets on Probabilistic Data",
//! ICDE 2009*:
//!
//! * [`core`](pds_core) — uncertainty models (basic, tuple pdf, value pdf),
//!   possible-worlds semantics, moments, error metrics and workload
//!   generators;
//! * [`histogram`](pds_histogram) — optimal and `(1+ε)`-approximate
//!   probabilistic histograms under SSE, SSRE, SAE, SARE, MAE and MARE, plus
//!   the deterministic baselines used in the paper's experiments;
//! * [`wavelet`](pds_wavelet) — Haar wavelet synopses: the SSE-optimal
//!   expected-coefficient thresholding and the restricted dynamic program for
//!   non-SSE error metrics;
//! * [`store`](pds_store) — the partitioned streaming-ingest and persistent
//!   synopsis store: per-item-range memtables, sealed segments with their own
//!   synopses, LSM-style compaction, a partition-merge DP producing global
//!   histograms, and the versioned compact binary format;
//! * [`server`](pds_server) — a concurrent TCP front-end serving the store's
//!   panic-free query path over a line-oriented text protocol, with reads
//!   answered by the store in place (one consistent cut of only the
//!   partitions a window spans) and a `METRICS` verb
//!   exposing both layers' telemetry as a Prometheus-style scrape.
//!
//! ## Quickstart
//!
//! ```
//! use probsyn::prelude::*;
//!
//! // A small uncertain relation in the basic model.
//! let relation: ProbabilisticRelation =
//!     BasicModel::from_pairs(8, [(0, 0.9), (1, 0.4), (1, 0.7), (4, 0.2), (6, 0.95)])
//!         .unwrap()
//!         .into();
//!
//! // Optimal 3-bucket histogram under sum-squared-relative-error.
//! let metric = ErrorMetric::Ssre { c: 1.0 };
//! let histogram = build_histogram(&relation, metric, 3).unwrap();
//! assert_eq!(histogram.num_buckets(), 3);
//!
//! // Optimal 4-term wavelet synopsis under expected SSE.
//! let wavelet = build_sse_wavelet(&relation, 4).unwrap();
//! assert!(wavelet.retained().len() <= 4);
//! ```
//!
//! ## Workspace layout
//!
//! The repository is a seven-package Cargo workspace rooted at this crate:
//!
//! | Path              | Package         | Contents                                   |
//! |-------------------|-----------------|--------------------------------------------|
//! | `.`               | `probsyn`       | umbrella re-exports, [`prelude`]           |
//! | `crates/core`     | `pds-core`      | uncertainty models, worlds, moments, generators, stream records, binary-envelope primitives, scoped thread pool (`pds_core::pool`), lock-free telemetry primitives (`pds_core::telemetry`) |
//! | `crates/histogram`| `pds-histogram` | bucket-cost oracles, exact DP (single-threaded pruned argmin scan), `(1+ε)` approximation, partition-merge DP |
//! | `crates/wavelet`  | `pds-wavelet`   | Haar transform, SSE and non-SSE thresholding |
//! | `crates/store`    | `pds-store`     | concurrent sharded ingest memtables, off-lock sealing, per-partition WALs, compaction, store persistence, pipeline telemetry (counters/histograms/events, always on) |
//! | `crates/server`   | `pds-server`    | TCP query/ingest front-end over the store's in-place, consistent-cut reads (`EST`/`RANGE`/`STATS [JSON]`/`MERGE`/`INGEST`/`METRICS`/admin verbs), worker pool over `pds_core::pool`, per-verb request telemetry |
//! | `crates/bench`    | `pds-bench`     | workloads, report tables, figure binaries  |
//! | `crates/analyze`  | `pds-analyze`   | workspace invariant checker (lock discipline, panic-freedom, binio framing, crash-point coverage, vfs routing) + deterministic decoder/recovery fuzzer |
//!
//! ### Multi-core execution
//!
//! Every parallel path resolves its worker count through `pds_core::pool`
//! (the `PDS_THREADS` environment variable, `pool::set_num_threads`, or the
//! hardware default): the store's `seal_all`/`compact_all`/`merge_global`.
//! The exact histogram DP runs on the calling thread.  The store owns no
//! threads of its own: an ingest call inserts its batch on the calling
//! thread, a seal runs on the caller that froze the memtable (off the shard
//! lock), and concurrency beyond the pool comes from callers sharing one
//! `SynopsisStore`.  All pool paths are
//! **deterministic** — identical outputs (bit-for-bit) at every thread
//! count — so parallelism is a pure throughput knob, pinned by the
//! serial-vs-concurrent equivalence suites.
//!
//! ### Observability
//!
//! The store and server are instrumented with lock-free, allocation-free
//! telemetry (`pds_core::telemetry`: atomic counters and gauges, log₂-bucket
//! latency histograms, a bounded event ring).  `SynopsisStore::render_metrics`
//! and the server's `METRICS` verb expose everything as a Prometheus-style
//! text scrape; `STATS JSON` returns the machine-readable store counters and
//! `METRICS EVENTS` dumps the recent structured event trace.  Recording is
//! unconditional (no knob) and **bit-invisible**: estimates, snapshots and
//! segment bytes are identical whether or not anything scrapes, pinned by a
//! deterministic test; what it costs is measured by `pds-perf`'s traced
//! runs, the workspace's one timing harness.
//!
//! ### Persistent formats
//!
//! Synopses and segments persist in a **versioned compact binary format**
//! (magic + `u16` version + varint/IEEE-754 payload; see `pds_core::binio`):
//! `Histogram::to_binary` (`PDSH` v1), `WaveletSynopsis::to_binary` (`PDSW`
//! v1), `Segment::to_binary` (`PDSG` v1) and `SynopsisStore::to_binary`
//! (`PDST` v1).  Truncation, corruption and version skew decode to
//! `PdsError`s, never panics; the versioned JSON envelopes of the two
//! synopsis types (`Histogram::to_json`, `WaveletSynopsis::to_json`) stay
//! as the human-readable debug encoding — store types (`Segment`,
//! `SynopsisStore`) have the binary encoding only.
//!
//! ### Partition-merge cost contract
//!
//! `SynopsisStore::merge_global` and `pds_histogram::merge` re-bucket the
//! concatenated per-partition synopses; the costs recorded on the merged
//! buckets measure the **merge-stage** SSE against that piecewise-constant
//! summary, not the end-to-end error against the raw probabilistic data
//! (which is bounded by per-segment synopsis error plus merge-stage error).
//!
//! `vendor/` additionally carries minimal offline stand-ins for `rand`,
//! `serde`, `serde_json` and `proptest` (the build environment has no
//! crates.io access); they are wired in via path dependencies and keep the
//! upstream call surfaces, so swapping back to the real crates is a
//! `Cargo.toml`-only change.
//!
//! ## Building, testing, benchmarks
//!
//! Every timed claim comes from one harness: `pds-perf` (a package of its
//! own, declared in `BENCHMARK.json`), end to end over the socket and layer
//! by layer with `--trace 1`.
//!
//! ```text
//! cargo build --release          # builds the whole workspace
//! cargo test -q                  # unit + integration + doc tests
//! cargo run --release --offline --manifest-path pds-perf/Cargo.toml -- --smoke   # the benchmark, 1/20 counts
//! cargo run --release -p pds-bench --bin example1    # paper Example 1
//! cargo run --release -p pds-bench --bin figure2     # paper Figure 2 tables
//! cargo run --release --example quickstart           # guided tour
//! cargo run --release --example pds_server_demo      # TCP front-end under concurrent load
//! cargo run --release --example pds_store_pipeline   # 1M-tuple store pipeline
//! cargo run -p pds-analyze -- check                  # static invariant lints
//! cargo run --release -p pds-analyze -- fuzz         # 50k-mutation decoder fuzz
//! ```
//!
//! The figure binaries (`example1`, `figure2`, `figure3`, `figure4`,
//! `ablation_approx`, `ablation_sse_objective`, `wavelet_nonsse`) print the
//! tables behind the paper's plots; the `examples/` directory holds scenario
//! walkthroughs (record linkage, sensor readings, wavelet compression, ...).

pub use pds_core as core;
pub use pds_histogram as histogram;
pub use pds_server as server;
pub use pds_store as store;
pub use pds_wavelet as wavelet;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use pds_core::generator::{
        mystiq_like, tpch_like, zipf_value_pdf, MystiqLikeConfig, TpchLikeConfig, ValuePdfConfig,
    };
    pub use pds_core::metrics::ErrorMetric;
    pub use pds_core::model::{
        BasicModel, ProbabilisticRelation, TupleAlternatives, TuplePdfModel, ValuePdf,
        ValuePdfModel,
    };
    pub use pds_core::moments::{item_moments, ItemMoments};
    pub use pds_core::stream::{basic_stream, records_of, BasicStreamConfig, StreamRecord};
    pub use pds_core::values::ValueDomain;
    pub use pds_core::worlds::{sample_world, PossibleWorlds};
    pub use pds_core::{PdsError, Result};
    pub use pds_histogram::evaluate::{error_percentage, expected_cost};
    pub use pds_histogram::{
        approx_histogram, build_histogram, expectation_histogram, merge_histograms,
        optimal_histogram, sampled_world_histogram, Bucket, Histogram,
    };
    pub use pds_store::{PartitionSpec, Segment, StoreConfig, SynopsisKind, SynopsisStore};
    pub use pds_wavelet::{build_sse_wavelet, HaarTransform, WaveletSynopsis};
}
