//! # pds-core
//!
//! Core data structures for building histogram and wavelet synopses on
//! probabilistic (uncertain) data, reproducing *Cormode & Garofalakis,
//! "Histograms and Wavelets on Probabilistic Data", ICDE 2009*.
//!
//! This crate provides the substrate shared by the synopsis crates:
//!
//! * the three uncertainty models of Section 2.1 ([`model::BasicModel`],
//!   [`model::TuplePdfModel`], [`model::ValuePdfModel`]) unified behind
//!   [`model::ProbabilisticRelation`];
//! * possible-worlds semantics: exhaustive enumeration for validation and
//!   world sampling for the paper's baselines ([`worlds`]);
//! * per-item frequency moments in closed form ([`moments`]);
//! * the frequency value domain `V` ([`values`]);
//! * the cumulative and maximum error metrics of Section 2.2 ([`metrics`]);
//! * synthetic workload generators standing in for the paper's MystiQ and
//!   MayBMS/TPC-H data sets ([`generator`]);
//! * streaming-ingest records in all three models plus seeded record streams
//!   ([`stream`]), and the binary envelope primitives behind the compact
//!   persistent synopsis format ([`binio`]);
//! * a scoped thread pool ([`pool`]) with its `parallel_map` helper — the
//!   single place where worker-thread policy (the `PDS_THREADS` environment
//!   variable, the programmatic override, the hardware default) is resolved
//!   for every parallel path in the workspace;
//! * lock-free observability primitives ([`telemetry`]): atomic counters,
//!   gauges, log₂-bucketed latency histograms, a Prometheus-style text
//!   exposition registry, and a bounded event ring — the recording path
//!   never locks or allocates, so the store and server instrument their
//!   hot paths (even inside shard-guard windows) at negligible cost.
//!   Named `telemetry` to avoid clashing with the paper's [`metrics`]
//!   (synopsis *error* metrics);
//! * the durable-path filesystem surface ([`vfs`]): a zero-cost
//!   passthrough over `std::fs` whose every call carries a site label, with
//!   a deterministic fault injector behind it (EIO, ENOSPC, short writes,
//!   fsync and rename failures at labeled sites) — the store's disk-error
//!   robustness matrix drives it the same way the crash matrix drives the
//!   store's crash points.
//!
//! Synopsis construction itself lives in the `pds-histogram` and
//! `pds-wavelet` crates; `probsyn` re-exports everything under one roof.
//!
//! ## Example
//!
//! ```
//! use pds_core::model::{BasicModel, ProbabilisticRelation};
//! use pds_core::worlds::PossibleWorlds;
//!
//! // Example 1 of the paper: four uncertain tuples over a three-item domain.
//! let relation: ProbabilisticRelation =
//!     BasicModel::from_pairs(3, [(0, 0.5), (1, 1.0 / 3.0), (1, 0.25), (2, 0.5)])
//!         .unwrap()
//!         .into();
//!
//! let worlds = PossibleWorlds::enumerate(&relation).unwrap();
//! assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
//! assert!((relation.expected_frequencies()[0] - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binio;
pub mod error;
pub mod generator;
pub mod io;
pub mod metrics;
pub mod model;
pub mod moments;
pub mod pool;
pub mod stream;
pub mod telemetry;
pub mod values;
pub mod vfs;
pub mod worlds;

pub use error::{PdsError, Result};
pub use metrics::ErrorMetric;
pub use model::{
    BasicModel, BasicTuple, ProbabilisticRelation, TupleAlternatives, TuplePdfModel, ValuePdf,
    ValuePdfModel,
};
pub use moments::{item_moments, ItemMoments};
pub use stream::{basic_stream, records_of, BasicStreamConfig, StreamRecord};
pub use values::ValueDomain;
pub use worlds::{sample_world, PossibleWorlds};
