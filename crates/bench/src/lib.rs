//! # pds-bench
//!
//! The reproduction harness regenerating every table and figure of the paper's
//! experimental evaluation (Section 5), plus the ablation studies below.
//! Each binary's module doc gives its command; BASELINES.md records
//! measured outputs.
//!
//! Binaries (all take the `--key value` flags of [`report::Args`]):
//!
//! * `example1` — the possible-worlds tables of Example 1;
//! * `figure2`  — histogram error % vs. number of buckets, per metric;
//! * `figure3`  — histogram construction time vs. `n` and vs. `B`;
//! * `figure4`  — wavelet error % vs. number of coefficients;
//! * `ablation_approx` — `(1+ε)`-approximate vs. exact DP;
//! * `ablation_sse_objective` — equation-(5) vs. fixed-representative SSE;
//! * `wavelet_nonsse` — restricted non-SSE wavelet DP vs. SSE thresholding.
//!
//! Timing lives elsewhere: `pds-perf` (the package behind `BENCHMARK.json`)
//! is the workspace's one benchmark.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod curves;
pub mod report;
pub mod workloads;

pub use curves::{
    budget_ladder, histogram_quality_curve, time_histogram_construction, wavelet_quality_curve,
    QualityRow, TimingRow, WaveletRow,
};
pub use report::{Args, Table};
pub use workloads::{movie_workload, tpch_workload, workload_by_name, Scale};
