//! Ablation A2: the paper's equation-(5) SSE bucket objective (expected
//! per-world sample variance) versus the literal Section 2.3 objective
//! (fixed-representative expected SSE), and — for the tuple-pdf model — the
//! paper's prefix-array covariance formula versus the exact covariance.
//! Eq. (5) is `n_b` times the expected per-world sample variance; the
//! fixed-representative cost exceeds it by `Var[Σ g_i]/n_b` (module doc of
//! `pds_histogram::oracle::sse`).
//!
//! ```text
//! cargo run --release -p pds-bench --bin ablation_sse_objective
//! ```
//!
//! Flags: `--n <domain>`, `--b <buckets>`, `--seed <seed>`, `--csv <dir>`.

use std::path::PathBuf;

use pds_bench::report::{fmt, Args, Table};
use pds_bench::{movie_workload, tpch_workload};
use pds_core::metrics::ErrorMetric;
use pds_core::model::ProbabilisticRelation;
use pds_histogram::evaluate::expected_cost;
use pds_histogram::optimal_histogram;
use pds_histogram::oracle::sse::{SseObjective, SseOracle, TupleSseMode};
use pds_histogram::sse_paper_cost;

fn analyse(name: &str, relation: &ProbabilisticRelation, b: usize, table: &mut Table) {
    let configs = [
        (
            "eq5 / prefix-arrays",
            SseObjective::PaperEq5,
            TupleSseMode::PrefixArrays,
        ),
        (
            "eq5 / exact-covariance",
            SseObjective::PaperEq5,
            TupleSseMode::Exact,
        ),
        (
            "fixed-representative",
            SseObjective::FixedRepresentative,
            TupleSseMode::PrefixArrays,
        ),
    ];
    for (label, objective, mode) in configs {
        let oracle = SseOracle::with_tuple_mode(relation, objective, mode);
        let histogram = optimal_histogram(&oracle, b).expect("valid parameters");
        // Score the bucketing under both evaluation objectives so the
        // trade-off is visible regardless of which objective built it.
        let eq5 = sse_paper_cost(relation, &histogram);
        let fixed = expected_cost(relation, ErrorMetric::Sse, &histogram);
        table.push_row(vec![
            name.into(),
            label.into(),
            b.to_string(),
            fmt(eq5),
            fmt(fixed),
        ]);
    }
}

fn main() {
    let args = Args::from_env();
    let n = args.get_or("n", 1_024usize);
    let b = args.get_or("b", 32usize);
    let seed = args.get_or("seed", 42u64);
    let csv_dir = args.get("csv");

    let mut table = Table::new(
        format!("Ablation A2: SSE objective variants, n = {n}, B = {b}"),
        &[
            "workload",
            "dp objective",
            "buckets",
            "eq5 cost",
            "fixed-rep cost",
        ],
    );
    analyse("movie (basic)", &movie_workload(n, seed), b, &mut table);
    analyse("tpch (tuple-pdf)", &tpch_workload(n, seed), b, &mut table);

    let csv = csv_dir.map(|d| PathBuf::from(d).join("ablation_sse_objective.csv"));
    table.emit(csv.as_deref());
}
