//! `--sets 2` and `compare` at smoke size: the table has a row per
//! (workload, metric) pair, the exit code says whether a pair is beyond its
//! bound, the exact metrics of two sets of one build agree exactly, and a
//! results file made 1 % worse on an exact metric is refused.

use std::path::Path;
use std::process::{Command, Output};

use pds_perf::report::{parse_json, to_json};
use pds_perf::spec;
use serde::Value;

const EXACT: [&str; 3] = ["approx_cost_ratio", "disk_bytes_per_tuple", "range_err_pct"];

fn pds_perf(args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stdout, .. } = Command::new(env!("CARGO_BIN_EXE_pds-perf"))
        .args(args)
        .output()
        .expect("spawn pds-perf");
    (status.code(), String::from_utf8_lossy(&stdout).into_owned())
}

/// The table's rows: lines that start with a workload's name.
fn rows(table: &str) -> Vec<&str> {
    table
        .lines()
        .filter(|line| spec::WORKLOADS.iter().any(|w| line.starts_with(w)))
        .collect()
}

/// Multiplies every reported `metric` by `factor`.
fn scale(value: &mut Value, metric: &str, factor: f64) {
    match value {
        Value::Array(items) => items.iter_mut().for_each(|v| scale(v, metric, factor)),
        Value::Object(fields) => {
            for (key, field) in fields {
                match field {
                    Value::Object(inner) if key == metric => {
                        for (key, number) in inner {
                            if let (true, Some(v)) = (key == "value", number.as_f64()) {
                                *number = Value::F64(v * factor);
                            }
                        }
                    }
                    other => scale(other, metric, factor),
                }
            }
        }
        _ => {}
    }
}

#[test]
fn two_sets_are_held_to_the_bounds_and_a_worse_file_is_refused() {
    let (code, table) = pds_perf(&["--sets", "2", "--smoke", "--seed", "3"]);
    // Smoke-sized timings are too short to hold 10 %, so either verdict is
    // fine; it must be the table's.
    assert!(matches!(code, Some(0 | 1)), "exit {code:?}\n{table}");
    assert_eq!(code == Some(1), table.contains("BEYOND BOUND"), "{table}");
    let pairs = rows(&table);
    assert_eq!(
        pairs.len(),
        spec::WORKLOADS.len() * spec::END_TO_END.len(),
        "{table}"
    );
    for row in pairs
        .iter()
        .filter(|row| EXACT.iter().any(|m| row.contains(m)))
    {
        assert!(
            row.contains(" +0.00 ") && !row.contains("BEYOND"),
            "two sets of one build differ on an exact metric: {row}"
        );
    }

    let target = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    let path = target.join("pds-perf-results.json");
    let results = std::fs::read_to_string(&path).expect("the results file");
    let mut results = parse_json(&results).expect("valid JSON");
    let header = results.get("header").expect("a header");
    for key in [
        "nproc",
        "pool_threads",
        "wal_sync",
        "seed",
        "seconds",
        "runs_per_workload",
        "counts",
    ] {
        assert!(header.get(key).is_some(), "the header lacks {key}");
    }
    let sets = results.get("sets").and_then(Value::as_array).expect("sets");
    assert_eq!(sets.len(), 2);
    for set in sets {
        let runs = set.get("runs").and_then(Value::as_array).expect("runs");
        // Two runs per workload under --smoke.
        assert_eq!(runs.len(), 2 * spec::WORKLOADS.len());
    }

    let same = path.to_str().expect("a UTF-8 path");
    let (code, table) = pds_perf(&["compare", same, same]);
    assert_eq!(code, Some(0), "a file against itself:\n{table}");

    scale(&mut results, "disk_bytes_per_tuple", 1.01);
    let worse = target.join("pds-perf-results-worse.json");
    std::fs::write(&worse, to_json(results).expect("finite numbers")).expect("write");
    let worse = worse.to_str().expect("a UTF-8 path");
    let (code, table) = pds_perf(&["compare", same, worse]);
    assert_eq!(code, Some(1), "1 % more bytes per tuple:\n{table}");
    let flagged: Vec<&str> = rows(&table)
        .into_iter()
        .filter(|row| row.contains("BEYOND BOUND"))
        .collect();
    assert_eq!(flagged.len(), spec::WORKLOADS.len(), "{table}");
    assert!(flagged
        .iter()
        .all(|row| row.contains("disk_bytes_per_tuple")));
    // Only a change for the worse counts between a parent and a change.
    let (code, _) = pds_perf(&["compare", worse, same]);
    assert_eq!(code, Some(0));
}
