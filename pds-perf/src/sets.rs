//! Sets of runs and their comparison: `--sets 2` runs the same build twice
//! over and holds the two sets to the benchmark's own bounds; `compare`
//! does the same for two results files (parent and change).

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use pds_core::pool;

use serde::Value;

use crate::report::{median, object, parse_json, quartiles, str_field, text, to_json};
use crate::run::perf_root;
use crate::spec::{self, Better};

/// `(workload, metric)` to the values of one side's runs.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn add_run(side: &mut Side, workload: &str, metrics: &Value) {
    for (name, metric) in metrics.as_object().unwrap_or_default() {
        if let Some(value) = metric.get("value").and_then(Value::as_f64) {
            side.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
}

/// One child run of this executable; returns the `metrics` object of its
/// result line.
fn child_run(workload: &str, seed: u64, seconds: u64, smoke: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let result = parse_json(last)?;
    result
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("no metrics in {last}"))
}

/// Prints every (workload, metric) pair's two medians with quartiles and
/// the relative difference against the bound.  `symmetric` (two sets of one
/// build) counts a difference in either direction; otherwise only `b`
/// worse than `a` counts.  Returns the number of pairs beyond their bound.
fn compare(a: &Side, b: &Side, symmetric: bool) -> usize {
    println!(
        "{:<15} {:<24} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "diff %",
        "bound"
    );
    let mut beyond = 0;
    for workload in spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            let key = (workload.to_owned(), metric.name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<15} {:<24} missing on one side", metric.name);
                beyond += 1;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let (qa, qb) = (quartiles(va), quartiles(vb));
            // Positive when B is worse.
            let worse = match metric.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let over = if symmetric {
                worse.abs() > metric.bound
            } else {
                worse > metric.bound
            };
            beyond += over as usize;
            println!(
                "{workload:<15} {:<24} {ma:>13.5} {:>27} {mb:>13.5} {:>27} {:>+8.2} {:>5.1}%{}",
                metric.name,
                format!("[{:.5}, {:.5}]", qa.0, qa.1),
                format!("[{:.5}, {:.5}]", qb.0, qb.1),
                worse * 100.0,
                metric.bound * 100.0,
                if over { "  BEYOND BOUND" } else { "" }
            );
        }
    }
    println!("{beyond} pair(s) beyond their bound");
    beyond
}

/// Two sets of `spec::RUNS_PER_SET` runs per workload of this build (two
/// under `--smoke`), held to the benchmark's own bounds; exits 1 when a pair
/// is beyond its bound.
pub fn run_two_sets(seed: u64, seconds: u64, smoke: bool) -> ExitCode {
    let runs = if smoke { 2 } else { spec::RUNS_PER_SET };
    let mut sides = [Side::new(), Side::new()];
    let mut records = Vec::new();
    for (set, side) in sides.iter_mut().enumerate() {
        let mut set_runs = Vec::new();
        // Round-robin, so a slow minute of the machine is shared by the
        // workloads instead of landing on one.  The seeds differ within a
        // set and repeat across sets, so exact metrics must agree exactly.
        for i in 0..runs {
            for workload in spec::WORKLOADS {
                eprintln!("set {set} run {i} {workload}");
                let metrics = match child_run(workload, seed + i, seconds, smoke) {
                    Ok(metrics) => metrics,
                    Err(message) => {
                        eprintln!("pds-perf: {message}");
                        return ExitCode::from(1);
                    }
                };
                add_run(side, workload, &metrics);
                set_runs.push(object([
                    ("workload", text(workload)),
                    ("seed", Value::U64(seed + i)),
                    ("metrics", metrics),
                ]));
            }
        }
        records.push(object([("runs", Value::Array(set_runs))]));
    }
    let counts = spec::WORKLOADS
        .iter()
        .map(|w| {
            let counts = spec::counts(w, seconds, smoke, false).expect("known workload");
            (w.to_string(), Value::Str(format!("{counts:?}")))
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = object([
        ("nproc", Value::U64(nproc as u64)),
        ("pool_threads", Value::U64(pool::num_threads() as u64)),
        ("wal_sync", Value::Str(format!("{:?}", spec::WAL_SYNC))),
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("runs_per_workload", Value::U64(runs)),
        ("smoke", Value::Bool(smoke)),
        ("counts", Value::Object(counts)),
    ]);
    let file = object([("header", header), ("sets", Value::Array(records))]);
    let path = perf_root().join("target").join("pds-perf-results.json");
    let written = to_json(file).and_then(|text| {
        std::fs::create_dir_all(path.parent().expect("under target/"))
            .and_then(|()| std::fs::write(&path, text + "\n"))
            .map_err(|e| e.to_string())
    });
    if let Err(e) = written {
        eprintln!("pds-perf: write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!("results written to {}", path.display());
    let [a, b] = &sides;
    ExitCode::from((compare(a, b, true) > 0) as u8)
}

/// Every run of every set of a results file, pooled into one side.
fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let file = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = |value: &Value, key: &str| -> Vec<Value> {
        value
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_default()
            .to_vec()
    };
    let mut side = Side::new();
    for set in list(&file, "sets") {
        for run in list(&set, "runs") {
            if let (Some(workload), Some(metrics)) =
                (str_field(&run, "workload"), run.get("metrics"))
            {
                add_run(&mut side, workload, metrics);
            }
        }
    }
    if side.is_empty() {
        return Err(format!("{path} holds no runs"));
    }
    Ok(side)
}

pub fn compare_files(a: &str, b: &str) -> ExitCode {
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => ExitCode::from((compare(&a, &b, false) > 0) as u8),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("pds-perf: {message}");
            ExitCode::from(2)
        }
    }
}
