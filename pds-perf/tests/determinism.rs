//! The same arguments give the same operations: two runs with one seed
//! send the same request scripts and agree bit for bit on every exact
//! end-to-end metric and every `count` per-layer metric.  A phase ended by
//! the clock instead of a count fails this.

use std::collections::BTreeMap;
use std::process::Command;

use pds_perf::report::{parse_json, str_field};
use serde::Value;

/// The script hash of the header and `name -> (value, unit)` of the result.
fn run(seed: &str, trace: &str) -> (String, BTreeMap<String, (f64, String)>) {
    let output = Command::new(env!("CARGO_BIN_EXE_pds-perf"))
        .args([
            "--smoke",
            "--workload",
            "wire_mixed",
            "--seed",
            seed,
            "--trace",
            trace,
        ])
        .output()
        .expect("spawn pds-perf");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let hash = stdout
        .lines()
        .find_map(|line| {
            line.split_whitespace()
                .find_map(|field| field.strip_prefix("script_hash="))
        })
        .expect("a script hash in the header")
        .to_owned();
    let result =
        parse_json(stdout.lines().last().expect("a result line")).expect("the last line is JSON");
    let metrics = result.get("metrics").and_then(Value::as_object);
    let metrics = metrics
        .expect("metrics is an object")
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(Value::as_f64).expect("value");
            let unit = str_field(metric, "unit").expect("unit").to_owned();
            (name.clone(), (value, unit))
        })
        .collect();
    (hash, metrics)
}

#[test]
fn same_seed_same_operations() {
    let (hash_a, first) = run("11", "0");
    let (hash_b, second) = run("11", "0");
    assert_eq!(
        hash_a, hash_b,
        "the request scripts differ between two runs of one seed"
    );
    for exact in ["approx_cost_ratio", "disk_bytes_per_tuple", "range_err_pct"] {
        assert_eq!(
            first[exact].0.to_bits(),
            second[exact].0.to_bits(),
            "{exact}: {} vs {}",
            first[exact].0,
            second[exact].0
        );
    }

    let (_, first) = run("11", "1");
    let (_, second) = run("11", "1");
    let mut counts = 0;
    for (name, (value, unit)) in &first {
        if unit == "count" {
            counts += 1;
            assert_eq!(
                value.to_bits(),
                second[name].0.to_bits(),
                "{name}: {value} vs {}",
                second[name].0
            );
        }
    }
    assert!(counts >= 20, "only {counts} count metrics were compared");

    let (other, _) = run("12", "0");
    assert_ne!(
        hash_a, other,
        "another seed must change the request scripts"
    );
}
