//! `--smoke` runs every workload at a twentieth of the counts through the
//! same code paths and checks; the names it prints must be exactly the
//! names `BENCHMARK.json` declares, within the contract's grammar and
//! limits.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use pds_perf::report::{parse_json, str_field};
use pds_perf::spec;
use serde::Value;

/// The parsed result line of one smoke run; panics unless it exited 0.
fn smoke(workload: &str, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_pds-perf"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("spawn pds-perf");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace}: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result =
        parse_json(stdout.lines().last().expect("a result line")).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    result
}

fn declared() -> Value {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(manifest).expect("BENCHMARK.json")).expect("valid JSON")
}

fn list<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is not a list"))
}

fn names(value: &Value, key: &str) -> Vec<String> {
    list(value, key)
        .iter()
        .map(|entry| str_field(entry, "name").expect("a name").to_owned())
        .collect()
}

fn printed(result: &Value) -> BTreeSet<String> {
    let metrics = result.get("metrics").and_then(Value::as_object);
    let metrics = metrics.expect("metrics is an object");
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

/// `BENCHMARK.json` repeats what `src/spec.rs` declares.
#[test]
fn benchmark_json_agrees_with_the_specification() {
    let declared = declared();
    let keys: Vec<&str> = declared
        .as_object()
        .expect("an object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        list(&declared, key)
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => panic!("{key} holds {other:?}"),
            })
            .collect()
    };
    assert_eq!(strings("command"), spec::COMMAND);
    assert_eq!(strings("paths"), ["pds-perf"]);
    assert_eq!(
        declared.get("run_seconds").and_then(Value::as_u64),
        Some(spec::DEFAULT_SECONDS)
    );

    let workloads = list(&declared, "workloads");
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(spec::WORKLOADS.iter().zip(spec::WHY)) {
        assert_eq!(str_field(entry, "name"), Some(*name));
        assert_eq!(str_field(entry, "why"), Some(why));
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let end_to_end = list(&declared, "end_to_end");
    assert_eq!(end_to_end.len(), spec::END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(&spec::END_TO_END) {
        assert_eq!(str_field(entry, "name"), Some(metric.name));
        assert_eq!(str_field(entry, "unit"), Some(metric.unit));
        assert_eq!(str_field(entry, "better"), Some(metric.better.as_str()));
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(metric.bound)
        );
        assert!(metric.bound > 0.0 && metric.bound <= 0.25 && metric.unit.len() <= 16);
    }
    let per_layer = list(&declared, "per_layer");
    assert_eq!(per_layer.len(), spec::PER_LAYER.len());
    for (entry, metric) in per_layer.iter().zip(&spec::PER_LAYER) {
        assert_eq!(str_field(entry, "name"), Some(metric.name));
        assert_eq!(str_field(entry, "unit"), Some(metric.unit));
        assert_eq!(str_field(entry, "better"), Some(metric.better.as_str()));
    }
}

#[test]
fn smoke_prints_exactly_the_declared_names() {
    let declared = declared();
    let workloads = names(&declared, "workloads");
    let end_to_end = names(&declared, "end_to_end");
    let per_layer = names(&declared, "per_layer");

    assert!(
        (2..=8).contains(&workloads.len()),
        "{} workloads",
        workloads.len()
    );
    assert!(
        (1..=16).contains(&end_to_end.len()),
        "{} end-to-end metrics",
        end_to_end.len()
    );
    assert!(
        (1..=128).contains(&per_layer.len()),
        "{} per-layer metrics",
        per_layer.len()
    );
    assert!(end_to_end.iter().any(|name| name == "setup_s"));
    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for name in &all {
        let grammar = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(grammar, "{name:?} is outside [A-Za-z0-9][A-Za-z0-9_.-]*");
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );

    let end_to_end: BTreeSet<String> = end_to_end.into_iter().collect();
    let per_layer: BTreeSet<String> = per_layer.into_iter().collect();
    let started = Instant::now();
    for workload in &workloads {
        assert_eq!(
            printed(&smoke(workload, false)),
            end_to_end,
            "{workload}, untraced"
        );
    }
    let untraced = started.elapsed().as_secs_f64();
    assert!(untraced < 30.0, "the four smoke runs took {untraced:.1} s");
    for workload in &workloads {
        assert_eq!(
            printed(&smoke(workload, true)),
            per_layer,
            "{workload}, traced"
        );
        let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/pds-perf-spans-{workload}.tsv"));
        assert!(spans.is_file(), "{} was not written", spans.display());
    }
}

#[test]
fn an_unknown_workload_or_flag_is_refused() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--frobnicate"][..],
        &[][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pds-perf"))
            .args(args)
            .output()
            .expect("spawn pds-perf");
        assert!(!output.status.success(), "{args:?} should be refused");
        assert!(
            !String::from_utf8_lossy(&output.stdout).contains("\"metrics\""),
            "{args:?} printed a result"
        );
    }
}
