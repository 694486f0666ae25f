//! `pds-perf`: the repeatable benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! pds-perf --workload <w> --seed <n> [--seconds <n>] [--trace 0|1] [--smoke]
//! pds-perf --smoke [--trace 0|1]              every workload at 1/20 of the counts
//! pds-perf --sets 2 [--seed <n>] [--seconds <n>] [--smoke]
//! pds-perf compare A.json B.json
//! ```
//!
//! A run prints a header and every metric by name with its unit, then, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  It exits non-zero when a check on
//! the programs' outputs failed.  See `README.md` for the design.

use std::process::ExitCode;

use pds_perf::report::{object, text, to_json};
use pds_perf::run::{self, Outcome, RunArgs};
use pds_perf::{sets, spec};
use serde::Value;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    two_sets: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        two_sets: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} {text}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => cli.trace = number(value()?)? != 0,
            "--sets" => match value()?.as_str() {
                "2" => cli.two_sets = true,
                other => return Err(format!("--sets {other}: only two sets are compared")),
            },
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Prints the metrics the contract asks of this kind of run — every
/// end-to-end one untraced, every per-layer one traced — and the result
/// line; a metric the run did not produce is a failed check.
fn print_outcome(outcome: &mut Outcome, trace: bool) -> bool {
    let names: Vec<(&str, &str)> = if trace {
        spec::PER_LAYER.iter().map(|p| (p.name, p.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    };
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        match outcome.metrics.get(name).copied().filter(|v| v.is_finite()) {
            Some(value) => {
                println!("{name:<40} {value:>18.6} {unit}");
                let metric = object([("value", Value::F64(value)), ("unit", text(unit))]);
                fields.push((name.to_owned(), metric));
            }
            None => {
                eprintln!("pds-perf: check failed: metric {name} was not measured");
                outcome.failed += 1;
            }
        }
    }
    let correct = outcome.failed == 0;
    let line = object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(outcome.attempted.max(1))),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", Value::Object(fields)),
    ]);
    println!("{}", to_json(line).expect("every value above is finite"));
    correct
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => sets::compare_files(a, b),
            _ => {
                eprintln!("usage: pds-perf compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("pds-perf: {message}");
            return ExitCode::from(2);
        }
    };
    if cli.two_sets {
        return sets::run_two_sets(cli.seed, cli.seconds, cli.smoke);
    }
    let workloads: Vec<String> = match (&cli.workload, cli.smoke) {
        (Some(workload), _) => vec![workload.clone()],
        (None, true) => spec::WORKLOADS.iter().map(|w| w.to_string()).collect(),
        (None, false) => {
            eprintln!(
                "pds-perf: --workload is required (one of {:?})",
                spec::WORKLOADS
            );
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for workload in workloads {
        let args = RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            smoke: cli.smoke,
        };
        match run::run(&args) {
            Ok(mut outcome) => all_correct &= print_outcome(&mut outcome, cli.trace),
            Err(message) => {
                eprintln!("pds-perf: {}: {message}", args.workload);
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
