//! `pds-perf`: the repeatable benchmark behind `BENCHMARK.json` — see
//! `README.md` for the design and `src/main.rs` for the command line.

pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod sets;
pub mod spec;
pub mod trace;
pub mod wire;
