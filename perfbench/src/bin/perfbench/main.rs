#![forbid(unsafe_code)]
//! End-to-end and per-layer benchmark of the WEFR batch selector and the
//! smart-serve daemon (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <batch-select|serve-daily|serve-query>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run generates its inputs from `--seed`, drives the program through
//! the workspace crates' public functions, checks the outputs, and prints
//! one JSON result as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics of an untraced run; `--trace 1` reports per-layer
//! metrics from a separate traced run. Earlier stdout lines are
//! human-readable detail plus `meta` JSON lines recording seed, cores,
//! worker counts, scale, source and toolchain.

mod batch;
mod client;
mod daily;
mod env;
mod openloop;
mod query;
mod report;
mod serving;
mod stats;
mod sweep;

use std::process::ExitCode;
use std::time::Duration;

use report::MetricSpec;

/// The seed the pinned output checks were taken at.
pub const DEFAULT_SEED: u64 = 2021;

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// End-to-end metrics (untraced run) of every listed workload, in print
/// order. Each is defined for both `batch-select` and `serve-daily`:
///
/// - `setup_s`: median set-up, before the timed work;
/// - `time_to_model_s`: median time from loaded data to a trained model;
/// - `rows_per_s`: median rows of input through the timed work per second;
/// - `peak_rss_mib`: `VmHWM` after set-up and the first pass of the timed
///   work.
pub const END_TO_END: &[MetricSpec] = &[
    ("setup_s", "s"),
    ("time_to_model_s", "s"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// A workload's entry point: one run, untraced or traced.
pub type Run = fn(&Args, &env::Env) -> Result<report::Outcome, String>;

/// Every workload: name, end-to-end and per-layer metric declarations,
/// and the untraced and traced runs that report them.
pub type Workload = (
    &'static str,
    &'static [MetricSpec],
    &'static [MetricSpec],
    Run,
    Run,
);

const WORKLOADS: &[Workload] = &[
    (
        "batch-select",
        END_TO_END,
        sweep::PER_LAYER,
        batch::run,
        sweep::batch_traced,
    ),
    (
        "serve-daily",
        END_TO_END,
        sweep::PER_LAYER,
        daily::run,
        sweep::daily_traced,
    ),
    (
        "serve-query",
        query::END_TO_END,
        query::PER_LAYER,
        query::run,
        query::run_traced,
    ),
];

/// Every declared metric list, for the naming test.
#[cfg(test)]
pub fn declared_metrics() -> Vec<(&'static str, &'static [MetricSpec])> {
    WORKLOADS
        .iter()
        .flat_map(|w| [(w.0, w.1), (w.0, w.2)])
        .collect()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload <batch-select|serve-daily|serve-query> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let env = match env::Env::probe() {
        Ok(env) => env,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let (name, end_to_end, per_layer, run, run_traced) = *args.workload;
    let (declared, result) = if args.trace {
        (per_layer, run_traced(&args, &env))
    } else {
        (end_to_end, run(&args, &env))
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {name} failed: {message}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for line in &outcome.mismatches {
        println!("  CHECK FAILED: {line}");
    }
    let correct = outcome.correct(declared);
    println!("{}", outcome.to_json(correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = args(&[
            "--workload",
            "serve-query",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.0, "serve-query");
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (7, 12, true));
        let d = args(&["--workload", "batch-select"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    /// `(name, unit)` pairs listed under `key` in the repository's
    /// `BENCHMARK.json`.
    fn listed(doc: &json::Value, key: &str) -> std::collections::BTreeSet<(String, String)> {
        doc.field(key)
            .and_then(json::Value::as_array)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|m| {
                let text = |k| {
                    m.field(k)
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_string()
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    /// Every listed workload prints every metric `BENCHMARK.json` lists,
    /// and no other.
    #[test]
    fn listed_workloads_print_exactly_the_listed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .field("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.field("name").and_then(json::Value::as_str).unwrap())
            .collect();
        assert!(names.len() >= 2);
        let set = |specs: &[MetricSpec]| {
            specs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<std::collections::BTreeSet<_>>()
        };
        for name in names {
            let w = WORKLOADS
                .iter()
                .find(|w| w.0 == name)
                .expect("a known workload");
            assert_eq!(listed(&doc, "end_to_end"), set(w.1), "{name}");
            assert_eq!(listed(&doc, "per_layer"), set(w.2), "{name}");
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve-daily", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve-daily", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "serve-daily", "--seed"]).is_err());
        assert!(args(&["--workload", "serve-daily", "--bogus", "1"]).is_err());
    }
}
