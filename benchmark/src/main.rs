//! `aryn-benchmark`: the repo benchmark. One command per workload prints
//! every metric by name with its unit, checks outputs against an oracle,
//! and ends with one line of JSON.
//!
//! ```text
//! aryn-benchmark --workload W --seed N --seconds S --trace 0|1 [--rounds R] [--out DIR]
//! aryn-benchmark list [--json]
//! aryn-benchmark repeat --runs 5 [--workload W] [--seed N] [--seconds S]
//! ```

mod alloc;
mod harness;
mod metrics;
mod repeat;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;
mod wrappers;
mod yardstick;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where traces and scratch directories go unless `--out` says otherwise:
/// inside the benchmark's own directory, relative to the checkout root the
/// command is run from.
const DEFAULT_OUT: &str = "benchmark/out";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            if name == "json" {
                pairs.push((name.to_string(), "1".to_string()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name).map(|v| v.parse::<T>().map_err(|_| format!("--{name}: cannot read {v:?}"))).transpose()
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn workload_name(flags: &Flags) -> Result<Option<String>, String> {
    match flags.get("workload") {
        None => Ok(None),
        Some(w) if metrics::WORKLOADS.iter().any(|s| s.name == w) => Ok(Some(w.to_string())),
        Some(w) => Err(format!(
            "unknown workload {w:?}; one of {}",
            metrics::WORKLOADS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        )),
    }
}

fn run_args(flags: &Flags) -> Result<harness::RunArgs, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "rounds", "out"])?;
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: 0 or 1, not {other:?}")),
    };
    let seconds: f64 = flags.number("seconds")?.unwrap_or(f64::from(metrics::RUN_SECONDS));
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is out of range"));
    }
    let rounds: Option<usize> = flags.number("rounds")?;
    if rounds.is_some_and(|n| n < 2) {
        return Err("--rounds: at least 2 (the first round is warm-up)".into());
    }
    Ok(harness::RunArgs {
        workload: workload_name(flags)?.ok_or("--workload is required")?,
        seed: flags.number("seed")?.unwrap_or(1),
        seconds,
        trace,
        rounds,
        out: PathBuf::from(flags.get("out").unwrap_or(DEFAULT_OUT)),
    })
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["json"])?;
            if flags.get("json").is_some() {
                print!("{}", metrics::benchmark_json());
            } else {
                print!("{}", metrics::listing());
            }
            Ok(true)
        }
        Some("repeat") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["runs", "workload", "seed", "seconds"])?;
            repeat::repeat(
                flags.number("runs")?.unwrap_or(5),
                workload_name(&flags)?,
                flags.number("seed")?.unwrap_or(1),
                flags.number("seconds")?.unwrap_or(f64::from(metrics::RUN_SECONDS)),
            )
        }
        Some(first) => {
            let rest = if first == "run" { &args[1..] } else { args };
            let run = run_args(&Flags::parse(rest)?)?;
            let outcome = harness::run(&run).map_err(|e| format!("{}: {e}", run.workload))?;
            print!("{}", report::human(&run, &outcome));
            println!("{}", report::json_line(&outcome));
            Ok(true)
        }
        None => {
            Err("usage: aryn-benchmark --workload W --seed N --seconds S --trace 0|1 | list [--json] | repeat --runs N"
                .into())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("aryn-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
