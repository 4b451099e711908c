//! The repo benchmark. See `bench/README.md`.
//!
//! ```text
//! bench run --workload W --seed S --seconds T --trace 0|1 [--smoke] [--out FILE]
//! bench run [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out FILE]   # every workload
//! bench compare A.json B.json
//! ```

mod compare;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const USAGE: &str = "usage: bench run [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
                     [--smoke] [--out FILE]\n       bench compare A.json B.json";

/// The workload, when one is named, and the rest of `run`'s flags.
fn parse_run(args: &[String]) -> Result<(Option<Workload>, run::Args), String> {
    let mut workload = None;
    let mut parsed = run::Args {
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload, parsed))
}

/// One workload, in this process: prints the metrics by name, then the
/// driver's JSON object as the last line of standard output.
fn run_one(workload: Workload, args: &run::Args) -> Result<bool, String> {
    let report = run::run(workload, args)?;
    for (name, value, unit) in report.metrics() {
        eprintln!("{:<21} {name:<36} {value:>18.4} {unit}", workload.name());
    }
    if let Some(out) = &args.out {
        run::merge_into(out, report.entry.clone())?;
    }
    println!("{}", report.line());
    Ok(report.correct)
}

/// Every workload, each in a process of its own so that `peak_rss_mb` is
/// that workload's alone. Prints one JSON object per workload.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["run", "--workload", workload.name()])
            .args(args)
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    // Every knob is set here, never inherited.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BOLT_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|parsed| match parsed {
            (Some(workload), args) => run_one(workload, &args),
            (None, _) => run_all(rest),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare(a, b),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
