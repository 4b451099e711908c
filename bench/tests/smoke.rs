//! One end-to-end smoke run per workload and trace mode: every metric and
//! workload name in `BENCHMARK.json` appears in the output, and nothing
//! else does.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("the bench binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap()
}

/// `(name, unit)` of every entry of one of `BENCHMARK.json`'s lists.
fn listed(benchmark: &Json, list: &str) -> BTreeSet<(String, String)> {
    let field = |entry: &Json, k: &str| entry.get(k).and_then(Json::as_str).unwrap().to_string();
    benchmark
        .get(list)
        .unwrap()
        .as_arr()
        .iter()
        .map(|e| {
            (
                field(e, "name"),
                e.get("unit").map_or(String::new(), |_| field(e, "unit")),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_metrics_benchmark_json_names() {
    let benchmark = benchmark_json();
    for (workload, _) in listed(&benchmark, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = bench(&[
                "run",
                "--workload",
                &workload,
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(ok, "{workload} --trace {trace} exits 0");
            let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(line.get("failed"), Some(&Json::Num(0.0)), "{workload}");
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let printed: BTreeSet<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                listed(&benchmark, list),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn a_run_of_every_workload_names_the_workloads_of_benchmark_json() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-all.json");
    let _ = std::fs::remove_file(&out);
    let out = out.to_str().unwrap();
    let (ok, stdout) = bench(&["run", "--seconds", "0.2", "--smoke", "--out", out]);
    assert!(ok);
    let file = Json::parse(&std::fs::read_to_string(out).unwrap()).unwrap();
    let ran: BTreeSet<String> = file
        .get("runs")
        .unwrap()
        .as_arr()
        .iter()
        .map(|r| {
            r.get("workload")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let named: BTreeSet<String> = listed(&benchmark_json(), "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(ran, named);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with('{')).count(),
        named.len()
    );
    for key in ["git_commit", "rustc", "nproc", "cpu"] {
        assert!(file.get("provenance").unwrap().get(key).is_some(), "{key}");
    }

    // Same code, same seed: nothing regressed against itself.
    let (ok, table) = bench(&["compare", out, out]);
    assert!(ok, "{table}");
    assert!(!table.contains("Regression"), "{table}");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--seconds", "0"],
        &["frobnicate"],
        &[],
    ] {
        let (ok, stdout) = bench(args);
        assert!(!ok, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}");
    }
}
