//! `bench compare A.json B.json`: the local command that fails on a
//! regression. One row per workload × end-to-end metric, judged against
//! the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::spec;
use crate::stats::Summary;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Exact metric, bit-identical.
    Same,
    /// Exact metric that moved in the good direction.
    Better,
    /// Worse by more than the bound, or an exact metric that got worse.
    Regression,
    /// The quartile ranges overlap, or either side's spread is wider than
    /// the bound: the runs cannot tell unchanged from regressed.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn judge(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64, exact: bool) -> Verdict {
    let worse = worse_by(a.median, b.median, lower_is_better);
    if exact {
        return match worse {
            w if w > 0.0 => Verdict::Regression,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    let spread = a.spread_pct().max(b.spread_pct()) / 100.0;
    if worse > bound {
        if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Regression
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn untraced_run<'a>(file: &'a Json, workload: &str) -> Option<&'a Json> {
    file.get("runs")?.as_arr().iter().find(|run| {
        run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("trace").and_then(Json::as_bool) == Some(false)
    })
}

/// Prints the table; `Ok(true)` when nothing regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let benchmark = load(&benchmark.to_string_lossy())?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut clean = true;
    println!(
        "{:<21} {:<19} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A"
    );
    for workload in benchmark.get("workloads").map_or(&[][..], Json::as_arr) {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or("");
        let (Some(ra), Some(rb)) = (untraced_run(&a, workload), untraced_run(&b, workload)) else {
            println!("{workload:<21} missing from one side");
            clean = false;
            continue;
        };
        let same_input = ["seed", "smoke"].iter().all(|k| ra.get(k) == rb.get(k));
        for metric in benchmark.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let field = |k: &str| metric.get(k).and_then(Json::as_str).unwrap_or("");
            let (name, unit) = (field("name"), field("unit"));
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let side = |run: &Json| run.get("metrics")?.get(name).and_then(Summary::from_json);
            let (Some(sa), Some(sb)) = (side(ra), side(rb)) else {
                println!("{workload:<21} {name:<19} missing from one side");
                clean = false;
                continue;
            };
            // Simulated statistics repeat bit for bit on the same input.
            let exact = same_input && spec::EXACT.contains(&name);
            let verdict = judge(&sa, &sb, field("better") == "lower", bound, exact);
            clean &= verdict != Verdict::Regression;
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<21} {:<19} {:>30} {:>30} {:>8.4}  {verdict:?} (bound {bound}, base A = {:.4} {unit})",
                format!("{name} ({unit})"),
                cell(&sa),
                cell(&sb),
                sb.median / sa.median,
                sa.median,
            );
        }
        let failed = |run: &Json| run.get("failed").and_then(Json::as_f64) != Some(0.0);
        let incorrect = |run: &Json| run.get("correct").and_then(Json::as_bool) != Some(true);
        if failed(rb) || incorrect(rb) || failed(ra) || incorrect(ra) {
            println!("{workload:<21} failed ops or checks on one side: Regression");
            clean = false;
        }
        if same_input && ra.get("fingerprint") != rb.get("fingerprint") {
            println!("{workload:<21} output fingerprints differ on the same input: Regression");
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            n: 9,
            min: q1,
            q1,
            median,
            q3,
            max: q3,
            tail: None,
        }
    }

    #[test]
    fn timings_are_judged_against_the_bound_and_the_spread() {
        let a = s(99.0, 100.0, 101.0);
        assert_eq!(
            judge(&a, &s(103.0, 104.0, 105.0), true, 0.10, false),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &s(118.0, 120.0, 122.0), true, 0.10, false),
            Verdict::Regression
        );
        // Worse by more than the bound, but the quartile ranges overlap.
        assert_eq!(
            judge(
                &s(90.0, 100.0, 125.0),
                &s(100.0, 120.0, 130.0),
                true,
                0.10,
                false
            ),
            Verdict::Unresolved
        );
        // Within the bound, but a spread wider than the bound.
        assert_eq!(
            judge(&s(80.0, 100.0, 120.0), &a, true, 0.10, false),
            Verdict::Unresolved
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&a, &s(79.0, 80.0, 81.0), false, 0.10, false),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &s(119.0, 120.0, 121.0), false, 0.10, false),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_must_not_get_worse_at_all() {
        let a = s(58.3, 58.3, 58.3);
        assert_eq!(judge(&a, &a, true, 0.05, true), Verdict::Same);
        assert_eq!(
            judge(&a, &s(58.4, 58.4, 58.4), true, 0.05, true),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &s(57.0, 57.0, 57.0), true, 0.05, true),
            Verdict::Better
        );
    }
}
