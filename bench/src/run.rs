//! One benchmark run of one workload: set-up, the closed loop of ops, the
//! checks, and the result in both forms (the driver's last line, and the
//! fuller result file `compare` reads).

use crate::json::Json;
use crate::layers::{self, Metrics};
use crate::spec;
use crate::stats::{median, Summary};
use crate::trace;
use crate::workloads::{self, Outcome, Product, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test-scale inputs, one set-up and one repetition per traced leg.
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// A fixed pure-Rust kernel (≈15 ms), timed before every op. A sentinel
/// that says whether the host was quiet; never used to rescale anything.
fn calibrate() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..8_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub struct Report {
    pub correct: bool,
    /// The result-file entry for this run: the driver's four keys plus
    /// provenance, with each metric's quartiles beside its value.
    pub entry: Json,
}

impl Report {
    /// `(name, value, unit)` of what the driver reads: the end-to-end
    /// metrics untraced, the per-layer metrics traced.
    pub fn metrics(&self) -> Vec<(&str, f64, &str)> {
        let metrics = self.entry.get("metrics").map_or(&[][..], Json::as_obj);
        metrics
            .iter()
            .filter_map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64)?;
                Some((name.as_str(), value, m.get("unit").and_then(Json::as_str)?))
            })
            .collect()
    }

    /// The last line of standard output.
    pub fn line(&self) -> String {
        let metrics = self.metrics().into_iter().map(|(name, value, unit)| {
            let fields = vec![("value", Json::Num(value)), ("unit", Json::str(unit))];
            (name.to_string(), Json::obj(fields))
        });
        let mut fields: Vec<(String, Json)> = ["correct", "attempted", "failed"]
            .into_iter()
            .filter_map(|k| Some((k.to_string(), self.entry.get(k)?.clone())))
            .collect();
        fields.push(("metrics".into(), Json::Obj(metrics.collect())));
        Json::Obj(fields).compact()
    }
}

pub fn run(workload: Workload, args: &Args) -> Result<Report, String> {
    // Set-up: the reference once, the input build several times.
    let started = Instant::now();
    let reference = workloads::reference(workload, args.seed, args.smoke)?;
    let reference_s = started.elapsed().as_secs_f64();
    let mut build_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.smoke { 1 } else { 3 } {
        drop(prepared.take()); // one input alive at a time, as in a single set-up
        let started = Instant::now();
        prepared = Some(workloads::prepare(
            workload, args.seed, args.smoke, &reference,
        )?);
        build_s.push(started.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("set up at least once");
    let setup: Vec<f64> = build_s.iter().map(|b| reference_s + b).collect();

    // The measurement: a closed loop, one client. A traced run records
    // spans on every other op, so the two halves give the tracing overhead.
    let mut ms = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut cal = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<u64> = None;
    let mut last: Option<Outcome> = None;
    let loop_started = Instant::now();
    while attempted < if args.trace { 2 } else { 1 }
        || loop_started.elapsed().as_secs_f64() < args.seconds
    {
        cal.push(calibrate());
        last = None; // one op's product alive at a time
        let traced = args.trace && attempted % 2 == 0;
        attempted += 1;
        trace::set_op(attempted);
        trace::enable(traced);
        let started = Instant::now();
        let outcome = prepared.op();
        let op_ms = started.elapsed().as_secs_f64() * 1e3;
        trace::enable(false);
        match outcome {
            Ok(o) if *first.get_or_insert(o.signature) == o.signature => {
                ms[usize::from(traced)].push(op_ms);
                last = Some(o);
            }
            Ok(_) => {
                failed += 1;
                eprintln!("op {attempted} failed: its output differs from the first op's");
            }
            Err(e) => {
                failed += 1;
                eprintln!("op {attempted} failed: {e}");
            }
        }
    }
    let peak_rss = peak_rss_mb()?;

    let all_ms: Vec<f64> = ms.iter().flatten().copied().collect();
    if all_ms.is_empty() {
        return Err("no op succeeded".into());
    }

    // The checks, untimed.
    trace::set_op(0);
    trace::enable(args.trace);
    let mut problems = Vec::new();
    let mut layer = Metrics::new();
    let (mut base, mut bolt) = (None, None);
    match &last {
        None => problems.push("the last op failed, so the checks did not run".to_string()),
        Some(last) => {
            match prepared.check(last) {
                Ok(checked) => {
                    if checked.findings != 0 {
                        problems.push(format!("verifiers: {} findings", checked.findings));
                    }
                    layer.insert("verify.findings".into(), checked.findings as f64);
                    (base, bolt) = (Some(checked.base), checked.bolt);
                }
                Err(e) => problems.push(e),
            }
            if args.trace {
                let whole = match &last.product {
                    Product::Bolted(out) => Some(&**out),
                    _ => None,
                };
                let reps = if args.smoke { 1 } else { 3 };
                if let Err(e) = layers::run_legs(workload, &prepared, whole, reps, &mut layer) {
                    problems.push(e);
                }
            }
        }
    }
    trace::enable(false);
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = failed == 0 && problems.is_empty();

    let op = Summary::of(&all_ms);
    let setup = Summary::of(&setup);
    let cal = Summary::of(&cal);
    // 100 where BOLT is not applied: the measured binary is the base.
    let cycles_vs_base = match (base, bolt) {
        (Some(base), Some(bolt)) => 100.0 * bolt.cycles / base.cycles,
        _ => 100.0,
    };

    let mut metrics = Vec::new();
    if args.trace {
        let spans = trace::take();
        layers::from_spans(&spans, &mut layer);
        if let Some(base) = &base {
            layers::simulated(base, bolt.as_ref(), &mut layer);
        }
        if workload != Workload::StraightlineMeasure {
            layer.insert(
                "compiler.text_bytes".into(),
                prepared.sizes.text_bytes as f64,
            );
        }
        let overhead = if ms.iter().any(Vec::is_empty) {
            0.0
        } else {
            100.0 * (median(&ms[1]) - median(&ms[0])) / median(&ms[0])
        };
        layer.insert("trace.overhead_pct".into(), overhead);
        layer.insert("host.cal_ms".into(), cal.median);
        layer.insert("host.cal_spread_pct".into(), cal.spread_pct());
        for (name, unit) in spec::per_layer() {
            let value = layer.get(&name).copied().unwrap_or(0.0);
            let fields = vec![("value", Json::Num(value)), ("unit", Json::str(unit))];
            metrics.push((name, Json::obj(fields)));
        }
        write_trace(&spans)?;
    } else {
        let summaries = [
            op,
            setup,
            Summary::of(&[peak_rss]),
            Summary::of(&[cycles_vs_base]),
        ];
        for ((name, unit), summary) in spec::END_TO_END.iter().zip(summaries) {
            metrics.push((name.to_string(), summary.to_json(unit)));
        }
    }

    let guest = last.as_ref().map_or(0, |o| o.guest_instructions);
    let entry = Json::obj(vec![
        ("workload", Json::str(workload.name())),
        ("trace", Json::Bool(args.trace)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "input",
            Json::obj(vec![
                ("functions", Json::Num(prepared.sizes.functions as f64)),
                ("text_bytes", Json::Num(prepared.sizes.text_bytes as f64)),
                ("elf_bytes", Json::Num(prepared.sizes.elf_bytes as f64)),
                ("guest_instructions", Json::Num(guest as f64)),
            ]),
        ),
        // What must repeat bit for bit at the same seed: the FNV-64 of the
        // op's output ELF or .fdata, simulated counters and program output.
        (
            "fingerprint",
            Json::str(format!("{:016x}", first.unwrap_or(0))),
        ),
        ("host.cal_ms", Json::Num(cal.median)),
        ("host.cal_spread_pct", Json::Num(cal.spread_pct())),
        ("noisy", Json::Bool(cal.spread_pct() > 10.0)),
        ("metrics", Json::Obj(metrics)),
    ]);

    Ok(Report { correct, entry })
}

/// Spans go to `bench/out/trace.json` when the run ends.
fn write_trace(spans: &[trace::Span]) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("trace.json");
    std::fs::write(&path, trace::to_json(spans).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and with what the numbers were measured.
fn provenance() -> Json {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"], manifest_dir)),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::str(cpu)),
    ])
}

/// Adds `entry` to the result file at `path`, replacing an earlier run of
/// the same workload and trace mode, so one file can hold a whole set.
pub fn merge_into(path: &Path, entry: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .map(|r| r.as_arr().to_vec())
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    let key = |run: &Json| {
        let workload = run.get("workload").and_then(Json::as_str);
        (workload.map(str::to_string), run.get("trace").cloned())
    };
    runs.retain(|run| key(run) != key(&entry));
    runs.push(entry);
    let file = Json::obj(vec![
        ("provenance", provenance()),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
