//! Table 1: the sequence of transformations in BOLT's optimization
//! pipeline, with per-pass activity measured on the HHVM-like workload —
//! plus a serial-vs-parallel comparison of the per-function pass
//! execution (`-threads=N`).

use bolt_bench::*;
use bolt_compiler::CompileOptions;
use bolt_passes::{PassManager, PassOptions, TABLE1};
use bolt_sim::SimConfig;
use bolt_workloads::{Scale, Workload};
use std::time::Instant;

fn main() {
    banner(
        "Table 1",
        "the optimization pipeline (with measured activity)",
    );
    let cfg = SimConfig::server();
    let program = Workload::Hhvm.build(Scale::Bench);
    let baseline = build(&program, &CompileOptions::default());

    let (profile, base) = profile_lbr(&baseline, &cfg);
    let bolted = bolt_with_profile(&baseline, &profile);
    let new = measure(&bolted.elf, &cfg);
    assert_same_behavior(&base, &new, "hhvm");

    // Reports in execution order: the sixteen Table-1 rows plus the
    // post-sctc `fixup-branches` re-run (its own report since the sctc
    // timing-attribution fix, shown as row "+"). Repeated passes (icf,
    // peepholes, fixup-branches) are matched to TABLE1 by occurrence,
    // so each gets its own row number and description.
    println!(
        "{:<4} {:<20} {:>8} {:>12}  description",
        "#", "pass", "changes", "time"
    );
    let mut seen: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for r in &bolted.pipeline.reports {
        let occurrence = seen.entry(r.name).and_modify(|n| *n += 1).or_insert(0);
        let table_row = TABLE1
            .iter()
            .enumerate()
            .filter(|(_, (name, _))| *name == r.name)
            .nth(*occurrence);
        let (row, desc) = match table_row {
            Some((i, (_, d))) => ((i + 1).to_string(), *d),
            None => ("+".to_string(), "(re-run, not a Table-1 row)"),
        };
        println!(
            "{:<4} {:<20} {:>8} {:>12}  {}",
            row,
            r.name,
            r.changes,
            format!("{:.3?}", r.duration),
            desc
        );
    }
    println!(
        "{:<4} {:<20} {:>8} {:>12}",
        "",
        "pipeline total",
        "",
        format!("{:.3?}", bolted.pipeline.total_duration())
    );
    println!(
        "\nsimple functions: {}/{} ({} folded or non-simple, kept at original addresses)",
        bolted.simple_functions,
        bolted.ctx.functions.len(),
        bolted.rewrite_stats.skipped_functions
    );

    // Serial vs parallel per-function pass execution on the identical
    // pre-pipeline context. Results must be byte-identical; only the
    // wall clock may differ. On single-core runners the sharded path is
    // still exercised (with at least two workers) so the determinism
    // assertion always means something; the speedup is only meaningful
    // when real parallelism is available.
    let auto = bolt_emu::Knobs::get().threads(0);
    let parallel_threads = auto.max(2);
    println!("\nparallel per-function passes (-threads=N), same input context:");
    let ctx0 = prepare_ctx(&baseline, &profile);
    let opts = PassOptions::default();
    let mut runs = Vec::new();
    for threads in [1, parallel_threads] {
        let mut manager = PassManager::standard(&opts);
        manager.config.threads = threads;
        let mut ctx = ctx0.clone();
        let started = Instant::now();
        let result = manager.run(&mut ctx, &opts);
        let wall = started.elapsed();
        println!("  -threads={threads:<3} pipeline wall clock {wall:.3?}");
        runs.push((result, wall));
    }
    let (serial, parallel) = (&runs[0], &runs[1]);
    assert_eq!(
        serial.0.reports, parallel.0.reports,
        "thread count must not change pass reports"
    );
    assert_eq!(
        serial.0.function_order, parallel.0.function_order,
        "thread count must not change the function order"
    );
    if auto > 1 {
        println!(
            "  speedup at {} threads: {:.2}x (identical reports and order)",
            parallel_threads,
            serial.1.as_secs_f64() / parallel.1.as_secs_f64().max(f64::MIN_POSITIVE)
        );
    } else {
        println!(
            "  single hardware thread available: {parallel_threads}-worker run \
             kept for the determinism check only"
        );
    }
}
