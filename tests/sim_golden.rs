//! Pinned simulated statistics: the complete `Counters` of five binaries
//! under both `SimConfig` presets, as literals.
//!
//! `tests/engine_invariance.rs` only compares the engines with each
//! other, so a change to `bolt-sim` that shifts all of them alike (a
//! different replacement decision in `Cache`, a reordered L2/LLC probe in
//! `CpuModel`) is invisible to it. This file is the host-independent
//! tripwire for "a simulator speed-up leaves every simulated statistic
//! identical": the literals were generated by the step engine before the
//! change that introduced them touched `bolt-sim`, and the step and uop
//! engines must both reproduce them bit for bit (`cycles` included —
//! `Counters` compares it as an `f64`).
//!
//! To regenerate after an *intended* model change, run
//! `cargo test --release --test sim_golden -- --ignored --nocapture`
//! and paste the printed table.

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::elf::Elf;
use bolt::emu::Engine;
use bolt::workloads::{Scale, Workload};
use bolt_sim::{Counters, SimConfig};

fn binaries() -> Vec<(&'static str, Elf)> {
    let mut out: Vec<(&'static str, Elf)> = [
        ("hhvm", Workload::Hhvm),
        ("tao", Workload::Tao),
        ("clang", Workload::ClangLike),
        ("interp", Workload::Interp),
    ]
    .into_iter()
    .map(|(name, w)| {
        let elf = compile_and_link(&w.build(Scale::Test), &CompileOptions::default())
            .expect("workload compiles")
            .elf;
        (name, elf)
    })
    .collect();
    out.push(("straightline", bolt_bench::straightline_elf(2_000)));
    out
}

fn counters(elf: &Elf, cfg: &SimConfig, engine: Engine) -> Counters {
    let plan = bolt_bench::shard_plan(1, 1).with_engine(engine);
    bolt_bench::measure_batch(elf, cfg, &plan).counters
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, Counters)] = &[
    ("hhvm", "server", Counters { instructions: 4551212, cycles: 1867912.5999999999, cond_branches: 120001, branch_mispredicts: 28774, l1i_accesses: 4677655, l1i_misses: 127, l1d_accesses: 2661759, l1d_misses: 303, l2_misses: 430, llc_misses: 430, itlb_misses: 793, dtlb_misses: 8 }),
    ("hhvm", "small", Counters { instructions: 4551212, cycles: 3352061.5999999996, cond_branches: 120001, branch_mispredicts: 43578, l1i_accesses: 4677655, l1i_misses: 64848, l1d_accesses: 2661759, l1d_misses: 9500, l2_misses: 20777, llc_misses: 430, itlb_misses: 4005, dtlb_misses: 8 }),
    ("tao", "server", Counters { instructions: 4280038, cycles: 1882472.4, cond_branches: 160001, branch_mispredicts: 40163, l1i_accesses: 4490016, l1i_misses: 47, l1d_accesses: 2240101, l1d_misses: 128, l2_misses: 175, llc_misses: 175, itlb_misses: 2, dtlb_misses: 5 }),
    ("tao", "small", Counters { instructions: 4280038, cycles: 4276677.4, cond_branches: 160001, branch_mispredicts: 70079, l1i_accesses: 4490016, l1i_misses: 189967, l1d_accesses: 2240101, l1d_misses: 34491, l2_misses: 252, llc_misses: 175, itlb_misses: 2, dtlb_misses: 5 }),
    ("clang", "server", Counters { instructions: 14040040, cycles: 5551643.0, cond_branches: 420001, branch_mispredicts: 86230, l1i_accesses: 14700100, l1i_misses: 59, l1d_accesses: 8360021, l1d_misses: 1380, l2_misses: 601, llc_misses: 601, itlb_misses: 3, dtlb_misses: 12 }),
    ("clang", "small", Counters { instructions: 14040040, cycles: 9954949.0, cond_branches: 420001, branch_mispredicts: 107682, l1i_accesses: 14700100, l1i_misses: 390005, l1d_accesses: 8360021, l1d_misses: 35755, l2_misses: 2599, llc_misses: 601, itlb_misses: 3, dtlb_misses: 44 }),
    ("interp", "server", Counters { instructions: 3040038, cycles: 1684538.4, cond_branches: 60001, branch_mispredicts: 51734, l1i_accesses: 3176081, l1i_misses: 57, l1d_accesses: 1880018, l1d_misses: 178, l2_misses: 235, llc_misses: 235, itlb_misses: 1, dtlb_misses: 6 }),
    ("interp", "small", Counters { instructions: 3040038, cycles: 1972659.4, cond_branches: 60001, branch_mispredicts: 61253, l1i_accesses: 3176081, l1i_misses: 11779, l1d_accesses: 1880018, l1d_misses: 5681, l2_misses: 2861, llc_misses: 235, itlb_misses: 1, dtlb_misses: 6 }),
    ("straightline", "server", Counters { instructions: 124005, cycles: 38723.5, cond_branches: 2000, branch_mispredicts: 14, l1i_accesses: 128006, l1i_misses: 4, l1d_accesses: 96000, l1d_misses: 2, l2_misses: 6, llc_misses: 6, itlb_misses: 1, dtlb_misses: 2 }),
    ("straightline", "small", Counters { instructions: 124005, cycles: 38667.5, cond_branches: 2000, branch_mispredicts: 10, l1i_accesses: 128006, l1i_misses: 4, l1d_accesses: 96000, l1d_misses: 2, l2_misses: 6, llc_misses: 6, itlb_misses: 1, dtlb_misses: 2 }),
];

fn configs() -> [(&'static str, SimConfig); 2] {
    [
        ("server", SimConfig::server()),
        ("small", SimConfig::small()),
    ]
}

#[test]
fn simulated_statistics_match_the_pinned_literals() {
    let binaries = binaries();
    let configs = configs();
    assert_eq!(GOLDEN.len(), binaries.len() * configs.len());
    let mut rows = GOLDEN.iter();
    for (name, elf) in &binaries {
        for (cfg_name, cfg) in &configs {
            let (g_name, g_cfg, want) = rows.next().expect("length checked");
            assert_eq!((g_name, g_cfg), (name, cfg_name), "table order");
            for engine in [Engine::Step, Engine::Uop] {
                assert_eq!(
                    counters(elf, cfg, engine),
                    *want,
                    "{name} under SimConfig::{cfg_name}(), {engine} engine"
                );
            }
        }
    }
}

/// Prints the `GOLDEN` table for the current model (step engine).
#[test]
#[ignore = "regenerates the table; run by hand after an intended model change"]
fn print_table() {
    for (name, elf) in &binaries() {
        for (cfg_name, cfg) in &configs() {
            let c = counters(elf, cfg, Engine::Step);
            println!("    ({name:?}, {cfg_name:?}, {c:?}),");
        }
    }
}
