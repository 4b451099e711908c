//! Pinned simulated statistics: the complete `Counters` of five binaries
//! under both `SimConfig` presets, as literals — and, for the four
//! workloads among them, BOLT's *output*: a hash of the rewritten ELF
//! under every `PassOptions` preset plus the BOLTed binary's `Counters`.
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
//! `BOLTED` is the same tripwire for the optimizer: "no output byte
//! changed" is a verdict of this file instead of a `cmp` by hand, and a
//! BOLTed binary — whose text spans three executable sections, each with
//! its own region in the emulator's text index — must count the same
//! under the step and uop engines.
//!
//! `CLANG_PROFILE` pins the repo benchmark's `clang_profile` op at its
//! own scale — `Scale::Test` inputs are too small to reach much of the
//! model and sampler state a profiling run at benchmark scale does —
//! and `HHVM_LOOP` its `hhvm_loop` op (profile, BOLT, re-measure), whose
//! test also holds both binaries to the MIR interpreter's exit and output
//! and the interpreter to a time bound. Each takes seconds in release, so
//! they are `#[ignore]`d and CI runs each as a step of its own.
//!
//! To regenerate after an *intended* model or optimizer change, run
//! `cargo test --release --test sim_golden -- --ignored --nocapture`
//! and paste the printed tables and the `CLANG_PROFILE` / `HHVM_LOOP`
//! values the failing benchmark-scale tests report.

use bolt::compiler::{compile_and_link, CompileOptions, Interp};
use bolt::elf::{write_elf, Elf};
use bolt::emu::{Engine, Exit, Machine, Tee, TraceSink};
use bolt::opt::{optimize, BoltOptions};
use bolt::passes::PassOptions;
use bolt::profile::{LbrSampler, Profile, SampleTrigger};
use bolt::workloads::{clang_shape, compiler_like, Scale, Workload};
use bolt_sim::{Counters, CpuModel, SimConfig};
use std::time::{Duration, Instant};

fn workloads() -> Vec<(&'static str, Elf)> {
    [
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
    .collect()
}

fn binaries() -> Vec<(&'static str, Elf)> {
    let mut out = workloads();
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

/// Per workload: FNV-64 of the rewritten ELF under each of
/// `PassOptions::PRESETS` (in that order; `default` is
/// `BoltOptions::paper_default()`), then the `default` binary's counters
/// under `SimConfig::server()`.
#[rustfmt::skip]
const BOLTED: &[(&str, [u64; PassOptions::PRESETS.len()], Counters)] = &[
    ("hhvm", [0x04e37ce40bb3cdf5, 0x379d7826158daefe, 0xf0faa10e536ceecb, 0x0bec5e3c11892021, 0x87c953fd18e504a0], Counters { instructions: 3621409, cycles: 1542462.7, cond_branches: 150001, branch_mispredicts: 26847, l1i_accesses: 3812896, l1i_misses: 87, l1d_accesses: 1730787, l1d_misses: 302, l2_misses: 389, llc_misses: 389, itlb_misses: 3, dtlb_misses: 7 }),
    ("tao", [0xe5ace3bab388de74, 0x168ac1f801b6ceed, 0xaa3686fe0ce9f64b, 0xd7e5dadf4068054a, 0xf8fc79e9d09e139d], Counters { instructions: 3280031, cycles: 1578354.2999999998, cond_branches: 160001, branch_mispredicts: 40094, l1i_accesses: 3455043, l1i_misses: 34, l1d_accesses: 1360095, l1d_misses: 126, l2_misses: 160, llc_misses: 160, itlb_misses: 1, dtlb_misses: 4 }),
    ("clang", [0xa79e2831d175bab5, 0x7ae95350383d879c, 0x8dd5a023dabefaa8, 0xa609d7b196b20263, 0xc8747db4d60c2691], Counters { instructions: 10525033, cycles: 4631393.9, cond_branches: 420001, branch_mispredicts: 96192, l1i_accesses: 11061078, l1i_misses: 40, l1d_accesses: 5220015, l1d_misses: 1315, l2_misses: 579, llc_misses: 579, itlb_misses: 1, dtlb_misses: 11 }),
    ("interp", [0xbdb1387c4f2b4a79, 0x925ed86908eb6b95, 0xaf79fdca028b38fc, 0xc7c198c7463f7928, 0xb20354cb6a390dba], Counters { instructions: 2696210, cycles: 1581663.0, cond_branches: 60001, branch_mispredicts: 51751, l1i_accesses: 2827146, l1i_misses: 59, l1d_accesses: 1520012, l1d_misses: 177, l2_misses: 236, llc_misses: 236, itlb_misses: 2, dtlb_misses: 5 }),
];

/// BOLTs `elf` under every preset with one LBR profile of it; returns
/// the output hashes and the `default` binary.
fn bolted(elf: &Elf) -> (Vec<u64>, Elf) {
    let (profile, _) = bolt_bench::profile_lbr(elf, &SimConfig::server());
    let mut outputs: Vec<Elf> = PassOptions::PRESETS
        .iter()
        .map(|preset| {
            let opts = BoltOptions {
                passes: PassOptions::preset(preset).expect("known preset"),
                ..BoltOptions::paper_default()
            };
            optimize(elf, &profile, &opts).expect("BOLT succeeds").elf
        })
        .collect();
    let hashes = outputs
        .iter()
        .map(|out| fnv64(&write_elf(out).expect("output ELF serializes")))
        .collect();
    (hashes, outputs.swap_remove(0))
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

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

#[test]
fn bolt_output_matches_the_pinned_literals() {
    let workloads = workloads();
    assert_eq!(BOLTED.len(), workloads.len());
    for ((name, elf), (g_name, want_hashes, want)) in workloads.iter().zip(BOLTED) {
        assert_eq!(name, g_name, "table order");
        let (hashes, default) = bolted(elf);
        for ((preset, got), want) in PassOptions::PRESETS.iter().zip(hashes).zip(want_hashes) {
            assert_eq!(got, *want, "{name}: rewritten ELF under -preset={preset}");
        }
        for engine in [Engine::Step, Engine::Uop] {
            assert_eq!(
                counters(&default, &SimConfig::server(), engine),
                *want,
                "BOLTed {name} under SimConfig::server(), {engine} engine"
            );
        }
    }
}

/// `clang_profile`'s op: the simulated counters and the FNV-1a 64 of
/// the `.fdata` text of one profiling run of the Bench-scale clang-like
/// binary (input size 100 000) under `Tee(LbrSampler::new(997,
/// SampleTrigger::Instructions), CpuModel::new(SimConfig::server()))`.
#[rustfmt::skip]
const CLANG_PROFILE: (Counters, u64) = (
    Counters { instructions: 70200040, cycles: 25918121.0, cond_branches: 2100001, branch_mispredicts: 339355, l1i_accesses: 73612765, l1i_misses: 104, l1d_accesses: 41800021, l1d_misses: 5407, l2_misses: 648, llc_misses: 648, itlb_misses: 6, dtlb_misses: 12 },
    0x5a8fbb0262aa8db1,
);

#[test]
#[ignore = "benchmark scale, seconds in release; run by a CI step of its own"]
fn bench_scale_clang_profile_matches_the_pinned_literals() {
    let mut program = compiler_like::build(Scale::Bench, clang_shape(Scale::Bench));
    program
        .globals
        .iter_mut()
        .find(|g| g.name == "config")
        .expect("the compiler-like workload keeps its input size in `config`")
        .words[0] = 100_000;
    let elf = compile_and_link(&program, &CompileOptions::default())
        .expect("workload compiles")
        .elf;
    for engine in [Engine::Step, Engine::Uop] {
        let (counters, profile, _) = profiling_run(&elf, engine);
        let got = (counters, fnv64(profile.to_fdata().as_bytes()));
        assert_eq!(got, CLANG_PROFILE, "{engine} engine (hash {:#018x})", got.1);
    }
}

/// The benchmark's profiling run: `elf` under `Tee(LbrSampler::new(997,
/// SampleTrigger::Instructions), CpuModel::new(SimConfig::server()))`.
fn profiling_run(elf: &Elf, engine: Engine) -> (Counters, Profile, Outcome) {
    let mut sampler = LbrSampler::new(997, SampleTrigger::Instructions);
    let mut model = CpuModel::new(SimConfig::server());
    let outcome = emulate(elf, &mut Tee(&mut sampler, &mut model), engine);
    (model.counters(), sampler.profile, outcome)
}

/// How a run ended and what it emitted.
type Outcome = (Exit, Vec<i64>);

fn emulate(elf: &Elf, sink: &mut impl TraceSink, engine: Engine) -> Outcome {
    let mut machine = Machine::new();
    machine.load_elf(elf);
    let run = machine
        .run_engine(sink, u64::MAX, engine)
        .expect("the run completes");
    assert!(matches!(run.exit, Exit::Exited(_)), "{engine}: {run:?}");
    (run.exit, machine.output)
}

/// `hhvm_loop`'s op at seed 1: the Bench-scale HHVM-like binary's
/// counters under the profiling run above, then those of its BOLTed
/// binary (`BoltOptions { threads: 2, ..paper_default() }`, the uop
/// run's profile) under `CpuModel::new(SimConfig::server())` alone.
/// Their cycle ratio is the benchmark's `cycles_vs_base_pct`.
#[rustfmt::skip]
const HHVM_LOOP: (Counters, Counters) = (
    Counters { instructions: 60047758, cycles: 40165297.4, cond_branches: 1600001, branch_mispredicts: 520570, l1i_accesses: 62134094, l1i_misses: 546596, l1d_accesses: 35087949, l1d_misses: 324, l2_misses: 5498, llc_misses: 1008, itlb_misses: 337874, dtlb_misses: 8 },
    Counters { instructions: 47819609, cycles: 21601239.7, cond_branches: 2000001, branch_mispredicts: 398030, l1i_accesses: 50329596, l1i_misses: 152712, l1d_accesses: 22844176, l1d_misses: 323, l2_misses: 811, llc_misses: 811, itlb_misses: 9, dtlb_misses: 7 },
);

/// Also checks the benchmark's reference at that scale: the MIR
/// interpreter's exit and output must be those of the input and the
/// BOLTed binary on both engines, and interpreting the program (names
/// resolved once, 1461 functions dispatched through pointers) must take
/// no longer than the input binary's modelled uop run. That bound is a
/// ratio of two timings on the same host, so host speed cancels out.
#[test]
#[ignore = "benchmark scale, seconds in release; run by a CI step of its own"]
fn bench_scale_hhvm_loop_matches_the_pinned_literals() {
    let program = Workload::Hhvm.build(Scale::Bench);
    let start = Instant::now();
    let mut oracle = Interp::new(&program, u64::MAX);
    let exit = oracle.run(&[]).expect("the MIR interpreter completes");
    let interp_time = start.elapsed();
    let reference = (Exit::Exited(exit), oracle.output);

    let elf = compile_and_link(&program, &CompileOptions::default())
        .expect("workload compiles")
        .elf;
    let mut profile = Profile::default();
    let mut uop_time = Duration::ZERO;
    for engine in [Engine::Step, Engine::Uop] {
        let start = Instant::now();
        let (base, p, outcome) = profiling_run(&elf, engine);
        if engine == Engine::Uop {
            uop_time = start.elapsed();
        }
        assert_eq!(base, HHVM_LOOP.0, "{engine} engine, input binary");
        assert_eq!(outcome, reference, "{engine} engine, input binary");
        profile = p;
    }
    assert!(
        interp_time <= uop_time,
        "the MIR interpreter took {interp_time:?}, longer than the input binary's \
         modelled uop run ({uop_time:?})"
    );
    let opts = BoltOptions {
        threads: 2,
        ..BoltOptions::paper_default()
    };
    let bolted = optimize(&elf, &profile, &opts).expect("BOLT succeeds").elf;
    for engine in [Engine::Step, Engine::Uop] {
        let mut model = CpuModel::new(SimConfig::server());
        let outcome = emulate(&bolted, &mut model, engine);
        assert_eq!(
            model.counters(),
            HHVM_LOOP.1,
            "{engine} engine, BOLTed binary"
        );
        assert_eq!(outcome, reference, "{engine} engine, BOLTed binary");
    }
}

/// Prints the `GOLDEN` and `BOLTED` tables for the current model and
/// optimizer (step engine).
#[test]
#[ignore = "regenerates the tables; run by hand after an intended model or optimizer change"]
fn print_table() {
    for (name, elf) in &binaries() {
        for (cfg_name, cfg) in &configs() {
            let c = counters(elf, cfg, Engine::Step);
            println!("    ({name:?}, {cfg_name:?}, {c:?}),");
        }
    }
    println!();
    for (name, elf) in &workloads() {
        let (hashes, default) = bolted(elf);
        let c = counters(&default, &SimConfig::server(), Engine::Step);
        let hashes: Vec<_> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
        println!("    ({name:?}, [{}], {c:?}),", hashes.join(", "));
    }
}
