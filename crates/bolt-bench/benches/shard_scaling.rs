//! Sharded batch profiling: serial vs. sharded wall clock on a
//! seed-partitioned data-center workload.
//!
//! The emulator is the reproduction's scaling bottleneck (the paper
//! profiles production-size binaries; we pay instruction-by-instruction
//! emulation for every measurement). This bench partitions one workload
//! into N independent shards by seed, profiles the batch once serially
//! (1 worker) and once sharded across workers, and reports both wall
//! clocks — asserting the merged profile and summed counters are
//! byte-identical, the property `tests/shard_invariance.rs` enforces in
//! CI at test scale.

use bolt_bench::*;
use bolt_compiler::CompileOptions;
use bolt_emu::{Engine, Knobs};
use bolt_sim::SimConfig;
use bolt_workloads::{Scale, Workload};
use std::time::Instant;

/// Reads the workload's baked-in `config` input-size word (the value
/// [`set_input_size`] patches).
fn read_config_word(elf: &bolt_elf::Elf) -> i64 {
    let sym = elf.symbol("config").expect("workload has a config global");
    let sec = elf
        .sections
        .iter()
        .find(|s| s.addr_range().contains(&sym.value))
        .expect("config lives in a data section");
    let off = (sym.value - sec.addr) as usize;
    i64::from_le_bytes(sec.data[off..off + 8].try_into().unwrap())
}

fn main() {
    banner("Sharding", "serial vs. sharded batch profiling wall clock");
    let cfg = SimConfig::server();
    let program = Workload::ClangLike.build(Scale::Bench);
    let elf = build(&program, &CompileOptions::default());

    // Partition the full Scale::Bench input across the shards: shard i
    // runs input size full/shards + i (the +i seed offset keeps shards
    // distinguishable), so the batch does roughly the work of one full
    // serial run, split N ways.
    let shards = Knobs::get().shards(0).max(8);
    let full = read_config_word(&elf);
    let base = (full / shards as i64).max(1);
    println!(
        "workload Clang-like (Scale::Bench, full input {}), {} shards (config = {}..{})",
        full,
        shards,
        base,
        base + shards as i64 - 1
    );

    // On single-core runners the sharded leg still runs at least two
    // workers so the determinism assertion always means something.
    let auto = Knobs::get().threads(0);
    let workers = auto.max(2);
    let mut results = Vec::new();
    for threads in [1usize, workers] {
        let plan = shard_plan(shards, threads);
        let started = Instant::now();
        let (profile, batch) =
            profile_lbr_batch_with(&elf, &cfg, &plan, seed_partition(&elf, base));
        let wall = started.elapsed();
        println!(
            "  workers={threads:<3} wall {wall:>9.3?}  ({} samples, {} branch records, {} insts)",
            profile.num_samples,
            profile.branches.len(),
            batch.counters.instructions
        );
        results.push((profile, batch, wall));
    }
    let (serial, sharded) = (&results[0], &results[1]);
    assert_eq!(
        serial.0.to_fdata(),
        sharded.0.to_fdata(),
        "merged profiles must be byte-identical at any worker count"
    );
    assert_eq!(
        serial.1.counters, sharded.1.counters,
        "summed counters must not depend on worker count"
    );
    assert_eq!(serial.1.runs, sharded.1.runs, "per-shard results identical");
    if auto > 1 {
        println!(
            "  speedup at {workers} workers: {:.2}x (identical merged profile and counters)",
            serial.2.as_secs_f64() / sharded.2.as_secs_f64().max(f64::MIN_POSITIVE)
        );
    } else {
        println!(
            "  single hardware thread available: {workers}-worker leg kept for \
             the determinism check only"
        );
    }

    // Execution engines on the identical sharded batch
    // (--engine=step|superblock|uop / BOLT_ENGINE): the translation
    // engines execute chained superblocks through the translation cache
    // with batched trace events — byte-identical merged profile and
    // counters, less wall clock per shard.
    println!("\nemulation engine (--engine), same batch at {workers} workers:");
    let mut engine_runs = Vec::new();
    for engine in [Engine::Step, Engine::Superblock, Engine::Uop] {
        let plan = shard_plan(shards, workers).with_engine(engine);
        let started = Instant::now();
        let (profile, batch) =
            profile_lbr_batch_with(&elf, &cfg, &plan, seed_partition(&elf, base));
        let wall = started.elapsed();
        println!("  --engine={engine:<10} wall {wall:>9.3?}");
        engine_runs.push((profile, batch, wall));
    }
    let step_leg = &engine_runs[0];
    for (engine, leg) in [
        (Engine::Superblock, &engine_runs[1]),
        (Engine::Uop, &engine_runs[2]),
    ] {
        assert_eq!(
            step_leg.0.to_fdata(),
            leg.0.to_fdata(),
            "{engine}: merged profiles must be byte-identical across engines"
        );
        assert_eq!(
            step_leg.1.counters, leg.1.counters,
            "{engine}: summed counters must not depend on the engine"
        );
        assert_eq!(
            step_leg.1.runs, leg.1.runs,
            "{engine}: per-shard results identical"
        );
        println!(
            "  {engine}-engine speedup: {:.2}x (identical merged profile and counters)",
            step_leg.2.as_secs_f64() / leg.2.as_secs_f64().max(f64::MIN_POSITIVE)
        );
    }

    // The merged profile drives BOLT exactly like a single-run profile.
    let bolted = bolt_with_profile(&elf, &sharded.0);
    let plan = shard_plan(shards, workers);
    let before = measure_batch_with(&elf, &cfg, &plan, seed_partition(&elf, base));
    let after = measure_batch_with(&bolted.elf, &cfg, &plan, seed_partition(&bolted.elf, base));
    for (b, a) in before.runs.iter().zip(&after.runs) {
        assert_same_behavior(b, a, "sharded clang");
    }
    println!(
        "  BOLT on the merged profile: {:+.1}% cycles over all {} shards",
        before.counters.speedup_over(&after.counters),
        shards
    );
}
