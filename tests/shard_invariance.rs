//! Shard-count invariance: sharded batch emulation must produce
//! byte-identical merged profiles and summed counters at any worker
//! count, and a one-shard batch must equal a plain serial run — the
//! measurement-side mirror of `tests/thread_invariance.rs`.

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::elf::Elf;
use bolt::emu::{run_batch, CountingSink, Machine, NullSink, ShardPlan, Tee};
use bolt::profile::{LbrSampler, ProfileMode, SampleTrigger};
use bolt::shard_artifact::{merge_shards, run_shards, Attach, ShardArtifact};
use bolt::workloads::{Scale, Workload};
use bolt_bench::{
    assert_same_behavior, bolt_with_profile, measure, measure_batch, measure_batch_with,
    profile_lbr, profile_lbr_batch, profile_lbr_batch_with, seed_partition, shard_plan,
    try_run_with, RunResult, SAMPLE_PERIOD,
};
use bolt_sim::{CpuModel, SimConfig};
use std::sync::OnceLock;

/// A compiler-like workload binary (it has the `config` input-selection
/// global, so shards can partition the input space by seed).
fn clang_fixture() -> &'static Elf {
    static FIXTURE: OnceLock<Elf> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let program = Workload::ClangLike.build(Scale::Test);
        compile_and_link(&program, &CompileOptions::default())
            .expect("clang-like compiles")
            .elf
    })
}

/// The number of shards the suite partitions the workload into. Honors
/// the CI matrix's `BOLT_SHARDS` leg but never drops below 4, so the
/// batch paths stay exercised even on the serial leg.
fn suite_shards() -> usize {
    bolt::emu::Knobs::get().shards(0).max(4)
}

#[test]
fn sharded_profile_identical_at_1_and_8_workers() {
    let elf = clang_fixture();
    let cfg = SimConfig::small();
    let shards = suite_shards();
    let mut runs = Vec::new();
    for workers in [1usize, 8] {
        let plan = shard_plan(shards, workers);
        let (profile, batch) = profile_lbr_batch_with(elf, &cfg, &plan, seed_partition(elf, 1));
        runs.push((profile, batch));
    }
    let (serial, sharded) = (&runs[0], &runs[1]);
    assert_eq!(
        serial.0.to_fdata(),
        sharded.0.to_fdata(),
        "merged profile must be byte-identical at 1 vs 8 workers"
    );
    assert_eq!(serial.0, sharded.0, "profile maps equal, not just text");
    assert_eq!(
        serial.1.counters, sharded.1.counters,
        "summed counters must not depend on the worker count"
    );
    assert_eq!(
        serial.1.runs, sharded.1.runs,
        "per-shard results (exit, output, steps, counters) identical"
    );
    // Shards actually partitioned the input: distinct observable outputs.
    assert_eq!(serial.1.runs.len(), shards);
    let distinct: std::collections::HashSet<_> =
        serial.1.runs.iter().map(|r| r.output.clone()).collect();
    assert!(distinct.len() > 1, "seed partitioning varies the shards");

    // The merged profile drives BOLT exactly like a single-run profile:
    // every shard of the rewritten binary behaves as the original's did.
    let bolted = bolt_with_profile(elf, &sharded.0).elf;
    let plan = shard_plan(shards, 8);
    let after = measure_batch_with(&bolted, &cfg, &plan, seed_partition(&bolted, 1));
    for (b, a) in sharded.1.runs.iter().zip(&after.runs) {
        assert_same_behavior(b, a, "sharded clang");
    }
}

#[test]
fn one_shard_batch_equals_serial_single_run() {
    let elf = clang_fixture();
    let cfg = SimConfig::small();
    // The serial reference is composed by hand on one machine: the
    // harness's own `profile_lbr`/`measure` are one-shard batches.
    let mut sampler = LbrSampler::new(SAMPLE_PERIOD, SampleTrigger::Instructions);
    let mut model = CpuModel::new(cfg.clone());
    let (exit_code, output, steps) =
        try_run_with(elf, &mut Tee(&mut sampler, &mut model)).expect("workload exits");
    let serial_run = RunResult {
        exit_code,
        output,
        steps,
        counters: model.counters(),
    };
    let (batch_profile, batch) = profile_lbr_batch(elf, &cfg, &shard_plan(1, 8));
    assert_eq!(batch_profile.to_fdata(), sampler.profile.to_fdata());
    assert_eq!(batch.runs, vec![serial_run.clone()]);
    assert_eq!(profile_lbr(elf, &cfg), (batch_profile, serial_run.clone()));

    let measured = measure_batch(elf, &cfg, &shard_plan(1, 1));
    assert_eq!(measured.runs, vec![serial_run.clone()]);
    assert_eq!(measure(elf, &cfg), serial_run);
    assert_eq!(measured.counters, measured.runs[0].counters);
}

#[test]
fn summed_batch_counters_equal_sum_of_parts() {
    let elf = clang_fixture();
    let cfg = SimConfig::small();
    let batch = measure_batch(elf, &cfg, &shard_plan(3, 2));
    let expected: bolt_sim::Counters = batch.runs.iter().map(|r| &r.counters).sum();
    assert_eq!(batch.counters, expected);
    assert_eq!(
        batch.counters.instructions,
        batch
            .runs
            .iter()
            .map(|r| r.counters.instructions)
            .sum::<u64>()
    );
}

/// The machine-reuse regression the `Machine::load_elf` reset fix
/// guards: at 1 worker one machine executes every shard back-to-back,
/// at `shards` workers each machine executes exactly one — identical
/// per-shard results prove no state leaks between consecutive loads.
#[test]
fn machine_reuse_across_shards_leaks_nothing() {
    let elf = clang_fixture();
    let shards = suite_shards();
    let collect = |workers: usize| {
        let plan = ShardPlan::new(shards).with_threads(workers);
        run_batch(
            elf,
            &plan,
            |_| CountingSink::default(),
            // Different seeds per shard: a leak from shard i-1 into
            // shard i would change i's trace or output.
            seed_partition(elf, 1),
        )
        .expect("batch runs")
        .into_iter()
        .map(|s| (s.shard, s.result, s.output, s.sink.insts, s.sink.branches))
        .collect::<Vec<_>>()
    };
    assert_eq!(collect(1), collect(shards));

    // And explicitly: a machine that already ran shard A, when reloaded
    // and given shard B's seed, matches a fresh machine running B.
    let seed_b = seed_partition(elf, 3);
    let mut reused = Machine::new();
    reused.load_elf(elf);
    seed_partition(elf, 1)(0, &mut reused);
    reused.run(&mut NullSink, u64::MAX).expect("shard A runs");
    reused.load_elf(elf);
    seed_b(1, &mut reused);
    reused.run(&mut NullSink, u64::MAX).expect("shard B runs");

    let mut fresh = Machine::new();
    fresh.load_elf(elf);
    seed_b(1, &mut fresh);
    fresh.run(&mut NullSink, u64::MAX).expect("shard B runs");
    assert_eq!(reused.output, fresh.output);
    assert_eq!(reused.regs, fresh.regs);
}

/// The one shard runner behind `bolt-run` and the harness: N shards run
/// in one call, written and read back as durable artifacts, merge to
/// exactly what the in-memory shards merge to (the supervised path vs
/// the in-process one) — and the same N shards run as N one-shard calls
/// at `first_shard = i` (what each supervised worker does) are the same
/// artifacts: fdata bytes, counters, output words, steps.
#[test]
fn shared_runner_is_invariant_under_artifact_round_trip_and_worker_split() {
    let elf = clang_fixture();
    let shards = suite_shards();
    let attach = Attach {
        sampler: Some((ProfileMode::Lbr, SAMPLE_PERIOD)),
        model: Some(SimConfig::small()),
    };
    let seed = seed_partition(elf, 1);
    let plan = ShardPlan::new(shards).with_threads(2);
    let in_process = run_shards(elf, &plan, &attach, 0, &seed).expect("batch runs");
    assert_eq!(in_process.len(), shards);
    let merged = merge_shards(&in_process);
    assert!(merged.profile.num_samples > 0 && merged.counters.instructions > 0);
    assert_eq!(
        merged.steps,
        in_process.iter().map(|s| s.steps).sum::<u64>()
    );

    let dir = std::env::temp_dir().join(format!("bolt-shared-runner-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let read_back: Vec<ShardArtifact> = in_process
        .iter()
        .map(|s| {
            let path = dir.join(format!("shard-{}.bolta", s.shard));
            s.write(&path).expect("artifact writes");
            ShardArtifact::read(&path).expect("artifact reads back")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(read_back, in_process);
    let supervised = merge_shards(&read_back);
    assert_eq!(supervised, merged);
    assert_eq!(supervised.profile.to_fdata(), merged.profile.to_fdata());

    let one = ShardPlan::new(1);
    let workers: Vec<ShardArtifact> = (0..shards)
        .map(|i| {
            run_shards(elf, &one, &attach, i, &seed)
                .expect("worker runs")
                .remove(0)
        })
        .collect();
    assert_eq!(workers, in_process, "shard i alone == shard i of the batch");
    let distinct: std::collections::HashSet<_> = workers.iter().map(|s| &s.output).collect();
    assert!(distinct.len() > 1, "the global index reached the seed");
}
