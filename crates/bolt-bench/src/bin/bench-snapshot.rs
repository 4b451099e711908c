//! `bench-snapshot`: records the emulation-engine performance trajectory
//! as a committed artifact instead of a commit-message anecdote.
//!
//! Runs every execution engine (`step`, `superblock`, `uop`)
//! over a small workload matrix — the TAO and clang-like paper
//! workloads, the dispatch-dominated `interp` VM the uop tier targets,
//! and the synthetic straight-line-heavy loop the superblock tier
//! targets — and writes the wall clocks and derived speedups to `BENCH_emu.json`
//! (engine × workload). Counters are asserted byte-identical across
//! engines while at it, so the snapshot can't silently measure two
//! different computations.
//!
//! ```sh
//! cargo run --release -p bolt-bench --bin bench-snapshot
//! cargo run -p bolt-bench --bin bench-snapshot -- --smoke --out /tmp/b.json
//! ```
//!
//! `--smoke` shrinks the workloads and repetitions so CI can prove the
//! script still runs without burning minutes; its timings are noise and
//! are labeled as such in the output.

use bolt_bench::{build, profile_lbr, straightline_elf};
use bolt_compiler::CompileOptions;
use bolt_elf::{read_elf, write_elf, Elf};
use bolt_emu::{
    run_batch, run_supervised, Engine, Exit, Machine, NullSink, ShardPlan, SupervisePlan,
};
use bolt_opt::{optimize, prepare, rewrite_binary, BoltOptions};
use bolt_passes::PassManager;
use bolt_sim::{Counters, CpuModel, SimConfig};
use bolt_workloads::{Scale, Workload};
use std::fmt::Write as _;
use std::time::Instant;

const ENGINES: [Engine; 3] = [Engine::Step, Engine::Superblock, Engine::Uop];

struct Leg {
    /// Best-of-reps wall clock with no sink attached (pure engine cost).
    null_ms: f64,
    /// Best-of-reps wall clock driving the full CPU model.
    model_ms: f64,
    steps: u64,
    /// Debug-formatted counters, for the cross-engine identity check.
    fingerprint: String,
}

fn run_leg(elf: &Elf, engine: Engine, reps: usize, validate: bool) -> Leg {
    let mut m = Machine::new();
    if validate {
        m.set_sem_validation(true);
    }
    let mut null_ms = f64::INFINITY;
    let mut steps = 0u64;
    for _ in 0..reps {
        m.load_elf(elf);
        let t = Instant::now();
        let r = m.run_engine(&mut NullSink, u64::MAX, engine).expect("runs");
        null_ms = null_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert!(matches!(r.exit, Exit::Exited(_)), "workload exits");
        steps = r.steps;
    }
    let mut model_ms = f64::INFINITY;
    let mut fingerprint = String::new();
    for _ in 0..reps {
        m.load_elf(elf);
        let mut model = CpuModel::new(SimConfig::small());
        let t = Instant::now();
        m.run_engine(&mut model, u64::MAX, engine).expect("runs");
        model_ms = model_ms.min(t.elapsed().as_secs_f64() * 1e3);
        fingerprint = format!("{:?}", model.counters());
    }
    Leg {
        null_ms,
        model_ms,
        steps,
        fingerprint,
    }
}

/// Hidden worker mode for the `supervise` section's process arm: run
/// the ELF at `elf_path` once under the CPU model and write the
/// counters as a durable artifact. This is the whole per-shard job, so
/// the A/B below prices exactly the supervision machinery (spawn, ELF
/// reload, artifact write + validate, poll loop).
fn supervise_worker(elf_path: &str, artifact_out: &str) -> ! {
    let bytes = std::fs::read(elf_path).expect("worker reads the elf");
    let elf = read_elf(&bytes).expect("worker parses the elf");
    let mut m = Machine::new();
    m.load_elf(&elf);
    let mut model = CpuModel::new(SimConfig::small());
    let r = m.run(&mut model, u64::MAX).expect("worker runs");
    assert!(matches!(r.exit, Exit::Exited(_)), "workload exits");
    bolt_emu::artifact::write_atomic(
        std::path::Path::new(artifact_out),
        &model.counters().to_artifact(),
    )
    .expect("worker writes its artifact");
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_emu.json");
    let mut worker_elf = None;
    let mut worker_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out takes a path").clone(),
            "--supervise-worker" => worker_elf = it.next().cloned(),
            "--artifact-out" => worker_out = it.next().cloned(),
            other => {
                eprintln!("bench-snapshot: unknown argument {other:?}");
                eprintln!("usage: bench-snapshot [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if let (Some(elf), Some(art)) = (&worker_elf, &worker_out) {
        supervise_worker(elf, art);
    }
    let (reps, straight_iters) = if smoke { (1, 200) } else { (5, 100_000) };

    let workloads: Vec<(&str, Elf)> = vec![
        (
            "tao",
            build(
                &Workload::Tao.build(Scale::Test),
                &CompileOptions::default(),
            ),
        ),
        (
            "clang_like",
            build(
                &Workload::ClangLike.build(Scale::Test),
                &CompileOptions::default(),
            ),
        ),
        (
            "interp",
            build(
                &Workload::Interp.build(Scale::Test),
                &CompileOptions::default(),
            ),
        ),
        ("straightline", straightline_elf(straight_iters)),
    ];

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"generated_by\": \"bench-snapshot\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"workloads\": {{");

    println!(
        "bench-snapshot ({}): engine x workload wall clocks, best of {reps}",
        if smoke {
            "smoke — timings are noise"
        } else {
            "full"
        }
    );
    let mut uop_wins = 0usize;
    for (wi, (name, elf)) in workloads.iter().enumerate() {
        let legs: Vec<Leg> = ENGINES
            .iter()
            .map(|&e| run_leg(elf, e, reps, false))
            .collect();
        for (e, leg) in ENGINES.iter().zip(&legs) {
            assert_eq!(
                legs[0].fingerprint, leg.fingerprint,
                "{name}/{e}: counters must be byte-identical across engines"
            );
            assert_eq!(legs[0].steps, leg.steps, "{name}/{e}: retired counts");
            println!(
                "  {name:<12} --engine={e:<10} null {:>9.3} ms   cpu-model {:>9.3} ms",
                leg.null_ms, leg.model_ms
            );
        }
        // The cpu-model leg is the product path (every real profiling
        // or measurement run attaches a sink); null-sink isolates the
        // engines themselves.
        let sb_vs_step = legs[0].model_ms / legs[1].model_ms.max(f64::MIN_POSITIVE);
        let uop_vs_sb = legs[1].model_ms / legs[2].model_ms.max(f64::MIN_POSITIVE);
        let uop_vs_sb_null = legs[1].null_ms / legs[2].null_ms.max(f64::MIN_POSITIVE);
        println!(
            "  {name:<12} cpu-model superblock/step {sb_vs_step:.2}x, \
             uop/superblock {uop_vs_sb:.2}x (null {uop_vs_sb_null:.2}x)"
        );
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(json, "      \"retired_instructions\": {},", legs[0].steps);
        let _ = writeln!(json, "      \"engines\": {{");
        for (ei, (e, leg)) in ENGINES.iter().zip(&legs).enumerate() {
            let _ = writeln!(
                json,
                "        \"{e}\": {{ \"null_sink_ms\": {:.3}, \"cpu_model_ms\": {:.3} }}{}",
                leg.null_ms,
                leg.model_ms,
                if ei + 1 < ENGINES.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      }},");
        let _ = writeln!(
            json,
            "      \"speedup_superblock_vs_step\": {sb_vs_step:.3},"
        );
        let _ = writeln!(json, "      \"speedup_uop_vs_superblock\": {uop_vs_sb:.3},");
        let _ = writeln!(
            json,
            "      \"speedup_uop_vs_superblock_null_sink\": {uop_vs_sb_null:.3}"
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
        if uop_vs_sb_null >= 1.3 {
            uop_wins += 1;
        }
    }
    if !smoke && uop_wins < 2 {
        eprintln!(
            "bench-snapshot: WARNING: uop/superblock null-sink hit 1.3x on only \
             {uop_wins} workload(s), below the 2-workload target"
        );
    }
    let _ = writeln!(json, "  }},");

    // Static-verifier wall clock: run the full `-verify` path (pipeline
    // IR lint plus the independent re-disassembly) on the two paper
    // workloads and record what share of the optimize wall clock the
    // verifier costs. A clean pipeline must verify with zero findings —
    // the snapshot refuses to time a broken verifier.
    let _ = writeln!(json, "  \"verifier\": {{");
    let verify_targets = ["tao", "clang_like"];
    for (vi, name) in verify_targets.iter().enumerate() {
        let elf = &workloads
            .iter()
            .find(|(n, _)| n == name)
            .expect("workload built above")
            .1;
        let (profile, _) = profile_lbr(elf, &SimConfig::small());
        let mut opts = BoltOptions::paper_default();
        opts.verify = true;
        let mut verify_ms = f64::INFINITY;
        let mut optimize_ms = f64::INFINITY;
        for _ in 0..reps.min(3) {
            let t = Instant::now();
            let bolted = optimize(elf, &profile, &opts).expect("BOLT succeeds");
            let total = t.elapsed().as_secs_f64() * 1e3;
            assert!(
                bolted.all_findings().is_empty(),
                "{name}: clean pipeline produced verifier findings"
            );
            let lint_ms: f64 = bolted
                .pipeline
                .reports
                .iter()
                .filter(|r| r.name == "verify")
                .map(|r| r.duration.as_secs_f64() * 1e3)
                .sum();
            let rewrite_ms = bolted
                .verify
                .as_ref()
                .expect("-verify ran")
                .duration
                .as_secs_f64()
                * 1e3;
            if total < optimize_ms {
                optimize_ms = total;
                verify_ms = lint_ms + rewrite_ms;
            }
        }
        let pct = 100.0 * verify_ms / optimize_ms.max(f64::MIN_POSITIVE);
        println!(
            "  {name:<12} -verify {verify_ms:>9.3} ms of {optimize_ms:>9.3} ms optimize ({pct:.1}%)"
        );
        let _ =
            writeln!(
            json,
            "    \"{name}\": {{ \"verify_ms\": {verify_ms:.3}, \"optimize_ms\": {optimize_ms:.3}, \
             \"overhead_pct\": {pct:.2} }}{}",
            if vi + 1 < verify_targets.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");

    // Quarantine plumbing overhead: what the fault-tolerance machinery
    // costs on a *clean* run. Arm A is the shipped `optimize()` (retry
    // ladder + per-kernel `catch_unwind` firewall); arm B drives the
    // identical round directly — `prepare` + a firewall-off
    // `PassManager::standard` + `rewrite_binary` — with no ladder
    // bookkeeping and no unwind guards. Both arms must produce a
    // byte-identical binary, so the delta is pure plumbing, not a
    // different computation. Dyno sweeps are off in both arms: they are
    // a reporting feature of the driver, not part of the fault
    // tolerance being priced.
    let _ = writeln!(json, "  \"quarantine\": {{");
    let quarantine_targets = ["tao", "clang_like"];
    for (qi, name) in quarantine_targets.iter().enumerate() {
        let elf = &workloads
            .iter()
            .find(|(n, _)| n == name)
            .expect("workload built above")
            .1;
        let (profile, _) = profile_lbr(elf, &SimConfig::small());
        let mut opts = BoltOptions::paper_default();
        opts.dyno_stats = false;
        let mut guarded_ms = f64::INFINITY;
        let mut guarded_elf = None;
        for _ in 0..reps.min(3) {
            let t = Instant::now();
            let bolted = optimize(elf, &profile, &opts).expect("BOLT succeeds");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(
                bolted.quarantine.is_clean(),
                "{name}: clean run must quarantine nothing:\n{}",
                bolted.quarantine.render()
            );
            if ms < guarded_ms {
                guarded_ms = ms;
                guarded_elf = Some(bolted.elf);
            }
        }
        let mut direct_ms = f64::INFINITY;
        let mut direct_elf = None;
        for _ in 0..reps.min(3) {
            let t = Instant::now();
            let mut prepared = prepare(elf, &profile, &opts);
            let mut manager = PassManager::standard(&opts.passes);
            manager.config.threads = opts.threads;
            manager.config.firewall = false;
            let pipeline = manager.run(&mut prepared.ctx, &opts.passes);
            let (rewritten, _) = rewrite_binary(elf, &prepared.ctx, &pipeline.function_order)
                .expect("direct rewrite succeeds");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if ms < direct_ms {
                direct_ms = ms;
                direct_elf = Some(rewritten);
            }
        }
        assert_eq!(
            write_elf(&guarded_elf.expect("measured")).expect("serializes"),
            write_elf(&direct_elf.expect("measured")).expect("serializes"),
            "{name}: guarded and direct arms must emit byte-identical binaries"
        );
        let pct = 100.0 * (guarded_ms - direct_ms) / direct_ms.max(f64::MIN_POSITIVE);
        println!(
            "  {name:<12} quarantine plumbing {guarded_ms:>9.3} ms guarded \
             vs {direct_ms:>9.3} ms direct ({pct:+.1}%)"
        );
        let _ =
            writeln!(
            json,
            "    \"{name}\": {{ \"optimize_ms\": {guarded_ms:.3}, \"direct_ms\": {direct_ms:.3}, \
             \"overhead_pct\": {pct:.2} }}{}",
            if qi + 1 < quarantine_targets.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");

    // Supervision overhead: the same sharded measurement run as a
    // thread batch in this process (arm A) and as supervised worker
    // *processes* writing durable artifacts (arm B, via the hidden
    // `--supervise-worker` mode of this binary). The summed counters
    // must be identical — the A/B prices process isolation (spawn, ELF
    // reload, artifact write/validate/read, poll loop), not a different
    // computation.
    let _ = writeln!(json, "  \"supervise\": {{");
    {
        let tao = &workloads
            .iter()
            .find(|(n, _)| *n == "tao")
            .expect("workload built above")
            .1;
        let (sv_shards, sv_workers) = if smoke { (2usize, 2usize) } else { (8, 4) };
        let sv_reps = reps.min(3);
        let tmp = std::env::temp_dir().join(format!("bench-snapshot-sv-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).expect("scratch dir");
        let elf_path = tmp.join("tao.elf");
        std::fs::write(&elf_path, write_elf(tao).expect("serializes")).expect("elf on disk");

        let plan = ShardPlan::new(sv_shards).with_threads(sv_workers);
        let mut in_ms = f64::INFINITY;
        let mut in_counters = Counters::default();
        for _ in 0..sv_reps {
            let t = Instant::now();
            let runs = run_batch(tao, &plan, |_| CpuModel::new(SimConfig::small()), |_, _| {})
                .expect("thread batch runs");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let total: Counters = runs.iter().map(|r| r.sink.counters()).sum();
            if ms < in_ms {
                in_ms = ms;
                in_counters = total;
            }
        }

        let exe = std::env::current_exe().expect("own path");
        let mut sup_ms = f64::INFINITY;
        let mut sup_counters = Counters::default();
        for _ in 0..sv_reps {
            // A fresh state dir per rep: resume would make later reps
            // free and the overhead measurement vacuous.
            let state = tmp.join("state");
            let _ = std::fs::remove_dir_all(&state);
            let mut plan = SupervisePlan::new(sv_shards, state, "bench-snapshot supervise".into());
            plan.procs = sv_workers;
            let t = Instant::now();
            let outcome = run_supervised(&plan, |_, _, path| {
                let mut c = std::process::Command::new(&exe);
                c.arg("--supervise-worker")
                    .arg(&elf_path)
                    .arg("--artifact-out")
                    .arg(path);
                c
            })
            .expect("supervised batch runs");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(
                outcome.report.is_clean() && outcome.report.completed == sv_shards,
                "clean supervised run:\n{}",
                outcome.report.render()
            );
            let total = outcome
                .artifacts
                .iter()
                .map(|p| {
                    let bytes = std::fs::read(p.as_ref().expect("completed")).expect("artifact");
                    Counters::from_artifact(&bytes).expect("validated artifact decodes")
                })
                .sum();
            if ms < sup_ms {
                sup_ms = ms;
                sup_counters = total;
            }
        }
        assert_eq!(
            in_counters, sup_counters,
            "thread and process arms must sum identical counters"
        );
        let pct = 100.0 * (sup_ms - in_ms) / in_ms.max(f64::MIN_POSITIVE);
        let per_shard_ms = (sup_ms - in_ms) / sv_shards as f64;
        println!(
            "  {:<12} supervise {sup_ms:>9.3} ms ({sv_shards} procs x {sv_workers}) \
             vs {in_ms:>9.3} ms in-process ({pct:+.1}%, {per_shard_ms:+.3} ms/shard)",
            "tao"
        );
        let _ = writeln!(
            json,
            "    \"tao\": {{ \"shards\": {sv_shards}, \"workers\": {sv_workers}, \
             \"in_process_ms\": {in_ms:.3}, \"supervised_ms\": {sup_ms:.3}, \
             \"overhead_pct\": {pct:.2}, \"per_shard_overhead_ms\": {per_shard_ms:.3} }}"
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }
    let _ = writeln!(json, "  }},");

    // Symbolic translation-validation overhead: re-run the two
    // translation engines on TAO with semantic validation enabled and
    // record the wall-clock cost against a just-measured baseline (the
    // validator runs once per packed block, at translate time).
    // Validation is a setting of the leg's own machine, so each engine's
    // baseline and validated runs sit back to back.
    let _ = writeln!(json, "  \"sem_validate\": {{");
    let tao = &workloads
        .iter()
        .find(|(n, _)| *n == "tao")
        .expect("workload built above")
        .1;
    let sem_engines = [Engine::Superblock, Engine::Uop];
    let sem_reps = reps.min(3);
    for (si, &e) in sem_engines.iter().enumerate() {
        let base_ms = run_leg(tao, e, sem_reps, false).null_ms;
        let validated_ms = run_leg(tao, e, sem_reps, true).null_ms;
        let pct = 100.0 * (validated_ms - base_ms) / base_ms.max(f64::MIN_POSITIVE);
        println!(
            "  {:<12} --engine={e:<10} sem-validate {validated_ms:>9.3} ms \
             vs {base_ms:>9.3} ms baseline ({pct:+.1}%)",
            "tao"
        );
        let _ = writeln!(
            json,
            "    \"{e}\": {{ \"baseline_ms\": {base_ms:.3}, \"validated_ms\": {validated_ms:.3}, \
             \"overhead_pct\": {pct:.2} }}{}",
            if si + 1 < sem_engines.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out, &json).expect("writes the snapshot");
    println!("bench-snapshot: wrote {out}");
}
