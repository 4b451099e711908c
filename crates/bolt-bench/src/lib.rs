//! # bolt-bench — the experiment harness
//!
//! Shared machinery for regenerating every table and figure of the paper's
//! evaluation (section 6): building workload binaries under different
//! compiler configurations, collecting LBR/IP profiles under the emulator,
//! converting binary profiles to source profiles (the AutoFDO-style path
//! PGO consumes), applying BOLT, and measuring with the
//! microarchitectural model.
//!
//! Each bench target under `benches/` regenerates one table or figure; see
//! `EXPERIMENTS.md` at the workspace root for the index.

use bolt_compiler::{compile_and_link, CompileOptions, MirProgram, SourceProfile};
use bolt_elf::Elf;
use bolt_emu::{EmuError, Exit, Knobs, Machine, ShardPlan, TraceSink};
use bolt_ir::LineTable;
use bolt_opt::{optimize, BoltOptions, BoltOutput};
use bolt_profile::{merge_shards, run_shards, Attach, Profile, ProfileMode};
use bolt_sim::{Counters, SimConfig};

/// Default emulation budget per run (overridable at runtime: the
/// `BOLT_MAX_STEPS` environment knob, resolved by [`budget`]).
pub const MAX_STEPS: u64 = 2_000_000_000;

/// The effective step budget: `BOLT_MAX_STEPS` when set, else
/// [`MAX_STEPS`].
pub fn budget() -> u64 {
    Knobs::get().max_steps(0, MAX_STEPS)
}
/// Default LBR sampling period (instructions per sample).
pub const SAMPLE_PERIOD: u64 = 997;

/// The observable result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub exit_code: i64,
    pub output: Vec<i64>,
    pub steps: u64,
    pub counters: Counters,
}

/// A harness run that could not produce a measurement: a shard hit an
/// emulation fault or exhausted its step budget without exiting.
///
/// The harness used to panic here; every runner now gets a structured
/// error instead — `bolt-run` prints one line per failed shard and exits
/// 1, while bench binaries (where a non-exiting workload is a bug in the
/// experiment itself) go through the panicking wrappers whose message is
/// this error's `Display`.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// Shard `shard` (of `shards`; 0/1 for unsharded runs) stopped
    /// without reaching `Exit::Exited`.
    DidNotExit {
        shard: usize,
        shards: usize,
        exit: Exit,
        steps: u64,
        budget: u64,
        entry: u64,
    },
    /// The emulator itself faulted (undecodable bytes, trap, unknown
    /// syscall).
    Emu(EmuError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::DidNotExit {
                shard,
                shards,
                exit,
                steps,
                budget,
                entry,
            } => write!(
                f,
                "shard {shard}/{shards} did not exit: {exit:?} after {steps} steps \
                 (budget {budget}, entry {entry:#x}); raise the step budget \
                 (BOLT_MAX_STEPS env or --max-steps) or use more, smaller shards"
            ),
            HarnessError::Emu(e) => write!(f, "emulation failed: {e:?}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<EmuError> for HarnessError {
    fn from(e: EmuError) -> Self {
        HarnessError::Emu(e)
    }
}

/// Builds a binary; panics on compile errors (experiment code).
pub fn build(program: &MirProgram, opts: &CompileOptions) -> Elf {
    compile_and_link(program, opts)
        .expect("workload compiles")
        .elf
}

/// Runs a binary under the microarchitectural model (a one-shard
/// [`measure_batch`]).
pub fn measure(elf: &Elf, cfg: &SimConfig) -> RunResult {
    measure_batch(elf, cfg, &shard_plan(1, 1)).runs.remove(0)
}

/// Runs a binary with an arbitrary sink attached, reporting a
/// non-exiting workload as a [`HarnessError`].
pub fn try_run_with<S: TraceSink + ?Sized>(
    elf: &Elf,
    sink: &mut S,
) -> Result<(i64, Vec<i64>, u64), HarnessError> {
    let mut m = Machine::new();
    m.load_elf(elf);
    let budget = budget();
    let r = m.run(sink, budget)?;
    let Exit::Exited(code) = r.exit else {
        return Err(HarnessError::DidNotExit {
            shard: 0,
            shards: 1,
            exit: r.exit,
            steps: r.steps,
            budget,
            entry: elf.entry,
        });
    };
    Ok((code, m.output, r.steps))
}

/// Builds a [`ShardPlan`] for the measurement wrappers, resolving both
/// knobs through [`Knobs`]: `shards == 0` follows `BOLT_SHARDS` (default
/// 1), `threads == 0` follows `BOLT_THREADS` / available parallelism
/// exactly like the optimizer passes.
pub fn shard_plan(shards: usize, threads: usize) -> ShardPlan {
    let knobs = Knobs::get();
    ShardPlan::new(knobs.shards(shards))
        .with_threads(knobs.threads(threads))
        .with_max_steps(budget())
}

/// The observable result of one sharded batch measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Per-shard results in shard-index order (each with its own
    /// counters snapshot).
    pub runs: Vec<RunResult>,
    /// All shards' counters summed (shard-index order — the sum is
    /// order-insensitive anyway).
    pub counters: Counters,
}

/// The harness view of the shared runner ([`run_shards`] +
/// [`merge_shards`]): experiment code treats a faulting or non-exiting
/// shard as a bug in the experiment itself, so the first one (by shard
/// index) panics with its [`HarnessError`] under the caller's name.
fn run_harness(
    what: &str,
    elf: &Elf,
    plan: &ShardPlan,
    attach: &Attach,
    prepare: impl Fn(usize, &mut Machine) + Sync,
) -> (Profile, BatchResult) {
    let shards = run_shards(elf, plan, attach, 0, prepare)
        .unwrap_or_else(|e| panic!("{what}: {}", HarnessError::Emu(e)));
    let merged = merge_shards(&shards);
    let runs = shards
        .into_iter()
        .map(|s| {
            let Exit::Exited(exit_code) = s.exit else {
                let e = HarnessError::DidNotExit {
                    shard: s.shard as usize,
                    shards: plan.shards,
                    exit: s.exit,
                    steps: s.steps,
                    budget: plan.max_steps,
                    entry: elf.entry,
                };
                panic!("{what}: {e}");
            };
            RunResult {
                exit_code,
                output: s.output,
                steps: s.steps,
                counters: s.counters.unwrap_or_default(),
            }
        })
        .collect();
    let counters = merged.counters;
    (merged.profile, BatchResult { runs, counters })
}

/// Runs `plan.shards` independent invocations of `elf` under the
/// microarchitectural model, sharded across `plan.workers()` threads.
/// `prepare(shard, &mut machine)` runs after each shard's load (patch a
/// seed word, select an input partition, …). Per-shard results come back
/// in shard-index order with their counters summed; the batch is
/// byte-identical at any worker count.
pub fn measure_batch_with(
    elf: &Elf,
    cfg: &SimConfig,
    plan: &ShardPlan,
    prepare: impl Fn(usize, &mut Machine) + Sync,
) -> BatchResult {
    let attach = Attach {
        sampler: None,
        model: Some(cfg.clone()),
    };
    run_harness("measure_batch", elf, plan, &attach, prepare).1
}

/// [`measure_batch_with`] with no per-shard preparation (every shard
/// runs the binary as loaded).
pub fn measure_batch(elf: &Elf, cfg: &SimConfig, plan: &ShardPlan) -> BatchResult {
    measure_batch_with(elf, cfg, plan, |_, _| ())
}

/// Sharded [`profile_lbr`]: collects an LBR profile and microarch
/// counters from `plan.shards` independent invocations, merging the
/// per-shard profiles in shard-index order ([`Profile::merge`]) and
/// summing the counters. Every shard gets a fresh sampler and model, so
/// the merged profile is byte-identical at any worker count.
pub fn profile_lbr_batch_with(
    elf: &Elf,
    cfg: &SimConfig,
    plan: &ShardPlan,
    prepare: impl Fn(usize, &mut Machine) + Sync,
) -> (Profile, BatchResult) {
    let attach = Attach {
        sampler: Some((ProfileMode::Lbr, SAMPLE_PERIOD)),
        model: Some(cfg.clone()),
    };
    run_harness("profile_lbr_batch", elf, plan, &attach, prepare)
}

/// [`profile_lbr_batch_with`] with no per-shard preparation.
pub fn profile_lbr_batch(elf: &Elf, cfg: &SimConfig, plan: &ShardPlan) -> (Profile, BatchResult) {
    profile_lbr_batch_with(elf, cfg, plan, |_, _| ())
}

/// Returns a seed-partitioning prepare closure for the batch wrappers:
/// shard `i` gets `base + i` written into the workload's `config` global
/// (the word [`set_input_size`] patches statically), so the batch
/// partitions the workload's input space by seed instead of running N
/// identical invocations. Panics if the binary has no `config` symbol.
pub fn seed_partition(elf: &Elf, base: i64) -> impl Fn(usize, &mut Machine) + Sync {
    bolt_profile::seed_partition(elf, base).expect("seed-partitioned workload has a config global")
}

/// Builds a synthetic straight-line-heavy binary: a loop whose
/// ~50-instruction body is dominated by memory traffic (loads, stores,
/// balanced pushes/pops — a memcpy/spill-heavy shape), then exits 0.
/// This is exactly the shape the superblock engine targets: blocks that
/// ended at every memory-touching instruction would degenerate to one
/// or two instructions here, each transition paying a cache lookup; as
/// a superblock the whole body is a single chained block. Used by the
/// `engine_invariance` / `sim_golden` tests (the repo benchmark's
/// `straightline_measure` keeps its own copy).
pub fn straightline_elf(iters: i64) -> Elf {
    use bolt_isa::{encode_at, AluOp, Cond, Inst, JumpWidth, Mem, Reg, Target};
    let mut insts = vec![
        Inst::MovRI {
            dst: Reg::R10,
            imm: 0x500000,
        },
        Inst::MovRI {
            dst: Reg::Rcx,
            imm: iters.max(1),
        },
    ];
    let loop_head = insts.len();
    for k in 0..12i32 {
        insts.push(Inst::Load {
            dst: Reg::Rdx,
            mem: Mem::BaseDisp {
                base: Reg::R10,
                disp: (k % 4) * 8,
            },
        });
        insts.push(Inst::AluI {
            op: AluOp::Add,
            dst: Reg::Rdx,
            imm: k,
        });
        insts.push(Inst::Store {
            mem: Mem::BaseDisp {
                base: Reg::R10,
                disp: 32 + (k % 4) * 8,
            },
            src: Reg::Rdx,
        });
        insts.push(Inst::Push(Reg::Rdx));
        insts.push(Inst::Pop(Reg::Rax));
    }
    insts.push(Inst::AluI {
        op: AluOp::Sub,
        dst: Reg::Rcx,
        imm: 1,
    });
    let jcc_at = insts.len();
    insts.push(Inst::Jcc {
        cond: Cond::Ne,
        target: Target::Addr(0), // patched below
        width: JumpWidth::Near,
    });
    insts.push(Inst::MovRI {
        dst: Reg::Rax,
        imm: 60,
    });
    insts.push(Inst::MovRI {
        dst: Reg::Rdi,
        imm: 0,
    });
    insts.push(Inst::Syscall);

    let base = 0x400000u64;
    let mut addrs = Vec::with_capacity(insts.len());
    let mut at = base;
    for i in &insts {
        addrs.push(at);
        at += bolt_isa::encoded_len(i) as u64;
    }
    if let Inst::Jcc { target, .. } = &mut insts[jcc_at] {
        *target = Target::Addr(addrs[loop_head]);
    }
    let mut code = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        code.extend(encode_at(inst, addrs[i]).expect("encodes").bytes);
    }
    let mut elf = Elf::new(base);
    elf.sections
        .push(bolt_elf::Section::code(".text", base, code));
    elf.sections
        .push(bolt_elf::Section::data(".data", 0x500000, vec![0; 128]));
    elf
}

/// Collects an LBR profile (and microarch counters) in one run (a
/// one-shard [`profile_lbr_batch`]).
pub fn profile_lbr(elf: &Elf, cfg: &SimConfig) -> (Profile, RunResult) {
    let (profile, mut batch) = profile_lbr_batch(elf, cfg, &shard_plan(1, 1));
    (profile, batch.runs.remove(0))
}

/// Collects a plain IP-sample profile (non-LBR mode, paper section 5.1).
pub fn profile_ip(elf: &Elf, period: u64) -> Profile {
    let attach = Attach {
        sampler: Some((ProfileMode::IpSamples, period)),
        model: None,
    };
    run_harness("profile_ip", elf, &shard_plan(1, 1), &attach, |_, _| ()).0
}

/// Converts a binary profile to the aggregated source profile compiler
/// PGO consumes (the AutoFDO path, paper section 2.2): samples are mapped
/// through the line table and merged per line — losing per-inline-copy
/// precision exactly as in paper Figure 2.
pub fn to_source_profile(profile: &Profile, elf: &Elf) -> SourceProfile {
    let lines = elf
        .section(".bolt.lines")
        .and_then(|s| LineTable::from_bytes(&s.data).ok())
        .unwrap_or_default();
    let mut sp = SourceProfile::new();

    // IP histogram -> line counts.
    for (&ip, &count) in &profile.ip_samples {
        if let Some((_file, line)) = lines.lookup(ip) {
            sp.add_line(line, count);
        }
    }
    // LBR fall-through ranges cover every line within them.
    for ft in profile.sorted_fallthroughs() {
        let lo = lines.entries.partition_point(|e| e.0 < ft.from);
        let hi = lines.entries.partition_point(|e| e.0 <= ft.to);
        for e in &lines.entries[lo..hi] {
            sp.add_line(e.2, ft.count);
        }
    }
    // Branch records into function entries become call counts.
    let mut func_entries: Vec<(u64, &str)> = elf
        .symbols
        .iter()
        .filter(|s| s.kind == bolt_elf::SymKind::Func)
        .map(|s| (s.value, s.name.as_str()))
        .collect();
    func_entries.sort_unstable();
    for b in profile.sorted_branches() {
        if let Ok(i) = func_entries.binary_search_by_key(&b.to, |e| e.0) {
            if let Some((_f, line)) = lines.lookup(b.from) {
                sp.add_call(line, func_entries[i].1, b.count);
            }
        }
    }
    sp
}

/// Profiles `elf` and applies BOLT with the paper's default options.
pub fn bolt_with_profile(elf: &Elf, profile: &Profile) -> BoltOutput {
    optimize(elf, profile, &BoltOptions::paper_default()).expect("BOLT succeeds")
}

/// The driver's state right before the optimization pipeline runs,
/// under `BoltOptions::paper_default()` — a thin shim over
/// [`bolt_opt::prepare`], so benches and tests that drive `PassManager`
/// directly (e.g. to compare thread counts on the exact same input
/// context) cannot drift from the real driver.
pub fn prepare_ctx(elf: &Elf, profile: &Profile) -> bolt_ir::BinaryContext {
    bolt_opt::prepare(elf, profile, &BoltOptions::paper_default()).ctx
}

/// Asserts two runs are observationally identical (semantics check every
/// experiment performs before reporting numbers).
pub fn assert_same_behavior(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.exit_code, b.exit_code, "{what}: exit codes differ");
    assert_eq!(a.output, b.output, "{what}: outputs differ");
}

/// Percent speedup of `new` over `base` by modeled cycles.
pub fn speedup(base: &RunResult, new: &RunResult) -> f64 {
    base.counters.speedup_over(&new.counters)
}

/// Geometric mean of `1 + p/100` speedups, reported back as a percentage.
pub fn geomean_speedup(speedups: &[f64]) -> f64 {
    if speedups.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = speedups.iter().map(|s| (1.0 + s / 100.0).ln()).sum();
    ((log_sum / speedups.len() as f64).exp() - 1.0) * 100.0
}

/// Renders one experiment table row.
pub fn row(label: &str, cols: &[String]) -> String {
    format!("{label:<14} {}", cols.join("  "))
}

/// Standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Computes an HFSort function order for the *linker* from a profile —
/// the paper's baseline configuration for the data-center workloads
/// (section 6.1: "binaries built using GCC and function reordering via
/// HFSort").
pub fn hfsort_link_order(elf: &Elf, profile: &Profile) -> Vec<String> {
    let (mut ctx, raw) = bolt_opt::discover(elf);
    bolt_opt::disassemble_all(&mut ctx, &raw, elf);
    bolt_profile::attach_profile(&mut ctx, profile);
    let order =
        bolt_passes::reorder_functions::run_reorder_functions(&ctx, bolt_hfsort::Algorithm::Hfsort);
    order
        .into_iter()
        .map(|i| ctx.functions[i].name.clone())
        .collect()
}

/// Patches the `config` data word of a compiler-like workload binary to
/// select the input size (the paper's input1/2/3 for Figures 7–8).
pub fn set_input_size(elf: &mut Elf, iterations: i64) {
    let sym = elf
        .symbol("config")
        .expect("workload has a config global")
        .clone();
    let sec = elf
        .sections
        .iter_mut()
        .find(|s| s.addr_range().contains(&sym.value))
        .expect("config lives in a data section");
    let off = (sym.value - sec.addr) as usize;
    sec.data[off..off + 8].copy_from_slice(&iterations.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_emu::Tee;
    use bolt_profile::{LbrSampler, SampleTrigger};
    use bolt_sim::CpuModel;
    use bolt_workloads::{Scale, Workload};

    #[test]
    fn harness_end_to_end_on_smallest_workload() {
        let program = Workload::Tao.build(Scale::Test);
        let elf = build(&program, &CompileOptions::default());
        let cfg = SimConfig::small();
        let (profile, base) = profile_lbr(&elf, &cfg);
        assert!(profile.total_branch_count() > 0);
        let bolted = bolt_with_profile(&elf, &profile);
        let new = measure(&bolted.elf, &cfg);
        assert_same_behavior(&base, &new, "tao");
    }

    #[test]
    fn source_profile_conversion_produces_counts() {
        let program = Workload::Proxygen.build(Scale::Test);
        let elf = build(&program, &CompileOptions::default());
        let (profile, _) = profile_lbr(&elf, &SimConfig::small());
        let sp = to_source_profile(&profile, &elf);
        assert!(sp.total() > 0, "line counts populated");
        assert!(!sp.call_counts.is_empty(), "call counts populated");
    }

    #[test]
    fn one_shard_batch_equals_plain_profiling_run() {
        let program = Workload::Tao.build(Scale::Test);
        let elf = build(&program, &CompileOptions::default());
        let cfg = SimConfig::small();
        // The reference is a hand-composed serial run, not the runner.
        let mut sampler = LbrSampler::new(SAMPLE_PERIOD, SampleTrigger::Instructions);
        let mut model = CpuModel::new(cfg.clone());
        let (exit_code, output, steps) =
            try_run_with(&elf, &mut Tee(&mut sampler, &mut model)).expect("tao exits");
        let serial_run = RunResult {
            exit_code,
            output,
            steps,
            counters: model.counters(),
        };
        let (batch_profile, batch) = profile_lbr_batch(&elf, &cfg, &shard_plan(1, 1));
        assert_eq!(batch.runs.len(), 1);
        assert_eq!(batch_profile, sampler.profile);
        assert_eq!(batch.runs[0], serial_run);
        assert_eq!(batch.counters, serial_run.counters);
        assert_eq!(profile_lbr(&elf, &cfg), (batch_profile, serial_run.clone()));

        // Modelling alone sees the same trace, so the same counters.
        let measured = measure_batch(&elf, &cfg, &shard_plan(1, 1));
        assert_eq!(measured.runs[0], serial_run);
        assert_eq!(measure(&elf, &cfg), serial_run);
    }

    #[test]
    fn straightline_workload_runs_and_is_engine_invariant() {
        use bolt_emu::{CountingSink, Engine, Exit, Machine};
        let elf = straightline_elf(50);
        let run = |engine: Engine| {
            let mut m = Machine::new();
            m.load_elf(&elf);
            let mut sink = CountingSink::default();
            let r = m.run_engine(&mut sink, u64::MAX, engine).expect("runs");
            assert_eq!(r.exit, Exit::Exited(0), "{engine}");
            (r.steps, format!("{sink:?}"))
        };
        let step = run(Engine::Step);
        assert!(step.0 > 50 * 40, "the loop body actually spins");
        assert_eq!(step, run(Engine::Superblock), "superblock identical");
        assert_eq!(step, run(Engine::Uop), "uop engine identical");
    }

    /// A shard that exhausts its budget is data, not a fault: the
    /// shared runner reports it in the shard's artifact, and only the
    /// harness wrapper (where a non-exiting workload is an experiment
    /// bug) turns the first such shard into a panic naming the budget.
    #[test]
    fn exhausted_step_budget_is_a_structured_error_not_a_panic() {
        let elf = straightline_elf(1_000_000);
        let plan = ShardPlan::new(2).with_threads(1).with_max_steps(50);
        let attach = Attach {
            sampler: None,
            model: Some(SimConfig::small()),
        };
        let shards = run_shards(&elf, &plan, &attach, 0, |_, _| ()).expect("no emulator fault");
        assert_eq!(shards.len(), 2);
        assert_eq!((shards[0].shard, shards[0].exit), (0, Exit::MaxSteps));
        assert!(
            shards[0].steps >= 50,
            "ran up to the budget: {:?}",
            shards[0]
        );
        assert_eq!(merge_shards(&shards).exit, Exit::MaxSteps);

        let panic = std::panic::catch_unwind(|| measure_batch(&elf, &SimConfig::small(), &plan))
            .expect_err("the harness wrapper refuses a truncated measurement");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("shard 0/2 did not exit"), "{msg}");
        assert!(
            msg.contains("MaxSteps") && msg.contains("budget 50"),
            "{msg}"
        );
    }

    #[test]
    fn geomean_math() {
        assert!((geomean_speedup(&[10.0, 10.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean_speedup(&[]), 0.0);
        let g = geomean_speedup(&[0.0, 21.0]);
        assert!(g > 9.0 && g < 11.0, "sqrt(1.21)-1 = 10%: {g}");
    }
}
