//! Engine invariance: the translation engines (`--engine=superblock`
//! and `--engine=uop` / `BOLT_ENGINE`) must be *observationally
//! identical* to the per-instruction step engine —
//! byte-identical `Counters`, merged `Profile`, recorded program
//! output, and rewritten ELF — the same way
//! `tests/thread_invariance.rs` proves thread-count invariance and
//! `tests/shard_invariance.rs` proves shard-count invariance. The sweep
//! is three-way at 1 and 8 shards, and covers self-modifying text (block
//! chain links, translations, and lowered micro-ops must all drop),
//! step budgets landing mid-block, and the uop engine's lazy flags
//! surviving chained block transitions.

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::elf::{write_elf, Elf, Section};
use bolt::emu::{CountingSink, EmuError, Engine, Exit, Machine, NullSink};
use bolt::workloads::{Scale, Workload};
use bolt_bench::{bolt_with_profile, measure_batch_with, profile_lbr_batch_with, shard_plan};
use bolt_isa::{encode_at, AluOp, Cond, Inst, JumpWidth, Mem, Reg, Rm, Target};
use bolt_sim::{CpuModel, SimConfig};
use std::sync::OnceLock;

fn build(workload: Workload) -> Elf {
    compile_and_link(&workload.build(Scale::Test), &CompileOptions::default())
        .expect("workload compiles")
        .elf
}

/// Profiled TAO (the paper's smallest data-center workload).
fn tao_fixture() -> &'static Elf {
    static FIXTURE: OnceLock<Elf> = OnceLock::new();
    FIXTURE.get_or_init(|| build(Workload::Tao))
}

/// A compiler-like workload with the `config` seed global, so shards
/// partition the input space.
fn clang_fixture() -> &'static Elf {
    static FIXTURE: OnceLock<Elf> = OnceLock::new();
    FIXTURE.get_or_init(|| build(Workload::ClangLike))
}

/// Seed-partitions shards when the binary has a `config` global;
/// otherwise every shard runs the binary as loaded.
fn prepare_for(elf: &Elf) -> impl Fn(usize, &mut Machine) + Sync + '_ {
    let addr = elf.symbol("config").map(|s| s.value);
    move |shard, m: &mut Machine| {
        if let Some(addr) = addr {
            m.mem.write_u64(addr, 1 + shard as u64);
        }
    }
}

/// The acceptance property: profile + measure `elf` under all three
/// engines at `shards` shards and assert every observable is
/// byte-identical, then prove the rewritten ELFs match byte for byte.
fn assert_engine_invariant(elf: &Elf, shards: usize, what: &str) {
    let cfg = SimConfig::small();
    let mut legs = Vec::new();
    for engine in [Engine::Step, Engine::Superblock, Engine::Uop] {
        let plan = shard_plan(shards, 2).with_engine(engine);
        let (profile, batch) = profile_lbr_batch_with(elf, &cfg, &plan, prepare_for(elf));
        let measured = measure_batch_with(elf, &cfg, &plan, prepare_for(elf));
        legs.push((engine, profile, batch, measured));
    }
    let step = &legs[0];
    let from_step = bolt_with_profile(elf, &step.1);
    let step_bytes = write_elf(&from_step.elf).expect("serializes");
    for leg in &legs[1..] {
        let engine = leg.0;
        assert_eq!(
            step.1.to_fdata(),
            leg.1.to_fdata(),
            "{what}/{engine}: merged profile must be byte-identical across engines"
        );
        assert_eq!(
            step.1, leg.1,
            "{what}/{engine}: profile maps equal, not just text"
        );
        assert_eq!(
            step.2.counters, leg.2.counters,
            "{what}/{engine}: summed profiling counters identical"
        );
        assert_eq!(
            step.2.runs, leg.2.runs,
            "{what}/{engine}: per-shard results (exit, output, steps, counters)"
        );
        assert_eq!(
            step.3.runs, leg.3.runs,
            "{what}/{engine}: measurement-only counters identical too"
        );
        // The profiles drive BOLT to byte-identical rewritten binaries.
        let from_leg = bolt_with_profile(elf, &leg.1);
        assert_eq!(
            step_bytes,
            write_elf(&from_leg.elf).expect("serializes"),
            "{what}/{engine}: rewritten ELF byte-identical across engines"
        );
    }
}

#[test]
fn profiled_tao_identical_across_engines_at_1_and_8_shards() {
    for shards in [1usize, 8] {
        assert_engine_invariant(tao_fixture(), shards, "tao");
    }
}

#[test]
fn clang_workload_identical_across_engines_at_1_and_8_shards() {
    for shards in [1usize, 8] {
        assert_engine_invariant(clang_fixture(), shards, "clang-like");
    }
}

/// Assembles `insts` contiguously at `base`, returning the bytes and the
/// start address of each instruction.
fn asm(insts: &[Inst], base: u64) -> (Vec<u8>, Vec<u64>) {
    let mut bytes = Vec::new();
    let mut addrs = Vec::new();
    let mut at = base;
    for i in insts {
        addrs.push(at);
        let e = encode_at(i, at).expect("encodes");
        at += e.bytes.len() as u64;
        bytes.extend(e.bytes);
    }
    (bytes, addrs)
}

/// A binary that calls a function, patches that function's code through
/// an ordinary store, and calls it again — the self-modifying-text case
/// that forces block invalidation. Emits the function's return value
/// after each call: `[1, 2]` is only observable if the engine refetches
/// the patched bytes.
fn self_modifying_elf() -> Elf {
    let base = 0x400000u64;
    // The callee is exactly 8 bytes — `mov rax, imm32` (7) + `ret` (1) —
    // so a single 8-byte store rewrites it atomically.
    let (callee_v2, _) = asm(
        &[
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 2,
            },
            Inst::Ret,
        ],
        0, // position-independent encoding (no rip-relative operands)
    );
    assert_eq!(callee_v2.len(), 8, "patch must be one 8-byte store");

    // Lay main out first with a placeholder callee address, then fix up:
    // the callee sits right after main, and its address only feeds MovRI
    // immediates (length-stable), so a second pass converges.
    let build = |callee_addr: u64| -> Vec<Inst> {
        vec![
            // rax = f()  (returns 1 before the patch)
            Inst::Call {
                target: Target::Addr(callee_addr),
            },
            // emit rax
            Inst::MovRR {
                dst: Reg::Rdi,
                src: Reg::Rax,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Syscall,
            // patch f with the 8 bytes staged at 0x500000
            Inst::MovRI {
                dst: Reg::R10,
                imm: 0x500000,
            },
            Inst::Load {
                dst: Reg::R11,
                mem: Mem::BaseDisp {
                    base: Reg::R10,
                    disp: 0,
                },
            },
            Inst::MovRI {
                dst: Reg::R10,
                imm: callee_addr as i64,
            },
            Inst::Store {
                mem: Mem::BaseDisp {
                    base: Reg::R10,
                    disp: 0,
                },
                src: Reg::R11,
            },
            // rax = f()  (must observe the patched code: returns 2)
            Inst::Call {
                target: Target::Addr(callee_addr),
            },
            Inst::MovRR {
                dst: Reg::Rdi,
                src: Reg::Rax,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Syscall,
            // exit 0
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::MovRI {
                dst: Reg::Rdi,
                imm: 0,
            },
            Inst::Syscall,
            // f: mov rax, 1 ; ret
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Ret,
        ]
    };
    let (probe, addrs) = asm(&build(base), base);
    let callee_addr = addrs[addrs.len() - 2];
    let (code, addrs2) = asm(&build(callee_addr), base);
    assert_eq!(
        addrs2[addrs2.len() - 2],
        callee_addr,
        "layout converged after one fixup pass"
    );
    assert_eq!(probe.len(), code.len());

    let mut elf = Elf::new(base);
    elf.sections.push(Section::code(".text", base, code));
    elf.sections
        .push(Section::data(".data", 0x500000, callee_v2));
    elf
}

/// Self-modifying text under every engine: the translation engines must
/// drop their translations — and the chain links that die with them —
/// when a store patches cached code, or the second call would
/// observably execute stale bytes.
#[test]
fn self_modifying_text_forces_block_invalidation() {
    let elf = self_modifying_elf();
    let mut outputs = Vec::new();
    for engine in [Engine::Step, Engine::Superblock, Engine::Uop] {
        let mut m = Machine::new();
        m.load_elf(&elf);
        let mut sink = CountingSink::default();
        let r = m.run_engine(&mut sink, 10_000, engine).expect("runs");
        assert_eq!(r.exit, Exit::Exited(0), "{engine}");
        assert_eq!(
            m.output,
            vec![1, 2],
            "{engine}: second call must observe the patched code"
        );
        outputs.push((r, m.output.clone(), m.regs, sink.insts, sink.branches));
    }
    assert_eq!(outputs[0], outputs[1], "superblock engine agrees on SMC");
    assert_eq!(outputs[0], outputs[2], "uop engine agrees on SMC");
}

/// A wild pointer whose access wraps the 64-bit address space is guest
/// behaviour, not a host bug: the 8-byte store and load at `-4` cover
/// the last four bytes of memory and the first four, in the dev profile
/// as in release, and the model charges both lines — identically under
/// every engine.
#[test]
fn access_wrapping_the_address_space_is_identical_across_engines() {
    let base = 0x400000u64;
    let wild = Mem::BaseDisp {
        base: Reg::Rax,
        disp: 0,
    };
    let (code, _) = asm(
        &[
            Inst::MovRI {
                dst: Reg::Rax,
                imm: -4,
            },
            Inst::Store {
                mem: wild,
                src: Reg::Rax,
            },
            Inst::Load {
                dst: Reg::Rbx,
                mem: wild,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::MovRI {
                dst: Reg::Rdi,
                imm: 0,
            },
            Inst::Syscall,
        ],
        base,
    );
    let mut elf = Elf::new(base);
    elf.sections.push(Section::code(".text", base, code));
    let observe = |engine: Engine| {
        let mut m = Machine::new();
        m.load_elf(&elf);
        let mut model = CpuModel::new(SimConfig::small());
        let r = m.run_engine(&mut model, 100, engine).expect("runs");
        assert_eq!(
            m.reg(Reg::Rbx) as i64,
            -4,
            "{engine}: read back across the wrap"
        );
        assert_eq!(
            m.mem.read_u8(0),
            0xFF,
            "{engine}: high half landed at address 0"
        );
        (r, m.regs, model.counters())
    };
    let step = observe(Engine::Step);
    assert_eq!(step.0.exit, Exit::Exited(0));
    assert_eq!(step.2.l1d_accesses, 4, "each access touches both lines");
    for engine in [Engine::Superblock, Engine::Uop] {
        assert_eq!(step, observe(engine), "{engine}");
    }
}

/// A guest that stores NOPs at the top of the address space and jumps
/// there: code the program wrote itself, in no executable section. Every
/// engine refuses it with the same `NotExecutable`, in the dev profile
/// and in release alike (no address arithmetic past 2^64 on the way).
#[test]
fn jump_to_code_stored_near_the_top_of_the_address_space_is_not_executable() {
    let base = 0x400000u64;
    let top = 0xFFFF_FFFF_FFFF_FFF8u64;
    let (code, _) = asm(
        &[
            Inst::MovRI {
                dst: Reg::Rax,
                imm: top as i64,
            },
            Inst::MovRI {
                dst: Reg::Rbx,
                imm: 0x9090_9090_9090_9090u64 as i64,
            },
            Inst::Store {
                mem: Mem::BaseDisp {
                    base: Reg::Rax,
                    disp: 0,
                },
                src: Reg::Rbx,
            },
            Inst::JmpInd {
                rm: Rm::Reg(Reg::Rax),
            },
        ],
        base,
    );
    let mut elf = Elf::new(base);
    elf.sections.push(Section::code(".text", base, code));
    for engine in [Engine::Step, Engine::Superblock, Engine::Uop] {
        let mut m = Machine::new();
        m.load_elf(&elf);
        assert_eq!(
            m.run_engine(&mut NullSink, 100, engine),
            Err(EmuError::NotExecutable { rip: top }),
            "{engine}"
        );
        assert_eq!(m.mem.read_u64(top), 0x9090_9090_9090_9090, "{engine}");
    }
}

/// The step-accounting satellite at harness level: a budget landing
/// mid-block must stop at exactly the same retired count, rip, and
/// partial output under every engine.
#[test]
fn max_steps_budget_lands_identically_inside_blocks() {
    let elf = tao_fixture();
    // Find the full run length once, then probe budgets around block
    // boundaries (primes stride the whole range).
    let mut m = Machine::new();
    m.load_elf(elf);
    let full = m
        .run_engine(&mut NullSink, u64::MAX, Engine::Step)
        .expect("runs")
        .steps;
    for budget in (13..full).step_by((full / 7).max(1) as usize) {
        let observe = |engine: Engine| {
            let mut m = Machine::new();
            m.load_elf(elf);
            let mut sink = CountingSink::default();
            let r = m.run_engine(&mut sink, budget, engine).expect("runs");
            (r, m.rip, m.output.clone(), m.regs, sink.insts)
        };
        let step = observe(Engine::Step);
        for engine in [Engine::Superblock, Engine::Uop] {
            let leg = observe(engine);
            assert_eq!(step, leg, "{engine} budget {budget}");
        }
        assert_eq!(step.0.exit, Exit::MaxSteps, "budget {budget} is partial");
        assert_eq!(step.0.steps, budget, "stopped exactly at the budget");
    }
}

/// The uop engine's lazy-flags adversarial case: flags are written at
/// the end of one block (`sub` just before an unconditional jump) and
/// consumed only *after* the chained block transition — first by a
/// `setcc`, then by a `jcc` in the same successor block. The pending
/// lazy state must survive the chain link and materialize to exactly
/// the step engine's flags; the final architectural `Machine::flags`
/// must also match on exit (the run ends with flags still pending from
/// the uop hot loop's perspective).
#[test]
fn lazy_flags_survive_chained_block_transitions() {
    let base = 0x400000u64;
    // Loop structure (blocks annotated):
    //   A: rcx -= 1 ; jmp B          <- flags written, block ends
    //   B: rax = 0 ; setne rax ;     <- first consumer, across the chain
    //      jne C ; jmp D             <- second consumer, same flags
    //   C: rbx += rax ; jmp A
    //   D: emit rbx ; exit 0
    // rcx starts at 3: two `ne` iterations accumulate rbx = 2, the
    // third hits zero and falls through to D.
    let build = |a: u64, b_: u64, c: u64, d: u64| -> Vec<Inst> {
        vec![
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 3,
            },
            Inst::MovRI {
                dst: Reg::Rbx,
                imm: 0,
            },
            // A (index 2)
            Inst::AluI {
                op: AluOp::Sub,
                dst: Reg::Rcx,
                imm: 1,
            },
            Inst::Jmp {
                target: Target::Addr(b_),
                width: JumpWidth::Near,
            },
            // B (index 4)
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 0,
            },
            Inst::Setcc {
                cond: Cond::Ne,
                dst: Reg::Rax,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Addr(c),
                width: JumpWidth::Near,
            },
            Inst::Jmp {
                target: Target::Addr(d),
                width: JumpWidth::Near,
            },
            // C (index 8)
            Inst::Alu {
                op: AluOp::Add,
                dst: Reg::Rbx,
                src: Reg::Rax,
            },
            Inst::Jmp {
                target: Target::Addr(a),
                width: JumpWidth::Near,
            },
            // D (index 10)
            Inst::MovRR {
                dst: Reg::Rdi,
                src: Reg::Rbx,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Syscall,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::MovRI {
                dst: Reg::Rdi,
                imm: 0,
            },
            Inst::Syscall,
        ]
    };
    // Near jumps are length-stable, so one fixup pass converges.
    let (_, addrs) = asm(&build(base, base, base, base), base);
    let (code, addrs2) = asm(&build(addrs[2], addrs[4], addrs[8], addrs[10]), base);
    assert_eq!(addrs, addrs2, "layout converged");
    let mut elf = Elf::new(base);
    elf.sections.push(Section::code(".text", base, code));

    let mut legs = Vec::new();
    for engine in [Engine::Step, Engine::Superblock, Engine::Uop] {
        let mut m = Machine::new();
        m.load_elf(&elf);
        let mut sink = CountingSink::default();
        let r = m.run_engine(&mut sink, 10_000, engine).expect("runs");
        assert_eq!(r.exit, Exit::Exited(0), "{engine}");
        assert_eq!(
            m.output,
            vec![2],
            "{engine}: setcc across the chained transition counted the ne iterations"
        );
        legs.push((
            r,
            m.output.clone(),
            m.regs,
            m.flags,
            sink.insts,
            sink.branches,
        ));
    }
    for leg in &legs[1..] {
        assert_eq!(
            &legs[0], leg,
            "every engine agrees, including final architectural flags"
        );
    }
}

/// The mid-*superblock* boundary sweep: the straight-line-heavy
/// workload's loop body is a single ~60-instruction superblock, so
/// budgets striding one body-length probe every intra-superblock offset
/// — each must retire exactly `budget` instructions, at the same rip,
/// with the same partial observables, under all three engines.
#[test]
fn max_steps_budget_lands_identically_inside_superblocks() {
    let elf = bolt_bench::straightline_elf(40);
    let mut m = Machine::new();
    m.load_elf(&elf);
    let full = m
        .run_engine(&mut NullSink, u64::MAX, Engine::Step)
        .expect("runs")
        .steps;
    // One loop iteration's instruction count: stride budgets by a prime
    // near it so the cut point walks through the superblock body.
    for budget in (5..full).step_by(59) {
        let observe = |engine: Engine| {
            let mut m = Machine::new();
            m.load_elf(&elf);
            let mut sink = CountingSink::default();
            let r = m.run_engine(&mut sink, budget, engine).expect("runs");
            (
                r,
                m.rip,
                m.regs,
                sink.insts,
                sink.mem_reads,
                sink.mem_writes,
            )
        };
        let step = observe(Engine::Step);
        assert_eq!(step.0.steps, budget, "budget {budget}: exact retired count");
        for engine in [Engine::Superblock, Engine::Uop] {
            assert_eq!(step, observe(engine), "{engine} budget {budget}");
        }
    }
}

/// The `--validate-semantics` leg: with symbolic translation validation
/// enabled, every block the translation engines pack — across all four
/// workloads — must be *proven* semantically equivalent to the step
/// semantics of a fresh decode at translate time. A disagreement no
/// longer aborts the run: the block degrades to a lower execution tier
/// (decoded entries, then per-instruction stepping) and the run keeps
/// its observables. The acceptance property is therefore twofold: the
/// runs complete with output matching the step engine, *and* the tier
/// counters show zero degraded blocks — every translation proved clean
/// at full tier. Validation is a setting of the machines this test
/// builds, so nothing else in the binary is affected.
#[test]
fn all_workloads_translate_clean_under_semantic_validation() {
    let interp = build(Workload::Interp);
    let straightline = bolt_bench::straightline_elf(40);
    let workloads: [(&str, &Elf); 4] = [
        ("tao", tao_fixture()),
        ("clang-like", clang_fixture()),
        ("interp", &interp),
        ("straightline", &straightline),
    ];
    for (what, elf) in workloads {
        let reference = {
            let mut m = Machine::new();
            m.load_elf(elf);
            let r = m
                .run_engine(&mut NullSink, u64::MAX, Engine::Step)
                .expect("runs");
            (r.exit, m.output)
        };
        for engine in [Engine::Superblock, Engine::Uop] {
            let mut m = Machine::new();
            m.set_sem_validation(true);
            m.load_elf(elf);
            let r = m
                .run_engine(&mut NullSink, u64::MAX, engine)
                .expect("runs (every translated block proved equivalent)");
            let tiers = m.tier_counts();
            assert_eq!((r.exit, m.output), reference, "{what}/{engine}");
            assert_eq!(
                tiers.degraded(),
                0,
                "{what}/{engine}: clean translations never degrade ({tiers:?})"
            );
            assert!(tiers.full > 0, "{what}/{engine}: blocks were translated");
        }
    }
}

/// The full default pipeline on profiled TAO runs under `-verify-each`
/// with zero findings, and `-time-passes` attributes the verifier's
/// wall clock as its own `verify` rows — one per executed pass — rather
/// than folding it into the passes being verified.
#[test]
fn default_pipeline_under_verify_each_is_clean_on_tao() {
    let elf = tao_fixture();
    let plan = shard_plan(1, 2);
    let (profile, _) = profile_lbr_batch_with(elf, &SimConfig::small(), &plan, prepare_for(elf));

    let mut opts = bolt::opt::BoltOptions::paper_default();
    opts.verify_each = true;
    opts.time_passes = true;
    let out = bolt::opt::optimize(elf, &profile, &opts).expect("BOLT succeeds");

    let findings = out.all_findings();
    assert!(
        findings.is_empty(),
        "default pipeline must verify clean, got:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let rewrite = out.verify.as_ref().expect("re-disassembly ran");
    assert!(rewrite.functions_checked > 0);

    // One lint sweep per executed pass, each timed as its own row.
    let verify_rows = out
        .pipeline
        .reports
        .iter()
        .filter(|r| r.name == "verify")
        .count();
    let executed = out
        .pipeline
        .reports
        .iter()
        .filter(|r| r.name != "verify")
        .count();
    assert_eq!(
        verify_rows, executed,
        "-verify-each must lint after every executed pass"
    );
    let report = bolt::opt::timing_report(&out.pipeline);
    assert!(
        report.contains("verify"),
        "-time-passes must show the verifier rows:\n{report}"
    );

    // The stages before the pipeline, and the dyno-stats sweeps, have
    // rows of their own: each one measured.
    assert!(out.prepare_timing.disasm > std::time::Duration::ZERO);
    let dyno = out.dyno_time.expect("paper_default collects dyno stats");
    let passes = out.pipeline.total_duration();
    let report = bolt::opt::prepare_timing_report(&out.prepare_timing, Some(dyno), passes);
    let rows: Vec<&str> = report
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        rows,
        ["discover", "disasm", "attach", "total", "dyno-stats"],
        "-time-passes must show the prepare and dyno-stats rows:\n{report}"
    );
}

/// The retired spellings fail loudly instead of falling through to
/// some other engine or being silently ignored: `block` is no longer an
/// engine and the structural micro-op validator's flag no longer
/// exists. Both are usage errors (exit 2) caught before the input is
/// even read — as are `bolt`'s retired `-engine=` / `-shards=` flags, its
/// retired zero-change-skipping flag, and any value-taking flag left
/// without its value (never a silently dropped option: `bolt-run app.elf
/// --fdata` must not run unprofiled). A `bolt -flag=value` outside the
/// flag's domain gets one line naming the flag and what it accepts, not
/// the usage dump.
#[test]
fn retired_engine_and_validator_spellings_are_usage_errors() {
    let err = "block".parse::<Engine>().expect_err("block is retired");
    assert!(err.contains(Engine::VALID), "{err}");
    assert_eq!(Engine::VALID, "step|superblock|uop");

    let spawn = |exe: &str, args: &[&str]| {
        let out = std::process::Command::new(exe)
            .arg("unread.elf")
            .args(args)
            .output()
            .expect("the tool spawns");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let bolt_run = |args: &[&str]| spawn(env!("CARGO_BIN_EXE_bolt-run"), args);
    let bolt = |args: &[&str]| spawn(env!("CARGO_BIN_EXE_bolt"), args);
    let (code, stderr) = bolt_run(&["--engine", "block"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");
    assert!(stderr.contains(Engine::VALID), "{stderr}");

    // Assembled so the retired spelling stays grep-clean in the tree.
    let retired_flag = ["--validate", "uops"].join("-");
    let (code, stderr) = bolt_run(&[&retired_flag]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: bolt-run"), "{stderr}");

    for flag in [
        "--fdata",
        "--state-dir",
        "--artifact-out",
        "--worker-profile",
        "--period",
    ] {
        let (code, stderr) = bolt_run(&["--counters", flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: one line: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("requires a value"),
            "{stderr}"
        );
    }

    // Assembled so the retired spelling stays grep-clean in the tree.
    let retired_skip = ["-skip", "unchanged"].join("-");
    for retired in ["-engine=uop", "-shards=8", &retired_skip] {
        let (code, stderr) = bolt(&["-o", "unwritten.elf", retired]);
        assert_eq!(code, Some(2), "{retired}: {stderr}");
        assert!(stderr.starts_with("usage: bolt "), "{retired}: {stderr}");
        assert!(
            !stderr.contains("-engine")
                && !stderr.contains("-shards")
                && !stderr.contains(&retired_skip),
            "usage no longer offers the retired flags: {stderr}"
        );
    }
    for (arg, valid) in [
        (
            "-preset=fastest",
            "default|layout-only|functions-only|bbs-only|none",
        ),
        ("-reorder-blocks=best", "none|reverse|branch|cache|cache+"),
        (
            "-reorder-functions=best",
            "none|hfsort|hfsort+|pettis-hansen",
        ),
        ("-threads=many", "a non-negative integer"),
        ("-poison-pass=-1", "a non-negative integer"),
    ] {
        let (code, stderr) = bolt(&["-o", "unwritten.elf", arg]);
        assert_eq!(code, Some(2), "{arg}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{arg}: one line: {stderr}");
        assert!(stderr.contains(arg) && stderr.contains(valid), "{stderr}");
    }
    for args in [&["-o", "unwritten.elf", "-b"][..], &["-o"][..]] {
        let (code, stderr) = bolt(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: one line: {stderr}");
        assert!(stderr.contains("requires a value"), "{stderr}");
    }
}

/// `--max-steps 0` means "auto" like `--shards 0`, `--threads 0` and
/// `BOLT_MAX_STEPS=0` — not a zero-step budget that reports `did not
/// exit: MaxSteps after 0 steps (budget 0 …)`.
#[test]
fn max_steps_zero_is_auto_not_a_zero_budget() {
    let dir = std::env::temp_dir().join(format!("bolt-max-steps-0-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tao.elf");
    std::fs::write(&path, write_elf(tao_fixture()).expect("serializes")).unwrap();
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bolt-run"))
            .arg(&path)
            .args(args)
            .env_remove("BOLT_MAX_STEPS")
            .output()
            .expect("bolt-run spawns");
        (
            out.status.code(),
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let plain = run(&[]);
    let zero = run(&["--max-steps", "0"]);
    assert!(!zero.2.contains("did not exit"), "{}", zero.2);
    assert!(zero.2.contains("exit Exited("), "{}", zero.2);
    assert_eq!(zero, plain, "an explicit 0 is the absent flag");
    let capped = run(&["--max-steps", "1000"]);
    assert!(capped.2.contains("budget 1000"), "{}", capped.2);
    let _ = std::fs::remove_dir_all(&dir);
}
