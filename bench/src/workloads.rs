//! The five workloads: how each builds its input from the seed, what one
//! op does, and how its outputs are checked.
//!
//! Every emulated run starts from a fresh `Machine` (cold translation
//! cache, as a `bolt-run` invocation pays), runs under `Engine::Uop` with
//! `SimConfig::server()`, and profiles with LBR period 997.

use crate::trace::span;
use bolt_compiler::{compile_and_link, CompileOptions, Interp, MirProgram};
use bolt_elf::{read_elf, write_elf, Elf, Section, SymKind};
use bolt_emu::{Engine, Exit, Machine, Tee, TierCounts, TraceSink};
use bolt_isa::{encode_at, encoded_len, AluOp, Cond, Inst, JumpWidth, Mem, Reg, Target};
use bolt_opt::{optimize, BoltOptions, BoltOutput};
use bolt_profile::{LbrSampler, Profile, SampleTrigger};
use bolt_sim::{Counters, CpuModel, SimConfig};
use bolt_verify::{verify_rewrite, verify_semantics};
use bolt_workloads::{clang_shape, compiler_like, hhvm, interp, Scale};
use std::time::Instant;

pub const ENGINE: Engine = Engine::Uop;
pub const LBR_PERIOD: u64 = 997;
/// Worker threads `optimize` gets — the one place the benchmark is not
/// single-threaded (besides the `emu.batch_efficiency` leg).
pub const OPT_THREADS: usize = 2;
/// No input retires more than 80 M instructions; a run that reaches this
/// is reported as a failure instead of hanging the benchmark.
const MAX_STEPS: u64 = 2_000_000_000;
/// Input size of the clang-like binary, patched into its `config` global
/// (the generator's own knob for the paper's input1/2/3). The Bench-scale
/// default of 250 000 makes one profiling run 3.4 s, too few samples in a
/// run; 100 000 keeps the Bench-scale binary and retires 70 M instructions.
const CLANG_ITERATIONS: i64 = 100_000;
const STRAIGHTLINE_BODY: u64 = 62;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HhvmRewrite,
    HhvmLoop,
    ClangProfile,
    InterpMeasure,
    StraightlineMeasure,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::HhvmRewrite,
        Workload::HhvmLoop,
        Workload::ClangProfile,
        Workload::InterpMeasure,
        Workload::StraightlineMeasure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HhvmRewrite => "hhvm_rewrite",
            Workload::HhvmLoop => "hhvm_loop",
            Workload::ClangProfile => "clang_profile",
            Workload::InterpMeasure => "interp_measure",
            Workload::StraightlineMeasure => "straightline_measure",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed 1 reproduces the repo's canonical inputs; any other seed derives
/// a generator seed of its own.
fn generator_seed(seed: u64, canonical: u64) -> u64 {
    if seed == 1 {
        canonical
    } else {
        splitmix64(seed ^ canonical.rotate_left(32))
    }
}

pub fn bolt_options() -> BoltOptions {
    BoltOptions {
        threads: OPT_THREADS,
        ..BoltOptions::paper_default()
    }
}

pub fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parts.iter().flat_map(|p| p.iter()) {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn words(values: &[i64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// What an emulated run must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub exit: i64,
    pub output: Vec<i64>,
    /// `straightline_measure` only: the hand-written instruction count
    /// and the step tier's simulated statistics.
    pub retired: Option<u64>,
    pub counters: Option<Counters>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sizes {
    pub functions: u64,
    pub text_bytes: u64,
    /// Size of `in.elf` (`hhvm_rewrite` only; 0 elsewhere).
    pub elf_bytes: u64,
}

enum Input {
    /// `in.elf` and `in.fdata`, in memory, plus the counters of the run
    /// that produced the profile.
    Rewrite {
        elf_bytes: Vec<u8>,
        fdata: String,
        base: Counters,
    },
    Loop {
        program: MirProgram,
    },
    /// One profiling run per op.
    Profile {
        elf: Elf,
    },
    /// One measurement run per op.
    Measure {
        elf: Elf,
    },
}

pub struct Prepared {
    pub sizes: Sizes,
    pub reference: Reference,
    input: Input,
}

/// One finished emulated run.
pub struct Run {
    /// Host time inside `run_engine`, without the load.
    pub ms: f64,
    pub exit: Exit,
    pub steps: u64,
    pub output: Vec<i64>,
    pub tiers: TierCounts,
}

pub fn emulate<S: TraceSink + ?Sized>(
    elf: &Elf,
    sink: &mut S,
    engine: Engine,
) -> Result<Run, String> {
    let mut machine = span("emu.load", || {
        let mut m = Machine::new();
        m.load_elf(elf);
        m
    });
    let started = Instant::now();
    let result = span("emu.run", || machine.run_engine(sink, MAX_STEPS, engine))
        .map_err(|e| format!("emulation failed: {e}"))?;
    Ok(Run {
        ms: started.elapsed().as_secs_f64() * 1e3,
        exit: result.exit,
        steps: result.steps,
        output: std::mem::take(&mut machine.output),
        tiers: machine.tier_counts(),
    })
}

pub fn profile_run(elf: &Elf, engine: Engine) -> Result<(Profile, Counters, Run), String> {
    let mut sampler = LbrSampler::new(LBR_PERIOD, SampleTrigger::Instructions);
    let mut model = CpuModel::new(SimConfig::server());
    let run = emulate(elf, &mut Tee(&mut sampler, &mut model), engine)?;
    Ok((sampler.profile, model.counters(), run))
}

pub fn measure_run(elf: &Elf, engine: Engine) -> Result<(Counters, Run), String> {
    let mut model = CpuModel::new(SimConfig::server());
    let run = emulate(elf, &mut model, engine)?;
    Ok((model.counters(), run))
}

impl Reference {
    pub fn check(&self, what: &str, run: &Run) -> Result<(), String> {
        if run.exit != Exit::Exited(self.exit) {
            return Err(format!(
                "{what}: exit {:?}, reference says Exited({})",
                run.exit, self.exit
            ));
        }
        if run.output != self.output {
            return Err(format!("{what}: output differs from the reference"));
        }
        if self.retired.is_some_and(|r| r != run.steps) {
            return Err(format!(
                "{what}: retired {} instructions, expected {:?}",
                run.steps, self.retired
            ));
        }
        if run.tiers.degraded() != 0 {
            return Err(format!("{what}: {:?} degraded translations", run.tiers));
        }
        Ok(())
    }
}

fn generate(workload: Workload, seed: u64, smoke: bool) -> MirProgram {
    let scale = if smoke { Scale::Test } else { Scale::Bench };
    match workload {
        Workload::HhvmRewrite | Workload::HhvmLoop => {
            hhvm::build(scale, generator_seed(seed, 0x44BB))
        }
        Workload::ClangProfile => {
            let mut shape = clang_shape(scale);
            shape.seed = generator_seed(seed, shape.seed);
            let mut program = compiler_like::build(scale, shape);
            if !smoke {
                let config = program
                    .globals
                    .iter_mut()
                    .find(|g| g.name == "config")
                    .expect("the compiler-like workload keeps its input size in `config`");
                config.words[0] = CLANG_ITERATIONS;
            }
            program
        }
        Workload::InterpMeasure => interp::build(scale, generator_seed(seed, 0x1D15)),
        Workload::StraightlineMeasure => unreachable!("straightline is not a MIR program"),
    }
}

fn straightline_iters(smoke: bool) -> u64 {
    if smoke {
        20_000
    } else {
        650_000
    }
}

/// The benchmark's own copy of the memory-heavy loop `bolt-bench` calls
/// `straightline_elf`: 12 × (load, add, store, push, pop), a counter
/// decrement and a backward branch — 62 instructions per iteration, one
/// hot block. The seed moves only the add immediates (seed 1 keeps the
/// original `k`), so every seed retires `62·iters + 5` instructions.
fn straightline_elf(seed: u64, iters: u64) -> Elf {
    let bias = (generator_seed(seed, 0) % 1024) as i32;
    let mut insts = vec![
        Inst::MovRI {
            dst: Reg::R10,
            imm: 0x500000,
        },
        Inst::MovRI {
            dst: Reg::Rcx,
            imm: iters as i64,
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
            imm: bias + k,
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
        target: Target::Addr(0), // patched once addresses are known
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
    for inst in &insts {
        addrs.push(at);
        at += encoded_len(inst) as u64;
    }
    if let Inst::Jcc { target, .. } = &mut insts[jcc_at] {
        *target = Target::Addr(addrs[loop_head]);
    }
    let mut code = Vec::new();
    for (inst, addr) in insts.iter().zip(&addrs) {
        code.extend(encode_at(inst, *addr).expect("the loop encodes").bytes);
    }
    let mut elf = Elf::new(base);
    elf.sections.push(Section::code(".text", base, code));
    elf.sections
        .push(Section::data(".data", 0x500000, vec![0; 128]));
    elf
}

/// The reference every run of `workload` at this seed is checked against.
/// For MIR programs it is `bolt_compiler::Interp`, which executes the MIR
/// directly and shares no code with codegen, the linker, the emulator or
/// the optimizer. `straightline_measure` is no MIR program: its reference
/// is the hand-written expectation (exit 0, `62·iters + 5` retired) plus
/// the step tier's simulated statistics.
pub fn reference(workload: Workload, seed: u64, smoke: bool) -> Result<Reference, String> {
    if workload == Workload::StraightlineMeasure {
        let iters = straightline_iters(smoke);
        let mut reference = Reference {
            exit: 0,
            output: Vec::new(),
            retired: Some(STRAIGHTLINE_BODY * iters + 5),
            counters: None,
        };
        let (counters, run) = measure_run(&straightline_elf(seed, iters), Engine::Step)?;
        reference.check("step-tier reference run", &run)?;
        reference.counters = Some(counters);
        return Ok(reference);
    }
    let program = generate(workload, seed, smoke);
    let mut oracle = Interp::new(&program, u64::MAX);
    let exit = oracle
        .run(&[])
        .map_err(|e| format!("MIR interpreter: {e}"))?;
    Ok(Reference {
        exit,
        output: oracle.output,
        retired: None,
        counters: None,
    })
}

fn sizes_of(elf: &Elf) -> Sizes {
    Sizes {
        functions: elf
            .symbols
            .iter()
            .filter(|s| s.kind == SymKind::Func)
            .count() as u64,
        text_bytes: elf
            .sections
            .iter()
            .filter(|s| s.is_exec())
            .map(|s| s.data.len() as u64)
            .sum(),
        elf_bytes: 0,
    }
}

/// Builds `workload`'s input from the seed. Together with [`reference`]
/// this is the set-up `setup_s` times.
pub fn prepare(
    workload: Workload,
    seed: u64,
    smoke: bool,
    reference: &Reference,
) -> Result<Prepared, String> {
    if workload == Workload::StraightlineMeasure {
        let elf = straightline_elf(seed, straightline_iters(smoke));
        return Ok(Prepared {
            sizes: sizes_of(&elf),
            reference: reference.clone(),
            input: Input::Measure { elf },
        });
    }
    let program = generate(workload, seed, smoke);
    let elf = span("compiler.compile_link", || {
        compile_and_link(&program, &CompileOptions::default())
    })
    .map_err(|e| format!("compile: {e:?}"))?
    .elf;
    let mut sizes = sizes_of(&elf);
    let input = match workload {
        Workload::HhvmRewrite => {
            let elf_bytes = write_elf(&elf).map_err(|e| format!("{e:?}"))?;
            sizes.elf_bytes = elf_bytes.len() as u64;
            let (profile, base, run) = profile_run(&elf, ENGINE)?;
            reference.check("profiling run", &run)?;
            Input::Rewrite {
                elf_bytes,
                fdata: profile.to_fdata(),
                base,
            }
        }
        Workload::HhvmLoop => Input::Loop { program },
        Workload::ClangProfile => Input::Profile { elf },
        _ => Input::Measure { elf },
    };
    Ok(Prepared {
        sizes,
        reference: reference.clone(),
        input,
    })
}

/// What the check after the measurement needs from the last op.
pub enum Product {
    Bolted(Box<BoltOutput>),
    Profile(Profile),
    Nothing,
}

pub struct Outcome {
    /// FNV-64 of everything the op produced that must repeat exactly:
    /// output ELF or `.fdata` bytes, simulated counters, program output.
    pub signature: u64,
    /// Instructions the unoptimized binary retired (0 for `hhvm_rewrite`).
    pub guest_instructions: u64,
    /// Simulated statistics of the unoptimized binary, and of the BOLTed
    /// one where the op measures it.
    pub base: Counters,
    pub bolt: Option<Counters>,
    pub product: Product,
}

/// What [`Prepared::check`] found: the unoptimized binary's counters, the
/// BOLTed binary's where BOLT applies, and the verifiers' finding count.
pub struct Checked {
    pub base: Counters,
    pub bolt: Option<Counters>,
    pub findings: usize,
}

fn run_bolt(elf: &Elf, profile: &Profile) -> Result<BoltOutput, String> {
    let out = span("opt.optimize", || optimize(elf, profile, &bolt_options()))
        .map_err(|e| format!("optimize: {e:?}"))?;
    if !out.quarantine.is_clean() {
        return Err(format!(
            "optimize degraded functions:\n{}",
            out.quarantine.render()
        ));
    }
    Ok(out)
}

impl Prepared {
    /// The binary the emulator legs of the traced run execute; `None` for
    /// `hhvm_rewrite`, whose op emulates nothing.
    pub fn program_elf(&self) -> Result<Option<Elf>, String> {
        match &self.input {
            Input::Rewrite { .. } => Ok(None),
            Input::Loop { program } => compile_and_link(program, &CompileOptions::default())
                .map(|bin| Some(bin.elf))
                .map_err(|e| format!("compile: {e:?}")),
            Input::Profile { elf } | Input::Measure { elf } => Ok(Some(elf.clone())),
        }
    }

    /// `hhvm_rewrite`'s input files.
    pub fn rewrite_files(&self) -> Option<(&[u8], &str)> {
        match &self.input {
            Input::Rewrite {
                elf_bytes, fdata, ..
            } => Some((elf_bytes, fdata)),
            _ => None,
        }
    }

    /// One op. An `Err` is a failed op.
    pub fn op(&self) -> Result<Outcome, String> {
        span("op", || self.op_inner())
    }

    fn op_inner(&self) -> Result<Outcome, String> {
        match &self.input {
            // What `bolt in.elf -o out.elf -b in.fdata` does, in memory.
            Input::Rewrite {
                elf_bytes,
                fdata,
                base,
            } => {
                let elf = span("elf.read", || read_elf(elf_bytes)).map_err(|e| format!("{e:?}"))?;
                let profile = span("profile.fdata_parse", || Profile::from_fdata(fdata))
                    .map_err(|e| format!("fdata: {e:?}"))?;
                let out = run_bolt(&elf, &profile)?;
                let bytes =
                    span("elf.write", || write_elf(&out.elf)).map_err(|e| format!("{e:?}"))?;
                Ok(Outcome {
                    signature: fnv64(&[&bytes]),
                    guest_instructions: 0,
                    base: *base,
                    bolt: None,
                    product: Product::Bolted(Box::new(out)),
                })
            }
            // The paper loop: build, LBR-profile, optimize, re-measure.
            Input::Loop { program } => {
                let elf = span("compiler.compile_link", || {
                    compile_and_link(program, &CompileOptions::default())
                })
                .map_err(|e| format!("compile: {e:?}"))?
                .elf;
                let (profile, base, run) = profile_run(&elf, ENGINE)?;
                self.reference.check("profiling run", &run)?;
                let out = run_bolt(&elf, &profile)?;
                let bytes =
                    span("elf.write", || write_elf(&out.elf)).map_err(|e| format!("{e:?}"))?;
                let (bolt, rerun) = measure_run(&out.elf, ENGINE)?;
                self.reference.check("re-measured run", &rerun)?;
                Ok(Outcome {
                    signature: fnv64(&[&bytes, &base.to_bytes(), &bolt.to_bytes()]),
                    guest_instructions: run.steps,
                    base,
                    bolt: Some(bolt),
                    product: Product::Nothing,
                })
            }
            Input::Profile { elf } => {
                let (profile, base, run) = profile_run(elf, ENGINE)?;
                let fdata = span("profile.fdata_write", || profile.to_fdata());
                self.reference.check("profiling run", &run)?;
                Ok(Outcome {
                    signature: fnv64(&[fdata.as_bytes(), &base.to_bytes()]),
                    guest_instructions: run.steps,
                    base,
                    bolt: None,
                    product: Product::Profile(profile),
                })
            }
            Input::Measure { elf } => {
                let (base, run) = measure_run(elf, ENGINE)?;
                self.reference.check("measurement run", &run)?;
                if self.reference.counters.as_ref().is_some_and(|c| *c != base) {
                    return Err("simulated counters differ from the step tier's".into());
                }
                Ok(Outcome {
                    signature: fnv64(&[&base.to_bytes(), &words(&run.output)]),
                    guest_instructions: run.steps,
                    base,
                    bolt: None,
                    product: Product::Nothing,
                })
            }
        }
    }

    /// The untimed check after the measurement: runs the verifiers over
    /// `hhvm_rewrite`'s output and, wherever BOLT applies to the
    /// workload's program, measures the rewritten binary so that
    /// `cycles_vs_base_pct` is this program's own number.
    pub fn check(&self, last: &Outcome) -> Result<Checked, String> {
        let remeasure = |out: &BoltOutput| -> Result<Counters, String> {
            let (bolt, run) = measure_run(&out.elf, ENGINE)?;
            self.reference.check("BOLTed binary", &run)?;
            Ok(bolt)
        };
        let mut findings = 0;
        let bolt = match (&self.input, &last.product) {
            (Input::Rewrite { .. }, Product::Bolted(out)) => {
                let rewrite = span("verify.rewrite", || verify_rewrite(&out.elf, &out.ctx));
                let semantics = span("verify.sem", || verify_semantics(&out.elf, &out.ctx));
                findings = rewrite.findings.len() + semantics.findings.len();
                Some(remeasure(out)?)
            }
            (Input::Loop { .. }, _) => last.bolt,
            (Input::Profile { elf }, Product::Profile(profile)) => {
                Some(remeasure(&run_bolt(elf, profile)?)?)
            }
            // BOLT works function by function: a binary without function
            // symbols (the straightline loop) gives it nothing to do.
            (Input::Measure { elf }, _) if self.sizes.functions > 0 => {
                let (profile, _, run) = profile_run(elf, ENGINE)?;
                self.reference.check("profiling run", &run)?;
                Some(remeasure(&run_bolt(elf, &profile)?)?)
            }
            _ => None,
        };
        Ok(Checked {
            base: last.base,
            bolt,
            findings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_one_is_canonical_and_other_seeds_differ() {
        assert_eq!(generator_seed(1, 0x44BB), 0x44BB);
        assert_ne!(generator_seed(2, 0x44BB), 0x44BB);
        assert_ne!(generator_seed(2, 0x44BB), generator_seed(3, 0x44BB));
        assert_ne!(generator_seed(2, 0x44BB), generator_seed(2, 0x1D15));
    }

    #[test]
    fn straightline_retires_the_hand_counted_instructions_on_every_seed() {
        for seed in [1, 2, 99] {
            let reference = reference(Workload::StraightlineMeasure, seed, true).unwrap();
            assert_eq!(reference.retired, Some(62 * 20_000 + 5));
            let prepared = prepare(Workload::StraightlineMeasure, seed, true, &reference).unwrap();
            let out = prepared.op().unwrap();
            assert_eq!(out.guest_instructions, 62 * 20_000 + 5);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
