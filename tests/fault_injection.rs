//! The fault-injection harness: every seeded [`FaultPlan`] — corrupted
//! ELF bytes, corrupted text images, corrupted profile text, poisoned
//! pass kernels — must be survived gracefully at every layer:
//!
//! - no panic escapes the parser, the driver, a pass, or the emitter;
//! - if the corrupted input still parses, the pipeline quarantines the
//!   affected functions instead of failing, and the output ELF still
//!   serializes, parses, and behaves like the (corrupted) input;
//! - quarantined functions keep their original bytes verbatim at their
//!   original addresses;
//! - every degradation shows up in the structured [`QuarantineReport`].
//!
//! The sweep here covers a handful of seeds; CI runs the same harness
//! over a wider seed range (see `.github/workflows/ci.yml`).

use bolt::compiler::{
    compile_and_link, BinOp, CmpOp, CompileOptions, FunctionBuilder, MirProgram, Operand, Rvalue,
};
use bolt::elf::{read_elf, write_elf, Elf};
use bolt::emu::{EmuError, Exit, Machine, NullSink};
use bolt::ir::NonSimpleReason;
use bolt::opt::{optimize, BoltOptions, BoltOutput, QuarantineAction};
use bolt::profile::{LbrSampler, Profile, SampleTrigger};
use bolt::verify::{FaultPlan, FaultSurface};

const MAX_STEPS: u64 = 10_000_000;

/// The seeds every run sweeps. CI widens the sweep without a recompile
/// by listing extra seeds (decimal or `0x`-hex, comma-separated) in
/// `BOLT_FAULT_SEEDS`; a garbled entry fails loudly rather than
/// silently shrinking the sweep.
fn seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = vec![1, 2, 3, 0xB017];
    if let Ok(v) = std::env::var("BOLT_FAULT_SEEDS") {
        for tok in v.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let parsed = match tok.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => tok.parse(),
            };
            seeds.push(parsed.unwrap_or_else(|_| panic!("BOLT_FAULT_SEEDS: bad seed {tok:?}")));
        }
        seeds.sort_unstable();
        seeds.dedup();
    }
    seeds
}

/// A small multi-function program so corruptions and quarantines have
/// several distinct victims: a hash helper, a branchy filter, and a
/// main loop.
fn program() -> MirProgram {
    let mut p = MirProgram::with_entry("main");

    let mut h = FunctionBuilder::new("hash", 0, "h.c", 1);
    let a = h.assign(Rvalue::BinOp(
        BinOp::Mul,
        Operand::Local(0),
        Operand::Const(0x9E3779B1),
    ));
    let b = h.assign(Rvalue::BinOp(
        BinOp::And,
        Operand::Local(a),
        Operand::Const(0xFFF),
    ));
    h.ret(Operand::Local(b));
    p.add_function(h.finish());

    let mut f = FunctionBuilder::new("filter", 1, "f.c", 1);
    let c = f.assign_cmp(CmpOp::Lt, Operand::Local(0), Operand::Const(64));
    let (lo, hi) = f.branch(Operand::Local(c));
    f.switch_to(lo);
    let r1 = f.call("hash", vec![Operand::Local(0)]);
    f.ret(Operand::Local(r1));
    f.switch_to(hi);
    let r2 = f.assign(Rvalue::BinOp(
        BinOp::Add,
        Operand::Local(0),
        Operand::Const(13),
    ));
    f.ret(Operand::Local(r2));
    p.add_function(f.finish());

    let mut m = FunctionBuilder::new("main", 2, "m.c", 0);
    let sum = m.new_local();
    let i = m.new_local();
    m.assign_to(sum, Rvalue::Use(Operand::Const(0)));
    m.assign_to(i, Rvalue::Use(Operand::Const(0)));
    let head = m.goto_new();
    m.switch_to(head);
    let c0 = m.assign_cmp(CmpOp::Lt, Operand::Local(i), Operand::Const(150));
    let (body, done) = m.branch(Operand::Local(c0));
    m.switch_to(body);
    let v = m.call("filter", vec![Operand::Local(i)]);
    m.assign_to(
        sum,
        Rvalue::BinOp(BinOp::Add, Operand::Local(sum), Operand::Local(v)),
    );
    m.assign_to(
        i,
        Rvalue::BinOp(BinOp::Add, Operand::Local(i), Operand::Const(1)),
    );
    m.goto(head);
    m.switch_to(done);
    m.emit(Operand::Local(sum));
    let masked = m.assign(Rvalue::BinOp(
        BinOp::And,
        Operand::Local(sum),
        Operand::Const(0x3F),
    ));
    m.ret(Operand::Local(masked));
    p.add_function(m.finish());
    p.validate().unwrap();
    p
}

/// What a run looks like from the outside. Error exits compare by kind
/// only: a trap inside relocated code reports a different rip than the
/// same trap at the original address, and a non-terminating mutant cut
/// off at the budget retires different partial output under different
/// layouts.
#[derive(Debug, Clone, PartialEq)]
enum Observed {
    Exited(i64, Vec<i64>),
    MaxSteps,
    Faulted(&'static str),
}

fn observe(elf: &Elf) -> Observed {
    let mut m = Machine::new();
    m.load_elf(elf);
    match m.run(&mut NullSink, MAX_STEPS) {
        Ok(r) => match r.exit {
            Exit::Exited(code) => Observed::Exited(code, m.output.clone()),
            Exit::MaxSteps => Observed::MaxSteps,
            // A bare top-frame `ret` ends the run like an exit(0) shim.
            Exit::Returned => Observed::Exited(0, m.output.clone()),
        },
        Err(EmuError::BadInstruction { .. }) => Observed::Faulted("bad-instruction"),
        Err(EmuError::Trap { .. }) => Observed::Faulted("trap"),
        Err(EmuError::BadSyscall { .. }) => Observed::Faulted("bad-syscall"),
        Err(EmuError::NotExecutable { .. }) => Observed::Faulted("not-executable"),
    }
}

fn fixture() -> (Elf, Profile) {
    let bin = compile_and_link(&program(), &CompileOptions::default()).unwrap();
    let mut m = Machine::new();
    m.load_elf(&bin.elf);
    let mut sampler = LbrSampler::new(61, SampleTrigger::Instructions);
    let r = m.run(&mut sampler, MAX_STEPS).expect("baseline runs");
    assert!(matches!(r.exit, Exit::Exited(_)), "baseline exits");
    (bin.elf, sampler.profile)
}

/// The post-conditions every *successful* degraded run must satisfy,
/// plus whole-program behavior preservation.
fn check_output(input: &Elf, out: &BoltOutput, what: &str) {
    check_structure(input, out, what);
    // Behavior: the output is observationally the input (including
    // inputs that fault — the rewrite must not change *how* they fail).
    assert_eq!(
        observe(input),
        observe(&out.elf),
        "{what}: behavior preserved"
    );
}

/// The behavior *class* of a run, with data values erased. Used where a
/// mutant may read uninitialized stack memory (a text flip can turn a
/// store into a load of a never-written slot): what such a read observes
/// depends on stale stack contents — dead stores other code legitimately
/// drops, return addresses that move with relocation — so no rewriter
/// can promise value-exact behavior for it. How the program *ends* is
/// still determined by its control flow, which a faithful decode
/// reproduces exactly; an output that exits where the input faulted (or
/// vice versa) is a real bug this class still catches.
fn observed_class(o: &Observed) -> &'static str {
    match o {
        Observed::Exited(..) => "exits",
        Observed::MaxSteps => "max-steps",
        Observed::Faulted(kind) => kind,
    }
}

/// The structural post-conditions alone — used for raw-byte mutants,
/// where flipped ELF metadata can legitimately redefine the entry point
/// or function boundaries (so behavioral equivalence of a rewrite is
/// not a meaningful contract), but the output must still serialize,
/// reparse, and keep every quarantined function's bytes verbatim.
fn check_structure(input: &Elf, out: &BoltOutput, what: &str) {
    // The output always serializes and parses back.
    let bytes = write_elf(&out.elf).unwrap_or_else(|e| panic!("{what}: serialize: {e}"));
    read_elf(&bytes).unwrap_or_else(|e| panic!("{what}: reparse: {e}"));

    // Ladder-quarantined functions keep their original bytes at their
    // original addresses, and every one of them is in the report.
    let quarantined_in_ctx: Vec<&str> = out
        .ctx
        .functions
        .iter()
        .filter(|f| f.non_simple_reason == Some(NonSimpleReason::Quarantined))
        .map(|f| f.name.as_str())
        .collect();
    for name in &quarantined_in_ctx {
        let sym_in = input
            .symbol(name)
            .unwrap_or_else(|| panic!("{what}: {name} in input"));
        let sym_out = out
            .elf
            .symbol(name)
            .unwrap_or_else(|| panic!("{what}: {name} survives in output"));
        assert_eq!(sym_in.value, sym_out.value, "{what}: {name} not relocated");
        assert_eq!(
            input.read_vaddr(sym_in.value, sym_in.size as usize),
            out.elf.read_vaddr(sym_in.value, sym_in.size as usize),
            "{what}: {name}: original bytes preserved verbatim"
        );
        assert!(
            out.quarantine
                .events
                .iter()
                .any(|e| e.function == *name && e.action == QuarantineAction::Quarantine),
            "{what}: {name} quarantined but unreported:\n{}",
            out.quarantine.render()
        );
    }
    assert_eq!(
        out.quarantine.quarantined,
        quarantined_in_ctx.len(),
        "{what}: report count matches the context"
    );
}

#[test]
fn every_fault_plan_is_survived_at_every_seed() {
    let (elf, profile) = fixture();
    let pristine_bytes = write_elf(&elf).expect("serializes");
    let pristine_fdata = profile.to_fdata();

    for seed in seeds() {
        for plan in FaultPlan::sweep(seed) {
            let what = format!("{}/seed{}", plan.kind, seed);
            match plan.kind.surface() {
                FaultSurface::ElfBytes => {
                    // Contract: the reader returns, never panics. When
                    // the mutant still parses, the whole pipeline must
                    // hold the same no-panic contract.
                    let mut bytes = pristine_bytes.clone();
                    assert!(plan.apply_elf_bytes(&mut bytes), "{what}: applies");
                    if let Ok(mutant) = read_elf(&bytes) {
                        if let Ok(out) = optimize(&mutant, &profile, &BoltOptions::paper_default())
                        {
                            check_structure(&mutant, &out, &what);
                        }
                    }
                }
                FaultSurface::Image => {
                    // Contract: corrupted text never fails the run — the
                    // driver quarantines what no longer decodes or
                    // verifies and rewrites the rest. Behavior compares
                    // by class, not value: a flip that still decodes can
                    // leave the mutant reading uninitialized stack slots
                    // (see [`observed_class`]), where value-exact
                    // equality is unattainable for any rewriter.
                    let mut mutant = elf.clone();
                    assert!(plan.apply_image(&mut mutant), "{what}: applies");
                    let mut opts = BoltOptions::paper_default();
                    opts.verify = true;
                    opts.verify_sem = true;
                    let out = optimize(&mutant, &profile, &opts)
                        .unwrap_or_else(|e| panic!("{what}: must degrade, not fail: {e}"));
                    check_structure(&mutant, &out, &what);
                    assert_eq!(
                        observed_class(&observe(&mutant)),
                        observed_class(&observe(&out.elf)),
                        "{what}: behavior class preserved"
                    );
                }
                FaultSurface::Profile => {
                    // Contract: the profile parser returns, never
                    // panics; a profile that still parses must drive a
                    // fully successful, behavior-preserving rewrite.
                    let mut text = pristine_fdata.clone();
                    assert!(plan.apply_profile(&mut text), "{what}: applies");
                    if let Ok(mutant_profile) = Profile::from_fdata(&text) {
                        let out = optimize(&elf, &mutant_profile, &BoltOptions::paper_default())
                            .unwrap_or_else(|e| panic!("{what}: pipeline accepts: {e}"));
                        check_output(&elf, &out, &what);
                    }
                }
                FaultSurface::Pipeline => {
                    // Contract: a panicking pass kernel is contained by
                    // the quarantine ladder; the run still succeeds.
                    let mut opts = BoltOptions::paper_default();
                    opts.poison_nth = plan.poison_nth();
                    let out = optimize(&elf, &profile, &opts)
                        .unwrap_or_else(|e| panic!("{what}: ladder contains the panic: {e}"));
                    check_output(&elf, &out, &what);
                }
            }
        }
    }
}

/// A clean pipeline — no faults injected anywhere — quarantines nothing
/// and its report says so.
#[test]
fn clean_pipeline_quarantines_nothing() {
    let (elf, profile) = fixture();
    let out = optimize(&elf, &profile, &BoltOptions::paper_default()).expect("bolts");
    assert!(out.quarantine.is_clean(), "{}", out.quarantine.render());
    assert_eq!(out.quarantine.rounds, 1);
    assert!(!out
        .ctx
        .functions
        .iter()
        .any(|f| f.non_simple_reason == Some(NonSimpleReason::Quarantined)));
    assert_eq!(observe(&elf), observe(&out.elf));
}

/// Corrupting the *entire* text section (every function at once) is the
/// worst-case image fault: the driver must still produce an output — in
/// the limit an identity rewrite with everything quarantined or
/// non-simple — that behaves exactly like the corrupted input.
#[test]
fn total_text_corruption_degrades_to_identity() {
    let (elf, profile) = fixture();
    let mut mutant = elf.clone();
    for sec in &mut mutant.sections {
        if sec.is_exec() {
            for (i, b) in sec.data.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(197).wrapping_add(11);
            }
        }
    }
    let out = optimize(&mutant, &profile, &BoltOptions::paper_default())
        .unwrap_or_else(|e| panic!("total corruption must degrade, not fail: {e}"));
    let bytes = write_elf(&out.elf).expect("serializes");
    read_elf(&bytes).expect("reparses");
    assert_eq!(
        observe(&mutant),
        observe(&out.elf),
        "failure mode preserved"
    );
}
