//! Every workload family, end to end at test scale: the MIR interpreter,
//! the compiled binary, and the BOLTed binary agree; BOLT reduces taken
//! branches on all of them; and the BOLTed binary runs the rewritten
//! code, not the stale bodies left behind in the original text.

use bolt::compiler::{compile_and_link, CompileOptions, Interp};
use bolt::emu::{BranchEvent, BranchKind, Exit, Machine, TraceSink};
use bolt::ir::BinaryContext;
use bolt::opt::{optimize, BoltOptions};
use bolt::profile::{LbrSampler, SampleTrigger};
use bolt::workloads::{Scale, Workload};

/// Counts the instructions a run retires inside the original bodies of
/// moved functions — anywhere in their old range except the entry, which
/// holds the patched `jmp` to the new copy — and its indirect calls.
#[derive(Default)]
struct StaleCode {
    /// `[entry + 1, end)` of each moved function, sorted.
    bodies: Vec<(u64, u64)>,
    stale: u64,
    indirect_calls: u64,
}

impl StaleCode {
    fn of(ctx: &BinaryContext) -> StaleCode {
        let moved = |f: &bolt::ir::BinaryFunction| {
            let mut keeper = f;
            while let Some(k) = keeper.folded_into {
                keeper = &ctx.functions[k];
            }
            keeper.is_simple
        };
        let mut bodies: Vec<(u64, u64)> = ctx
            .functions
            .iter()
            .filter(|f| moved(f) && f.size > 1)
            .map(|f| (f.address + 1, f.address + f.size))
            .collect();
        bodies.sort_unstable();
        StaleCode {
            bodies,
            ..StaleCode::default()
        }
    }
}

impl TraceSink for StaleCode {
    fn on_inst(&mut self, addr: u64, _len: u8) {
        let after = self.bodies.partition_point(|r| r.0 <= addr);
        if after > 0 && addr < self.bodies[after - 1].1 {
            self.stale += 1;
        }
    }

    fn on_branch(&mut self, ev: BranchEvent) {
        if ev.kind == BranchKind::IndirectCall {
            self.indirect_calls += 1;
        }
    }
}

fn run_elf(elf: &bolt::elf::Elf, sink: &mut StaleCode) -> (i64, Vec<i64>) {
    let mut m = Machine::new();
    m.load_elf(elf);
    let r = m.run(sink, u64::MAX).expect("runs");
    let Exit::Exited(code) = r.exit else {
        panic!("no exit: {:?}", r.exit);
    };
    (code, m.output)
}

fn check_workload(wl: Workload) {
    let program = wl.build(Scale::Test);

    // Interpreter oracle.
    let mut interp = Interp::new(&program, 2_000_000_000);
    let expected_code = interp.run(&[]).unwrap() & 0xFF;
    let expected_out = interp.output.clone();

    // Compiled binary.
    let bin = compile_and_link(&program, &CompileOptions::default()).expect("compiles");
    let mut base = StaleCode::default();
    let (code, out) = run_elf(&bin.elf, &mut base);
    assert_eq!(code & 0xFF, expected_code, "{}: compiled exit", wl.name());
    assert_eq!(out, expected_out, "{}: compiled output", wl.name());

    // Profile + BOLT.
    let mut m = Machine::new();
    m.load_elf(&bin.elf);
    let mut sampler = LbrSampler::new(499, SampleTrigger::Instructions);
    m.run(&mut sampler, u64::MAX).unwrap();
    let bolted =
        optimize(&bin.elf, &sampler.profile, &BoltOptions::paper_default()).expect("bolts");
    let mut after = StaleCode::of(&bolted.ctx);
    let (code, out) = run_elf(&bolted.elf, &mut after);
    assert_eq!(code & 0xFF, expected_code, "{}: bolted exit", wl.name());
    assert_eq!(out, expected_out, "{}: bolted output", wl.name());

    // Pointers still hold original entries; the patched entries send
    // them to the new copies, so no stale body ever runs.
    assert_eq!(
        after.stale,
        0,
        "{}: instructions retired in moved functions' original bodies",
        wl.name()
    );
    // HHVM's hot indirect call is promoted; its guard must match the
    // pointer, so the promoted direct call runs instead.
    if wl == Workload::Hhvm {
        assert!(
            after.indirect_calls * 64 <= base.indirect_calls,
            "HHVM: indirect calls {} -> {}, expected at least a 64x drop",
            base.indirect_calls,
            after.indirect_calls
        );
    }

    // Layout improves by the paper's own metric.
    let delta = bolted.dyno_after.taken_branch_delta(&bolted.dyno_before);
    assert!(
        delta < 0.0,
        "{}: taken branches should drop, got {delta:+.1}%",
        wl.name()
    );
}

#[test]
fn hhvm_like() {
    check_workload(Workload::Hhvm);
}

#[test]
fn tao_like() {
    check_workload(Workload::Tao);
}

#[test]
fn proxygen_like() {
    check_workload(Workload::Proxygen);
}

#[test]
fn multifeed1_like() {
    check_workload(Workload::Multifeed1);
}

#[test]
fn multifeed2_like() {
    check_workload(Workload::Multifeed2);
}

#[test]
fn clang_like() {
    check_workload(Workload::ClangLike);
}

#[test]
fn gcc_like() {
    check_workload(Workload::GccLike);
}

#[test]
fn interp_like() {
    check_workload(Workload::Interp);
}
