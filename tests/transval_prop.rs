//! Property tests cross-checking the symbolic translation validator
//! against concrete differential execution.
//!
//! Soundness direction: for random straight-line programs over random
//! initial register states, the symbolic sweep
//! (`bolt::emu::validate_code`) proves every translation tier
//! equivalent to step semantics — and concretely, running the very same
//! bytes under all three engines must then agree on every observable
//! (program output including flag probes, final registers, final
//! flags). A symbolic "clean" verdict that concrete execution
//! contradicts would fail here.
//!
//! Catching direction: applying a random applicable semantic mutation
//! to a random block must flip the symbolic verdict to the mutation's
//! expected finding kind.

use bolt::elf::{Elf, Section};
use bolt::emu::symexec::{sym_block_insts, SymState};
use bolt::emu::{
    lower_into, translation_shapes, validate_code, validate_translation, Engine, Machine, NullSink,
};
use bolt::verify::{apply_sem_mutation, SemMutation};
use bolt_isa::{encode_at, encoded_len, AluOp, Cond, Inst, Reg, ShiftOp, Target};
use proptest::prelude::*;

/// The registers random bodies compute in; r8+ are reserved for the
/// observation epilogue, rsp for the (unused) stack.
const REGS: [Reg; 6] = [Reg::Rax, Reg::Rbx, Reg::Rcx, Reg::Rdx, Reg::Rsi, Reg::Rdi];

/// One raw generated operation: `(opcode, r1, r2, imm, amount)`,
/// decoded into an instruction by [`body_inst`].
type RawOp = (u8, u8, u8, i64, u8);

fn reg(sel: u8) -> Reg {
    REGS[sel as usize % REGS.len()]
}

fn body_inst(op: &RawOp) -> Inst {
    let &(code, r1, r2, imm, amt) = op;
    let dst = reg(r1);
    let src = reg(r2);
    match code % 9 {
        0 => Inst::MovRI { dst, imm },
        1 => Inst::MovRR { dst, src },
        2 => {
            let alu = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Cmp,
            ];
            Inst::Alu {
                op: alu[amt as usize % alu.len()],
                dst,
                src,
            }
        }
        3 => {
            let alu = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Cmp,
            ];
            Inst::AluI {
                op: alu[amt as usize % alu.len()],
                dst,
                imm: imm as i32,
            }
        }
        4 => Inst::Imul { dst, src },
        5 => {
            let ops = [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar];
            Inst::Shift {
                op: ops[r2 as usize % ops.len()],
                dst,
                amount: 1 + amt % 63,
            }
        }
        6 => Inst::Test { a: dst, b: src },
        7 => Inst::Movzx8 { dst, src },
        _ => Inst::Setcc {
            cond: Cond::from_cc(amt % 16).expect("all 16 cc values decode"),
            dst,
        },
    }
}

/// Builds the full program: random register inits, the random body,
/// then an epilogue that stages every body register, probes five flag
/// conditions, emits everything through the output syscall, and exits.
fn program(inits: &[u64], body: &[RawOp]) -> Vec<Inst> {
    let mut insts = Vec::new();
    for (r, &v) in REGS.iter().zip(inits) {
        insts.push(Inst::MovRI {
            dst: *r,
            imm: v as i64,
        });
    }
    insts.extend(body.iter().map(body_inst));
    // Stage body registers before the emit loop clobbers rax/rdi.
    let staged = [Reg::R8, Reg::R9, Reg::R10, Reg::R11, Reg::R12, Reg::R13];
    for (s, r) in staged.iter().zip(REGS) {
        insts.push(Inst::MovRR { dst: *s, src: r });
    }
    // Probe the final flags: emit one bit per condition. `mov` and
    // `syscall` leave the flags untouched, so all five probes observe
    // the body's final flag state.
    for cond in [Cond::E, Cond::B, Cond::S, Cond::O, Cond::P] {
        insts.push(Inst::MovRI {
            dst: Reg::R14,
            imm: 0,
        });
        insts.push(Inst::Setcc {
            cond,
            dst: Reg::R14,
        });
        insts.push(Inst::MovRR {
            dst: Reg::Rdi,
            src: Reg::R14,
        });
        insts.push(Inst::MovRI {
            dst: Reg::Rax,
            imm: 1,
        });
        insts.push(Inst::Syscall);
    }
    for s in staged {
        insts.push(Inst::MovRR {
            dst: Reg::Rdi,
            src: s,
        });
        insts.push(Inst::MovRI {
            dst: Reg::Rax,
            imm: 1,
        });
        insts.push(Inst::Syscall);
    }
    insts.push(Inst::MovRI {
        dst: Reg::Rax,
        imm: 60,
    });
    insts.push(Inst::MovRI {
        dst: Reg::Rdi,
        imm: 0,
    });
    insts.push(Inst::Syscall);
    insts
}

/// Observable equality of two symbolic states: everything except the
/// `reg_writer` attribution metadata, which a dead `mov` rewrite can
/// change without touching any observable.
fn observably_equal(a: &SymState, b: &SymState) -> bool {
    a.regs == b.regs
        && a.effects == b.effects
        && a.flag_checks == b.flag_checks
        && a.exit_flags == b.exit_flags
        && a.terminator == b.terminator
}

fn assemble(insts: &[Inst], base: u64) -> Vec<u8> {
    let mut code = Vec::new();
    let mut at = base;
    for i in insts {
        let e = encode_at(i, at).expect("encodes");
        at += e.bytes.len() as u64;
        code.extend(e.bytes);
    }
    code
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: symbolic "equivalent" verdicts are backed by concrete
    /// agreement of all three engines on random programs and states.
    #[test]
    fn symbolic_clean_verdict_matches_concrete_execution(
        inits in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        body in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<i64>(), any::<u8>()),
            0..24,
        ),
    ) {
        let base = 0x400000u64;
        let inits = [inits.0, inits.1, inits.2, inits.3, inits.4, inits.5];
        let insts = program(&inits, &body);
        let code = assemble(&insts, base);

        // Symbolic verdict: both translation tiers equivalent to step
        // semantics on these bytes.
        let findings = validate_code(&code, base);
        prop_assert!(findings.is_empty(), "symbolic findings on a faithful program: {findings:?}");

        // Concrete differential: the engines must agree observable for
        // observable.
        let mut elf = Elf::new(base);
        elf.sections.push(Section::code(".text", base, code));
        let mut legs = Vec::new();
        for engine in [Engine::Step, Engine::Superblock, Engine::Uop] {
            let mut m = Machine::new();
            m.load_elf(&elf);
            let r = m.run_engine(&mut NullSink, 1_000_000, engine).expect("runs");
            legs.push((engine, r.exit, m.output.clone(), m.regs, m.flags));
        }
        for leg in &legs[1..] {
            prop_assert_eq!(&legs[0].1, &leg.1, "exit status ({} vs {})", legs[0].0, leg.0);
            prop_assert_eq!(&legs[0].2, &leg.2, "program output ({} vs {})", legs[0].0, leg.0);
            prop_assert_eq!(&legs[0].3, &leg.3, "final registers ({} vs {})", legs[0].0, leg.0);
            prop_assert_eq!(&legs[0].4, &leg.4, "final flags ({} vs {})", legs[0].0, leg.0);
        }
    }

    /// Catching: a random applicable semantic mutation on a random
    /// block flips the symbolic verdict to the expected finding kind.
    #[test]
    fn random_semantic_mutation_is_caught(
        body in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<i64>(), any::<u8>()),
            1..24,
        ),
        which in 0usize..SemMutation::ALL.len(),
    ) {
        let entry = 0x400100u64;
        let mut insts: Vec<Inst> = body.iter().map(body_inst).collect();
        insts.push(Inst::Ret);
        let reference: Vec<(Inst, u8)> = insts
            .iter()
            .map(|&i| (i, encoded_len(&i) as u8))
            .collect();
        let mut uops = Vec::new();
        lower_into(&mut uops, &reference);
        let mut shapes = translation_shapes(&reference);
        let mut cached = reference.clone();

        let m = SemMutation::ALL[which];
        if let Some(desc) = apply_sem_mutation(m, &mut cached, &mut uops, &mut shapes) {
            let findings =
                validate_translation(entry, &reference, &cached, Some(&uops), Some(&shapes));
            // In a random body the mutation can land in dead code (the
            // corrupted destination overwritten before block exit), in
            // which case the corrupted translation really is equivalent
            // and a clean verdict is correct. Ground truth comes from
            // the instruction evaluator alone: the mutation is
            // observable iff the two instruction pools reach different
            // symbolic states (or the shape list no longer matches the
            // mutated instructions).
            let visible = !observably_equal(
                &sym_block_insts(&reference, entry),
                &sym_block_insts(&cached, entry),
            ) || shapes != translation_shapes(&cached);
            if visible {
                prop_assert!(
                    findings.iter().any(|f| f.kind == m.expected_kind()),
                    "{} ({}): expected {:?}, got {:?}",
                    m, desc, m.expected_kind(), findings
                );
            } else {
                prop_assert!(
                    findings.is_empty(),
                    "{} ({}): invisible mutation must stay clean, got {:?}",
                    m, desc, findings
                );
            }
        }
        // No applicable site in this random block: vacuously fine — the
        // deterministic suite in tests/semantic_mutations.rs pins a
        // site for every kind.
    }
}

/// The proptest bodies never branch, so one handwritten looping program
/// keeps the concrete differential honest across block chaining too.
#[test]
fn looping_program_sweeps_clean_and_agrees_concretely() {
    let base = 0x400000u64;
    let build = |loop_addr: u64| {
        vec![
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 5,
            },
            Inst::MovRI {
                dst: Reg::Rbx,
                imm: 1,
            },
            // loop: rbx *= 2 ; rcx -= 1 ; jne loop
            Inst::Alu {
                op: AluOp::Add,
                dst: Reg::Rbx,
                src: Reg::Rbx,
            },
            Inst::AluI {
                op: AluOp::Sub,
                dst: Reg::Rcx,
                imm: 1,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Addr(loop_addr),
                width: Default::default(),
            },
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
    // Two-pass layout for the backward branch.
    let addr_of = |insts: &[Inst], idx: usize| {
        let mut at = base;
        for i in &insts[..idx] {
            at += encode_at(i, at).expect("encodes").bytes.len() as u64;
        }
        at
    };
    let probe = build(base);
    let loop_addr = addr_of(&probe, 2);
    let code = assemble(&build(loop_addr), base);

    let findings = validate_code(&code, base);
    assert!(findings.is_empty(), "loop must sweep clean: {findings:?}");

    let mut elf = Elf::new(base);
    elf.sections.push(Section::code(".text", base, code));
    let mut outputs = Vec::new();
    for engine in [Engine::Step, Engine::Superblock, Engine::Uop] {
        let mut m = Machine::new();
        m.load_elf(&elf);
        let r = m.run_engine(&mut NullSink, 10_000, engine).expect("runs");
        assert_eq!(m.output, vec![32], "{engine}: 1 << 5");
        outputs.push((r.exit, m.output.clone(), m.regs, m.flags));
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}
