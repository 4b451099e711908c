//! The semantic-mutation acceptance suite: every [`SemMutation`] kind
//! corrupts a block translation while keeping its pools internally
//! consistent, and the symbolic validator
//! (`bolt::emu::validate_translation`) must catch it with the expected
//! finding kind, because it compares the translation against the
//! meaning of the original bytes. Lowering bugs that leave the micro-op
//! pool *inconsistent* with a faithful decoded pool — the defects the
//! retired structural validator existed for — must be caught the same
//! way.
//!
//! Also covers the clean direction (faithful translations of the same
//! blocks prove equivalent with zero findings) and the lazy-flags
//! adversarial case: a live flag write at the end of one chained block
//! whose only consumer lives in the *next* block is still caught when
//! elided, via the block-exit flags observable.

use bolt::emu::{
    lower_into, translation_shapes, validate_code, validate_translation, MemShape, MicroOp,
    SemFindingKind,
};
use bolt::verify::{apply_sem_mutation, SemMutation};
use bolt_isa::{encode_at, encoded_len, AluOp, Cond, Inst, JumpWidth, Mem, Reg, Target};

fn with_len(insts: &[Inst]) -> Vec<(Inst, u8)> {
    insts.iter().map(|&i| (i, encoded_len(&i) as u8)).collect()
}

/// Faithful translation of `insts`: the lowered uop pool and the
/// recorded shape list, exactly as `BlockCache::translate` builds them.
fn faithful(insts: &[(Inst, u8)]) -> (Vec<MicroOp>, Vec<MemShape>) {
    let mut uops = Vec::new();
    lower_into(&mut uops, insts);
    (uops, translation_shapes(insts))
}

/// A block containing an applicable site for every mutation kind.
fn site_block(m: SemMutation) -> Vec<(Inst, u8)> {
    let insts = match m {
        SemMutation::WrongRegister => vec![
            Inst::MovRR {
                dst: Reg::Rdx,
                src: Reg::Rsi,
            },
            Inst::Ret,
        ],
        SemMutation::DroppedSignExtend => vec![
            Inst::MovRI {
                dst: Reg::Rax,
                imm: -5,
            },
            Inst::Ret,
        ],
        SemMutation::SwappedEaScale => vec![
            Inst::Load {
                dst: Reg::Rax,
                mem: Mem::BaseIndexScale {
                    base: Reg::Rdi,
                    index: Reg::Rsi,
                    scale: 8,
                    disp: -8,
                },
            },
            Inst::Ret,
        ],
        SemMutation::DeadFlagWriter => vec![
            Inst::Shift {
                op: bolt_isa::ShiftOp::Shl,
                dst: Reg::Rax,
                amount: 3,
            },
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 1,
            },
            Inst::Ret,
        ],
        SemMutation::ReorderedMemEffect => vec![
            Inst::Load {
                dst: Reg::Rax,
                mem: Mem::base(Reg::Rdi, 0),
            },
            Inst::Store {
                mem: Mem::base(Reg::Rsi, 0),
                src: Reg::Rax,
            },
            Inst::Ret,
        ],
        SemMutation::WrongCondCode => vec![
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rax,
                imm: 0,
            },
            Inst::Jcc {
                cond: Cond::E,
                target: Target::Addr(0x400200),
                width: JumpWidth::Near,
            },
        ],
        SemMutation::WrongBranchTarget => vec![
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Jmp {
                target: Target::Addr(0x400200),
                width: JumpWidth::Near,
            },
        ],
    };
    with_len(&insts)
}

/// The tentpole acceptance property: each semantic corruption is
/// field-plausible (the pools stay consistent with each other) yet the
/// symbolic validator reports the expected finding kind.
#[test]
fn every_mutation_fails_symbolic_validation() {
    let entry = 0x400100u64;
    for m in SemMutation::ALL {
        let reference = site_block(m);
        // The untouched translation proves clean first.
        let (uops, shapes) = faithful(&reference);
        let clean = validate_translation(entry, &reference, &reference, Some(&uops), Some(&shapes));
        assert!(
            clean.is_empty(),
            "{m}: clean site block has findings: {clean:?}"
        );

        let mut cached = reference.clone();
        let (mut uops, mut shapes) = faithful(&reference);
        let desc = apply_sem_mutation(m, &mut cached, &mut uops, &mut shapes)
            .unwrap_or_else(|| panic!("{m}: site block must contain an applicable site"));

        // Symbolic validation (translation against the bytes' meaning)
        // reports the expected kind.
        let findings = validate_translation(entry, &reference, &cached, Some(&uops), Some(&shapes));
        assert!(
            findings.iter().any(|f| f.kind == m.expected_kind()),
            "{m} ({desc}): expected a {:?} finding, got {findings:?}",
            m.expected_kind()
        );
    }
}

/// Lowering bugs that corrupt *only* the micro-op pool: the decoded
/// pool stays faithful, so the pools disagree with each other. Each of
/// the defects the retired structural validator caught by comparing
/// the pools field by field must surface as a symbolic finding of the
/// right kind.
#[test]
fn uop_only_corruptions_fail_symbolic_validation() {
    let entry = 0x400100u64;
    let reference = with_len(&[
        Inst::AluI {
            op: AluOp::Cmp,
            dst: Reg::Rax,
            imm: 4,
        },
        Inst::Jcc {
            cond: Cond::E,
            target: Target::Addr(0x400000),
            width: JumpWidth::Near,
        },
    ]);
    let (faithful_uops, shapes) = faithful(&reference);
    type Corruption = (&'static str, fn(&mut Vec<MicroOp>), SemFindingKind);
    let corruptions: [Corruption; 5] = [
        (
            "swapped register index",
            |u| u[0].a = Reg::Rbx.num(),
            SemFindingKind::FlagMismatch,
        ),
        (
            "corrupted immediate",
            |u| u[0].imm = 5,
            SemFindingKind::FlagMismatch,
        ),
        (
            "live cmp marked flags-dead under its jcc",
            |u| u[0].fl = false,
            SemFindingKind::FlagMismatch,
        ),
        (
            "truncated uop pool",
            |u| {
                u.pop();
            },
            SemFindingKind::LengthMismatch,
        ),
        (
            "drifted instruction length",
            |u| u[0].len += 1,
            SemFindingKind::LengthMismatch,
        ),
    ];
    for (what, corrupt, expected) in corruptions {
        let mut uops = faithful_uops.clone();
        corrupt(&mut uops);
        let findings =
            validate_translation(entry, &reference, &reference, Some(&uops), Some(&shapes));
        assert!(
            findings.iter().any(|f| f.kind == expected),
            "{what}: expected a {expected:?} finding, got {findings:?}"
        );
    }
}

/// The same defects must also be caught on the tiers that execute the
/// decoded instructions directly (no uop pool): the cached instruction
/// pool is the evaluated side then.
#[test]
fn instruction_pool_mutations_are_caught_without_uops() {
    let entry = 0x400100u64;
    for m in SemMutation::ALL {
        if m == SemMutation::DeadFlagWriter {
            // Flag liveness is a uop-tier concept; the inst-pool tiers
            // evaluate flags eagerly, and the elided writer is caught
            // there as plain instruction drift (covered below by
            // WrongRegister et al. through the same code path).
            continue;
        }
        let reference = site_block(m);
        let mut cached = reference.clone();
        let (mut uops, mut shapes) = faithful(&reference);
        let Some(_) = apply_sem_mutation(m, &mut cached, &mut uops, &mut shapes) else {
            panic!("{m}: site block must contain an applicable site");
        };
        let findings = validate_translation(entry, &reference, &cached, None, Some(&shapes));
        assert!(
            findings.iter().any(|f| f.kind == m.expected_kind()),
            "{m}: expected a {:?} finding without a uop pool, got {findings:?}",
            m.expected_kind()
        );
    }
}

/// The lazy-flags-across-chained-blocks adversarial case. Block A ends
/// with a live flag write (`shl`) and an unconditional jump; the only
/// consumer (`jcc`) lives in chained block B. Per-block symbolic
/// validation never sees A's consumer — the conservative contract is
/// that A's *exit flags* observable carries the pending state across
/// the chain. Eliding A's writer must therefore still be caught, at A,
/// as a flag mismatch at block exit.
#[test]
fn elided_flag_writer_is_caught_at_the_chained_block_boundary() {
    let a_entry = 0x400100u64;
    let b_entry = 0x400200u64;
    let block_a = with_len(&[
        Inst::Shift {
            op: bolt_isa::ShiftOp::Shl,
            dst: Reg::Rcx,
            amount: 1,
        },
        Inst::Jmp {
            target: Target::Addr(b_entry),
            width: JumpWidth::Near,
        },
    ]);
    let (uops, shapes) = faithful(&block_a);
    assert!(
        uops[0].fl,
        "block-end liveness must conservatively keep the shift live for the chained consumer"
    );
    let clean = validate_translation(a_entry, &block_a, &block_a, Some(&uops), Some(&shapes));
    assert!(clean.is_empty(), "clean chained block: {clean:?}");

    let mut cached = block_a.clone();
    let (mut uops, mut shapes) = faithful(&block_a);
    apply_sem_mutation(
        SemMutation::DeadFlagWriter,
        &mut cached,
        &mut uops,
        &mut shapes,
    )
    .expect("the live shift is an applicable site");
    let findings = validate_translation(a_entry, &block_a, &cached, Some(&uops), Some(&shapes));
    assert!(
        findings
            .iter()
            .any(|f| f.kind == SemFindingKind::FlagMismatch),
        "the elided live writer must surface as a flag mismatch at A's exit: {findings:?}"
    );
}

/// The clean leg of the adversarial case as the sweep sees it: the full
/// A→B chained structure, encoded to real bytes, proves clean under all
/// three translation tiers.
#[test]
fn chained_flag_consumer_structure_sweeps_clean() {
    let base = 0x400000u64;
    // A: shl rcx, 1 ; jmp B      (flags live out of A)
    // B: setne al ; jne A' ...   (consumer in the successor)
    let build = |b_addr: u64, end_addr: u64| {
        vec![
            Inst::Shift {
                op: bolt_isa::ShiftOp::Shl,
                dst: Reg::Rcx,
                amount: 1,
            },
            Inst::Jmp {
                target: Target::Addr(b_addr),
                width: JumpWidth::Near,
            },
            Inst::Setcc {
                cond: Cond::Ne,
                dst: Reg::Rax,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Addr(end_addr),
                width: JumpWidth::Near,
            },
            Inst::Ret,
        ]
    };
    // Two-pass layout: near jumps are length-stable.
    let lay = |insts: &[Inst]| {
        let mut at = base;
        let mut addrs = Vec::new();
        let mut code = Vec::new();
        for i in insts {
            addrs.push(at);
            let e = encode_at(i, at).expect("encodes");
            at += e.bytes.len() as u64;
            code.extend(e.bytes);
        }
        (code, addrs)
    };
    let (_, addrs) = lay(&build(base, base));
    let (code, addrs2) = lay(&build(addrs[2], addrs[4]));
    assert_eq!(addrs, addrs2, "layout converged");
    let findings = validate_code(&code, base);
    assert!(
        findings.is_empty(),
        "chained structure must sweep clean: {findings:?}"
    );
}
