//! Property tests: every encodable instruction decodes back to the same
//! bytes, and `encoded_len` always agrees with the encoder.

use bolt_isa::{
    decode, encode_at, encoded_len, AluOp, Cond, FixupKind, Inst, JumpWidth, Label, Mem, Reg, Rm,
    ShiftOp, Target, MAX_INST_LEN,
};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(|n| Reg::from_num(n).unwrap())
}

fn arb_index_reg() -> impl Strategy<Value = Reg> {
    arb_reg().prop_filter("index may not be rsp", |r| *r != Reg::Rsp)
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (0u8..16).prop_map(|n| Cond::from_cc(n).unwrap())
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Or),
        Just(AluOp::And),
        Just(AluOp::Sub),
        Just(AluOp::Xor),
        Just(AluOp::Cmp),
    ]
}

fn arb_shift_op() -> impl Strategy<Value = ShiftOp> {
    prop_oneof![Just(ShiftOp::Shl), Just(ShiftOp::Shr), Just(ShiftOp::Sar)]
}

const BASE: u64 = 0x40_0000;

/// Resolved targets near the instruction address so both widths encode.
fn arb_near_target() -> impl Strategy<Value = Target> {
    (-100i64..100).prop_map(|d| Target::Addr(BASE.wrapping_add(d as u64)))
}

fn arb_far_target() -> impl Strategy<Value = Target> {
    (-0x100000i64..0x100000).prop_map(|d| Target::Addr(BASE.wrapping_add(d as u64)))
}

fn arb_mem() -> impl Strategy<Value = Mem> {
    prop_oneof![
        (arb_reg(), any::<i32>()).prop_map(|(base, disp)| Mem::BaseDisp { base, disp }),
        (arb_reg(), arb_index_reg(), 0u8..4, any::<i32>()).prop_map(|(base, index, s, disp)| {
            Mem::BaseIndexScale {
                base,
                index,
                scale: 1 << s,
                disp,
            }
        }),
        arb_far_target().prop_map(|target| Mem::RipRel { target }),
    ]
}

fn arb_rm() -> impl Strategy<Value = Rm> {
    prop_oneof![arb_reg().prop_map(Rm::Reg), arb_mem().prop_map(Rm::Mem)]
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        arb_reg().prop_map(Inst::Push),
        arb_reg().prop_map(Inst::Pop),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| Inst::MovRR { dst, src }),
        (arb_reg(), any::<i64>()).prop_map(|(dst, imm)| Inst::MovRI { dst, imm }),
        (arb_reg(), arb_mem()).prop_map(|(dst, mem)| Inst::Load { dst, mem }),
        (arb_mem(), arb_reg()).prop_map(|(mem, src)| Inst::Store { mem, src }),
        (arb_reg(), arb_mem()).prop_map(|(dst, mem)| Inst::Lea { dst, mem }),
        (arb_alu_op(), arb_reg(), arb_reg()).prop_map(|(op, dst, src)| Inst::Alu { op, dst, src }),
        (arb_alu_op(), arb_reg(), any::<i32>()).prop_map(|(op, dst, imm)| Inst::AluI {
            op,
            dst,
            imm
        }),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Inst::Test { a, b }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| Inst::Imul { dst, src }),
        (arb_shift_op(), arb_reg(), 0u8..64).prop_map(|(op, dst, amount)| Inst::Shift {
            op,
            dst,
            amount
        }),
        (arb_cond(), arb_reg()).prop_map(|(cond, dst)| Inst::Setcc { cond, dst }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| Inst::Movzx8 { dst, src }),
        (arb_cond(), arb_near_target()).prop_map(|(cond, target)| Inst::Jcc {
            cond,
            target,
            width: JumpWidth::Short
        }),
        (arb_cond(), arb_far_target()).prop_map(|(cond, target)| Inst::Jcc {
            cond,
            target,
            width: JumpWidth::Near
        }),
        arb_near_target().prop_map(|target| Inst::Jmp {
            target,
            width: JumpWidth::Short
        }),
        arb_far_target().prop_map(|target| Inst::Jmp {
            target,
            width: JumpWidth::Near
        }),
        arb_rm().prop_map(|rm| Inst::JmpInd { rm }),
        arb_far_target().prop_map(|target| Inst::Call { target }),
        arb_rm().prop_map(|rm| Inst::CallInd { rm }),
        Just(Inst::Ret),
        Just(Inst::RepzRet),
        (1u8..=9).prop_map(|len| Inst::Nop { len }),
        Just(Inst::Ud2),
        Just(Inst::Syscall),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// encode -> decode -> encode is byte-identical, and lengths agree.
    #[test]
    fn encode_decode_encode_is_identity(inst in arb_inst()) {
        let enc = encode_at(&inst, BASE).expect("arbitrary subset insts encode");
        prop_assert!(enc.fixup.is_none());
        prop_assert_eq!(encoded_len(&inst), enc.bytes.len());
        // The bytes are held inline; the encoder panics rather than
        // truncate, so reaching here means the instruction fit.
        prop_assert!(enc.bytes.len() <= MAX_INST_LEN);

        let dec = decode(&enc.bytes, BASE).expect("own encodings decode");
        prop_assert_eq!(dec.len as usize, enc.bytes.len());

        let re = encode_at(&dec.inst, BASE).expect("decoded insts re-encode");
        prop_assert_eq!(re.bytes, enc.bytes);
    }

    /// Decoding is length-exact: feeding extra trailing bytes never changes
    /// the decoded instruction.
    #[test]
    fn trailing_bytes_do_not_change_decode(inst in arb_inst(), junk in proptest::collection::vec(any::<u8>(), 0..8)) {
        let enc = encode_at(&inst, BASE).unwrap();
        let mut padded = enc.bytes.to_vec();
        padded.extend(junk);
        let d1 = decode(&enc.bytes, BASE).unwrap();
        let d2 = decode(&padded, BASE).unwrap();
        prop_assert_eq!(d1, d2);
    }

    /// Truncating an instruction never decodes successfully to its own
    /// length (prefix-freedom within one instruction).
    #[test]
    fn truncation_is_detected_or_shorter(inst in arb_inst()) {
        let enc = encode_at(&inst, BASE).unwrap();
        if enc.bytes.len() > 1 {
            let cut = &enc.bytes[..enc.bytes.len() - 1];
            if let Ok(d) = decode(cut, BASE) {
                prop_assert!((d.len as usize) < enc.bytes.len());
            }
        }
    }
}

fn arb_width() -> impl Strategy<Value = JumpWidth> {
    prop_oneof![Just(JumpWidth::Short), Just(JumpWidth::Near)]
}

/// A label, or an address within short reach of `BASE`.
fn arb_branch_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        any::<u32>().prop_map(|l| Target::Label(Label(l))),
        arb_near_target(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The emitter sizes relaxable branches with `encoded_len` at both
    /// widths before any label has an address: the length must be the
    /// encoder's, whatever the target, and a label target leaves exactly
    /// one fixup of the width's kind in the last bytes.
    #[test]
    fn branch_lengths_match_the_encoder_at_both_widths(
        cond in arb_cond(),
        target in arb_branch_target(),
        width in arb_width(),
        conditional in any::<bool>(),
    ) {
        let inst = if conditional {
            Inst::Jcc { cond, target, width }
        } else {
            Inst::Jmp { target, width }
        };
        let enc = encode_at(&inst, BASE).expect("short-reach branches encode");
        let len = match (conditional, width) {
            (_, JumpWidth::Short) => 2,
            (true, JumpWidth::Near) => 6,
            (false, JumpWidth::Near) => 5,
        };
        prop_assert_eq!(encoded_len(&inst), len);
        prop_assert_eq!(enc.bytes.len(), len);
        let kind = match width {
            JumpWidth::Short => FixupKind::Rel8,
            JumpWidth::Near => FixupKind::Rel32,
        };
        match target {
            Target::Label(label) => {
                let f = enc.fixup.expect("a label target leaves a fixup");
                prop_assert_eq!((f.kind, f.label), (kind, label));
                prop_assert_eq!(usize::from(f.offset) + kind.width(), len);
            }
            Target::Addr(_) => prop_assert!(enc.fixup.is_none()),
        }
    }
}
