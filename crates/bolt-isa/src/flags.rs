//! The shared flag-effect table: which instructions read, write, or
//! ignore the arithmetic flags, and which formula a writer's flags
//! derive from.
//!
//! Two independent consumers need exactly this information and must
//! never disagree about it:
//!
//! * the uop tier's backward flags-liveness pass (`lower_into` in
//!   `bolt-emu`), which decides which flag writes may be skipped;
//! * the symbolic translation validator (`bolt-emu::symexec`), which
//!   models each writer's flags as a symbolic term of its operands.
//!
//! Hoisting the table here means the ISA's flags semantics live in one
//! documented place; an instruction added with the wrong entry fails
//! both consumers at once instead of drifting silently.

use crate::{AluOp, Inst};

/// Which formula a flag writer's result flags derive from — one variant
/// per `Flags::of_*` helper in the emulator. Two writers with the same
/// class and the same operands produce identical flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlagClass {
    /// `and`/`or`/`xor`/`test`: ZF/SF/PF of the result, CF = OF = 0.
    Logic,
    /// `add`: full add flags of the two operands.
    Add,
    /// `sub`/`cmp`: full subtract flags of the two operands.
    Sub,
    /// `imul`: CF = OF = signed-overflow, ZF/SF/PF of the low result.
    Imul,
    /// Nonzero-count shifts: CF = last bit shifted out, OF = 0, ZF/SF/PF
    /// of the result.
    Shift,
}

/// One instruction's arithmetic-flags behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagEffect {
    /// Whether the instruction consumes the current flags (`jcc`,
    /// `setcc`).
    pub reads: bool,
    /// Whether — and how — the instruction replaces the flags. `None`
    /// for non-writers, including shifts whose masked count is zero:
    /// x86 leaves the flags untouched when `amount & 63 == 0`, so such
    /// a shift is architecturally not a flags writer at all.
    pub writes: Option<FlagClass>,
}

impl FlagEffect {
    const NONE: FlagEffect = FlagEffect {
        reads: false,
        writes: None,
    };

    fn writes(class: FlagClass) -> FlagEffect {
        FlagEffect {
            reads: false,
            writes: Some(class),
        }
    }

    const READS: FlagEffect = FlagEffect {
        reads: true,
        writes: None,
    };
}

/// The flag effect of one decoded instruction.
///
/// No instruction in this ISA both reads and writes the flags — the
/// liveness passes in `bolt-emu` rely on that, and the exhaustive match
/// here is where the invariant is enforced.
pub fn flag_effect(inst: &Inst) -> FlagEffect {
    match inst {
        Inst::Alu { op, .. } | Inst::AluI { op, .. } => FlagEffect::writes(match op {
            AluOp::Add => FlagClass::Add,
            AluOp::Sub | AluOp::Cmp => FlagClass::Sub,
            AluOp::And | AluOp::Or | AluOp::Xor => FlagClass::Logic,
        }),
        Inst::Test { .. } => FlagEffect::writes(FlagClass::Logic),
        Inst::Imul { .. } => FlagEffect::writes(FlagClass::Imul),
        Inst::Shift { amount, .. } => {
            if amount & 63 == 0 {
                FlagEffect::NONE
            } else {
                FlagEffect::writes(FlagClass::Shift)
            }
        }
        Inst::Jcc { .. } | Inst::Setcc { .. } => FlagEffect::READS,
        Inst::Push(_)
        | Inst::Pop(_)
        | Inst::MovRR { .. }
        | Inst::MovRI { .. }
        | Inst::MovRSym { .. }
        | Inst::Load { .. }
        | Inst::Store { .. }
        | Inst::Lea { .. }
        | Inst::Movzx8 { .. }
        | Inst::Jmp { .. }
        | Inst::JmpInd { .. }
        | Inst::Call { .. }
        | Inst::CallInd { .. }
        | Inst::Ret
        | Inst::RepzRet
        | Inst::Nop { .. }
        | Inst::Ud2
        | Inst::Syscall => FlagEffect::NONE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, Reg, ShiftOp, Target};

    #[test]
    fn classes_match_formulas() {
        let cmp = Inst::AluI {
            op: AluOp::Cmp,
            dst: Reg::Rax,
            imm: 4,
        };
        assert_eq!(flag_effect(&cmp).writes, Some(FlagClass::Sub));
        assert!(!flag_effect(&cmp).reads);
        let test = Inst::Test {
            a: Reg::Rax,
            b: Reg::Rax,
        };
        assert_eq!(flag_effect(&test).writes, Some(FlagClass::Logic));
        let imul = Inst::Imul {
            dst: Reg::Rax,
            src: Reg::Rbx,
        };
        assert_eq!(flag_effect(&imul).writes, Some(FlagClass::Imul));
    }

    #[test]
    fn zero_masked_count_shift_is_not_a_writer() {
        for amount in [0u8, 64] {
            let s = Inst::Shift {
                op: ShiftOp::Shl,
                dst: Reg::Rax,
                amount,
            };
            assert_eq!(flag_effect(&s).writes, None);
        }
        let s = Inst::Shift {
            op: ShiftOp::Sar,
            dst: Reg::Rax,
            amount: 3,
        };
        assert_eq!(flag_effect(&s).writes, Some(FlagClass::Shift));
    }

    #[test]
    fn no_instruction_reads_and_writes() {
        let readers = [
            Inst::Jcc {
                cond: Cond::E,
                target: Target::Addr(0),
                width: Default::default(),
            },
            Inst::Setcc {
                cond: Cond::Ne,
                dst: Reg::Rcx,
            },
        ];
        for r in readers {
            let e = flag_effect(&r);
            assert!(e.reads && e.writes.is_none());
        }
    }
}
