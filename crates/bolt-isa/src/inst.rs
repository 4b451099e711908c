//! The machine instruction model (the `MCInst` analogue).

use crate::{Cond, Mem, Reg, Target};
use std::fmt;

/// Integer ALU operations available in register-register and
/// register-immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Or,
    And,
    Sub,
    Xor,
    /// Compare: computes flags of `dst - src` without writing `dst`.
    Cmp,
}

impl AluOp {
    /// The `/n` opcode-extension digit used by the `0x83`/`0x81` immediate
    /// forms.
    pub fn ext_digit(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Or => 1,
            AluOp::And => 4,
            AluOp::Sub => 5,
            AluOp::Xor => 6,
            AluOp::Cmp => 7,
        }
    }

    /// Reconstructs the operation from the `/n` digit.
    pub fn from_ext_digit(d: u8) -> Option<AluOp> {
        Some(match d {
            0 => AluOp::Add,
            1 => AluOp::Or,
            4 => AluOp::And,
            5 => AluOp::Sub,
            6 => AluOp::Xor,
            7 => AluOp::Cmp,
            _ => return None,
        })
    }

    /// The primary opcode of the `r/m64, r64` (MR) register form.
    pub fn mr_opcode(self) -> u8 {
        match self {
            AluOp::Add => 0x01,
            AluOp::Or => 0x09,
            AluOp::And => 0x21,
            AluOp::Sub => 0x29,
            AluOp::Xor => 0x31,
            AluOp::Cmp => 0x39,
        }
    }

    /// Whether the operation writes its destination register.
    pub fn writes_dst(self) -> bool {
        !matches!(self, AluOp::Cmp)
    }

    /// The AT&T mnemonic (with `q` suffix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "addq",
            AluOp::Or => "orq",
            AluOp::And => "andq",
            AluOp::Sub => "subq",
            AluOp::Xor => "xorq",
            AluOp::Cmp => "cmpq",
        }
    }
}

/// Shift operations (`C1 /n` immediate forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
}

impl ShiftOp {
    /// The `/n` opcode-extension digit.
    pub fn ext_digit(self) -> u8 {
        match self {
            ShiftOp::Shl => 4,
            ShiftOp::Shr => 5,
            ShiftOp::Sar => 7,
        }
    }

    /// Reconstructs the operation from the `/n` digit.
    pub fn from_ext_digit(d: u8) -> Option<ShiftOp> {
        Some(match d {
            4 => ShiftOp::Shl,
            5 => ShiftOp::Shr,
            7 => ShiftOp::Sar,
            _ => return None,
        })
    }

    /// The AT&T mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shl => "shlq",
            ShiftOp::Shr => "shrq",
            ShiftOp::Sar => "sarq",
        }
    }
}

/// Register-or-memory operand for indirect calls and jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rm {
    Reg(Reg),
    Mem(Mem),
}

impl fmt::Display for Rm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rm::Reg(r) => write!(f, "*{r}"),
            Rm::Mem(m) => write!(f, "*{m}"),
        }
    }
}

/// Encoded width selection for PC-relative branches.
///
/// x86-64 conditional branches occupy 2 bytes with a signed 8-bit offset and
/// 6 bytes with a 32-bit offset (unconditional: 2 vs 5). The choice is made
/// by branch relaxation in the emitter; `decode` reports the width that was
/// actually present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JumpWidth {
    /// 8-bit displacement.
    Short,
    /// 32-bit displacement.
    #[default]
    Near,
}

/// A machine instruction in the supported x86-64 subset.
///
/// This is the unit the disassembler produces and the encoder consumes; the
/// binary-IR layer (`bolt-ir`) wraps it with annotations the same way BOLT
/// wraps LLVM's `MCInst`.
///
/// # Examples
///
/// ```
/// use bolt_isa::{Inst, Reg, encode_at};
/// let inst = Inst::MovRR { dst: Reg::Rbp, src: Reg::Rsp };
/// let enc = encode_at(&inst, 0x400000).unwrap();
/// assert_eq!(enc.bytes, [0x48, 0x89, 0xe5]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `pushq %reg`
    Push(Reg),
    /// `popq %reg`
    Pop(Reg),
    /// `movq %src, %dst`
    MovRR { dst: Reg, src: Reg },
    /// `movq $imm, %dst` (sign-extended 32-bit form or `movabs`).
    MovRI { dst: Reg, imm: i64 },
    /// `movabs $target, %dst` — materializes the absolute address of a
    /// symbol (e.g. a jump-table base).
    MovRSym { dst: Reg, target: Target },
    /// `movq mem, %dst`
    Load { dst: Reg, mem: Mem },
    /// `movq %src, mem`
    Store { mem: Mem, src: Reg },
    /// `leaq mem, %dst`
    Lea { dst: Reg, mem: Mem },
    /// ALU register-register: `op %src, %dst`.
    Alu { op: AluOp, dst: Reg, src: Reg },
    /// ALU register-immediate: `op $imm, %dst`.
    AluI { op: AluOp, dst: Reg, imm: i32 },
    /// `testq %b, %a`
    Test { a: Reg, b: Reg },
    /// `imulq %src, %dst`
    Imul { dst: Reg, src: Reg },
    /// Shift by immediate: `op $amount, %dst`.
    Shift { op: ShiftOp, dst: Reg, amount: u8 },
    /// `set<cc> %dst8` — writes 0/1 to the low byte of `dst`.
    Setcc { cond: Cond, dst: Reg },
    /// `movzbq %src8, %dst`
    Movzx8 { dst: Reg, src: Reg },
    /// Conditional branch.
    Jcc {
        cond: Cond,
        target: Target,
        width: JumpWidth,
    },
    /// Unconditional direct branch.
    Jmp { target: Target, width: JumpWidth },
    /// Indirect branch (`jmpq *%r` / `jmpq *mem`) — used for jump tables
    /// and PLT stubs.
    JmpInd { rm: Rm },
    /// Direct call (`callq target`, rel32).
    Call { target: Target },
    /// Indirect call (`callq *%r` / `callq *mem`).
    CallInd { rm: Rm },
    /// `retq`
    Ret,
    /// `repz retq` — the legacy-AMD form stripped by the `strip-rep-ret`
    /// pass (Table 1, pass 1).
    RepzRet,
    /// A canonical NOP of `len` bytes (1..=9).
    Nop { len: u8 },
    /// `ud2` — trap.
    Ud2,
    /// `syscall`
    Syscall,
}

impl Inst {
    /// Whether this instruction terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jcc { .. }
                | Inst::Jmp { .. }
                | Inst::JmpInd { .. }
                | Inst::Ret
                | Inst::RepzRet
                | Inst::Ud2
        )
    }

    /// Whether this is any kind of branch (conditional, unconditional or
    /// indirect), excluding calls and returns.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::Jcc { .. } | Inst::Jmp { .. } | Inst::JmpInd { .. }
        )
    }

    /// Whether this is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Jcc { .. })
    }

    /// Whether this is an unconditional direct branch.
    pub fn is_uncond_branch(&self) -> bool {
        matches!(self, Inst::Jmp { .. })
    }

    /// Whether this is a direct or indirect call.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. } | Inst::CallInd { .. })
    }

    /// Whether this is a return.
    pub fn is_return(&self) -> bool {
        matches!(self, Inst::Ret | Inst::RepzRet)
    }

    /// The direct control-flow target, if any.
    pub fn target(&self) -> Option<Target> {
        match self {
            Inst::Jcc { target, .. } | Inst::Jmp { target, .. } | Inst::Call { target } => {
                Some(*target)
            }
            _ => None,
        }
    }

    /// Replaces the direct control-flow target.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has no direct target.
    pub fn set_target(&mut self, t: Target) {
        match self {
            Inst::Jcc { target, .. } | Inst::Jmp { target, .. } | Inst::Call { target } => {
                *target = t;
            }
            _ => panic!("set_target on non-branch instruction {self}"),
        }
    }

    /// Registers read by this instruction (conservative, excludes implicit
    /// stack-pointer reads of push/pop/call/ret which are tracked by frame
    /// analyses separately).
    pub fn regs_read(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        match self {
            Inst::Push(r) => out.push(*r),
            Inst::Pop(_) => {}
            Inst::MovRR { src, .. } => out.push(*src),
            Inst::MovRI { .. } | Inst::MovRSym { .. } => {}
            Inst::Load { mem, .. } => out.extend(mem.regs_used()),
            Inst::Store { mem, src } => {
                out.push(*src);
                out.extend(mem.regs_used());
            }
            Inst::Lea { mem, .. } => out.extend(mem.regs_used()),
            Inst::Alu { op, dst, src } => {
                out.push(*src);
                // add/sub/etc. read the destination too; cmp reads both.
                let _ = op;
                out.push(*dst);
            }
            Inst::AluI { dst, .. } => out.push(*dst),
            Inst::Test { a, b } => {
                out.push(*a);
                out.push(*b);
            }
            Inst::Imul { dst, src } => {
                out.push(*dst);
                out.push(*src);
            }
            Inst::Shift { dst, .. } => out.push(*dst),
            Inst::Setcc { .. } => {}
            Inst::Movzx8 { src, .. } => out.push(*src),
            Inst::Jcc { .. } | Inst::Jmp { .. } => {}
            Inst::JmpInd { rm } | Inst::CallInd { rm } => match rm {
                Rm::Reg(r) => out.push(*r),
                Rm::Mem(m) => out.extend(m.regs_used()),
            },
            Inst::Call { .. } => {}
            Inst::Ret | Inst::RepzRet | Inst::Nop { .. } | Inst::Ud2 | Inst::Syscall => {}
        }
        out
    }

    /// Registers written by this instruction (excluding implicit
    /// stack-pointer updates and call-clobbered sets).
    pub fn regs_written(&self) -> Vec<Reg> {
        match self {
            Inst::Pop(r) => vec![*r],
            Inst::MovRR { dst, .. }
            | Inst::MovRI { dst, .. }
            | Inst::MovRSym { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Lea { dst, .. }
            | Inst::Imul { dst, .. }
            | Inst::Movzx8 { dst, .. }
            | Inst::Setcc { dst, .. }
            | Inst::Shift { dst, .. } => vec![*dst],
            Inst::Alu { op, dst, .. } | Inst::AluI { op, dst, .. } => {
                if op.writes_dst() {
                    vec![*dst]
                } else {
                    vec![]
                }
            }
            _ => vec![],
        }
    }

    /// Whether the instruction sets the arithmetic flags. Delegates to
    /// the shared flag-effect table ([`crate::flag_effect`]); note that
    /// a shift whose masked count is zero leaves the flags untouched
    /// and reports `false`.
    pub fn writes_flags(&self) -> bool {
        crate::flags::flag_effect(self).writes.is_some()
    }

    /// Whether the instruction reads the arithmetic flags (also via the
    /// shared flag-effect table).
    pub fn reads_flags(&self) -> bool {
        crate::flags::flag_effect(self).reads
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Push(r) => write!(f, "pushq {r}"),
            Inst::Pop(r) => write!(f, "popq {r}"),
            Inst::MovRR { dst, src } => write!(f, "movq {src}, {dst}"),
            Inst::MovRI { dst, imm } => {
                write!(f, "movq ${}, {dst}", crate::mem::signed_hex(*imm))
            }
            Inst::MovRSym { dst, target } => write!(f, "movabsq ${target}, {dst}"),
            Inst::Load { dst, mem } => write!(f, "movq {mem}, {dst}"),
            Inst::Store { mem, src } => write!(f, "movq {src}, {mem}"),
            Inst::Lea { dst, mem } => write!(f, "leaq {mem}, {dst}"),
            Inst::Alu { op, dst, src } => write!(f, "{} {src}, {dst}", op.mnemonic()),
            Inst::AluI { op, dst, imm } => write!(
                f,
                "{} ${}, {dst}",
                op.mnemonic(),
                crate::mem::signed_hex(*imm as i64)
            ),
            Inst::Test { a, b } => write!(f, "testq {b}, {a}"),
            Inst::Imul { dst, src } => write!(f, "imulq {src}, {dst}"),
            Inst::Shift { op, dst, amount } => write!(f, "{} ${amount}, {dst}", op.mnemonic()),
            Inst::Setcc { cond, dst } => write!(f, "set{cond} %{}", dst.name8()),
            Inst::Movzx8 { dst, src } => write!(f, "movzbq %{}, {dst}", src.name8()),
            Inst::Jcc { cond, target, .. } => write!(f, "j{cond} {target}"),
            Inst::Jmp { target, .. } => write!(f, "jmp {target}"),
            Inst::JmpInd { rm } => write!(f, "jmpq {rm}"),
            Inst::Call { target } => write!(f, "callq {target}"),
            Inst::CallInd { rm } => write!(f, "callq {rm}"),
            Inst::Ret => write!(f, "retq"),
            Inst::RepzRet => write!(f, "repz retq"),
            Inst::Nop { len } => write!(f, "nop{len}"),
            Inst::Ud2 => write!(f, "ud2"),
            Inst::Syscall => write!(f, "syscall"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Label;

    #[test]
    fn classification() {
        let j = Inst::Jcc {
            cond: Cond::E,
            target: Target::Label(Label(1)),
            width: JumpWidth::Near,
        };
        assert!(j.is_terminator() && j.is_branch() && j.is_cond_branch());
        assert!(!j.is_call());
        assert!(Inst::Ret.is_terminator() && Inst::Ret.is_return());
        assert!(Inst::Call {
            target: Target::Addr(0)
        }
        .is_call());
        assert!(!Inst::Call {
            target: Target::Addr(0)
        }
        .is_terminator());
        assert!(Inst::JmpInd {
            rm: Rm::Reg(Reg::Rax)
        }
        .is_terminator());
    }

    #[test]
    fn target_rewriting() {
        let mut j = Inst::Jmp {
            target: Target::Label(Label(1)),
            width: JumpWidth::Short,
        };
        j.set_target(Target::Addr(0x1234));
        assert_eq!(j.target(), Some(Target::Addr(0x1234)));
    }

    #[test]
    fn def_use_sets() {
        let i = Inst::Alu {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: Reg::Rbx,
        };
        assert_eq!(i.regs_written(), vec![Reg::Rax]);
        assert!(i.regs_read().contains(&Reg::Rbx));
        let c = Inst::AluI {
            op: AluOp::Cmp,
            dst: Reg::Rcx,
            imm: 5,
        };
        assert!(c.regs_written().is_empty());
        assert!(c.writes_flags());
        assert!(Inst::Jcc {
            cond: Cond::L,
            target: Target::Addr(0),
            width: JumpWidth::Near
        }
        .reads_flags());
    }

    #[test]
    fn display_att() {
        assert_eq!(
            Inst::MovRR {
                dst: Reg::Rbp,
                src: Reg::Rsp
            }
            .to_string(),
            "movq %rsp, %rbp"
        );
        assert_eq!(Inst::RepzRet.to_string(), "repz retq");
        assert_eq!(
            Inst::Setcc {
                cond: Cond::L,
                dst: Reg::Rax
            }
            .to_string(),
            "setl %al"
        );
    }
}
