//! Translate-time lowering to pre-resolved micro-ops — the `--engine=uop`
//! tier.
//!
//! The superblock engine eliminated the per-instruction fetch
//! probe and sink call, which left the interpreter's wide `match inst`
//! in `exec_inst` as the dominant cost: every retired instruction
//! re-matches the [`Inst`] enum, re-matches its nested `Mem`/`Target`
//! operand shapes, re-sign-extends immediates, and unconditionally
//! recomputes the full arithmetic flags (including the per-byte parity
//! popcount) whether or not anything ever reads them.
//!
//! This module pays all of that once, at translation time. Each packed
//! block's decoded instructions are lowered to a flat [`MicroOp`] array:
//!
//! * **operands pre-resolved** — register operands become direct
//!   register-file indices (`u8`), immediates and displacements are
//!   sign-extended into one `i64` slot, and rip-relative targets are
//!   already absolute addresses;
//! * **effective-address recipes split per shape** — `base+disp`,
//!   `base+index*scale+disp`, and absolute each get their own opcode, so
//!   the executor never re-matches a `Mem`;
//! * **one dense `#[repr(u8)]` tag per op** — [`UopKind`] is a flat
//!   enum of specialized operations (ALU split by operation *and*
//!   operand form), so the executor's `match` compiles to a dense jump
//!   table instead of the decoder-shaped `Inst` dispatch;
//! * **flags liveness precomputed** — a backward pass over the block
//!   marks each flag-writing op with whether any later op actually
//!   consumes its flags ([`MicroOp::fl`]). Live writers record two or
//!   three operand words of pending state (materialized at the first
//!   consumer through the shared `Flags::of_*` helpers); dead writers
//!   skip flags work entirely. The pass is conservative across block
//!   boundaries: the *last* writer in a block is always live, because a
//!   chained successor block may consume the flags.
//!
//! Everything else — the [`BlockCache`] spanning/chaining machinery, SMC
//! dirty checks, mid-block `MaxSteps` fallback, and the `CaptureSink`
//! event interleave — carries over from the superblock engine unchanged;
//! the uop pool is simply a third per-instruction pool parallel to the
//! decoded `insts`. One thing the lowering buys beyond dispatch: since a
//! block ends only after a control transfer, its micro-ops execute as a
//! *body* of straight-line ops (no exit, no error, no `rip` update per
//! op) followed by one *terminator*.
//!
//! [`BlockCache`]: crate::block::BlockCache
//! [`Inst`]: bolt_isa::Inst

use bolt_isa::{flag_effect, AluOp, Inst, Mem, Rm, ShiftOp, Target};

/// The micro-op operation tag. One dense `#[repr(u8)]` discriminant per
/// specialized operation: ALU ops are split by operation and operand
/// form, memory ops by effective-address shape, so executing a micro-op
/// is a single jump-table dispatch with no nested operand matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum UopKind {
    /// `regs[a] = regs[b]`
    MovRR,
    /// `regs[a] = imm` (also lowers `MovRSym` and absolute `lea`).
    MovRI,
    /// `regs[a] = load(regs[b] + imm)`
    LoadBD,
    /// `regs[a] = load(regs[b] + regs[c]*d + imm)`
    LoadBIS,
    /// `regs[a] = load(imm)` (rip-relative, pre-resolved absolute).
    LoadAbs,
    /// `store(regs[b] + imm) = regs[a]`
    StoreBD,
    /// `store(regs[b] + regs[c]*d + imm) = regs[a]`
    StoreBIS,
    /// `store(imm) = regs[a]`
    StoreAbs,
    /// `regs[a] = regs[b] + imm`
    LeaBD,
    /// `regs[a] = regs[b] + regs[c]*d + imm`
    LeaBIS,
    /// `push regs[a]`
    Push,
    /// `regs[a] = pop`
    Pop,
    /// `regs[a] += regs[b]`
    AddRR,
    /// `regs[a] += imm`
    AddRI,
    /// `regs[a] -= regs[b]`
    SubRR,
    /// `regs[a] -= imm`
    SubRI,
    /// `regs[a] &= regs[b]`
    AndRR,
    /// `regs[a] &= imm`
    AndRI,
    /// `regs[a] |= regs[b]`
    OrRR,
    /// `regs[a] |= imm`
    OrRI,
    /// `regs[a] ^= regs[b]`
    XorRR,
    /// `regs[a] ^= imm`
    XorRI,
    /// flags of `regs[a] - regs[b]`
    CmpRR,
    /// flags of `regs[a] - imm`
    CmpRI,
    /// flags of `regs[a] & regs[b]`
    Test,
    /// `regs[a] = regs[a] * regs[b]` (signed)
    Imul,
    /// `regs[a] <<= c` (`c` in 1..=63)
    Shl,
    /// `regs[a] >>= c` (logical)
    Shr,
    /// `regs[a] >>= c` (arithmetic)
    Sar,
    /// `regs[a].low8 = cond(c)`
    Setcc,
    /// `regs[a] = regs[b] & 0xFF`
    Movzx8,
    /// conditional branch to `imm` on `cond(c)`
    Jcc,
    /// unconditional branch to `imm`
    Jmp,
    /// `jmp regs[b]`
    JmpIndReg,
    /// `jmp load(regs[b] + imm)`
    JmpIndMemBD,
    /// `jmp load(regs[b] + regs[c]*d + imm)`
    JmpIndMemBIS,
    /// `jmp load(imm)`
    JmpIndMemAbs,
    /// direct call to `imm`
    Call,
    /// `call regs[b]`
    CallIndReg,
    /// `call load(regs[b] + imm)`
    CallIndMemBD,
    /// `call load(regs[b] + regs[c]*d + imm)`
    CallIndMemBIS,
    /// `call load(imm)`
    CallIndMemAbs,
    /// return (`ret` / `repz ret`)
    Ret,
    /// no effect (also lowers zero-count shifts, which write neither
    /// their register nor flags)
    Nop,
    /// trap
    Ud2,
    /// syscall
    Syscall,
}

/// One lowered micro-op: 16 bytes, operands pre-resolved. Field meaning
/// is per-[`UopKind`] (documented there); unused fields are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    pub kind: UopKind,
    /// Primary register index (destination, or store/push source).
    pub a: u8,
    /// Secondary register index (source, or EA base).
    pub b: u8,
    /// Index register, condition code, or shift count.
    pub c: u8,
    /// EA scale.
    pub d: u8,
    /// Encoded instruction length (to advance `rip`).
    pub len: u8,
    /// Whether this op's flags write is live (consumed by a later
    /// reader, possibly in a chained successor block). Dead writers
    /// skip flags work entirely.
    pub fl: bool,
    /// Sign-extended immediate / displacement / pre-resolved absolute
    /// address.
    pub imm: i64,
}

impl MicroOp {
    pub(crate) fn nop(len: u8) -> MicroOp {
        MicroOp {
            kind: UopKind::Nop,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            len,
            fl: false,
            imm: 0,
        }
    }
}

/// Splits a `Mem` into its pre-resolved recipe: `(base, index, scale,
/// disp, shape)` where `shape` selects among the caller's three
/// per-shape opcodes `[BD, BIS, Abs]`.
pub(crate) fn lower_mem(mem: &Mem) -> (u8, u8, u8, i64, usize) {
    match mem {
        Mem::BaseDisp { base, disp } => (base.num(), 0, 0, *disp as i64, 0),
        Mem::BaseIndexScale {
            base,
            index,
            scale,
            disp,
        } => (base.num(), index.num(), *scale, *disp as i64, 1),
        Mem::RipRel { target } => match target {
            Target::Addr(a) => (0, 0, 0, *a as i64, 2),
            Target::Label(_) => panic!("unresolved label reached the emulator"),
        },
    }
}

fn target_addr(t: &Target) -> i64 {
    t.addr().expect("decoded branches are resolved") as i64
}

/// Lowers one decoded instruction. `fl` is the precomputed flags
/// liveness for flag-writing instructions (ignored otherwise).
fn lower_inst(inst: &Inst, len: u8, fl: bool) -> MicroOp {
    let mut op = MicroOp::nop(len);
    op.fl = fl;
    match inst {
        Inst::Push(r) => {
            op.kind = UopKind::Push;
            op.a = r.num();
        }
        Inst::Pop(r) => {
            op.kind = UopKind::Pop;
            op.a = r.num();
        }
        Inst::MovRR { dst, src } => {
            op.kind = UopKind::MovRR;
            op.a = dst.num();
            op.b = src.num();
        }
        Inst::MovRI { dst, imm } => {
            op.kind = UopKind::MovRI;
            op.a = dst.num();
            op.imm = *imm;
        }
        Inst::MovRSym { dst, target } => {
            op.kind = UopKind::MovRI;
            op.a = dst.num();
            op.imm = target_addr(target);
        }
        Inst::Load { dst, mem } => {
            let (b, c, d, imm, shape) = lower_mem(mem);
            op.kind = [UopKind::LoadBD, UopKind::LoadBIS, UopKind::LoadAbs][shape];
            op.a = dst.num();
            op.b = b;
            op.c = c;
            op.d = d;
            op.imm = imm;
        }
        Inst::Store { mem, src } => {
            let (b, c, d, imm, shape) = lower_mem(mem);
            op.kind = [UopKind::StoreBD, UopKind::StoreBIS, UopKind::StoreAbs][shape];
            op.a = src.num();
            op.b = b;
            op.c = c;
            op.d = d;
            op.imm = imm;
        }
        Inst::Lea { dst, mem } => {
            let (b, c, d, imm, shape) = lower_mem(mem);
            // An absolute lea is just an immediate move.
            op.kind = [UopKind::LeaBD, UopKind::LeaBIS, UopKind::MovRI][shape];
            op.a = dst.num();
            op.b = b;
            op.c = c;
            op.d = d;
            op.imm = imm;
        }
        Inst::Alu { op: alu, dst, src } => {
            op.kind = match alu {
                AluOp::Add => UopKind::AddRR,
                AluOp::Sub => UopKind::SubRR,
                AluOp::And => UopKind::AndRR,
                AluOp::Or => UopKind::OrRR,
                AluOp::Xor => UopKind::XorRR,
                AluOp::Cmp => UopKind::CmpRR,
            };
            op.a = dst.num();
            op.b = src.num();
        }
        Inst::AluI { op: alu, dst, imm } => {
            op.kind = match alu {
                AluOp::Add => UopKind::AddRI,
                AluOp::Sub => UopKind::SubRI,
                AluOp::And => UopKind::AndRI,
                AluOp::Or => UopKind::OrRI,
                AluOp::Xor => UopKind::XorRI,
                AluOp::Cmp => UopKind::CmpRI,
            };
            op.a = dst.num();
            op.imm = *imm as i64;
        }
        Inst::Test { a, b } => {
            op.kind = UopKind::Test;
            op.a = a.num();
            op.b = b.num();
        }
        Inst::Imul { dst, src } => {
            op.kind = UopKind::Imul;
            op.a = dst.num();
            op.b = src.num();
        }
        Inst::Shift {
            op: shift,
            dst,
            amount,
        } => {
            let c = amount & 63;
            if c == 0 {
                // A zero-count shift writes neither register nor flags:
                // exactly a nop (and, crucially, *not* a flags writer —
                // the liveness pass treats it the same way).
                return MicroOp::nop(len);
            }
            op.kind = match shift {
                ShiftOp::Shl => UopKind::Shl,
                ShiftOp::Shr => UopKind::Shr,
                ShiftOp::Sar => UopKind::Sar,
            };
            op.a = dst.num();
            op.c = c;
        }
        Inst::Setcc { cond, dst } => {
            op.kind = UopKind::Setcc;
            op.a = dst.num();
            op.c = cond.cc();
        }
        Inst::Movzx8 { dst, src } => {
            op.kind = UopKind::Movzx8;
            op.a = dst.num();
            op.b = src.num();
        }
        Inst::Jcc { cond, target, .. } => {
            op.kind = UopKind::Jcc;
            op.c = cond.cc();
            op.imm = target_addr(target);
        }
        Inst::Jmp { target, .. } => {
            op.kind = UopKind::Jmp;
            op.imm = target_addr(target);
        }
        Inst::JmpInd { rm } => match rm {
            Rm::Reg(r) => {
                op.kind = UopKind::JmpIndReg;
                op.b = r.num();
            }
            Rm::Mem(mem) => {
                let (b, c, d, imm, shape) = lower_mem(mem);
                op.kind = [
                    UopKind::JmpIndMemBD,
                    UopKind::JmpIndMemBIS,
                    UopKind::JmpIndMemAbs,
                ][shape];
                op.b = b;
                op.c = c;
                op.d = d;
                op.imm = imm;
            }
        },
        Inst::Call { target } => {
            op.kind = UopKind::Call;
            op.imm = target_addr(target);
        }
        Inst::CallInd { rm } => match rm {
            Rm::Reg(r) => {
                op.kind = UopKind::CallIndReg;
                op.b = r.num();
            }
            Rm::Mem(mem) => {
                let (b, c, d, imm, shape) = lower_mem(mem);
                op.kind = [
                    UopKind::CallIndMemBD,
                    UopKind::CallIndMemBIS,
                    UopKind::CallIndMemAbs,
                ][shape];
                op.b = b;
                op.c = c;
                op.d = d;
                op.imm = imm;
            }
        },
        Inst::Ret | Inst::RepzRet => op.kind = UopKind::Ret,
        Inst::Nop { .. } => {}
        Inst::Ud2 => op.kind = UopKind::Ud2,
        Inst::Syscall => op.kind = UopKind::Syscall,
    }
    op
}

/// Lowers one block's decoded `(inst, len)` entries into `pool`,
/// appending exactly `insts.len()` micro-ops (the pools stay parallel).
///
/// Flags liveness is a single backward pass over the shared
/// [`flag_effect`] table: a flag-writing instruction is live iff some
/// later instruction reads the flags before the next writer — or no
/// writer follows it at all, since a chained successor block may
/// consume flags across the transition (the conservative
/// block-boundary rule). Memory-*writing* instructions are also
/// liveness barriers: a store (or push) can patch cached text, which
/// truncates the block mid-flight and retranslates its tail — and the
/// *patched* tail may read flags the pre-patch instructions never did,
/// so the preceding writer's flags must stay recoverable at every
/// potential truncation point. No instruction in this ISA both reads
/// and writes flags (the table enforces it), so the scan is a simple
/// two-state walk.
pub fn lower_into(pool: &mut Vec<MicroOp>, insts: &[(Inst, u8)]) {
    let start = pool.len();
    for &(inst, len) in insts {
        pool.push(lower_inst(&inst, len, false));
    }
    // Backward liveness: `need` = "are flags live here?" — true at the
    // block's end (successors may read them).
    let mut need = true;
    for (i, (inst, _)) in insts.iter().enumerate().rev() {
        let effect = flag_effect(inst);
        if effect.reads {
            need = true;
        } else if effect.writes.is_some() {
            pool[start + i].fl = need;
            need = false;
        } else if matches!(inst, Inst::Push(_) | Inst::Store { .. }) {
            // Potential self-modifying-text truncation point (see
            // above). Calls push too, but always terminate a block, so
            // the end-of-block rule already covers them.
            need = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_isa::{Cond, JumpWidth, Reg};

    fn lower(insts: &[Inst]) -> Vec<MicroOp> {
        let with_len: Vec<(Inst, u8)> = insts
            .iter()
            .map(|&i| (i, bolt_isa::encoded_len(&i) as u8))
            .collect();
        let mut pool = Vec::new();
        lower_into(&mut pool, &with_len);
        pool
    }

    #[test]
    fn micro_op_stays_small() {
        assert!(
            std::mem::size_of::<MicroOp>() <= 16,
            "MicroOp must stay cache-friendly: {} bytes",
            std::mem::size_of::<MicroOp>()
        );
    }

    #[test]
    fn operands_pre_resolved() {
        let ops = lower(&[
            Inst::Load {
                dst: Reg::Rdx,
                mem: Mem::BaseIndexScale {
                    base: Reg::R10,
                    index: Reg::Rax,
                    scale: 8,
                    disp: -16,
                },
            },
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rcx,
                imm: -1,
            },
        ]);
        assert_eq!(ops[0].kind, UopKind::LoadBIS);
        assert_eq!(
            (ops[0].a, ops[0].b, ops[0].c, ops[0].d, ops[0].imm),
            (Reg::Rdx.num(), Reg::R10.num(), Reg::Rax.num(), 8, -16)
        );
        assert_eq!(ops[1].kind, UopKind::AddRI);
        assert_eq!(ops[1].imm, -1, "immediate sign-extended at lowering");
    }

    #[test]
    fn flags_liveness_marks_consumed_writers_only() {
        // add (dead: overwritten by cmp before any reader), cmp (live:
        // jcc reads), jcc.
        let ops = lower(&[
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rax,
                imm: 4,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Addr(0x400000),
                width: JumpWidth::Near,
            },
        ]);
        assert!(!ops[0].fl, "add's flags die at the cmp");
        assert!(ops[1].fl, "cmp's flags feed the jcc");
    }

    #[test]
    fn last_writer_in_block_is_always_live() {
        // The block's final flags state may be consumed by a chained
        // successor (cross-block setcc/jcc), so the last writer must
        // record flags even with no reader in sight.
        let ops = lower(&[
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::AluI {
                op: AluOp::Sub,
                dst: Reg::Rax,
                imm: 2,
            },
            Inst::Ret,
        ]);
        assert!(!ops[0].fl, "superseded writer dead");
        assert!(ops[1].fl, "block's last writer conservatively live");
    }

    #[test]
    fn zero_count_shift_lowers_to_nop_and_is_not_a_writer() {
        let ops = lower(&[
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rax,
                imm: 0,
            },
            Inst::Shift {
                op: ShiftOp::Shl,
                dst: Reg::Rax,
                amount: 64, // & 63 == 0: architecturally a no-op
            },
            Inst::Setcc {
                cond: Cond::E,
                dst: Reg::Rcx,
            },
        ]);
        assert_eq!(ops[1].kind, UopKind::Nop);
        assert!(
            ops[0].fl,
            "cmp stays live across the no-op shift to the setcc"
        );
    }

    #[test]
    fn stores_are_liveness_barriers() {
        // add, store, cmp, ret: the cmp supersedes the add before any
        // reader, but the store between them can truncate the block
        // (SMC) and hand control to *patched* code that reads flags —
        // the add must stay live.
        let ops = lower(&[
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Store {
                mem: Mem::BaseDisp {
                    base: Reg::R10,
                    disp: 0,
                },
                src: Reg::Rax,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rax,
                imm: 4,
            },
            Inst::Ret,
        ]);
        assert!(ops[0].fl, "writer before a store stays live");
        assert!(ops[2].fl, "last writer live as usual");
    }

    #[test]
    fn setcc_keeps_earlier_writer_live_mid_block() {
        let ops = lower(&[
            Inst::Test {
                a: Reg::Rax,
                b: Reg::Rax,
            },
            Inst::Setcc {
                cond: Cond::Ne,
                dst: Reg::Rcx,
            },
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rcx,
                imm: 7,
            },
            Inst::Ret,
        ]);
        assert!(ops[0].fl, "test feeds the setcc");
        assert!(ops[2].fl, "trailing add is the last writer: live");
    }
}
