//! Linear disassembler for the x86-64 subset.
//!
//! Decodes exactly the instruction forms [`crate::encode_at`] can produce
//! (the forms our compiler substrate emits), which is the contract a static
//! binary rewriter needs: bytes it cannot decode make the containing
//! function *non-simple* and it is left untouched (paper section 3.1).

use crate::{AluOp, Cond, Inst, JumpWidth, Mem, Reg, Rm, ShiftOp, Target, NOP_SEQUENCES};
use std::fmt;

/// A successfully decoded instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedInst {
    /// The instruction, with branch targets resolved to absolute addresses.
    pub inst: Inst,
    /// Encoded length in bytes.
    pub len: u8,
}

/// Errors produced by the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-instruction.
    Truncated,
    /// The byte sequence is not an instruction in the supported subset.
    Unsupported { opcode: u8, at: u64 },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated instruction"),
            DecodeError::Unsupported { opcode, at } => {
                write!(f, "unsupported opcode {opcode:#04x} at {at:#x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn i8_(&mut self) -> Result<i8, DecodeError> {
        Ok(self.u8()? as i8)
    }

    fn i32_(&mut self) -> Result<i32, DecodeError> {
        let mut buf = [0u8; 4];
        for b in &mut buf {
            *b = self.u8()?;
        }
        Ok(i32::from_le_bytes(buf))
    }

    fn i64_(&mut self) -> Result<i64, DecodeError> {
        let mut buf = [0u8; 8];
        for b in &mut buf {
            *b = self.u8()?;
        }
        Ok(i64::from_le_bytes(buf))
    }
}

#[derive(Clone, Copy, Default)]
struct Rex {
    w: bool,
    r: bool,
    x: bool,
    b: bool,
}

fn reg_of(low3: u8, ext: bool) -> Reg {
    Reg::from_num(low3 | (u8::from(ext) << 3)).expect("4-bit register number")
}

/// The memory operand decoded from ModRM/SIB; RIP-relative displacements are
/// resolved after the full instruction length is known.
enum MemOut {
    Mem(Mem),
    /// RIP-relative: carries the raw disp32; the caller resolves it against
    /// the instruction end address.
    Rip(i32),
}

enum RmOut {
    Reg(Reg),
    Mem(MemOut),
}

fn decode_modrm(c: &mut Cursor<'_>, rex: Rex) -> Result<(u8, RmOut), DecodeError> {
    let modrm = c.u8()?;
    let mode = modrm >> 6;
    let reg_field = (modrm >> 3) & 7;
    let rm = modrm & 7;
    if mode == 0b11 {
        return Ok((reg_field, RmOut::Reg(reg_of(rm, rex.b))));
    }
    if mode == 0b00 && rm == 0b101 {
        // RIP-relative.
        let disp = c.i32_()?;
        return Ok((reg_field, RmOut::Mem(MemOut::Rip(disp))));
    }
    let (base, index_scale) = if rm == 0b100 {
        let sib = c.u8()?;
        let ss = sib >> 6;
        let idx = (sib >> 3) & 7;
        let base = sib & 7;
        let index = if idx == 0b100 && !rex.x {
            None
        } else {
            Some((reg_of(idx, rex.x), 1u8 << ss))
        };
        (reg_of(base, rex.b), index)
    } else {
        (reg_of(rm, rex.b), None)
    };
    let disp = match mode {
        0b00 => 0,
        0b01 => c.i8_()? as i32,
        0b10 => c.i32_()?,
        _ => unreachable!(),
    };
    let mem = match index_scale {
        None => Mem::BaseDisp { base, disp },
        Some((index, scale)) => Mem::BaseIndexScale {
            base,
            index,
            scale,
            disp,
        },
    };
    Ok((reg_field, RmOut::Mem(MemOut::Mem(mem))))
}

fn finish_mem(m: MemOut, inst_end: u64) -> Mem {
    match m {
        MemOut::Mem(m) => m,
        MemOut::Rip(disp) => Mem::RipRel {
            target: Target::Addr(inst_end.wrapping_add(disp as i64 as u64)),
        },
    }
}

/// Decodes one instruction from `bytes`, assumed to start at virtual address
/// `addr`.
///
/// PC-relative targets are resolved to absolute addresses.
///
/// # Errors
///
/// [`DecodeError::Truncated`] if `bytes` ends mid-instruction;
/// [`DecodeError::Unsupported`] for byte sequences outside the subset.
///
/// # Examples
///
/// ```
/// use bolt_isa::{decode, Inst, Reg};
/// let d = decode(&[0x55], 0x400000)?;
/// assert_eq!(d.inst, Inst::Push(Reg::Rbp));
/// assert_eq!(d.len, 1);
/// # Ok::<(), bolt_isa::DecodeError>(())
/// ```
pub fn decode(bytes: &[u8], addr: u64) -> Result<DecodedInst, DecodeError> {
    // Multi-byte NOPs first: they overlap opcode space prefixes (0x66).
    for seq in NOP_SEQUENCES.iter().rev() {
        if bytes.len() >= seq.len() && &bytes[..seq.len()] == *seq {
            return Ok(DecodedInst {
                inst: Inst::Nop {
                    len: seq.len() as u8,
                },
                len: seq.len() as u8,
            });
        }
    }

    let mut c = Cursor { bytes, pos: 0 };
    let mut first = c.u8()?;

    // repz ret
    if first == 0xF3 {
        if c.peek() == Some(0xC3) {
            c.u8()?;
            return Ok(DecodedInst {
                inst: Inst::RepzRet,
                len: 2,
            });
        }
        return Err(DecodeError::Unsupported {
            opcode: 0xF3,
            at: addr,
        });
    }

    let mut rex = Rex::default();
    if (0x40..=0x4F).contains(&first) {
        rex = Rex {
            w: first & 8 != 0,
            r: first & 4 != 0,
            x: first & 2 != 0,
            b: first & 1 != 0,
        };
        first = c.u8()?;
    }

    let unsupported = |opcode: u8| DecodeError::Unsupported { opcode, at: addr };

    let inst = match first {
        0x50..=0x57 => Inst::Push(reg_of(first - 0x50, rex.b)),
        0x58..=0x5F => Inst::Pop(reg_of(first - 0x58, rex.b)),
        0x89 => {
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            let src = reg_of(reg_field, rex.r);
            match rm {
                RmOut::Reg(dst) => Inst::MovRR { dst, src },
                RmOut::Mem(m) => {
                    let end = addr + c.pos as u64;
                    Inst::Store {
                        mem: finish_mem(m, end),
                        src,
                    }
                }
            }
        }
        0x8B => {
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            let dst = reg_of(reg_field, rex.r);
            match rm {
                RmOut::Reg(src) => Inst::MovRR { dst, src },
                RmOut::Mem(m) => {
                    let end = addr + c.pos as u64;
                    Inst::Load {
                        dst,
                        mem: finish_mem(m, end),
                    }
                }
            }
        }
        0x8D => {
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            let dst = reg_of(reg_field, rex.r);
            match rm {
                RmOut::Reg(_) => return Err(unsupported(0x8D)),
                RmOut::Mem(m) => {
                    let end = addr + c.pos as u64;
                    Inst::Lea {
                        dst,
                        mem: finish_mem(m, end),
                    }
                }
            }
        }
        0xC7 => {
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            if reg_field != 0 {
                return Err(unsupported(0xC7));
            }
            match rm {
                RmOut::Reg(dst) => Inst::MovRI {
                    dst,
                    imm: c.i32_()? as i64,
                },
                RmOut::Mem(_) => return Err(unsupported(0xC7)),
            }
        }
        0xB8..=0xBF if rex.w => {
            let dst = reg_of(first - 0xB8, rex.b);
            Inst::MovRI {
                dst,
                imm: c.i64_()?,
            }
        }
        0x01 | 0x09 | 0x21 | 0x29 | 0x31 | 0x39 => {
            let op = crate::encode::alu_from_mr_opcode(first).expect("checked opcode");
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            let src = reg_of(reg_field, rex.r);
            match rm {
                RmOut::Reg(dst) => Inst::Alu { op, dst, src },
                RmOut::Mem(_) => return Err(unsupported(first)),
            }
        }
        0x83 | 0x81 => {
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            let op = AluOp::from_ext_digit(reg_field).ok_or(unsupported(first))?;
            let dst = match rm {
                RmOut::Reg(r) => r,
                RmOut::Mem(_) => return Err(unsupported(first)),
            };
            let imm = if first == 0x83 {
                c.i8_()? as i32
            } else {
                c.i32_()?
            };
            Inst::AluI { op, dst, imm }
        }
        0x85 => {
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            let b = reg_of(reg_field, rex.r);
            match rm {
                RmOut::Reg(a) => Inst::Test { a, b },
                RmOut::Mem(_) => return Err(unsupported(first)),
            }
        }
        0xC1 => {
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            let op = ShiftOp::from_ext_digit(reg_field).ok_or(unsupported(first))?;
            let dst = match rm {
                RmOut::Reg(r) => r,
                RmOut::Mem(_) => return Err(unsupported(first)),
            };
            Inst::Shift {
                op,
                dst,
                amount: c.u8()? & 63,
            }
        }
        0x70..=0x7F => {
            let cond = Cond::from_cc(first - 0x70).expect("4-bit cc");
            let rel = c.i8_()? as i64;
            let end = addr + c.pos as u64;
            Inst::Jcc {
                cond,
                target: Target::Addr(end.wrapping_add(rel as u64)),
                width: JumpWidth::Short,
            }
        }
        0xEB => {
            let rel = c.i8_()? as i64;
            let end = addr + c.pos as u64;
            Inst::Jmp {
                target: Target::Addr(end.wrapping_add(rel as u64)),
                width: JumpWidth::Short,
            }
        }
        0xE9 => {
            let rel = c.i32_()? as i64;
            let end = addr + c.pos as u64;
            Inst::Jmp {
                target: Target::Addr(end.wrapping_add(rel as u64)),
                width: JumpWidth::Near,
            }
        }
        0xE8 => {
            let rel = c.i32_()? as i64;
            let end = addr + c.pos as u64;
            Inst::Call {
                target: Target::Addr(end.wrapping_add(rel as u64)),
            }
        }
        0xFF => {
            let (reg_field, rm) = decode_modrm(&mut c, rex)?;
            let end_for_mem = addr + c.pos as u64;
            let rm = match rm {
                RmOut::Reg(r) => Rm::Reg(r),
                RmOut::Mem(m) => Rm::Mem(finish_mem(m, end_for_mem)),
            };
            match reg_field {
                2 => Inst::CallInd { rm },
                4 => Inst::JmpInd { rm },
                _ => return Err(unsupported(0xFF)),
            }
        }
        0xC3 => Inst::Ret,
        0x0F => {
            let second = c.u8()?;
            match second {
                0x05 => Inst::Syscall,
                0x0B => Inst::Ud2,
                0xAF => {
                    let (reg_field, rm) = decode_modrm(&mut c, rex)?;
                    let dst = reg_of(reg_field, rex.r);
                    match rm {
                        RmOut::Reg(src) => Inst::Imul { dst, src },
                        RmOut::Mem(_) => return Err(unsupported(second)),
                    }
                }
                0xB6 => {
                    let (reg_field, rm) = decode_modrm(&mut c, rex)?;
                    let dst = reg_of(reg_field, rex.r);
                    match rm {
                        RmOut::Reg(src) => Inst::Movzx8 { dst, src },
                        RmOut::Mem(_) => return Err(unsupported(second)),
                    }
                }
                0x80..=0x8F => {
                    let cond = Cond::from_cc(second - 0x80).expect("4-bit cc");
                    let rel = c.i32_()? as i64;
                    let end = addr + c.pos as u64;
                    Inst::Jcc {
                        cond,
                        target: Target::Addr(end.wrapping_add(rel as u64)),
                        width: JumpWidth::Near,
                    }
                }
                0x90..=0x9F => {
                    let cond = Cond::from_cc(second - 0x90).expect("4-bit cc");
                    let (reg_field, rm) = decode_modrm(&mut c, rex)?;
                    if reg_field != 0 {
                        return Err(unsupported(second));
                    }
                    match rm {
                        RmOut::Reg(dst) => Inst::Setcc { cond, dst },
                        RmOut::Mem(_) => return Err(unsupported(second)),
                    }
                }
                other => return Err(unsupported(other)),
            }
        }
        other => return Err(unsupported(other)),
    };

    Ok(DecodedInst {
        inst,
        len: c.pos as u8,
    })
}

/// Decodes a contiguous byte range into instructions, returning the list of
/// `(offset, DecodedInst)` pairs.
///
/// Stops at the first undecodable byte and reports it; the caller decides
/// whether that makes the enclosing function non-simple.
///
/// # Errors
///
/// Returns the offset at which decoding failed along with the error.
pub fn decode_all(bytes: &[u8], base: u64) -> Result<Vec<(u64, DecodedInst)>, (u64, DecodeError)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let addr = base + off as u64;
        match decode(&bytes[off..], addr) {
            Ok(d) => {
                let l = d.len as usize;
                out.push((off as u64, d));
                off += l;
            }
            Err(e) => return Err((off as u64, e)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_at, Label};

    fn round_trip(inst: Inst, addr: u64) {
        let enc = encode_at(&inst, addr).unwrap();
        assert!(enc.fixup.is_none(), "unresolved fixup in {inst}");
        let dec = decode(&enc.bytes, addr).unwrap_or_else(|e| panic!("decode {inst}: {e}"));
        assert_eq!(dec.len as usize, enc.bytes.len(), "length of {inst}");
        let re = encode_at(&dec.inst, addr).unwrap();
        assert_eq!(
            re.bytes, enc.bytes,
            "re-encode of {inst} (decoded {})",
            dec.inst
        );
    }

    #[test]
    fn round_trips_representative_set() {
        use crate::{AluOp, Cond, ShiftOp};
        let a = 0x400123u64;
        let cases = vec![
            Inst::Push(Reg::Rbp),
            Inst::Push(Reg::R15),
            Inst::Pop(Reg::Rax),
            Inst::MovRR {
                dst: Reg::R9,
                src: Reg::Rdi,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: -100,
            },
            Inst::MovRI {
                dst: Reg::R12,
                imm: 0x7fff_ffff_ffff,
            },
            Inst::Load {
                dst: Reg::Rcx,
                mem: Mem::base(Reg::Rbp, -24),
            },
            Inst::Store {
                mem: Mem::base(Reg::Rsp, 1024),
                src: Reg::R8,
            },
            Inst::Lea {
                dst: Reg::Rdx,
                mem: Mem::BaseIndexScale {
                    base: Reg::Rbx,
                    index: Reg::Rsi,
                    scale: 2,
                    disp: -7,
                },
            },
            Inst::Load {
                dst: Reg::Rax,
                mem: Mem::rip(Target::Addr(0x400200)),
            },
            Inst::Alu {
                op: AluOp::Xor,
                dst: Reg::Rax,
                src: Reg::Rax,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rdi,
                imm: 1000,
            },
            Inst::Test {
                a: Reg::Rax,
                b: Reg::Rax,
            },
            Inst::Imul {
                dst: Reg::Rbx,
                src: Reg::R14,
            },
            Inst::Shift {
                op: ShiftOp::Sar,
                dst: Reg::Rax,
                amount: 13,
            },
            Inst::Setcc {
                cond: Cond::Le,
                dst: Reg::Rsi,
            },
            Inst::Movzx8 {
                dst: Reg::Rsi,
                src: Reg::Rsi,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Addr(a + 40),
                width: JumpWidth::Short,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Addr(a.wrapping_sub(0x2000)),
                width: JumpWidth::Near,
            },
            Inst::Jmp {
                target: Target::Addr(a + 2),
                width: JumpWidth::Short,
            },
            Inst::Jmp {
                target: Target::Addr(a + 0x10000),
                width: JumpWidth::Near,
            },
            Inst::JmpInd {
                rm: Rm::Reg(Reg::Rax),
            },
            Inst::JmpInd {
                rm: Rm::Mem(Mem::BaseIndexScale {
                    base: Reg::R11,
                    index: Reg::R10,
                    scale: 8,
                    disp: 0,
                }),
            },
            Inst::Call {
                target: Target::Addr(0x401000),
            },
            Inst::CallInd {
                rm: Rm::Mem(Mem::rip(Target::Addr(0x600000))),
            },
            Inst::Ret,
            Inst::RepzRet,
            Inst::Ud2,
            Inst::Syscall,
        ];
        for c in cases {
            round_trip(c, a);
        }
        for n in 1..=9 {
            round_trip(Inst::Nop { len: n }, a);
        }
    }

    #[test]
    fn branch_target_resolution() {
        // E9 rel32 at addr: target = addr + 5 + rel.
        let enc = encode_at(
            &Inst::Jmp {
                target: Target::Addr(0x400100),
                width: JumpWidth::Near,
            },
            0x400000,
        )
        .unwrap();
        let dec = decode(&enc.bytes, 0x400000).unwrap();
        assert_eq!(
            dec.inst.target(),
            Some(Target::Addr(0x400100)),
            "decoded target must be absolute"
        );
    }

    #[test]
    fn unsupported_bytes_are_rejected() {
        assert!(matches!(
            decode(&[0x06], 0),
            Err(DecodeError::Unsupported { .. })
        ));
        assert!(matches!(decode(&[], 0), Err(DecodeError::Truncated)));
        assert!(matches!(decode(&[0x48], 0), Err(DecodeError::Truncated)));
    }

    #[test]
    fn decode_all_walks_a_sequence() {
        let insts = [
            Inst::Push(Reg::Rbp),
            Inst::MovRR {
                dst: Reg::Rbp,
                src: Reg::Rsp,
            },
            Inst::Pop(Reg::Rbp),
            Inst::Ret,
        ];
        let mut bytes = Vec::new();
        for i in &insts {
            bytes.extend(encode_at(i, 0).unwrap().bytes);
        }
        let decoded = decode_all(&bytes, 0x1000).unwrap();
        assert_eq!(decoded.len(), insts.len());
        for ((_, d), i) in decoded.iter().zip(insts.iter()) {
            assert_eq!(&d.inst, i);
        }
    }

    #[test]
    fn labels_cannot_round_trip_without_resolution() {
        let enc = encode_at(
            &Inst::Call {
                target: Target::Label(Label(1)),
            },
            0,
        )
        .unwrap();
        // Placeholder zeros decode to *some* address; that's fine — the
        // rewriter only decodes fully linked code.
        let dec = decode(&enc.bytes, 0x400000).unwrap();
        assert_eq!(dec.inst.target(), Some(Target::Addr(0x400005)));
    }
}
