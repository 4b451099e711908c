//! Binary encoder for the x86-64 subset.
//!
//! Instructions with symbolic [`Target::Label`] operands encode with
//! placeholder fields plus [`Fixup`] records; resolved [`Target::Addr`]
//! operands are patched immediately using the instruction address given to
//! [`encode_at`].

use crate::{AluOp, Inst, JumpWidth, Label, Mem, Reg, Rm, Target};
use std::fmt;

/// The kind of a relocation-like patch against an encoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixupKind {
    /// Signed 8-bit PC-relative displacement (relative to the end of the
    /// instruction).
    Rel8,
    /// Signed 32-bit PC-relative displacement (relative to the end of the
    /// instruction).
    Rel32,
    /// Absolute 64-bit address.
    Abs64,
}

impl FixupKind {
    /// The width of the patched field in bytes.
    pub fn width(self) -> usize {
        match self {
            FixupKind::Rel8 => 1,
            FixupKind::Rel32 => 4,
            FixupKind::Abs64 => 8,
        }
    }
}

/// A pending patch recorded by the encoder for a symbolic operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixup {
    /// Byte offset of the field within the encoded instruction.
    pub offset: u8,
    /// Field kind/width.
    pub kind: FixupKind,
    /// The label the field refers to.
    pub label: Label,
}

/// The inline capacity of [`InstBytes`]: the architectural limit on an
/// x86-64 instruction's length. The longest form this encoder produces
/// (`movabs $imm64, %reg`) is 10 bytes.
pub const MAX_INST_LEN: usize = 15;

/// The bytes of one encoded instruction, held inline (no heap). Derefs
/// to `[u8]`; iterating it by value yields the bytes.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct InstBytes {
    buf: [u8; MAX_INST_LEN],
    len: u8,
}

impl InstBytes {
    fn put(&mut self, bytes: &[u8]) {
        let at = usize::from(self.len);
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len() as u8;
    }
}

impl std::ops::Deref for InstBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..usize::from(self.len)]
    }
}

impl std::ops::DerefMut for InstBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..usize::from(self.len)]
    }
}

impl fmt::Debug for InstBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl IntoIterator for InstBytes {
    type Item = u8;
    type IntoIter = std::iter::Take<std::array::IntoIter<u8, MAX_INST_LEN>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(usize::from(self.len))
    }
}

impl<const N: usize> PartialEq<[u8; N]> for InstBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == *other
    }
}

/// The result of encoding one instruction: an inline value, so
/// [`encode_at`] never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Encoded {
    /// The instruction bytes (placeholder zeros in an unresolved field).
    pub bytes: InstBytes,
    /// The patch still required against a label. An instruction has at
    /// most one address field (branch/call target, RIP-relative operand
    /// or `movabs` symbol), so at most one fixup.
    pub fixup: Option<Fixup>,
}

/// Errors produced by the encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A short branch displacement did not fit in 8 bits.
    Rel8OutOfRange { from: u64, to: u64 },
    /// A near branch/call displacement did not fit in 32 bits.
    Rel32OutOfRange { from: u64, to: u64 },
    /// Invalid scale in a base+index*scale operand (must be 1, 2, 4, 8).
    BadScale(u8),
    /// `%rsp` cannot be an index register.
    IndexIsRsp,
    /// NOP lengths must be in `1..=9`.
    BadNopLen(u8),
    /// `lea` requires a memory operand shape valid in ModRM.
    InvalidOperand(&'static str),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Rel8OutOfRange { from, to } => {
                write!(f, "rel8 displacement out of range: {from:#x} -> {to:#x}")
            }
            EncodeError::Rel32OutOfRange { from, to } => {
                write!(f, "rel32 displacement out of range: {from:#x} -> {to:#x}")
            }
            EncodeError::BadScale(s) => write!(f, "invalid SIB scale {s}"),
            EncodeError::IndexIsRsp => write!(f, "%rsp cannot be used as an index register"),
            EncodeError::BadNopLen(n) => write!(f, "unsupported nop length {n}"),
            EncodeError::InvalidOperand(what) => write!(f, "invalid operand: {what}"),
        }
    }
}

impl std::error::Error for EncodeError {}

struct Enc {
    bytes: InstBytes,
    // The instruction's one address field, if any: (offset, kind, target).
    pending: Option<(u8, FixupKind, Target)>,
}

impl Enc {
    fn new() -> Self {
        Enc {
            bytes: InstBytes::default(),
            pending: None,
        }
    }

    fn u8(&mut self, b: u8) {
        self.bytes.put(&[b]);
    }

    fn i8_(&mut self, v: i8) {
        self.u8(v as u8);
    }

    fn i32_(&mut self, v: i32) {
        self.bytes.put(&v.to_le_bytes());
    }

    fn i64_(&mut self, v: i64) {
        self.bytes.put(&v.to_le_bytes());
    }

    /// Emits a REX prefix if any bit is set or if `force` is true.
    fn rex(&mut self, w: bool, r: bool, x: bool, b: bool, force: bool) {
        let byte =
            0x40 | (u8::from(w) << 3) | (u8::from(r) << 2) | (u8::from(x) << 1) | u8::from(b);
        if byte != 0x40 || force {
            self.u8(byte);
        }
    }

    fn modrm(&mut self, mode: u8, reg: u8, rm: u8) {
        debug_assert!(mode < 4 && reg < 8 && rm < 8);
        self.u8((mode << 6) | (reg << 3) | rm);
    }

    fn sib(&mut self, scale_bits: u8, index: u8, base: u8) {
        debug_assert!(scale_bits < 4 && index < 8 && base < 8);
        self.u8((scale_bits << 6) | (index << 3) | base);
    }

    fn field(&mut self, kind: FixupKind, target: Target) {
        debug_assert!(self.pending.is_none(), "one address field per instruction");
        self.pending = Some((self.bytes.len() as u8, kind, target));
        for _ in 0..kind.width() {
            self.u8(0);
        }
    }

    /// Emits ModRM (+SIB, +disp) for a memory operand with the given 3-bit
    /// reg field. REX.X/REX.B must already have been emitted via
    /// [`mem_rex_xb`].
    fn mem(&mut self, reg_field: u8, mem: &Mem) -> Result<(), EncodeError> {
        match *mem {
            Mem::RipRel { target } => {
                self.modrm(0b00, reg_field, 0b101);
                self.field(FixupKind::Rel32, target);
                Ok(())
            }
            Mem::BaseDisp { base, disp } => {
                let mode = disp_mode(disp, base);
                self.modrm(mode, reg_field, base.low3());
                if base.low3() == 4 {
                    // rsp/r12 base requires a SIB byte with "no index".
                    self.sib(0, 0b100, base.low3());
                }
                self.disp(mode, disp);
                Ok(())
            }
            Mem::BaseIndexScale {
                base,
                index,
                scale,
                disp,
            } => {
                if index == Reg::Rsp {
                    return Err(EncodeError::IndexIsRsp);
                }
                let ss = match scale {
                    1 => 0,
                    2 => 1,
                    4 => 2,
                    8 => 3,
                    s => return Err(EncodeError::BadScale(s)),
                };
                let mode = disp_mode(disp, base);
                self.modrm(mode, reg_field, 0b100);
                self.sib(ss, index.low3(), base.low3());
                self.disp(mode, disp);
                Ok(())
            }
        }
    }

    fn disp(&mut self, mode: u8, disp: i32) {
        match mode {
            0b00 => {}
            0b01 => self.i8_(disp as i8),
            0b10 => self.i32_(disp),
            _ => unreachable!("register mode has no displacement"),
        }
    }

    fn finish(self, inst_addr: u64) -> Result<Encoded, EncodeError> {
        let mut bytes = self.bytes;
        let len = bytes.len() as u64;
        let fixup = match self.pending {
            None => None,
            Some((offset, kind, Target::Label(label))) => Some(Fixup {
                offset,
                kind,
                label,
            }),
            Some((offset, kind, Target::Addr(to))) => {
                patch(&mut bytes, offset, kind, inst_addr, len, to)?;
                None
            }
        };
        Ok(Encoded { bytes, fixup })
    }
}

/// Chooses the ModRM `mod` field for a displacement and base register.
fn disp_mode(disp: i32, base: Reg) -> u8 {
    // rbp/r13 cannot use mod=00 (that encoding means RIP-relative or
    // base-less); fall back to an explicit zero disp8.
    if disp == 0 && base.low3() != 5 {
        0b00
    } else if i8::try_from(disp).is_ok() {
        0b01
    } else {
        0b10
    }
}

fn mem_rex_xb(mem: &Mem) -> (bool, bool) {
    match mem {
        Mem::RipRel { .. } => (false, false),
        Mem::BaseDisp { base, .. } => (false, base.needs_rex_ext()),
        Mem::BaseIndexScale { base, index, .. } => (index.needs_rex_ext(), base.needs_rex_ext()),
    }
}

fn patch(
    bytes: &mut [u8],
    offset: u8,
    kind: FixupKind,
    inst_addr: u64,
    inst_len: u64,
    to: u64,
) -> Result<(), EncodeError> {
    let off = offset as usize;
    match kind {
        FixupKind::Rel8 => {
            let rel = to.wrapping_sub(inst_addr + inst_len) as i64;
            let v = i8::try_from(rel).map_err(|_| EncodeError::Rel8OutOfRange {
                from: inst_addr,
                to,
            })?;
            bytes[off] = v as u8;
        }
        FixupKind::Rel32 => {
            let rel = to.wrapping_sub(inst_addr + inst_len) as i64;
            let v = i32::try_from(rel).map_err(|_| EncodeError::Rel32OutOfRange {
                from: inst_addr,
                to,
            })?;
            bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
        }
        FixupKind::Abs64 => {
            bytes[off..off + 8].copy_from_slice(&to.to_le_bytes());
        }
    }
    Ok(())
}

/// Patches a previously recorded [`Fixup`] once its label address is known.
///
/// `inst_addr` and `inst_len` describe the placed instruction; `to` is the
/// resolved target address.
///
/// # Errors
///
/// Returns an error if the displacement does not fit the field width.
pub fn apply_fixup(
    bytes: &mut [u8],
    fixup: &Fixup,
    inst_addr: u64,
    inst_len: usize,
    to: u64,
) -> Result<(), EncodeError> {
    patch(
        bytes,
        fixup.offset,
        fixup.kind,
        inst_addr,
        inst_len as u64,
        to,
    )
}

/// Canonical NOP byte sequences of length 1..=9 (Intel SDM recommended
/// forms).
pub const NOP_SEQUENCES: [&[u8]; 9] = [
    &[0x90],
    &[0x66, 0x90],
    &[0x0F, 0x1F, 0x00],
    &[0x0F, 0x1F, 0x40, 0x00],
    &[0x0F, 0x1F, 0x44, 0x00, 0x00],
    &[0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00],
    &[0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00],
    &[0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00],
    &[0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00],
];

/// Encodes `inst` assuming it will be placed at virtual address `addr`.
///
/// Operands that are [`Target::Addr`] are resolved immediately; operands that
/// are [`Target::Label`] produce [`Fixup`]s to be applied by the caller (see
/// [`apply_fixup`]).
///
/// # Errors
///
/// Returns an error for invalid operand combinations or displacements that
/// do not fit the selected branch width.
///
/// # Examples
///
/// ```
/// use bolt_isa::{encode_at, Inst, Reg};
/// let enc = encode_at(&Inst::Push(Reg::Rbp), 0x400000)?;
/// assert_eq!(enc.bytes, [0x55]);
/// # Ok::<(), bolt_isa::EncodeError>(())
/// ```
pub fn encode_at(inst: &Inst, addr: u64) -> Result<Encoded, EncodeError> {
    encode(inst)?.finish(addr)
}

/// Lays out `inst`'s bytes, leaving its address field (if any) zeroed.
fn encode(inst: &Inst) -> Result<Enc, EncodeError> {
    let mut e = Enc::new();
    match *inst {
        Inst::Push(r) => {
            e.rex(false, false, false, r.needs_rex_ext(), false);
            e.u8(0x50 + r.low3());
        }
        Inst::Pop(r) => {
            e.rex(false, false, false, r.needs_rex_ext(), false);
            e.u8(0x58 + r.low3());
        }
        Inst::MovRR { dst, src } => {
            e.rex(true, src.needs_rex_ext(), false, dst.needs_rex_ext(), false);
            e.u8(0x89);
            e.modrm(0b11, src.low3(), dst.low3());
        }
        Inst::MovRI { dst, imm } => {
            if i32::try_from(imm).is_ok() {
                e.rex(true, false, false, dst.needs_rex_ext(), false);
                e.u8(0xC7);
                e.modrm(0b11, 0, dst.low3());
                e.i32_(imm as i32);
            } else {
                e.rex(true, false, false, dst.needs_rex_ext(), false);
                e.u8(0xB8 + dst.low3());
                e.i64_(imm);
            }
        }
        Inst::MovRSym { dst, target } => {
            e.rex(true, false, false, dst.needs_rex_ext(), false);
            e.u8(0xB8 + dst.low3());
            e.field(FixupKind::Abs64, target);
        }
        Inst::Load { dst, mem } => {
            let (x, b) = mem_rex_xb(&mem);
            e.rex(true, dst.needs_rex_ext(), x, b, false);
            e.u8(0x8B);
            e.mem(dst.low3(), &mem)?;
        }
        Inst::Store { mem, src } => {
            let (x, b) = mem_rex_xb(&mem);
            e.rex(true, src.needs_rex_ext(), x, b, false);
            e.u8(0x89);
            e.mem(src.low3(), &mem)?;
        }
        Inst::Lea { dst, mem } => {
            let (x, b) = mem_rex_xb(&mem);
            e.rex(true, dst.needs_rex_ext(), x, b, false);
            e.u8(0x8D);
            e.mem(dst.low3(), &mem)?;
        }
        Inst::Alu { op, dst, src } => {
            e.rex(true, src.needs_rex_ext(), false, dst.needs_rex_ext(), false);
            e.u8(op.mr_opcode());
            e.modrm(0b11, src.low3(), dst.low3());
        }
        Inst::AluI { op, dst, imm } => {
            e.rex(true, false, false, dst.needs_rex_ext(), false);
            if i8::try_from(imm).is_ok() {
                e.u8(0x83);
                e.modrm(0b11, op.ext_digit(), dst.low3());
                e.i8_(imm as i8);
            } else {
                e.u8(0x81);
                e.modrm(0b11, op.ext_digit(), dst.low3());
                e.i32_(imm);
            }
        }
        Inst::Test { a, b } => {
            e.rex(true, b.needs_rex_ext(), false, a.needs_rex_ext(), false);
            e.u8(0x85);
            e.modrm(0b11, b.low3(), a.low3());
        }
        Inst::Imul { dst, src } => {
            e.rex(true, dst.needs_rex_ext(), false, src.needs_rex_ext(), false);
            e.u8(0x0F);
            e.u8(0xAF);
            e.modrm(0b11, dst.low3(), src.low3());
        }
        Inst::Shift { op, dst, amount } => {
            e.rex(true, false, false, dst.needs_rex_ext(), false);
            e.u8(0xC1);
            e.modrm(0b11, op.ext_digit(), dst.low3());
            e.u8(amount & 63);
        }
        Inst::Setcc { cond, dst } => {
            // Always emit REX so rsp/rbp/rsi/rdi map to spl/bpl/sil/dil.
            e.rex(false, false, false, dst.needs_rex_ext(), true);
            e.u8(0x0F);
            e.u8(0x90 + cond.cc());
            e.modrm(0b11, 0, dst.low3());
        }
        Inst::Movzx8 { dst, src } => {
            e.rex(true, dst.needs_rex_ext(), false, src.needs_rex_ext(), false);
            e.u8(0x0F);
            e.u8(0xB6);
            e.modrm(0b11, dst.low3(), src.low3());
        }
        Inst::Jcc {
            cond,
            target,
            width,
        } => match width {
            JumpWidth::Short => {
                e.u8(0x70 + cond.cc());
                e.field(FixupKind::Rel8, target);
            }
            JumpWidth::Near => {
                e.u8(0x0F);
                e.u8(0x80 + cond.cc());
                e.field(FixupKind::Rel32, target);
            }
        },
        Inst::Jmp { target, width } => match width {
            JumpWidth::Short => {
                e.u8(0xEB);
                e.field(FixupKind::Rel8, target);
            }
            JumpWidth::Near => {
                e.u8(0xE9);
                e.field(FixupKind::Rel32, target);
            }
        },
        Inst::JmpInd { rm } => encode_ff(&mut e, 4, rm)?,
        Inst::Call { target } => {
            e.u8(0xE8);
            e.field(FixupKind::Rel32, target);
        }
        Inst::CallInd { rm } => encode_ff(&mut e, 2, rm)?,
        Inst::Ret => e.u8(0xC3),
        Inst::RepzRet => {
            e.u8(0xF3);
            e.u8(0xC3);
        }
        Inst::Nop { len } => {
            let n = len as usize;
            if !(1..=9).contains(&n) {
                return Err(EncodeError::BadNopLen(len));
            }
            e.bytes.put(NOP_SEQUENCES[n - 1]);
        }
        Inst::Ud2 => {
            e.u8(0x0F);
            e.u8(0x0B);
        }
        Inst::Syscall => {
            e.u8(0x0F);
            e.u8(0x05);
        }
    }
    Ok(e)
}

fn encode_ff(e: &mut Enc, digit: u8, rm: Rm) -> Result<(), EncodeError> {
    match rm {
        Rm::Reg(r) => {
            e.rex(false, false, false, r.needs_rex_ext(), false);
            e.u8(0xFF);
            e.modrm(0b11, digit, r.low3());
        }
        Rm::Mem(m) => {
            let (x, b) = mem_rex_xb(&m);
            e.rex(false, false, x, b, false);
            e.u8(0xFF);
            e.mem(digit, &m)?;
        }
    }
    Ok(())
}

/// The encoded length of `inst` in bytes: the encoder's layout step
/// alone, with no target resolution, so it never allocates and no
/// displacement can be out of range. 0 for an instruction the encoder
/// rejects.
///
/// Guaranteed to match `encode_at(inst, _).bytes.len()` for encodable
/// instructions (covered by property tests).
pub fn encoded_len(inst: &Inst) -> usize {
    encode(inst).map_or(0, |e| e.bytes.len())
}

/// Returns `true` if `op` is an ALU opcode in MR form.
pub(crate) fn alu_from_mr_opcode(op: u8) -> Option<AluOp> {
    Some(match op {
        0x01 => AluOp::Add,
        0x09 => AluOp::Or,
        0x21 => AluOp::And,
        0x29 => AluOp::Sub,
        0x31 => AluOp::Xor,
        0x39 => AluOp::Cmp,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cond;

    fn enc(i: Inst) -> Vec<u8> {
        encode_at(&i, 0x400000).unwrap().bytes.to_vec()
    }

    #[test]
    fn known_encodings() {
        assert_eq!(enc(Inst::Push(Reg::Rbp)), vec![0x55]);
        assert_eq!(enc(Inst::Push(Reg::R12)), vec![0x41, 0x54]);
        assert_eq!(enc(Inst::Pop(Reg::Rbp)), vec![0x5D]);
        assert_eq!(
            enc(Inst::MovRR {
                dst: Reg::Rbp,
                src: Reg::Rsp
            }),
            vec![0x48, 0x89, 0xE5]
        );
        assert_eq!(enc(Inst::Ret), vec![0xC3]);
        assert_eq!(enc(Inst::RepzRet), vec![0xF3, 0xC3]);
        assert_eq!(enc(Inst::Syscall), vec![0x0F, 0x05]);
        assert_eq!(enc(Inst::Ud2), vec![0x0F, 0x0B]);
        // subq $0x10, %rsp => 48 83 EC 10
        assert_eq!(
            enc(Inst::AluI {
                op: AluOp::Sub,
                dst: Reg::Rsp,
                imm: 0x10
            }),
            vec![0x48, 0x83, 0xEC, 0x10]
        );
    }

    #[test]
    fn branch_widths_match_paper_sizes() {
        // Conditional: 2 bytes short, 6 bytes near (paper section 3.1).
        let short = Inst::Jcc {
            cond: Cond::E,
            target: Target::Addr(0x400010),
            width: JumpWidth::Short,
        };
        let near = Inst::Jcc {
            cond: Cond::E,
            target: Target::Addr(0x400010),
            width: JumpWidth::Near,
        };
        assert_eq!(enc(short).len(), 2);
        assert_eq!(enc(near).len(), 6);
        // Unconditional: 2 vs 5.
        let js = Inst::Jmp {
            target: Target::Addr(0x400010),
            width: JumpWidth::Short,
        };
        let jn = Inst::Jmp {
            target: Target::Addr(0x400010),
            width: JumpWidth::Near,
        };
        assert_eq!(enc(js).len(), 2);
        assert_eq!(enc(jn).len(), 5);
    }

    #[test]
    fn rel_resolution() {
        // jmp to self+2 encodes rel8 = 0.
        let b = enc(Inst::Jmp {
            target: Target::Addr(0x400002),
            width: JumpWidth::Short,
        });
        assert_eq!(b, vec![0xEB, 0x00]);
        // Backward branch.
        let b = enc(Inst::Jmp {
            target: Target::Addr(0x400000),
            width: JumpWidth::Short,
        });
        assert_eq!(b, vec![0xEB, 0xFE]);
    }

    #[test]
    fn rel8_out_of_range_is_error() {
        let r = encode_at(
            &Inst::Jmp {
                target: Target::Addr(0x400000 + 0x1000),
                width: JumpWidth::Short,
            },
            0x400000,
        );
        assert!(matches!(r, Err(EncodeError::Rel8OutOfRange { .. })));
    }

    #[test]
    fn label_targets_produce_fixups() {
        let e = encode_at(
            &Inst::Call {
                target: Target::Label(Label(9)),
            },
            0,
        )
        .unwrap();
        assert_eq!(e.bytes.len(), 5);
        let f = e.fixup.expect("a label operand leaves a fixup");
        assert_eq!(f.kind, FixupKind::Rel32);
        assert_eq!(f.offset, 1);
        assert_eq!(f.label, Label(9));
    }

    #[test]
    fn apply_fixup_round_trip() {
        let mut e = encode_at(
            &Inst::Jmp {
                target: Target::Label(Label(1)),
                width: JumpWidth::Near,
            },
            0,
        )
        .unwrap();
        let f = e.fixup.unwrap();
        let len = e.bytes.len();
        apply_fixup(&mut e.bytes, &f, 0x400000, len, 0x400100).unwrap();
        // rel32 = 0x400100 - 0x400005 = 0xFB
        assert_eq!(&e.bytes, &[0xE9, 0xFB, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn rsp_base_uses_sib() {
        // movq 8(%rsp), %rax => 48 8B 44 24 08
        let b = enc(Inst::Load {
            dst: Reg::Rax,
            mem: Mem::base(Reg::Rsp, 8),
        });
        assert_eq!(b, vec![0x48, 0x8B, 0x44, 0x24, 0x08]);
    }

    #[test]
    fn rbp_base_zero_disp_uses_disp8() {
        // movq (%rbp), %rax cannot use mod=00: 48 8B 45 00
        let b = enc(Inst::Load {
            dst: Reg::Rax,
            mem: Mem::base(Reg::Rbp, 0),
        });
        assert_eq!(b, vec![0x48, 0x8B, 0x45, 0x00]);
        // Same constraint applies to r13.
        let b = enc(Inst::Load {
            dst: Reg::Rax,
            mem: Mem::base(Reg::R13, 0),
        });
        assert_eq!(b, vec![0x49, 0x8B, 0x45, 0x00]);
    }

    #[test]
    fn jump_table_operand() {
        // jmpq *(%rax,%rcx,8) => FF 24 C8
        let b = enc(Inst::JmpInd {
            rm: Rm::Mem(Mem::BaseIndexScale {
                base: Reg::Rax,
                index: Reg::Rcx,
                scale: 8,
                disp: 0,
            }),
        });
        assert_eq!(b, vec![0xFF, 0x24, 0xC8]);
    }

    #[test]
    fn rip_relative_load_resolves_against_inst_end() {
        // movq 0x10(%rip), %rax at 0x400000: length 7, target 0x400017.
        let b = enc(Inst::Load {
            dst: Reg::Rax,
            mem: Mem::rip(Target::Addr(0x400017)),
        });
        assert_eq!(b, vec![0x48, 0x8B, 0x05, 0x10, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn nops_all_lengths() {
        for n in 1..=9u8 {
            let b = enc(Inst::Nop { len: n });
            assert_eq!(b.len(), n as usize);
            assert_eq!(b, NOP_SEQUENCES[n as usize - 1]);
        }
        assert!(encode_at(&Inst::Nop { len: 10 }, 0).is_err());
        assert!(encode_at(&Inst::Nop { len: 0 }, 0).is_err());
    }

    #[test]
    fn movabs_for_large_immediates() {
        let small = enc(Inst::MovRI {
            dst: Reg::Rax,
            imm: 1,
        });
        assert_eq!(small, vec![0x48, 0xC7, 0xC0, 0x01, 0x00, 0x00, 0x00]);
        let large = enc(Inst::MovRI {
            dst: Reg::Rax,
            imm: 0x1_0000_0000,
        });
        assert_eq!(large.len(), 10);
        assert_eq!(&large[..2], &[0x48, 0xB8]);
    }

    #[test]
    fn encoded_len_matches_encoding() {
        let cases = [
            Inst::Push(Reg::R8),
            Inst::MovRI {
                dst: Reg::R15,
                imm: -5,
            },
            Inst::Jcc {
                cond: Cond::G,
                target: Target::Label(Label(0)),
                width: JumpWidth::Near,
            },
            Inst::Load {
                dst: Reg::Rdx,
                mem: Mem::BaseIndexScale {
                    base: Reg::R12,
                    index: Reg::R13,
                    scale: 4,
                    disp: 1000,
                },
            },
        ];
        for c in cases {
            assert_eq!(
                encoded_len(&c),
                encode_at(&c, 0).unwrap().bytes.len(),
                "{c}"
            );
        }
    }
}
