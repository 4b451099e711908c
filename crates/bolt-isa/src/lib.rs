//! # bolt-isa — x86-64 subset instruction set
//!
//! A from-scratch encoder/decoder for the x86-64 subset used throughout the
//! BOLT reproduction. It plays the role LLVM's MC layer plays for the real
//! BOLT: a machine-instruction model ([`Inst`]), a binary encoder with
//! symbolic fixups ([`encode_at`]), and a disassembler ([`decode`]).
//!
//! The subset is small but *binary-faithful*: encodings are the real x86-64
//! byte sequences (REX prefixes, ModRM/SIB, RIP-relative addressing), so the
//! code-layout phenomena the BOLT paper exploits are reproduced exactly —
//! e.g. conditional branches cost 2 bytes with an 8-bit displacement and 6
//! bytes with a 32-bit one (paper section 3.1), which is what makes hot/cold
//! code splitting interact with code size.
//!
//! ## Example
//!
//! ```
//! use bolt_isa::{decode, encode_at, Inst, JumpWidth, Reg, Target};
//!
//! // Encode `jmp 0x400100` placed at 0x400000 ...
//! let jmp = Inst::Jmp { target: Target::Addr(0x400100), width: JumpWidth::Near };
//! let enc = encode_at(&jmp, 0x400000)?;
//!
//! // ... and decode it back: targets come back as absolute addresses.
//! let dec = decode(&enc.bytes, 0x400000)?;
//! assert_eq!(dec.inst.target(), Some(Target::Addr(0x400100)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cond;
mod decode;
mod encode;
mod flags;
mod inst;
mod mem;
mod reg;

pub use cond::Cond;
pub use decode::{decode, decode_all, DecodeError, DecodedInst};
pub use encode::{
    apply_fixup, encode_at, encoded_len, EncodeError, Encoded, Fixup, FixupKind, InstBytes,
    MAX_INST_LEN, NOP_SEQUENCES,
};
pub use flags::{flag_effect, FlagClass, FlagEffect};
pub use inst::{AluOp, Inst, JumpWidth, Rm, ShiftOp};
pub use mem::{Label, Mem, Target};
pub use reg::Reg;
