//! Symbolic translation validation: proving cached block translations
//! semantically equivalent to the step semantics of the bytes they were
//! decoded from.
//!
//! [`crate::symexec`] supplies the machinery — a canonicalizing term
//! language plus one abstract evaluator per execution tier. This module
//! runs both evaluators from a common initial state and compares the
//! resulting [`SymState`]s observable by observable:
//!
//! * the final symbolic register file,
//! * the flags at every observation point (consumers, store/push
//!   liveness barriers, block exit) — this is where a dead-marked live
//!   flag writer surfaces,
//! * the *ordered* list of symbolic memory effects (address, width,
//!   value) — which also proves the superblock tier's recorded shape
//!   list announces the interleaved event order faithfully,
//! * the terminator's condition/target expression.
//!
//! The reference side is always a fresh decode of the block's bytes, so
//! the check catches corruption anywhere downstream of the decoder: a
//! cached instruction pool that drifted from the bytes, a micro-op
//! lowering bug, a bad liveness mark, a wrong shape record — whether or
//! not the pools still agree with each other.
//!
//! Enabled per machine via
//! [`Machine::set_sem_validation`](crate::Machine::set_sem_validation)
//! (`bolt-run --validate-semantics`; the default follows
//! `BOLT_SEM_VALIDATE`, see [`crate::Knobs`]) — each block proven once,
//! when it is translated — or offline over raw code bytes via
//! [`validate_code`] (the `bolt -verify-sem` sweep).

use crate::block::{BlockCache, MemShape, TranslationMode};
use crate::exec::EmuError;
use crate::memory::Memory;
use crate::symexec::{sym_block_insts, sym_block_uops, SymState};
use crate::text::TextIndex;
use crate::uop::MicroOp;
use bolt_isa::Inst;
use std::fmt;

/// What kind of semantic disagreement a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemFindingKind {
    /// The translation's instruction count or per-instruction byte
    /// lengths disagree with the reference decode.
    LengthMismatch,
    /// The cached block's bytes no longer decode.
    DecodeMismatch,
    /// A final register value diverges.
    RegMismatch,
    /// The flags observable at some point diverge.
    FlagMismatch,
    /// A memory effect's address or stored value diverges.
    MemEffectMismatch,
    /// The memory-effect event order (or the recorded shape list)
    /// diverges.
    EffectOrderMismatch,
    /// The block exit — branch condition, target, or kind — diverges.
    TerminatorMismatch,
}

impl SemFindingKind {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            SemFindingKind::LengthMismatch => "length-mismatch",
            SemFindingKind::DecodeMismatch => "decode-mismatch",
            SemFindingKind::RegMismatch => "reg-mismatch",
            SemFindingKind::FlagMismatch => "flag-mismatch",
            SemFindingKind::MemEffectMismatch => "mem-effect-mismatch",
            SemFindingKind::EffectOrderMismatch => "effect-order-mismatch",
            SemFindingKind::TerminatorMismatch => "terminator-mismatch",
        }
    }
}

/// One semantic disagreement between a translation and the step
/// semantics of its bytes.
#[derive(Debug, Clone)]
pub struct SemFinding {
    pub kind: SemFindingKind,
    /// Entry address of the offending block.
    pub entry: u64,
    /// Instruction index within the block the disagreement attributes
    /// to.
    pub inst: u32,
    /// The two disagreeing terms, rendered.
    pub detail: String,
}

impl fmt::Display for SemFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at block {:#x} inst {}: {}",
            self.kind.as_str(),
            self.entry,
            self.inst,
            self.detail
        )
    }
}

/// Proves one translation semantically equivalent to `reference` (a
/// fresh decode of the block's bytes). `cached` is the translation's
/// instruction pool; `uops`, when present, is the parallel micro-op
/// pool (uop tier) and becomes the evaluated side; `shapes`, when
/// present, is the recorded static memory-shape list (spanning tiers)
/// and is checked against the reference's effect order. Returns every
/// disagreement found (empty = proven equivalent).
pub fn validate_translation(
    entry: u64,
    reference: &[(Inst, u8)],
    cached: &[(Inst, u8)],
    uops: Option<&[MicroOp]>,
    shapes: Option<&[MemShape]>,
) -> Vec<SemFinding> {
    let mut out = Vec::new();
    let finding = |kind, inst, detail| SemFinding {
        kind,
        entry,
        inst,
        detail,
    };
    // The pools must pair up entry for entry, byte length included: the
    // executor advances `rip` — and stamps branch events — from the
    // translated side's lengths, which no symbolic observable carries.
    let want = reference.iter().map(|r| r.1);
    let lens_agree = match uops {
        Some(uops) => uops.iter().map(|u| u.len).eq(want),
        None => cached.iter().map(|c| c.1).eq(want),
    };
    if reference.len() != cached.len() || !lens_agree {
        return vec![finding(
            SemFindingKind::LengthMismatch,
            0,
            format!(
                "reference decodes {} instructions, translation holds {}; \
                 the pools' entry counts or byte lengths differ",
                reference.len(),
                cached.len()
            ),
        )];
    }
    let a = sym_block_insts(reference, entry);
    let b = match uops {
        Some(uops) => sym_block_uops(uops, entry),
        None => sym_block_insts(cached, entry),
    };
    compare_states(entry, &a, &b, &mut out);
    if let Some(shapes) = shapes {
        // The recorded shape list announces the D-side event order to
        // the superblock engine's batched charging; prove it against
        // the reference's symbolic effect list.
        let want: Vec<(u32, bool)> = a.effects.iter().map(|e| (e.inst, e.write)).collect();
        let got: Vec<(u32, bool)> = shapes.iter().map(|s| (s.inst, s.write)).collect();
        if want != got {
            let at = want
                .iter()
                .zip(&got)
                .position(|(w, g)| w != g)
                .unwrap_or(want.len().min(got.len()));
            let inst = got.get(at).or(want.get(at)).map_or(0, |e| e.0);
            out.push(finding(
                SemFindingKind::EffectOrderMismatch,
                inst,
                format!(
                    "recorded shape list {got:?} disagrees with semantic effect order {want:?}"
                ),
            ));
        }
    }
    out
}

/// Compares the two final symbolic states observable by observable.
fn compare_states(entry: u64, a: &SymState, b: &SymState, out: &mut Vec<SemFinding>) {
    let finding = |kind, inst, detail| SemFinding {
        kind,
        entry,
        inst,
        detail,
    };
    for i in 0..16 {
        if a.regs[i] != b.regs[i] {
            let writer = b.reg_writer[i].min(a.reg_writer[i]);
            let name =
                bolt_isa::Reg::from_num(i as u8).map_or_else(|| format!("r{i}"), |r| r.to_string());
            out.push(finding(
                SemFindingKind::RegMismatch,
                writer,
                format!(
                    "final {name}: step semantics say {}, translation says {}",
                    a.regs[i], b.regs[i]
                ),
            ));
        }
    }
    let checks = a.flag_checks.len().max(b.flag_checks.len());
    for i in 0..checks {
        match (a.flag_checks.get(i), b.flag_checks.get(i)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) => {
                out.push(finding(
                    SemFindingKind::FlagMismatch,
                    y.inst.min(x.inst),
                    format!(
                        "flags observed at inst {}: step semantics say {}, translation says {}",
                        x.inst, x.flags, y.flags
                    ),
                ));
            }
            (Some(x), None) => {
                out.push(finding(
                    SemFindingKind::FlagMismatch,
                    x.inst,
                    format!("translation lost the flags observation at inst {}", x.inst),
                ));
            }
            (None, Some(y)) => {
                out.push(finding(
                    SemFindingKind::FlagMismatch,
                    y.inst,
                    format!("translation observes flags at inst {} where step semantics have no observation", y.inst),
                ));
            }
            (None, None) => unreachable!(),
        }
    }
    if a.exit_flags != b.exit_flags {
        out.push(finding(
            SemFindingKind::FlagMismatch,
            u32::MAX,
            format!(
                "flags at block exit: step semantics say {}, translation says {}",
                a.exit_flags, b.exit_flags
            ),
        ));
    }
    let effects = a.effects.len().max(b.effects.len());
    for i in 0..effects {
        match (a.effects.get(i), b.effects.get(i)) {
            (Some(x), Some(y)) => {
                if (x.inst, x.write) != (y.inst, y.write) {
                    out.push(finding(
                        SemFindingKind::EffectOrderMismatch,
                        y.inst,
                        format!(
                            "memory effect #{i}: step semantics emit a {} by inst {}, \
                             translation a {} by inst {}",
                            rw(x.write),
                            x.inst,
                            rw(y.write),
                            y.inst
                        ),
                    ));
                    // Order is broken; element-wise address/value
                    // comparison past this point is noise.
                    break;
                }
                if x.addr != y.addr || x.width != y.width {
                    out.push(finding(
                        SemFindingKind::MemEffectMismatch,
                        y.inst,
                        format!(
                            "{} address at inst {}: step semantics say {} ({} bytes), \
                             translation says {} ({} bytes)",
                            rw(x.write),
                            x.inst,
                            x.addr,
                            x.width,
                            y.addr,
                            y.width
                        ),
                    ));
                }
                if x.value != y.value {
                    let none = || "<none>".to_string();
                    out.push(finding(
                        SemFindingKind::MemEffectMismatch,
                        y.inst,
                        format!(
                            "stored value at inst {}: step semantics say {}, translation says {}",
                            x.inst,
                            x.value.as_ref().map_or_else(none, |v| v.to_string()),
                            y.value.as_ref().map_or_else(none, |v| v.to_string()),
                        ),
                    ));
                }
            }
            (Some(x), None) => {
                out.push(finding(
                    SemFindingKind::EffectOrderMismatch,
                    x.inst,
                    format!(
                        "translation lost memory effect #{i} ({} by inst {})",
                        rw(x.write),
                        x.inst
                    ),
                ));
                break;
            }
            (None, Some(y)) => {
                out.push(finding(
                    SemFindingKind::EffectOrderMismatch,
                    y.inst,
                    format!(
                        "translation emits extra memory effect #{i} ({} by inst {})",
                        rw(y.write),
                        y.inst
                    ),
                ));
                break;
            }
            (None, None) => unreachable!(),
        }
    }
    if a.terminator != b.terminator {
        out.push(finding(
            SemFindingKind::TerminatorMismatch,
            u32::MAX,
            format!(
                "step semantics exit via `{}`, translation via `{}`",
                a.terminator, b.terminator
            ),
        ));
    }
}

fn rw(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

/// Sweeps `code` (placed at `base`) through both translation tiers —
/// superblock and uop — walking block to block and proving each
/// translation against a fresh decode of its bytes. The offline entry
/// point behind `bolt -verify-sem`.
pub fn validate_code(code: &[u8], base: u64) -> Vec<SemFinding> {
    let mut out = Vec::new();
    let text = TextIndex::new(std::iter::once(base..base + code.len() as u64));
    for mode in [TranslationMode::Superblock, TranslationMode::Uop] {
        let mut mem = Memory::new();
        mem.write(base, code);
        let mut cache = BlockCache::default();
        cache.ensure_span(&text, mode);
        let mut at = base;
        while at < base + code.len() as u64 {
            let idx = match cache.translate(&mem, at) {
                Ok(idx) => idx,
                // Padding or data between functions: skip a byte and
                // try the next offset, as the offline sweep has no
                // control flow to follow.
                Err(EmuError::BadInstruction { .. }) => {
                    at += 1;
                    continue;
                }
                Err(_) => break,
            };
            out.extend(cache.validate_semantics(&mem, idx));
            at += cache.byte_len(idx).max(1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::translation_shapes;
    use crate::uop::lower_into;
    use bolt_isa::{encode_at, AluOp, Cond, Mem, Reg, Target};

    fn with_len(insts: &[Inst]) -> Vec<(Inst, u8)> {
        insts
            .iter()
            .map(|&i| (i, bolt_isa::encoded_len(&i) as u8))
            .collect()
    }

    fn faithful(insts: &[(Inst, u8)]) -> (Vec<MicroOp>, Vec<MemShape>) {
        let mut uops = Vec::new();
        lower_into(&mut uops, insts);
        (uops, translation_shapes(insts))
    }

    #[test]
    fn faithful_translation_proves_clean() {
        let insts = with_len(&[
            Inst::Push(Reg::Rbp),
            Inst::MovRR {
                dst: Reg::Rbp,
                src: Reg::Rsp,
            },
            Inst::Load {
                dst: Reg::Rax,
                mem: Mem::base(Reg::Rdi, 16),
            },
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 7,
            },
            Inst::Store {
                mem: Mem::base(Reg::Rdi, 24),
                src: Reg::Rax,
            },
            Inst::Pop(Reg::Rbp),
            Inst::Ret,
        ]);
        let (uops, shapes) = faithful(&insts);
        let f = validate_translation(0x400000, &insts, &insts, Some(&uops), Some(&shapes));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
        // Same without the uop pool (superblock tier).
        let f = validate_translation(0x400000, &insts, &insts, None, Some(&shapes));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn drifted_cached_pool_is_caught() {
        let reference = with_len(&[
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 5,
            },
            Inst::Ret,
        ]);
        let mut cached = reference.clone();
        cached[0].0 = Inst::MovRI {
            dst: Reg::Rax,
            imm: 6,
        };
        let f = validate_translation(0x400000, &reference, &cached, None, None);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, SemFindingKind::RegMismatch);
        assert_eq!(f[0].inst, 0);
    }

    #[test]
    fn wrong_shape_order_is_caught() {
        let insts = with_len(&[
            Inst::Load {
                dst: Reg::Rax,
                mem: Mem::base(Reg::Rdi, 0),
            },
            Inst::Store {
                mem: Mem::base(Reg::Rsi, 0),
                src: Reg::Rax,
            },
            Inst::Ret,
        ]);
        let (uops, mut shapes) = faithful(&insts);
        shapes.swap(0, 1);
        let f = validate_translation(0x400000, &insts, &insts, Some(&uops), Some(&shapes));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, SemFindingKind::EffectOrderMismatch);
    }

    #[test]
    fn offline_sweep_is_clean_on_real_encodings() {
        // A small function with a loop, flags consumed across
        // instructions, and stack traffic — encoded to real bytes and
        // swept through both tiers.
        let insts = [
            Inst::Push(Reg::Rbx),
            Inst::MovRI {
                dst: Reg::Rbx,
                imm: 0,
            },
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rbx,
                imm: 3,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rbx,
                imm: 9,
            },
            Inst::Jcc {
                cond: Cond::B,
                target: Target::Addr(0),
                width: Default::default(),
            },
            Inst::Setcc {
                cond: Cond::E,
                dst: Reg::Rax,
            },
            Inst::Pop(Reg::Rbx),
            Inst::Ret,
        ];
        let base = 0x400000u64;
        // Lay out, resolving the backward branch to the `add`.
        let mut code = Vec::new();
        let mut addrs = Vec::new();
        let mut at = base;
        for inst in &insts {
            addrs.push(at);
            let enc = encode_at(inst, at).unwrap();
            at += enc.bytes.len() as u64;
            code.extend_from_slice(&enc.bytes);
        }
        let mut code2 = Vec::new();
        let mut at2 = base;
        for (i, inst) in insts.iter().enumerate() {
            let mut inst = *inst;
            if let Inst::Jcc { target, .. } = &mut inst {
                *target = Target::Addr(addrs[2]);
            }
            let enc = encode_at(&inst, at2).unwrap();
            assert_eq!(at2, addrs[i]);
            at2 += enc.bytes.len() as u64;
            code2.extend_from_slice(&enc.bytes);
        }
        code = code2;
        let f = validate_code(&code, base);
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }
}
