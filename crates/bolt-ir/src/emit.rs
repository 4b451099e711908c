//! Code emission with branch relaxation.
//!
//! This module is shared between the compiler substrate's linker and BOLT's
//! "emit and link functions" stage (paper Figure 3): it takes an ordered
//! list of functions whose blocks reference each other through global
//! [`Label`]s, chooses short/near branch encodings by iterative relaxation
//! (conditional branches are 2 vs 6 bytes on x86-64 — paper section 3.1),
//! assigns addresses, applies fixups, and reports everything needed to
//! rebuild symbol tables, line tables, and exception tables.

use crate::LineInfo;
use bolt_isa::{
    apply_fixup, encode_at, encoded_len, EncodeError, Fixup, FixupKind, Inst, JumpWidth, Label,
    Target,
};
use std::collections::HashMap;
use std::fmt;

/// An instruction queued for emission, with the metadata that must survive
/// relocation.
#[derive(Debug, Clone)]
pub struct EmitInst {
    pub inst: Inst,
    /// Source line to record in the output line table.
    pub line: Option<LineInfo>,
    /// Landing-pad label if this is a call site with an exception handler.
    pub eh_pad: Option<Label>,
}

impl EmitInst {
    pub fn new(inst: Inst) -> EmitInst {
        EmitInst {
            inst,
            line: None,
            eh_pad: None,
        }
    }
}

impl From<Inst> for EmitInst {
    fn from(inst: Inst) -> EmitInst {
        EmitInst::new(inst)
    }
}

/// A block of instructions with a globally unique label.
#[derive(Debug, Clone)]
pub struct EmitBlock {
    pub label: Label,
    /// Start alignment in bytes (1 = none). Padding is emitted as NOPs so
    /// fall-through execution stays valid, exactly like compiler alignment
    /// padding.
    pub align: u16,
    pub insts: Vec<EmitInst>,
}

impl EmitBlock {
    pub fn new(label: Label) -> EmitBlock {
        EmitBlock {
            label,
            align: 1,
            insts: Vec::new(),
        }
    }
}

/// A function queued for emission. Blocks from `cold_start` onward are
/// placed in the cold section (function splitting, paper section 3.2).
#[derive(Debug, Clone)]
pub struct EmitUnit {
    pub name: String,
    /// Function start alignment.
    pub align: u16,
    pub blocks: Vec<EmitBlock>,
    pub cold_start: Option<usize>,
}

impl EmitUnit {
    pub fn new(name: impl Into<String>) -> EmitUnit {
        EmitUnit {
            name: name.into(),
            align: 16,
            blocks: Vec::new(),
            cold_start: None,
        }
    }
}

/// A symbol produced by emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitSymbol {
    pub name: String,
    pub addr: u64,
    pub size: u64,
    /// True for the `.cold` fragment of a split function.
    pub is_cold_fragment: bool,
}

/// A fixup applied during emission, recorded for `--emit-relocs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitReloc {
    /// Address of the patched field.
    pub at: u64,
    pub kind: FixupKind,
    pub label: Label,
}

/// The result of emitting a set of functions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmitResult {
    /// Hot code bytes, based at the `text_base` passed to [`emit_units`].
    pub text: Vec<u8>,
    /// Cold code bytes, based at `cold_base`.
    pub cold: Vec<u8>,
    /// Resolved code label addresses (every block label).
    pub label_addrs: HashMap<Label, u64>,
    /// Function symbols (hot fragments plus `.cold` fragments).
    pub symbols: Vec<EmitSymbol>,
    /// `(address, line)` pairs for the output line table.
    pub line_entries: Vec<(u64, LineInfo)>,
    /// `(call-site address, landing-pad label)` pairs for the output
    /// exception table.
    pub eh_entries: Vec<(u64, Label)>,
    /// Every label fixup applied, for relocation emission.
    pub relocs: Vec<EmitReloc>,
}

/// Errors produced by the emitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// A label was referenced but defined neither by a block nor by the
    /// external label map.
    UnresolvedLabel(Label),
    /// The last block of a section fragment can fall through.
    TrailingFallthrough { function: String },
    /// The encoder rejected an instruction.
    Encode(EncodeError),
    /// A block label was defined twice.
    DuplicateLabel(Label),
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::UnresolvedLabel(l) => write!(f, "unresolved label {l}"),
            EmitError::TrailingFallthrough { function } => {
                write!(f, "function {function} ends in a fall-through block")
            }
            EmitError::Encode(e) => write!(f, "encode error: {e}"),
            EmitError::DuplicateLabel(l) => write!(f, "label {l} defined twice"),
        }
    }
}

impl std::error::Error for EmitError {}

impl From<EncodeError> for EmitError {
    fn from(e: EncodeError) -> EmitError {
        EmitError::Encode(e)
    }
}

/// NOP padding bytes to reach `align` from `pos`.
fn pad_len(pos: u64, align: u16) -> u64 {
    if align <= 1 {
        return 0;
    }
    let a = align as u64;
    (a - pos % a) % a
}

fn push_nops(bytes: &mut Vec<u8>, mut n: u64) {
    while n > 0 {
        let chunk = n.min(9) as usize;
        bytes.extend_from_slice(bolt_isa::NOP_SEQUENCES[chunk - 1]);
        n -= chunk as u64;
    }
}

/// Emits `units` in order. Hot fragments go to a stream based at
/// `text_base`; blocks past each unit's `cold_start` go to a stream based
/// at `cold_base`. `extern_labels` resolves references to labels defined
/// outside the emitted code (data, PLT, GOT, unmodified functions).
///
/// Branch relaxation starts every label-targeted branch short and grows it
/// to near until a fixed point — growth is monotone, so this terminates.
///
/// # Errors
///
/// See [`EmitError`].
pub fn emit_units(
    units: &[EmitUnit],
    text_base: u64,
    cold_base: u64,
    extern_labels: &HashMap<Label, u64>,
) -> Result<EmitResult, EmitError> {
    // Gather label definitions and a linear placement list per stream.
    // stream 0 = hot, stream 1 = cold.
    let mut label_defined: HashMap<Label, ()> = HashMap::new();
    // (stream, unit, block) in placement order.
    let mut order: Vec<(usize, usize, usize)> = Vec::new();
    for (ui, u) in units.iter().enumerate() {
        let cold = u.cold_start.unwrap_or(u.blocks.len());
        for bi in 0..cold {
            order.push((0, ui, bi));
        }
    }
    for (ui, u) in units.iter().enumerate() {
        let cold = u.cold_start.unwrap_or(u.blocks.len());
        for bi in cold..u.blocks.len() {
            order.push((1, ui, bi));
        }
    }
    for u in units {
        for b in &u.blocks {
            if label_defined.insert(b.label, ()).is_some() {
                return Err(EmitError::DuplicateLabel(b.label));
            }
        }
    }

    // Per-instruction state, indexed in placement order (every pass below
    // walks `order` the same way): the working width of each relaxable
    // branch (all start Short), its address and its encoded length.
    let mut widths: Vec<Option<JumpWidth>> = Vec::new();
    for &(_, ui, bi) in &order {
        for inst in &units[ui].blocks[bi].insts {
            widths.push(match inst.inst {
                Inst::Jcc { .. } | Inst::Jmp { .. } => Some(JumpWidth::Short),
                _ => None,
            });
        }
    }

    // Relaxation loop: compute addresses with current widths, grow any
    // short branch whose target does not fit, repeat.
    let mut label_addrs: HashMap<Label, u64> = HashMap::new();
    let mut inst_addrs: Vec<u64> = vec![0; widths.len()];
    let mut inst_lens: Vec<u8> = vec![0; widths.len()];
    loop {
        // Address assignment pass.
        let mut pos = [text_base, cold_base];
        let mut pi = 0usize;
        let mut order_i = 0usize;
        while order_i < order.len() {
            let (stream, ui, bi) = order[order_i];
            let unit = &units[ui];
            let is_fragment_start = bi == 0 || unit.cold_start == Some(bi);
            let align = if is_fragment_start {
                unit.align.max(1)
            } else {
                unit.blocks[bi].align.max(1)
            };
            pos[stream] += pad_len(pos[stream], align);
            label_addrs.insert(unit.blocks[bi].label, pos[stream]);
            for inst in &unit.blocks[bi].insts {
                let mut working = inst.inst;
                if let Some(w) = widths[pi] {
                    set_width(&mut working, w);
                }
                let len = encoded_len(&working);
                inst_addrs[pi] = pos[stream];
                inst_lens[pi] = len as u8;
                pos[stream] += len as u64;
                pi += 1;
            }
            order_i += 1;
        }

        // Width check pass.
        let mut grew = false;
        let mut pi = 0usize;
        for &(_, ui, bi) in &order {
            for einst in &units[ui].blocks[bi].insts {
                if widths[pi] == Some(JumpWidth::Short) {
                    let target = einst
                        .inst
                        .target()
                        .expect("relaxable branches have targets");
                    let target_addr = match target {
                        Target::Addr(a) => Some(a),
                        Target::Label(l) => label_addrs
                            .get(&l)
                            .copied()
                            .or_else(|| extern_labels.get(&l).copied()),
                    };
                    let Some(to) = target_addr else {
                        return Err(EmitError::UnresolvedLabel(
                            target.label().expect("address targets always resolve"),
                        ));
                    };
                    let end = inst_addrs[pi] + u64::from(inst_lens[pi]);
                    let rel = to.wrapping_sub(end) as i64;
                    if i8::try_from(rel).is_err() {
                        widths[pi] = Some(JumpWidth::Near);
                        grew = true;
                    }
                }
                pi += 1;
            }
        }
        if !grew {
            break;
        }
    }

    // Final encoding pass.
    let resolve = |l: Label| -> Result<u64, EmitError> {
        label_addrs
            .get(&l)
            .or_else(|| extern_labels.get(&l))
            .copied()
            .ok_or(EmitError::UnresolvedLabel(l))
    };

    let mut result = EmitResult::default();
    let mut streams: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
    let bases = [text_base, cold_base];
    let mut pi = 0usize;
    // Track per-fragment symbol extents: (unit, is_cold) -> (start, end).
    let mut frag_bounds: HashMap<(usize, bool), (u64, u64)> = HashMap::new();

    for &(stream, ui, bi) in &order {
        let unit = &units[ui];
        let block = &unit.blocks[bi];
        let buf = &mut streams[stream];
        let cur_addr = bases[stream] + buf.len() as u64;
        let target_addr = label_addrs[&block.label];
        debug_assert!(target_addr >= cur_addr);
        push_nops(buf, target_addr - cur_addr);

        let is_cold = stream == 1;
        let entry = frag_bounds
            .entry((ui, is_cold))
            .or_insert((target_addr, target_addr));
        entry.1 = entry.1.max(target_addr);

        for einst in &block.insts {
            let addr = inst_addrs[pi];
            debug_assert_eq!(addr, bases[stream] + buf.len() as u64);
            let mut working = einst.inst;
            if let Some(w) = widths[pi] {
                set_width(&mut working, w);
            }
            let enc = encode_at(&working, addr)?;
            let mut bytes = enc.bytes;
            for f in &enc.fixups {
                let to = resolve(f.label)?;
                apply_one(&mut bytes, f, addr, to)?;
                result.relocs.push(EmitReloc {
                    at: addr + f.offset as u64,
                    kind: f.kind,
                    label: f.label,
                });
            }
            if let Some(line) = einst.line {
                result.line_entries.push((addr, line));
            }
            if let Some(pad) = einst.eh_pad {
                result.eh_entries.push((addr, pad));
            }
            buf.extend_from_slice(&bytes);
            pi += 1;
        }
        let end = bases[stream] + buf.len() as u64;
        frag_bounds
            .get_mut(&(ui, is_cold))
            .expect("just inserted")
            .1 = end;
    }

    // Fall-through validation: the last block of each fragment must not
    // fall through (callers are responsible for terminating layouts).
    let mut last_of_stream: [Option<(usize, usize)>; 2] = [None, None];
    for &(stream, ui, bi) in &order {
        last_of_stream[stream] = Some((ui, bi));
    }
    for &(_, (ui, bi)) in last_of_stream
        .iter()
        .flatten()
        .enumerate()
        .collect::<Vec<_>>()
        .iter()
    {
        let block = &units[*ui].blocks[*bi];
        let falls = match block.insts.last() {
            None => true,
            Some(i) => {
                !i.inst.is_uncond_branch()
                    && !i.inst.is_return()
                    && !matches!(i.inst, Inst::JmpInd { .. } | Inst::Ud2)
            }
        };
        if falls {
            return Err(EmitError::TrailingFallthrough {
                function: units[*ui].name.clone(),
            });
        }
    }

    // Symbols.
    for (ui, u) in units.iter().enumerate() {
        if let Some((start, end)) = frag_bounds.get(&(ui, false)) {
            result.symbols.push(EmitSymbol {
                name: u.name.clone(),
                addr: *start,
                size: end - start,
                is_cold_fragment: false,
            });
        }
        if let Some((start, end)) = frag_bounds.get(&(ui, true)) {
            result.symbols.push(EmitSymbol {
                name: format!("{}.cold", u.name),
                addr: *start,
                size: end - start,
                is_cold_fragment: true,
            });
        }
    }

    result.text = std::mem::take(&mut streams[0]);
    result.cold = std::mem::take(&mut streams[1]);
    result.label_addrs = label_addrs;
    result.line_entries.sort_unstable_by_key(|e| e.0);
    Ok(result)
}

fn set_width(inst: &mut Inst, w: JumpWidth) {
    match inst {
        Inst::Jcc { width, .. } | Inst::Jmp { width, .. } => *width = w,
        _ => {}
    }
}

fn apply_one(bytes: &mut [u8], f: &Fixup, addr: u64, to: u64) -> Result<(), EmitError> {
    let len = bytes.len();
    apply_fixup(bytes, f, addr, len, to)?;
    Ok(())
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_isa::{decode_all, Cond, Reg};

    fn label(n: u32) -> Label {
        Label(n)
    }

    /// Two blocks, forward short jump.
    #[test]
    fn short_branch_selected_when_close() {
        let mut unit = EmitUnit::new("f");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Jcc {
                cond: Cond::E,
                target: Target::Label(label(1)),
                width: JumpWidth::Near,
            }
            .into(),
        );
        b0.insts.push(Inst::Ret.into());
        let mut b1 = EmitBlock::new(label(1));
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        // jcc short (2) + ret (1) + ret (1).
        assert_eq!(r.text.len(), 4);
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(
            decoded[0].1.inst.target(),
            Some(Target::Addr(r.label_addrs[&label(1)]))
        );
    }

    /// A jump over ~200 bytes of padding must relax to near.
    #[test]
    fn long_branch_relaxes_to_near() {
        let mut unit = EmitUnit::new("f");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Jmp {
                target: Target::Label(label(2)),
                width: JumpWidth::Short,
            }
            .into(),
        );
        let mut b1 = EmitBlock::new(label(1));
        for _ in 0..40 {
            b1.insts.push(Inst::Nop { len: 9 }.into());
        }
        b1.insts.push(Inst::Ret.into());
        let mut b2 = EmitBlock::new(label(2));
        b2.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1, b2];
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        // First instruction must be the 5-byte near jmp, landing exactly on
        // label 2.
        assert_eq!(decoded[0].1.len, 5);
        assert_eq!(
            decoded[0].1.inst.target(),
            Some(Target::Addr(r.label_addrs[&label(2)]))
        );
    }

    #[test]
    fn cold_split_goes_to_cold_stream() {
        let mut unit = EmitUnit::new("split_me");
        unit.align = 16;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Label(label(1)),
                width: JumpWidth::Short,
            }
            .into(),
        );
        b0.insts.push(Inst::Ret.into());
        let mut b1 = EmitBlock::new(label(1)); // cold
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        unit.cold_start = Some(1);
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        assert!(!r.cold.is_empty());
        assert_eq!(r.label_addrs[&label(1)], 0x600000);
        // Hot->cold branch must be near (distance is 2MB).
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        assert_eq!(decoded[0].1.len, 6);
        // Two symbols: hot fragment and .cold fragment.
        let names: Vec<&str> = r.symbols.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"split_me"));
        assert!(names.contains(&"split_me.cold"));
    }

    #[test]
    fn alignment_pads_with_nops() {
        let mut unit = EmitUnit::new("a");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(Inst::Push(Reg::Rbp).into()); // 1 byte
        let mut b1 = EmitBlock::new(label(1));
        b1.align = 16;
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        assert_eq!(r.label_addrs[&label(1)] % 16, 0);
        // Everything still decodes (padding is NOPs).
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        assert!(decoded
            .iter()
            .any(|(_, d)| matches!(d.inst, Inst::Nop { .. })));
    }

    #[test]
    fn extern_labels_and_reloc_records() {
        let mut ext = HashMap::new();
        ext.insert(label(100), 0x700010u64); // some rodata
        let mut unit = EmitUnit::new("f");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Load {
                dst: Reg::Rax,
                mem: bolt_isa::Mem::rip(Target::Label(label(100))),
            }
            .into(),
        );
        b0.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0];
        let r = emit_units(&[unit], 0x400000, 0x600000, &ext).unwrap();
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        match decoded[0].1.inst {
            Inst::Load {
                mem: bolt_isa::Mem::RipRel { target },
                ..
            } => {
                assert_eq!(target, Target::Addr(0x700010));
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.relocs.len(), 1);
        assert_eq!(r.relocs[0].label, label(100));
    }

    #[test]
    fn unresolved_label_is_error() {
        let mut unit = EmitUnit::new("f");
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Call {
                target: Target::Label(label(999)),
            }
            .into(),
        );
        b0.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0];
        assert_eq!(
            emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap_err(),
            EmitError::UnresolvedLabel(label(999))
        );
    }

    #[test]
    fn trailing_fallthrough_rejected() {
        let mut unit = EmitUnit::new("f");
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(Inst::Push(Reg::Rax).into());
        unit.blocks = vec![b0];
        assert!(matches!(
            emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()),
            Err(EmitError::TrailingFallthrough { .. })
        ));
    }

    #[test]
    fn line_and_eh_metadata_carried() {
        let mut unit = EmitUnit::new("f");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        let mut call = EmitInst::new(Inst::Call {
            target: Target::Label(label(1)),
        });
        call.line = Some(LineInfo { file: 0, line: 22 });
        call.eh_pad = Some(label(1));
        b0.insts.push(call);
        b0.insts.push(Inst::Ret.into());
        let mut b1 = EmitBlock::new(label(1));
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        assert_eq!(r.line_entries.len(), 1);
        assert_eq!(
            r.line_entries[0],
            (0x400000, LineInfo { file: 0, line: 22 })
        );
        assert_eq!(r.eh_entries.len(), 1);
        assert_eq!(r.eh_entries[0].0, 0x400000);
        assert_eq!(r.eh_entries[0].1, label(1));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut unit = EmitUnit::new("f");
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(Inst::Ret.into());
        let mut b1 = EmitBlock::new(label(0));
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        assert_eq!(
            emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap_err(),
            EmitError::DuplicateLabel(label(0))
        );
    }
}
