//! Differential test for the emitter: `emit_units` used to keep a
//! 32-byte `Placed { unit, block, inst, width }` record and a `u64`
//! length per instruction, re-encode every instruction each relaxation
//! round, and resolve labels through a `HashMap`. It now computes each
//! length once, re-sums block lengths per round, and resolves labels
//! through a dense table with a map beside it for labels past its range.
//! The `Placed` implementation is kept here as the reference, changed
//! only where the encoder's and the result's types changed (one inline
//! fixup, [`LabelAddrs`]); both must produce the same `EmitResult` (or
//! the same error) on random units — branches around the ±127-byte edge
//! of a short encoding, hot/cold splits, extern and unresolved labels,
//! block labels far past the dense range and extern labels in its
//! holes, address targets, alignment, line and landing-pad metadata —
//! and on a hand-built relaxation cascade.

use super::*;
use bolt_isa::{Cond, Fixup, Mem, Reg};
use proptest::prelude::*;

/// NOP padding as the reference appended it.
fn push_nops(bytes: &mut Vec<u8>, mut n: u64) {
    while n > 0 {
        let chunk = n.min(9) as usize;
        bytes.extend_from_slice(bolt_isa::NOP_SEQUENCES[chunk - 1]);
        n -= chunk as u64;
    }
}

/// One placed instruction during layout.
struct Placed {
    /// Unit index, block index, instruction index.
    unit: usize,
    block: usize,
    inst: usize,
    /// Working width for relaxable branches.
    width: Option<JumpWidth>,
}

/// The reference emitter (comments as they were).
fn emit_units_placed(
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

    // Working widths: all relaxable branches start Short.
    let mut placed: Vec<Placed> = Vec::new();
    for &(_, ui, bi) in &order {
        for (ii, inst) in units[ui].blocks[bi].insts.iter().enumerate() {
            let width = match inst.inst {
                Inst::Jcc { .. } | Inst::Jmp { .. } => Some(JumpWidth::Short),
                _ => None,
            };
            placed.push(Placed {
                unit: ui,
                block: bi,
                inst: ii,
                width,
            });
        }
    }

    // Relaxation loop: compute addresses with current widths, grow any
    // short branch whose target does not fit, repeat.
    let mut label_addrs: HashMap<Label, u64> = HashMap::new();
    let mut inst_addrs: Vec<u64> = vec![0; placed.len()];
    let mut inst_lens: Vec<u64> = vec![0; placed.len()];
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
                if let Some(w) = placed[pi].width {
                    set_width(&mut working, w);
                }
                let len = encoded_len(&working) as u64;
                inst_addrs[pi] = pos[stream];
                inst_lens[pi] = len;
                pos[stream] += len;
                pi += 1;
            }
            order_i += 1;
        }

        // Width check pass.
        let mut grew = false;
        for (pi, p) in placed.iter_mut().enumerate() {
            if p.width != Some(JumpWidth::Short) {
                continue;
            }
            let inst = &units[p.unit].blocks[p.block].insts[p.inst].inst;
            let target = inst.target().expect("relaxable branches have targets");
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
            let end = inst_addrs[pi] + inst_lens[pi];
            let rel = to.wrapping_sub(end) as i64;
            if i8::try_from(rel).is_err() {
                p.width = Some(JumpWidth::Near);
                grew = true;
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
            if let Some(w) = placed[pi].width {
                set_width(&mut working, w);
            }
            let enc = encode_at(&working, addr)?;
            let mut bytes = enc.bytes;
            if let Some(f) = &enc.fixup {
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
    for (label, addr) in label_addrs {
        result.label_addrs.insert(label, addr);
    }
    result.line_entries.sort_unstable_by_key(|e| e.0);
    Ok(result)
}

fn apply_one(bytes: &mut [u8], f: &Fixup, addr: u64, to: u64) -> Result<(), EmitError> {
    let len = bytes.len();
    apply_fixup(bytes, f, addr, len, to)?;
    Ok(())
}

const TEXT_BASE: u64 = 0x40_0000;

/// Extern labels and where they resolve: two just before the hot text
/// (in short reach of its first bytes and just out of it), one in the
/// cold stream's neighbourhood, one far away in data; and two with small
/// numbers, which no block of a sparse program uses (see [`block_label`]),
/// so they sit in holes of the emitter's dense label range.
fn extern_labels() -> HashMap<Label, u64> {
    [
        (Label(10_000), TEXT_BASE - 100),
        (Label(10_001), TEXT_BASE - 140),
        (Label(10_002), 0x60_0000 + 0x90),
        (Label(10_003), 0x70_0010),
        (Label(1), TEXT_BASE - 60),
        (Label(3), 0x70_0020),
    ]
    .into_iter()
    .collect()
}

/// The label of block `k`: `k` itself, or in a sparse program, for odd
/// `k`, a label far past the dense range, so those blocks resolve
/// through the emitter's fallback map.
fn block_label(k: u32, sparse: bool) -> Label {
    if sparse && k % 2 == 1 {
        Label((1 << 20) + k)
    } else {
        Label(k)
    }
}

/// Appends `bytes` bytes of NOPs.
fn push_filler(b: &mut EmitBlock, mut bytes: u16) {
    while bytes > 0 {
        let len = bytes.min(9) as u8;
        b.insts.push(Inst::Nop { len }.into());
        bytes -= u16::from(len);
    }
}

/// One random block: filler bytes (NOPs, so every byte count is
/// reachable), terminator, destination, alignment, metadata selectors.
type BlockSeed = (u16, u8, u32, u8, bool, u8);

fn arb_block() -> impl Strategy<Value = BlockSeed> {
    (
        // Filler: mostly tight, often right around a short branch's
        // reach, sometimes well past it.
        prop_oneof![0u16..8, 116u16..=134, 0u16..300],
        any::<u8>(),
        any::<u32>(),
        any::<u8>(),
        any::<bool>(),
        any::<u8>(),
    )
}

/// Random units plus a cold-stream base: near the hot text (so hot/cold
/// branches can be short) or far from it; and whether block labels are
/// sparse.
fn arb_program() -> impl Strategy<Value = (Vec<(Vec<BlockSeed>, u8)>, bool, bool)> {
    (
        proptest::collection::vec(
            (proptest::collection::vec(arb_block(), 1..7), any::<u8>()),
            1..4,
        ),
        any::<bool>(),
        any::<bool>(),
    )
}

/// Builds the units. Block labels are global block indices (mapped by
/// [`block_label`]), so branches cross units and streams freely.
fn build(program: &[(Vec<BlockSeed>, u8)], sparse: bool) -> Vec<EmitUnit> {
    let label = |k| block_label(k, sparse);
    let total: u32 = program.iter().map(|(b, _)| b.len() as u32).sum();
    let mut next_label = 0u32;
    let mut units = Vec::new();
    for (ui, (blocks, split)) in program.iter().enumerate() {
        let mut unit = EmitUnit::new(format!("f{ui}"));
        unit.align = if split & 0x80 != 0 { 16 } else { 1 };
        let first = next_label;
        for &(filler, term, dest, align, line, meta) in blocks {
            let mut b = EmitBlock::new(label(next_label));
            next_label += 1;
            b.align = [1, 1, 8, 16][usize::from(align % 4)];
            push_filler(&mut b, filler);
            let dest = match dest % 32 {
                0..=19 => Target::Label(label(dest / 32 % total)),
                20..=23 => Target::Label(Label(10_000 + dest / 32 % 4)),
                24 | 25 => Target::Label(Label(1 + 2 * (dest / 32 % 2))),
                26..=30 => Target::Addr(TEXT_BASE - 300 + u64::from(dest / 32 % 900)),
                _ => Target::Label(Label(99_999)),
            };
            match meta % 4 {
                0 => {
                    let mut call = EmitInst::new(Inst::Call {
                        target: Target::Label(Label(10_000 + u32::from(meta / 4 % 4))),
                    });
                    call.eh_pad = Some(label(first + u32::from(meta / 16) % blocks.len() as u32));
                    b.insts.push(call);
                }
                1 => b.insts.push(
                    Inst::Load {
                        dst: Reg::Rax,
                        mem: Mem::rip(Target::Label(Label(10_003))),
                    }
                    .into(),
                ),
                _ => {}
            }
            let width = JumpWidth::Near;
            let term = match term % 8 {
                0 | 1 => Some(Inst::Ret),
                2 | 3 => Some(Inst::Jmp {
                    target: dest,
                    width,
                }),
                4 | 5 => Some(Inst::Jcc {
                    cond: Cond::Ne,
                    target: dest,
                    width,
                }),
                6 => Some(Inst::Ud2),
                _ => None, // falls through
            };
            if let Some(inst) = term {
                let mut ei = EmitInst::new(inst);
                ei.line = line.then_some(LineInfo {
                    file: 0,
                    line: next_label,
                });
                b.insts.push(ei);
            }
            unit.blocks.push(b);
        }
        let n = unit.blocks.len();
        unit.cold_start = (split % 3 == 0).then_some(usize::from(split / 3) % (n + 1));
        // Fragments mostly end in a `ret`; one in eight is left to fall
        // off its end, which both emitters must reject alike.
        let ends = [
            unit.cold_start.filter(|&c| c > 0).map(|c| c - 1),
            Some(n - 1),
        ];
        for end in ends.into_iter().flatten() {
            let falls = !unit.blocks[end].insts.last().is_some_and(|i| {
                i.inst.is_uncond_branch() || i.inst.is_return() || i.inst == Inst::Ud2
            });
            if falls && blocks[end].1 & 0xE0 != 0 {
                unit.blocks[end].insts.push(Inst::Ret.into());
            }
        }
        units.push(unit);
    }
    units
}

fn both(units: &[EmitUnit], cold_base: u64) -> [Result<EmitResult, EmitError>; 2] {
    let ext = extern_labels();
    [
        emit_units(units, TEXT_BASE, cold_base, &ext),
        emit_units_placed(units, TEXT_BASE, cold_base, &ext),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Same bytes, labels, symbols, line/EH entries and relocations — or
    /// the same error — as the `Placed` reference.
    #[test]
    fn emitter_matches_the_placed_reference((program, near_cold, sparse) in arb_program()) {
        let units = build(&program, sparse);
        let cold_base = if near_cold { TEXT_BASE + 0x300 } else { 0x60_0000 };
        let [new, reference] = both(&units, cold_base);
        prop_assert_eq!(&new, &reference);
        // In shards, whatever the block count: the same, the first error
        // in placement order included.
        for shards in [2, 3, 5] {
            let sharded = emit_in_shards(&units[..], TEXT_BASE, cold_base, &extern_labels(), shards);
            prop_assert_eq!(&sharded, &reference, "{} shards", shards);
        }
    }
}

/// A `jcc` forward or a `jmp` back over `gap` bytes of NOPs, then a
/// `ret`; returns the branch's emitted length, with the reference
/// agreeing on everything.
fn emitted_len(gap: u16, backward: bool) -> usize {
    let mut unit = EmitUnit::new("edge");
    unit.align = 1;
    let mut blocks = [0, 1, 2].map(|l| EmitBlock::new(Label(l)));
    let (branch, at, over) = if backward {
        let jmp = Inst::Jmp {
            target: Target::Label(Label(0)),
            width: JumpWidth::Near,
        };
        (jmp, 1, 0)
    } else {
        let jcc = Inst::Jcc {
            cond: Cond::E,
            target: Target::Label(Label(2)),
            width: JumpWidth::Near,
        };
        (jcc, 0, 1)
    };
    blocks[at].insts.push(branch.into());
    push_filler(&mut blocks[over], gap);
    blocks[2].insts.push(Inst::Ret.into());
    unit.blocks = blocks.into();
    let [new, reference] = both(&[unit], 0x60_0000);
    let new = new.expect("emits");
    assert_eq!(
        Ok(&new),
        reference.as_ref(),
        "gap {gap}, backward {backward}"
    );
    new.text.len() - usize::from(gap) - 1
}

#[test]
fn short_branches_stop_exactly_at_the_i8_edge() {
    // Forward: rel = gap; backward: rel = -(gap + 2) for the short jmp.
    for gap in 100..=140 {
        let forward = if gap <= 127 { 2 } else { 6 };
        assert_eq!(emitted_len(gap, false), forward, "forward gap {gap}");
        let backward = if gap + 2 <= 128 { 2 } else { 5 };
        assert_eq!(emitted_len(gap, true), backward, "backward gap {gap}");
    }
}

/// A `jcc` (B) growing from short to near pushes an earlier branch (A)
/// that jumps over it past `i8` on the next round: A fits at 125 bytes
/// while B is short, and needs 129 once B is near.
#[test]
fn growth_cascades_to_a_branch_that_fit_in_the_first_round() {
    let jcc = |cond, to| Inst::Jcc {
        cond,
        target: Target::Label(Label(to)),
        width: JumpWidth::Short,
    };
    let build = |far: u16| {
        let mut unit = EmitUnit::new("cascade");
        unit.align = 1;
        let mut b0 = EmitBlock::new(Label(0));
        b0.insts.push(jcc(Cond::E, 2).into()); // A
        let mut b1 = EmitBlock::new(Label(1));
        b1.insts.push(jcc(Cond::Ne, 3).into()); // B
        let mut b2 = EmitBlock::new(Label(2));
        let mut b3 = EmitBlock::new(Label(3));
        push_filler(&mut b1, 123);
        push_filler(&mut b2, far);
        b3.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1, b2, b3];
        let [new, reference] = both(&[unit], 0x60_0000);
        let new = new.expect("emits");
        assert_eq!(Ok(&new), reference.as_ref(), "far {far}");
        let decoded = bolt_isa::decode_all(&new.text, TEXT_BASE).expect("decodes");
        (decoded[0].1.len, decoded[1].1.len)
    };
    // B's target in reach: both stay short.
    assert_eq!(build(0), (2, 2));
    // B's target out of reach: B grows, and so, a round later, does A.
    assert_eq!(build(200), (6, 6));
}

/// Block labels at both ends of the label space (0, `1 << 20`,
/// `u32::MAX`), a call to an extern label in a hole of the dense range,
/// and a reference to a hole nothing defines: the dense table, its
/// fallback map and the extern map resolve as the reference does.
#[test]
fn labels_past_the_dense_range_resolve_like_the_reference() {
    let far = [Label(0), Label(1 << 20), Label(u32::MAX)];
    let emit = |hole: Label| {
        let mut unit = EmitUnit::new("sparse");
        unit.align = 1;
        let mut blocks = far.map(EmitBlock::new);
        let jmp = |to| Inst::Jmp {
            target: Target::Label(to),
            width: JumpWidth::Near,
        };
        blocks[0].insts.push(
            Inst::Jcc {
                cond: Cond::E,
                target: Target::Label(far[2]),
                width: JumpWidth::Near,
            }
            .into(),
        );
        blocks[0].insts.push(jmp(far[1]).into());
        let call = Inst::Call {
            target: Target::Label(hole),
        };
        blocks[1].insts.push(call.into());
        blocks[1].insts.push(jmp(far[0]).into());
        blocks[2].insts.push(Inst::Ret.into());
        unit.blocks = blocks.into();
        let [new, reference] = both(&[unit], 0x60_0000);
        assert_eq!(new, reference, "call to {hole}");
        new
    };
    let new = emit(Label(1)).expect("emits");
    let addrs: Vec<_> = far.iter().map(|&l| new.label_addrs.get(l)).collect();
    assert_eq!(
        addrs,
        [Some(TEXT_BASE), Some(TEXT_BASE + 4), Some(TEXT_BASE + 11)]
    );
    assert_eq!(new.label_addrs.len(), 3);
    assert_eq!(
        new.label_addrs.get(Label(1)),
        None,
        "externs are not blocks"
    );
    let decoded = bolt_isa::decode_all(&new.text, TEXT_BASE).expect("decodes");
    assert_eq!(
        decoded[2].1.inst.target(),
        Some(Target::Addr(TEXT_BASE - 60))
    );
    assert_eq!(
        emit(Label(2)).unwrap_err(),
        EmitError::UnresolvedLabel(Label(2))
    );
}
