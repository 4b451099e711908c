//! Seeded defects for verifier validation.
//!
//! Each [`Mutation`] corrupts a rewritten ELF the way a buggy rewriter
//! would — retargeted branch, blocks swapped without fixups, truncated
//! function, garbage bytes, corrupted jump table, overlapping or missing
//! symbols — so tests can prove [`crate::verify_rewrite`] catches every
//! defect class rather than merely accepting good binaries.
//!
//! [`SemMutation`] plays the same role one layer down, for the
//! *semantic* translation validator: each variant corrupts an emulator
//! translation (the decoded instruction pool, the parallel micro-op
//! pool, and the recorded memory shapes) **consistently**, so no
//! cross-check of the pools against each other could notice — only
//! comparing against the meaning of the original bytes, as the symbolic
//! validator does, can catch it.

use crate::FindingKind;
use bolt_elf::{Elf, SymKind};
use bolt_emu::{MemShape, MicroOp, SemFindingKind, UopKind};
use bolt_ir::{BinaryContext, BinaryFunction};
use bolt_isa::{decode, Inst, JumpWidth, Mem, Reg, Target};
use std::fmt;

/// One kind of seeded defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Bump the low displacement byte of a conditional branch so it
    /// points one byte past its real target.
    RetargetJcc,
    /// Rewrite a short `jcc` opcode into a short `jmp`, silently
    /// dropping one CFG edge.
    DropCondBranch,
    /// Swap the byte ranges of two adjacent basic blocks without fixing
    /// up any branches.
    SwapBlocks,
    /// Overwrite a function's final terminator with NOPs so it falls
    /// through into padding or the next function.
    TruncateFunction,
    /// Replace a function's first byte with an undecodable opcode.
    GarbageBytes,
    /// Add 1 to a jump-table entry in the data section.
    CorruptJumpTable,
    /// Bump the low displacement byte of a direct call into rewritten
    /// text so it lands between function entries.
    RetargetCall,
    /// Extend a function symbol's size past the start of the next one.
    OverlapSymbols,
    /// Delete the output symbol of an emitted function.
    DeleteSymbol,
    /// Bump the low displacement byte of the `jmp` patched over a moved
    /// function's original entry, so it lands between function entries.
    RetargetEntryPatch,
}

impl Mutation {
    /// Every mutation, for exhaustive harness loops.
    pub const ALL: [Mutation; 10] = [
        Mutation::RetargetJcc,
        Mutation::DropCondBranch,
        Mutation::SwapBlocks,
        Mutation::TruncateFunction,
        Mutation::GarbageBytes,
        Mutation::CorruptJumpTable,
        Mutation::RetargetCall,
        Mutation::OverlapSymbols,
        Mutation::DeleteSymbol,
        Mutation::RetargetEntryPatch,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Mutation::RetargetJcc => "retarget-jcc",
            Mutation::DropCondBranch => "drop-cond-branch",
            Mutation::SwapBlocks => "swap-blocks",
            Mutation::TruncateFunction => "truncate-function",
            Mutation::GarbageBytes => "garbage-bytes",
            Mutation::CorruptJumpTable => "corrupt-jump-table",
            Mutation::RetargetCall => "retarget-call",
            Mutation::OverlapSymbols => "overlap-symbols",
            Mutation::DeleteSymbol => "delete-symbol",
            Mutation::RetargetEntryPatch => "retarget-entry-patch",
        }
    }

    /// The finding kind the verifier is guaranteed to report for this
    /// defect (it may report others on top).
    pub fn expected_kind(self) -> FindingKind {
        match self {
            Mutation::RetargetJcc => FindingKind::CfgMismatch,
            Mutation::DropCondBranch => FindingKind::CfgMismatch,
            Mutation::SwapBlocks => FindingKind::CfgMismatch,
            Mutation::TruncateFunction => FindingKind::FallthroughOutOfFunction,
            Mutation::GarbageBytes => FindingKind::UndecodableBytes,
            Mutation::CorruptJumpTable => FindingKind::DanglingJumpTarget,
            Mutation::RetargetCall => FindingKind::DanglingJumpTarget,
            Mutation::OverlapSymbols => FindingKind::OverlappingCode,
            Mutation::DeleteSymbol => FindingKind::MissingFunction,
            Mutation::RetargetEntryPatch => FindingKind::DanglingJumpTarget,
        }
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Applies `m` to the first applicable site in `elf`, returning a
/// description of what was corrupted, or `None` when the binary has no
/// applicable site (e.g. no jump tables anywhere).
pub fn apply_mutation(m: Mutation, elf: &mut Elf, ctx: &BinaryContext) -> Option<String> {
    match m {
        Mutation::RetargetJcc => retarget_branch(elf, ctx, BranchKind::Jcc),
        Mutation::DropCondBranch => drop_cond_branch(elf, ctx),
        Mutation::SwapBlocks => swap_blocks(elf, ctx),
        Mutation::TruncateFunction => truncate_function(elf, ctx),
        Mutation::GarbageBytes => garbage_bytes(elf, ctx),
        Mutation::CorruptJumpTable => corrupt_jump_table(elf, ctx),
        Mutation::RetargetCall => retarget_branch(elf, ctx, BranchKind::Call),
        Mutation::OverlapSymbols => overlap_symbols(elf),
        Mutation::DeleteSymbol => delete_symbol(elf, ctx),
        Mutation::RetargetEntryPatch => retarget_entry_patch(elf, ctx),
    }
}

/// A decoded instruction and its place in the binary.
struct Slot {
    addr: u64,
    inst: Inst,
    len: u8,
}

/// Emitted functions with their hot-fragment symbol ranges.
fn hot_frags<'a>(elf: &Elf, ctx: &'a BinaryContext) -> Vec<(&'a BinaryFunction, u64, u64)> {
    let mut out = Vec::new();
    for f in &ctx.functions {
        if !f.is_simple || f.folded_into.is_some() {
            continue;
        }
        if let Some(s) = elf
            .symbols
            .iter()
            .find(|s| s.kind == SymKind::Func && s.name == f.name && s.size > 0)
        {
            out.push((f, s.value, s.size));
        }
    }
    out.sort_by_key(|&(_, addr, _)| addr);
    out
}

fn decode_range(elf: &Elf, start: u64, size: u64) -> Option<Vec<Slot>> {
    let bytes = elf.read_vaddr(start, size as usize)?;
    let mut slots = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let addr = start + off as u64;
        let d = decode(&bytes[off..], addr).ok()?;
        slots.push(Slot {
            addr,
            inst: d.inst,
            len: d.len,
        });
        off += d.len as usize;
    }
    Some(slots)
}

fn write_bytes(elf: &mut Elf, addr: u64, f: impl FnOnce(&mut [u8])) -> bool {
    for s in &mut elf.sections {
        if s.is_alloc() && addr >= s.addr {
            let off = (addr - s.addr) as usize;
            if off < s.data.len() {
                f(&mut s.data[off..]);
                return true;
            }
        }
    }
    false
}

enum BranchKind {
    Jcc,
    Call,
}

/// Bumps the low displacement byte of the first matching branch, moving
/// its target one byte forward without touching anything else.
fn retarget_branch(elf: &mut Elf, ctx: &BinaryContext, kind: BranchKind) -> Option<String> {
    let site = hot_frags(elf, ctx)
        .into_iter()
        .find_map(|(f, addr, size)| {
            let slots = decode_range(elf, addr, size)?;
            slots.into_iter().find_map(|s| {
                let (matched, disp_len) = match (&kind, &s.inst) {
                    (BranchKind::Jcc, Inst::Jcc { .. }) => (true, if s.len == 2 { 1 } else { 4 }),
                    (
                        BranchKind::Call,
                        Inst::Call {
                            target: Target::Addr(_),
                        },
                    ) => (true, 4),
                    _ => (false, 0),
                };
                if matched {
                    Some((f.name.clone(), s.addr, s.addr + s.len as u64 - disp_len))
                } else {
                    None
                }
            })
        })?;
    let (name, at, disp_addr) = site;
    write_bytes(elf, disp_addr, |b| b[0] = b[0].wrapping_add(1))
        .then(|| format!("bumped branch displacement at {at:#x} in {name}"))
}

/// Bumps the low displacement byte of the first emitted function's
/// entry patch: the `jmp` at its original address then lands one byte
/// past its new entry.
fn retarget_entry_patch(elf: &mut Elf, ctx: &BinaryContext) -> Option<String> {
    let site = hot_frags(elf, ctx)
        .into_iter()
        .find_map(|(f, new_entry, _)| {
            let slot = decode_range(elf, f.address, 5)?.into_iter().next()?;
            let patched = slot.inst
                == Inst::Jmp {
                    target: Target::Addr(new_entry),
                    width: JumpWidth::Near,
                };
            patched.then(|| (f.name.clone(), f.address))
        })?;
    let (name, at) = site;
    write_bytes(elf, at + 1, |b| b[0] = b[0].wrapping_add(1))
        .then(|| format!("bumped the entry patch at {at:#x} of {name}"))
}

/// Rewrites the first short `jcc` (opcode `0x70+cc`) into a short `jmp`
/// (`0xEB`), keeping the displacement: the branch becomes unconditional
/// and the fall-through edge silently disappears.
fn drop_cond_branch(elf: &mut Elf, ctx: &BinaryContext) -> Option<String> {
    let site = hot_frags(elf, ctx)
        .into_iter()
        .find_map(|(f, addr, size)| {
            let slots = decode_range(elf, addr, size)?;
            slots
                .into_iter()
                .find(|s| matches!(s.inst, Inst::Jcc { .. }) && s.len == 2)
                .map(|s| (f.name.clone(), s.addr))
        })?;
    let (name, at) = site;
    write_bytes(elf, at, |b| b[0] = 0xEB)
        .then(|| format!("rewrote short jcc at {at:#x} in {name} into jmp"))
}

/// Swaps the byte ranges of the first two adjacent non-empty blocks with
/// differing bytes, leaving every branch displacement stale.
fn swap_blocks(elf: &mut Elf, ctx: &BinaryContext) -> Option<String> {
    let site = hot_frags(elf, ctx)
        .into_iter()
        .find_map(|(f, addr, size)| {
            let slots = decode_range(elf, addr, size)?;
            // Derive hot block byte spans by walking the layout over the
            // decoded stream, mirroring the emitter's packing.
            let cold = f.cold_start.unwrap_or(f.layout.len());
            let hot = &f.layout[..cold];
            let total: usize = hot.iter().map(|&b| f.block(b).insts.len()).sum();
            if total != slots.len() {
                return None;
            }
            let mut spans: Vec<(u64, u64)> = Vec::new(); // (start, len)
            let mut cursor = 0usize;
            for &b in hot {
                let n = f.block(b).insts.len();
                if n > 0 {
                    let start = slots[cursor].addr;
                    let end = slots[cursor + n - 1].addr + slots[cursor + n - 1].len as u64;
                    spans.push((start, end - start));
                }
                cursor += n;
            }
            spans.windows(2).find_map(|w| {
                let (a_start, a_len) = w[0];
                let (b_start, b_len) = w[1];
                if a_start + a_len != b_start {
                    return None;
                }
                let a = elf.read_vaddr(a_start, a_len as usize)?.to_vec();
                let b = elf.read_vaddr(b_start, b_len as usize)?.to_vec();
                (a != b).then(|| (f.name.clone(), a_start, a_len as usize, b_len as usize))
            })
        })?;
    let (name, start, a_len, b_len) = site;
    write_bytes(elf, start, |bytes| {
        bytes[..a_len + b_len].rotate_left(a_len);
    })
    .then(|| format!("swapped adjacent blocks at {start:#x} in {name}"))
}

/// NOPs out the final terminator of the first hot fragment, so the
/// function runs off its own end.
fn truncate_function(elf: &mut Elf, ctx: &BinaryContext) -> Option<String> {
    let site = hot_frags(elf, ctx)
        .into_iter()
        .find_map(|(f, addr, size)| {
            let slots = decode_range(elf, addr, size)?;
            let last = slots.last()?;
            last.inst
                .is_terminator()
                .then(|| (f.name.clone(), last.addr, last.len as usize))
        })?;
    let (name, at, len) = site;
    write_bytes(elf, at, |b| b[..len].fill(0x90))
        .then(|| format!("replaced terminator at {at:#x} in {name} with NOPs"))
}

/// Stamps an undecodable opcode over a function's first byte.
fn garbage_bytes(elf: &mut Elf, ctx: &BinaryContext) -> Option<String> {
    let (f, addr, _) = hot_frags(elf, ctx).into_iter().next()?;
    let name = f.name.clone();
    // 0x06 is a removed 32-bit-era opcode (`push es`), invalid in long mode.
    write_bytes(elf, addr, |b| b[0] = 0x06)
        .then(|| format!("wrote garbage byte at {addr:#x} in {name}"))
}

/// Adds 1 to the first entry of the first jump table owned by an
/// emitted function.
fn corrupt_jump_table(elf: &mut Elf, ctx: &BinaryContext) -> Option<String> {
    let site = ctx
        .functions
        .iter()
        .filter(|f| f.is_simple && f.folded_into.is_none())
        .flat_map(|f| f.jump_tables.iter().map(move |jt| (f, jt)))
        .find_map(|(f, jt)| {
            let v = elf.read_u64(jt.addr)?;
            (!jt.targets.is_empty()).then(|| (f.name.clone(), jt.addr, v))
        })?;
    let (name, addr, v) = site;
    write_bytes(elf, addr, |b| {
        b[..8].copy_from_slice(&(v + 1).to_le_bytes());
    })
    .then(|| format!("corrupted jump-table entry at {addr:#x} of {name}"))
}

/// Extends the first exec-section function symbol one byte into its
/// neighbor.
fn overlap_symbols(elf: &mut Elf) -> Option<String> {
    let mut funcs: Vec<(u64, u64, usize)> = elf
        .symbols
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.kind == SymKind::Func
                && s.size > 0
                && matches!(s.section, bolt_elf::SymSection::Section(i)
                    if elf.sections.get(i).is_some_and(|sec| sec.is_exec()))
        })
        .map(|(i, s)| (s.value, s.size, i))
        .collect();
    funcs.sort_unstable();
    let pair = funcs.windows(2).next()?;
    let (a_start, _, a_idx) = pair[0];
    let (b_start, _, _) = pair[1];
    let new_size = b_start - a_start + 1;
    let name = elf.symbols[a_idx].name.clone();
    elf.symbols[a_idx].size = new_size;
    Some(format!(
        "extended {name} to overlap its neighbor at {b_start:#x}"
    ))
}

// ---------------------------------------------------------------------------
// Semantic translation mutations.

/// One kind of seeded translation defect: a corruption of an emulator
/// block translation that stays *internally consistent* — the micro-op
/// pool faithfully mirrors the (corrupted) instruction pool, so the
/// structural validator accepts it — but no longer means what the
/// original bytes mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemMutation {
    /// A `mov` lands in the wrong destination register in both pools.
    WrongRegister,
    /// A negative immediate loses its sign extension: the low 32 bits
    /// are kept, zero-extended, in both pools.
    DroppedSignExtend,
    /// A base+index*scale effective address swaps its scale factor in
    /// both pools.
    SwappedEaScale,
    /// A live flag writer is dropped: the instruction becomes a
    /// zero-masked-count shift (architecturally not a flags writer) and
    /// its micro-op a `Nop`, as if the liveness pass had wrongly marked
    /// it dead and the lowering had elided it.
    DeadFlagWriter,
    /// Two adjacent recorded memory shapes swap places — the pools the
    /// structural validator checks are untouched; only the shape list
    /// (which announces D-side event order to the superblock engine)
    /// lies.
    ReorderedMemEffect,
    /// A conditional branch tests the inverted condition in both pools.
    WrongCondCode,
    /// A direct branch target moves 16 bytes forward in both pools.
    WrongBranchTarget,
}

impl SemMutation {
    /// Every semantic mutation, for exhaustive harness loops.
    pub const ALL: [SemMutation; 7] = [
        SemMutation::WrongRegister,
        SemMutation::DroppedSignExtend,
        SemMutation::SwappedEaScale,
        SemMutation::DeadFlagWriter,
        SemMutation::ReorderedMemEffect,
        SemMutation::WrongCondCode,
        SemMutation::WrongBranchTarget,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SemMutation::WrongRegister => "wrong-register",
            SemMutation::DroppedSignExtend => "dropped-sign-extend",
            SemMutation::SwappedEaScale => "swapped-ea-scale",
            SemMutation::DeadFlagWriter => "dead-flag-writer",
            SemMutation::ReorderedMemEffect => "reordered-mem-effect",
            SemMutation::WrongCondCode => "wrong-cond-code",
            SemMutation::WrongBranchTarget => "wrong-branch-target",
        }
    }

    /// The finding kind the symbolic validator is guaranteed to report
    /// for this defect (it may report others on top).
    pub fn expected_kind(self) -> SemFindingKind {
        match self {
            SemMutation::WrongRegister => SemFindingKind::RegMismatch,
            SemMutation::DroppedSignExtend => SemFindingKind::RegMismatch,
            SemMutation::SwappedEaScale => SemFindingKind::MemEffectMismatch,
            SemMutation::DeadFlagWriter => SemFindingKind::FlagMismatch,
            SemMutation::ReorderedMemEffect => SemFindingKind::EffectOrderMismatch,
            SemMutation::WrongCondCode => SemFindingKind::TerminatorMismatch,
            SemMutation::WrongBranchTarget => SemFindingKind::TerminatorMismatch,
        }
    }
}

impl fmt::Display for SemMutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Applies `m` to the first applicable site in a block translation —
/// `insts` and `uops` are the parallel pools, `shapes` the recorded
/// memory shapes — returning a description of the corruption, or `None`
/// when the block has no applicable site. The corruption is always
/// consistent across the pools.
pub fn apply_sem_mutation(
    m: SemMutation,
    insts: &mut [(Inst, u8)],
    uops: &mut [MicroOp],
    shapes: &mut [MemShape],
) -> Option<String> {
    match m {
        SemMutation::WrongRegister => {
            let i = insts
                .iter()
                .position(|(inst, _)| matches!(inst, Inst::MovRR { .. }))?;
            let Inst::MovRR { dst, .. } = &mut insts[i].0 else {
                unreachable!()
            };
            let wrong = if *dst == Reg::Rax { Reg::Rbx } else { Reg::Rax };
            let desc = format!("inst {i}: mov destination {dst} -> {wrong}");
            *dst = wrong;
            uops[i].a = wrong.num();
            Some(desc)
        }
        SemMutation::DroppedSignExtend => {
            let i = insts.iter().position(|(inst, _)| {
                matches!(inst, Inst::MovRI { imm, .. } if *imm < 0 && *imm >= i32::MIN as i64)
            })?;
            let Inst::MovRI { imm, .. } = &mut insts[i].0 else {
                unreachable!()
            };
            let zext = (*imm as u32) as i64;
            let desc = format!("inst {i}: immediate {imm:#x} zero-extended to {zext:#x}");
            *imm = zext;
            uops[i].imm = zext;
            Some(desc)
        }
        SemMutation::SwappedEaScale => {
            let i = insts.iter().position(|(inst, _)| {
                matches!(
                    inst,
                    Inst::Load {
                        mem: Mem::BaseIndexScale { .. },
                        ..
                    } | Inst::Store {
                        mem: Mem::BaseIndexScale { .. },
                        ..
                    }
                )
            })?;
            let (Inst::Load { mem, .. } | Inst::Store { mem, .. }) = &mut insts[i].0 else {
                unreachable!()
            };
            let Mem::BaseIndexScale { scale, .. } = mem else {
                unreachable!()
            };
            let wrong = if *scale == 8 { 1 } else { 8 };
            let desc = format!("inst {i}: effective-address scale {scale} -> {wrong}");
            *scale = wrong;
            uops[i].d = wrong;
            Some(desc)
        }
        SemMutation::DeadFlagWriter => {
            // The site must be a live (`fl`) shift whose elision the
            // structural liveness re-derivation cannot see through:
            // every earlier flag writer must itself be live, so demand
            // flowing back past the elided site meets no dead mark.
            let i = (0..insts.len()).find(|&i| {
                matches!(insts[i].0, Inst::Shift { amount, .. } if amount & 63 != 0)
                    && uops[i].fl
                    && uops[..i].iter().all(|u| {
                        !matches!(
                            u.kind,
                            UopKind::AddRR
                                | UopKind::AddRI
                                | UopKind::SubRR
                                | UopKind::SubRI
                                | UopKind::AndRR
                                | UopKind::AndRI
                                | UopKind::OrRR
                                | UopKind::OrRI
                                | UopKind::XorRR
                                | UopKind::XorRI
                                | UopKind::CmpRR
                                | UopKind::CmpRI
                                | UopKind::Test
                                | UopKind::Imul
                                | UopKind::Shl
                                | UopKind::Shr
                                | UopKind::Sar
                        ) || u.fl
                    })
            })?;
            let Inst::Shift { amount, .. } = &mut insts[i].0 else {
                unreachable!()
            };
            let desc = format!(
                "inst {i}: live shift (count {amount}) elided as a zero-masked-count shift"
            );
            // `amount & 63 == 0` shifts write neither register nor
            // flags, so the faithful lowering of the corrupted
            // instruction *is* a dead `Nop` — structurally perfect,
            // semantically a dropped live flag write.
            *amount = 64;
            let len = uops[i].len;
            uops[i] = MicroOp {
                kind: UopKind::Nop,
                a: 0,
                b: 0,
                c: 0,
                d: 0,
                len,
                fl: false,
                imm: 0,
            };
            Some(desc)
        }
        SemMutation::ReorderedMemEffect => {
            let i = shapes
                .windows(2)
                .position(|w| (w[0].inst, w[0].write) != (w[1].inst, w[1].write))?;
            let desc = format!(
                "shapes {i}/{}: swapped recorded memory effects of insts {} and {}",
                i + 1,
                shapes[i].inst,
                shapes[i + 1].inst
            );
            shapes.swap(i, i + 1);
            Some(desc)
        }
        SemMutation::WrongCondCode => {
            let i = insts
                .iter()
                .position(|(inst, _)| matches!(inst, Inst::Jcc { .. }))?;
            let Inst::Jcc { cond, .. } = &mut insts[i].0 else {
                unreachable!()
            };
            let wrong = cond.invert();
            let desc = format!(
                "inst {i}: branch condition {} -> {}",
                cond.suffix(),
                wrong.suffix()
            );
            *cond = wrong;
            uops[i].c = wrong.cc();
            Some(desc)
        }
        SemMutation::WrongBranchTarget => {
            let i = insts.iter().position(|(inst, _)| {
                matches!(
                    inst,
                    Inst::Jmp {
                        target: Target::Addr(_),
                        ..
                    } | Inst::Jcc {
                        target: Target::Addr(_),
                        ..
                    }
                )
            })?;
            let (Inst::Jmp { target, .. } | Inst::Jcc { target, .. }) = &mut insts[i].0 else {
                unreachable!()
            };
            let Target::Addr(addr) = target else {
                unreachable!()
            };
            let desc = format!("inst {i}: branch target {addr:#x} -> {:#x}", *addr + 16);
            *addr += 16;
            uops[i].imm = *addr as i64;
            Some(desc)
        }
    }
}

/// Removes the output symbol of the first emitted function.
fn delete_symbol(elf: &mut Elf, ctx: &BinaryContext) -> Option<String> {
    let (f, addr, _) = hot_frags(elf, ctx).into_iter().next()?;
    let name = f.name.clone();
    let pos = elf
        .symbols
        .iter()
        .position(|s| s.kind == SymKind::Func && s.name == name && s.value == addr)?;
    elf.symbols.remove(pos);
    Some(format!("deleted symbol {name}"))
}
