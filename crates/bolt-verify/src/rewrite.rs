//! The independent re-disassembler: lifts a rewritten ELF back into a
//! CFG using only `bolt-isa` decoding and checks it against the
//! optimized IR.
//!
//! The verifier deliberately shares nothing with the emitter: it reads
//! the output symbol table, linearly decodes each emitted function's hot
//! and cold fragments, re-derives block addresses by walking the layout,
//! and then checks three layers:
//!
//! 1. **Instruction preservation** — every decoded instruction must match
//!    its IR counterpart 1:1, with control-flow targets resolved the way
//!    the rewriter was *supposed* to resolve them (labels to block
//!    addresses, old entry addresses of re-emitted functions to their new
//!    entries) and branch width ignored (relaxation is a legal
//!    transform).
//! 2. **Structural soundness, from bytes alone** — intra-function branch
//!    targets land on instruction boundaries; targets into rewritten
//!    text land on function entries; no fragment falls through into
//!    padding or the next function; function symbol ranges don't
//!    overlap; no decoded instruction is unreachable unless the IR also
//!    considers its block dead (kept only by `uce`-disabled presets);
//!    jump-table entries in data sections point at the right blocks.
//! 3. **Edge-set equality** — the CFG edge set recovered from the bytes
//!    (leader partition + decoded terminators) must equal the IR edge
//!    set mapped through the derived block addresses.
//!
//! Beside the emitted code it checks the rewriter's one edit to the
//! original text: every moved function's old entry jumps to its new one.

use crate::{Finding, FindingKind, VerifyReport};
use bolt_elf::{sections, Elf, SymKind, SymSection};
use bolt_ir::{BinaryContext, BinaryFunction, BlockId, ExceptionTable};
use bolt_isa::{decode, Inst, Mem, Target};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;

/// The sections the rewriter owns; targets inside them are held to a
/// stricter standard (must be function entries) than targets into the
/// preserved original text.
const BOLT_TEXT: &str = ".text.bolt";
const BOLT_TEXT_COLD: &str = ".text.bolt.cold";

/// A CFG edge set as `(from_block_addr, to_block_addr)` pairs.
pub type EdgeSet = BTreeSet<(u64, u64)>;

/// One decoded instruction with its location.
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    inst: Inst,
    len: u8,
}

impl Slot {
    fn end(&self) -> u64 {
        self.addr + self.len as u64
    }

    /// Whether execution can continue past this instruction.
    fn falls_through(&self) -> bool {
        !matches!(
            self.inst,
            Inst::Jmp { .. } | Inst::JmpInd { .. } | Inst::Ret | Inst::RepzRet | Inst::Ud2
        )
    }
}

/// Re-disassembles `elf` and checks every emitted function against the
/// optimized IR in `ctx`. A clean rewrite yields zero findings.
pub fn verify_rewrite(elf: &Elf, ctx: &BinaryContext) -> VerifyReport {
    let started = Instant::now();
    let env = VerifyEnv::new(elf, ctx);
    let mut findings = Vec::new();
    check_symbol_overlaps(elf, &mut findings);
    let mut checked = 0;
    for fi in 0..ctx.functions.len() {
        let f = &ctx.functions[fi];
        if !f.is_simple || f.folded_into.is_some() {
            continue;
        }
        checked += 1;
        findings.extend(env.check_function(fi).findings);
    }
    env.check_entry_patches(&mut findings);
    VerifyReport {
        findings,
        functions_checked: checked,
        duration: started.elapsed(),
    }
}

/// The recovered and IR edge sets of one emitted function, for the
/// round-trip property tests: `(ir_edges, decoded_edges)` as
/// `(from_block_addr, to_block_addr)` pairs. `None` when the function
/// was not emitted or failed to pair against the IR.
pub fn edge_sets(elf: &Elf, ctx: &BinaryContext, name: &str) -> Option<(EdgeSet, EdgeSet)> {
    let &fi = ctx.by_name.get(name)?;
    let env = VerifyEnv::new(elf, ctx);
    env.check_function(fi).edges
}

struct FnOutcome {
    findings: Vec<Finding>,
    edges: Option<(EdgeSet, EdgeSet)>,
}

/// Shared lookup tables for one verification sweep.
struct VerifyEnv<'a> {
    elf: &'a Elf,
    ctx: &'a BinaryContext,
    /// Output `Func` symbols by name.
    sym_map: HashMap<&'a str, (u64, u64)>,
    /// Every output `Func` symbol address (legal out-of-function code
    /// targets inside the rewritten text).
    entry_syms: HashSet<u64>,
    /// Old function entry address → new entry address, resolved through
    /// icf fold chains — the rewriter's `entry_label_of_addr` mirrored
    /// from the output symbol table.
    new_entry_of_old: HashMap<u64, u64>,
    /// Landing-pad addresses recorded in the rewritten EH section.
    eh_pads: HashSet<u64>,
    /// Address ranges of the rewriter-owned text sections.
    bolt_ranges: Vec<Range<u64>>,
}

impl<'a> VerifyEnv<'a> {
    fn new(elf: &'a Elf, ctx: &'a BinaryContext) -> VerifyEnv<'a> {
        let mut sym_map = HashMap::new();
        let mut entry_syms = HashSet::new();
        for s in &elf.symbols {
            if s.kind == SymKind::Func {
                sym_map.insert(s.name.as_str(), (s.value, s.size));
                entry_syms.insert(s.value);
            }
        }
        let mut new_entry_of_old = HashMap::new();
        for f in &ctx.functions {
            let mut k = f.folded_into;
            let mut keeper = f;
            while let Some(i) = k {
                keeper = &ctx.functions[i];
                k = keeper.folded_into;
            }
            if keeper.is_simple && keeper.folded_into.is_none() {
                if let Some(&(addr, _)) = sym_map.get(keeper.name.as_str()) {
                    new_entry_of_old.insert(f.address, addr);
                }
            }
        }
        let eh_pads = elf
            .section(sections::EH)
            .and_then(|s| ExceptionTable::from_bytes(&s.data).ok())
            .map(|t| t.entries.values().copied().collect())
            .unwrap_or_default();
        let bolt_ranges = [BOLT_TEXT, BOLT_TEXT_COLD]
            .iter()
            .filter_map(|n| elf.section(n).map(|s| s.addr_range()))
            .collect();
        VerifyEnv {
            elf,
            ctx,
            sym_map,
            entry_syms,
            new_entry_of_old,
            eh_pads,
            bolt_ranges,
        }
    }

    fn check_function(&self, fi: usize) -> FnOutcome {
        let func = &self.ctx.functions[fi];
        let mut findings = Vec::new();
        let mut out = FnOutcome {
            findings: Vec::new(),
            edges: None,
        };
        let push = |findings: &mut Vec<Finding>, kind, addr, detail| {
            findings.push(Finding {
                kind,
                function: func.name.clone(),
                addr,
                detail,
            });
        };

        let cold_start = func.cold_start.unwrap_or(func.layout.len());
        let hot_blocks = &func.layout[..cold_start.min(func.layout.len())];
        let cold_blocks = &func.layout[cold_start.min(func.layout.len())..];
        let ir_len = |blocks: &[BlockId]| -> usize {
            blocks.iter().map(|&b| func.block(b).insts.len()).sum()
        };
        if ir_len(&func.layout) == 0 {
            return out; // nothing was emitted for this function
        }

        // Locate the fragments in the output symbol table.
        let Some(&(hot_addr, hot_size)) = self.sym_map.get(func.name.as_str()) else {
            push(
                &mut findings,
                FindingKind::MissingFunction,
                func.address,
                "no symbol in rewritten binary".to_string(),
            );
            return FnOutcome {
                findings,
                edges: None,
            };
        };
        let cold_name = format!("{}.cold", func.name);
        let cold_sym = self.sym_map.get(cold_name.as_str()).copied();
        if ir_len(cold_blocks) > 0 && cold_sym.is_none() {
            push(
                &mut findings,
                FindingKind::MissingFunction,
                func.address,
                format!("cold fragment symbol {cold_name} missing"),
            );
            return FnOutcome {
                findings,
                edges: None,
            };
        }

        // Linear decode of both fragments.
        let mut frags: Vec<(Range<u64>, Vec<Slot>)> = Vec::new();
        for (start, size) in std::iter::once((hot_addr, hot_size))
            .chain(cold_sym.filter(|_| ir_len(cold_blocks) > 0))
        {
            match self.decode_fragment(func, start, size, &mut findings) {
                Some(slots) => frags.push((start..start + size, slots)),
                None => {
                    return FnOutcome {
                        findings,
                        edges: None,
                    }
                }
            }
        }
        let intra = |addr: u64| frags.iter().any(|(r, _)| r.contains(&addr));
        let slot_addrs: HashSet<u64> = frags
            .iter()
            .flat_map(|(_, s)| s.iter().map(|s| s.addr))
            .collect();

        // Structural checks that need no IR pairing: fragments must not
        // fall through into padding / the next function, and every
        // decoded code target must be defensible.
        for (range, slots) in &frags {
            if let Some(last) = slots.last() {
                if last.falls_through() {
                    push(
                        &mut findings,
                        FindingKind::FallthroughOutOfFunction,
                        last.addr,
                        format!("fragment ends with `{}` which can fall through", last.inst),
                    );
                }
            }
            let _ = range;
            for slot in slots {
                let target = match slot.inst {
                    Inst::Jcc { target, .. } | Inst::Jmp { target, .. } | Inst::Call { target } => {
                        target
                    }
                    _ => continue,
                };
                let Target::Addr(t) = target else { continue };
                if intra(t) {
                    if !slot_addrs.contains(&t) {
                        push(
                            &mut findings,
                            FindingKind::DanglingJumpTarget,
                            slot.addr,
                            format!(
                                "`{}` targets {t:#x}, not an instruction boundary",
                                slot.inst
                            ),
                        );
                    }
                } else if self.bolt_ranges.iter().any(|r| r.contains(&t)) {
                    if !self.entry_syms.contains(&t) {
                        push(
                            &mut findings,
                            FindingKind::DanglingJumpTarget,
                            slot.addr,
                            format!(
                                "`{}` targets {t:#x} inside rewritten text, not a function entry",
                                slot.inst
                            ),
                        );
                    }
                } else if self.elf.section_at(t).is_none_or(|(_, s)| !s.is_exec()) {
                    push(
                        &mut findings,
                        FindingKind::DanglingJumpTarget,
                        slot.addr,
                        format!("`{}` targets {t:#x} outside executable sections", slot.inst),
                    );
                }
            }
        }

        // Pair the decoded stream against the IR layout, fragment by
        // fragment, deriving each block's emitted address as we go.
        let frag_blocks: Vec<&[BlockId]> = if frags.len() == 2 {
            vec![hot_blocks, cold_blocks]
        } else {
            vec![&func.layout]
        };
        let mut block_addr: Vec<Option<u64>> = vec![None; func.blocks.len()];
        let mut paired = true;
        for (blocks, (range, slots)) in frag_blocks.iter().zip(&frags) {
            if ir_len(blocks) != slots.len() {
                push(
                    &mut findings,
                    FindingKind::CfgMismatch,
                    range.start,
                    format!(
                        "instruction count mismatch: IR has {}, decoded {}",
                        ir_len(blocks),
                        slots.len()
                    ),
                );
                paired = false;
                continue;
            }
            let frag_end = slots.last().map_or(range.start, |s| s.end());
            let mut cursor = 0usize;
            for &b in *blocks {
                block_addr[b.index()] = Some(slots.get(cursor).map_or(frag_end, |s| s.addr));
                cursor += func.block(b).insts.len();
            }
        }
        if !paired {
            out.findings = findings;
            return out;
        }

        // Instruction-by-instruction comparison.
        for (blocks, (_, slots)) in frag_blocks.iter().zip(&frags) {
            let mut idx = 0usize;
            for &b in *blocks {
                for ir in &func.block(b).insts {
                    let slot = &slots[idx];
                    idx += 1;
                    match self.resolve_ir_inst(&ir.inst, &block_addr) {
                        Ok(want) => {
                            if !inst_matches(&want, &slot.inst) {
                                push(
                                    &mut findings,
                                    FindingKind::CfgMismatch,
                                    slot.addr,
                                    format!("decoded `{}` where IR expects `{want}`", slot.inst),
                                );
                            }
                        }
                        Err(e) => {
                            push(&mut findings, FindingKind::CfgMismatch, slot.addr, e);
                        }
                    }
                }
            }
        }

        // Jump tables: the patched entries in the data sections must
        // point at the derived addresses of their target blocks.
        for jt in &func.jump_tables {
            for (k, &t) in jt.targets.iter().enumerate() {
                let ea = jt.addr + (jt.entry_size as u64) * k as u64;
                let want = block_addr[t.index()];
                match self.elf.read_u64(ea) {
                    Some(v) if Some(v) == want => {}
                    Some(v) => push(
                        &mut findings,
                        FindingKind::DanglingJumpTarget,
                        ea,
                        format!(
                            "jump table {} entry {k} is {v:#x}, expected {:#x} ({t})",
                            jt.name,
                            want.unwrap_or(0)
                        ),
                    ),
                    None => push(
                        &mut findings,
                        FindingKind::DanglingJumpTarget,
                        ea,
                        format!("jump table {} entry {k} is unreadable", jt.name),
                    ),
                }
            }
        }

        // Reachability over the decoded instructions: everything must be
        // reachable from the entry, a landing pad, or a jump table —
        // unless the IR itself considers the block dead (possible only
        // under `uce`-disabled presets, which keep dead blocks in the
        // layout).
        self.check_reachability(func, &frags, &block_addr, &mut findings);

        // Edge-set equality between the recovered CFG and the IR.
        let ir_reach = func.reachable();
        let (ir_edges, dec_edges) =
            self.build_edge_sets(func, &frags, &block_addr, &ir_reach, intra);
        for &(from, to) in ir_edges.symmetric_difference(&dec_edges) {
            let side = if ir_edges.contains(&(from, to)) {
                "IR edge missing from decoded CFG"
            } else {
                "decoded edge absent from IR"
            };
            push(
                &mut findings,
                FindingKind::CfgMismatch,
                from,
                format!("{side}: {from:#x} -> {to:#x}"),
            );
        }

        FnOutcome {
            findings,
            edges: Some((ir_edges, dec_edges)),
        }
    }

    /// Each moved function's original entry (a pointer the rewriter
    /// cannot see may still call it) must decode to a `jmp` to its new
    /// entry, or to its ICF keeper's. A function shorter than that jump
    /// keeps its input bytes: they must still decode as whole
    /// instructions inside its own range.
    fn check_entry_patches(&self, findings: &mut Vec<Finding>) {
        const PATCH_LEN: u64 = 5;
        let mut seen = HashSet::new();
        for f in &self.ctx.functions {
            let Some(&new_entry) = self.new_entry_of_old.get(&f.address) else {
                continue;
            };
            if !seen.insert(f.address) || f.size == 0 {
                continue;
            }
            let mut push = |kind, detail| {
                findings.push(Finding {
                    kind,
                    function: f.name.clone(),
                    addr: f.address,
                    detail,
                })
            };
            let span = f.size.min(PATCH_LEN);
            let Some(bytes) = self.elf.read_vaddr(f.address, span as usize) else {
                push(
                    FindingKind::UndecodableBytes,
                    format!("original entry {:#x} is not backed by a section", f.address),
                );
                continue;
            };
            if f.size < PATCH_LEN {
                let mut off = 0;
                while off < bytes.len() {
                    match decode(&bytes[off..], f.address + off as u64) {
                        Ok(d) => off += d.len as usize,
                        Err(e) => {
                            push(
                                FindingKind::CfgMismatch,
                                format!(
                                    "{}-byte function no longer holds whole instructions: {e:?}",
                                    f.size
                                ),
                            );
                            break;
                        }
                    }
                }
                continue;
            }
            match decode(bytes, f.address).map(|d| d.inst) {
                Ok(Inst::Jmp {
                    target: Target::Addr(t),
                    ..
                }) if t == new_entry => {}
                Ok(Inst::Jmp {
                    target: Target::Addr(t),
                    ..
                }) => push(
                    FindingKind::DanglingJumpTarget,
                    format!("original entry jumps to {t:#x}, not to the new entry {new_entry:#x}"),
                ),
                Ok(inst) => push(
                    FindingKind::CfgMismatch,
                    format!("original entry not patched: decoded `{inst}`"),
                ),
                Err(e) => push(FindingKind::UndecodableBytes, format!("{e:?}")),
            }
        }
    }

    fn decode_fragment(
        &self,
        func: &BinaryFunction,
        start: u64,
        size: u64,
        findings: &mut Vec<Finding>,
    ) -> Option<Vec<Slot>> {
        if size == 0 {
            return Some(Vec::new());
        }
        let Some(bytes) = self.elf.read_vaddr(start, size as usize) else {
            findings.push(Finding {
                kind: FindingKind::UndecodableBytes,
                function: func.name.clone(),
                addr: start,
                detail: format!("symbol range {start:#x}+{size:#x} not backed by a section"),
            });
            return None;
        };
        let mut slots = Vec::new();
        let mut off = 0usize;
        while off < bytes.len() {
            let addr = start + off as u64;
            match decode(&bytes[off..], addr) {
                Ok(d) => {
                    slots.push(Slot {
                        addr,
                        inst: d.inst,
                        len: d.len,
                    });
                    off += d.len as usize;
                }
                Err(e) => {
                    findings.push(Finding {
                        kind: FindingKind::UndecodableBytes,
                        function: func.name.clone(),
                        addr,
                        detail: format!("{e:?}"),
                    });
                    return None;
                }
            }
        }
        Some(slots)
    }

    /// The instruction the emitted bytes should decode back to: label
    /// targets become derived block addresses, old entries of re-emitted
    /// functions become their new entries (the rewriter's `map_target`),
    /// and `movabs $sym` collapses to the `MovRI` the decoder reports —
    /// of the *unmapped* address, since ICP's guard compares it against a
    /// function pointer, which holds the original entry.
    fn resolve_ir_inst(&self, inst: &Inst, block_addr: &[Option<u64>]) -> Result<Inst, String> {
        let label = |t: &Target| -> Result<u64, String> {
            match t {
                Target::Label(l) => block_addr
                    .get(l.0 as usize)
                    .copied()
                    .flatten()
                    .ok_or_else(|| format!("label L{} does not resolve to an emitted block", l.0)),
                Target::Addr(a) => Ok(*a),
            }
        };
        let mapped = |t: &Target| -> Result<u64, String> {
            match t {
                Target::Label(_) => label(t),
                Target::Addr(a) => Ok(self.new_entry_of_old.get(a).copied().unwrap_or(*a)),
            }
        };
        let mem = |m: &Mem| -> Result<Mem, String> {
            match m {
                Mem::RipRel { target } => Ok(Mem::RipRel {
                    target: Target::Addr(label(target)?),
                }),
                other => Ok(*other),
            }
        };
        Ok(match inst {
            Inst::Jcc {
                cond,
                target,
                width,
            } => Inst::Jcc {
                cond: *cond,
                target: Target::Addr(mapped(target)?),
                width: *width,
            },
            Inst::Jmp { target, width } => Inst::Jmp {
                target: Target::Addr(mapped(target)?),
                width: *width,
            },
            Inst::Call { target } => Inst::Call {
                target: Target::Addr(mapped(target)?),
            },
            Inst::MovRSym { dst, target } => Inst::MovRI {
                dst: *dst,
                imm: label(target)? as i64,
            },
            Inst::Load { dst, mem: m } => Inst::Load {
                dst: *dst,
                mem: mem(m)?,
            },
            Inst::Store { mem: m, src } => Inst::Store {
                mem: mem(m)?,
                src: *src,
            },
            Inst::Lea { dst, mem: m } => Inst::Lea {
                dst: *dst,
                mem: mem(m)?,
            },
            other => *other,
        })
    }

    fn check_reachability(
        &self,
        func: &BinaryFunction,
        frags: &[(Range<u64>, Vec<Slot>)],
        block_addr: &[Option<u64>],
        findings: &mut Vec<Finding>,
    ) {
        let all: Vec<&Slot> = frags.iter().flat_map(|(_, s)| s.iter()).collect();
        let idx_of: HashMap<u64, usize> =
            all.iter().enumerate().map(|(i, s)| (s.addr, i)).collect();
        let intra = |a: u64| idx_of.contains_key(&a);

        let mut reached = vec![false; all.len()];
        let mut stack: Vec<usize> = Vec::new();
        let root = |a: u64, stack: &mut Vec<usize>, reached: &mut Vec<bool>| {
            if let Some(&i) = idx_of.get(&a) {
                if !reached[i] {
                    reached[i] = true;
                    stack.push(i);
                }
            }
        };
        // The entry, EH landing pads, jump-table entries as recorded in
        // the rewritten binary, and blocks the IR itself cannot reach
        // (dead blocks kept by uce-disabled presets are not a defect).
        if let Some((range, _)) = frags.first() {
            root(range.start, &mut stack, &mut reached);
        }
        for &pad in &self.eh_pads {
            root(pad, &mut stack, &mut reached);
        }
        for jt in &func.jump_tables {
            for k in 0..jt.targets.len() {
                if let Some(v) = self
                    .elf
                    .read_u64(jt.addr + (jt.entry_size as u64) * k as u64)
                {
                    root(v, &mut stack, &mut reached);
                }
            }
        }
        let ir_reach = func.reachable();
        for &b in &func.layout {
            // Empty dead blocks occupy zero bytes; their derived address
            // aliases the next live block and must not root it.
            if !ir_reach[b.index()] && !func.block(b).insts.is_empty() {
                if let Some(a) = block_addr[b.index()] {
                    root(a, &mut stack, &mut reached);
                }
            }
        }

        while let Some(i) = stack.pop() {
            let slot = all[i];
            if slot.falls_through() || matches!(slot.inst, Inst::Jcc { .. }) {
                if let Some(&j) = idx_of.get(&slot.end()) {
                    if !reached[j] {
                        reached[j] = true;
                        stack.push(j);
                    }
                }
            }
            if let Inst::Jcc {
                target: Target::Addr(t),
                ..
            }
            | Inst::Jmp {
                target: Target::Addr(t),
                ..
            } = slot.inst
            {
                if intra(t) {
                    let j = idx_of[&t];
                    if !reached[j] {
                        reached[j] = true;
                        stack.push(j);
                    }
                }
            }
        }

        // Report contiguous unreached non-NOP runs, one finding each.
        let mut i = 0;
        while i < all.len() {
            if reached[i] || matches!(all[i].inst, Inst::Nop { .. }) {
                i += 1;
                continue;
            }
            let start = i;
            while i < all.len() && !reached[i] {
                i += 1;
            }
            let bytes: u64 = all[start..i].iter().map(|s| s.len as u64).sum();
            findings.push(Finding {
                kind: FindingKind::UnreachableBytes,
                function: func.name.clone(),
                addr: all[start].addr,
                detail: format!(
                    "{} unreachable instruction(s) ({bytes} bytes) starting at {:#x}",
                    i - start,
                    all[start].addr
                ),
            });
        }
    }

    /// Builds the IR edge set (from `succs`, mapped through derived
    /// block addresses) and the recovered edge set (leader partition of
    /// the decoded stream). Edges from indirect-jump blocks are excluded
    /// on both sides — they are verified through the jump-table bytes —
    /// as are edges out of empty blocks (layout artifacts with no
    /// instruction to carry them).
    fn build_edge_sets(
        &self,
        func: &BinaryFunction,
        frags: &[(Range<u64>, Vec<Slot>)],
        block_addr: &[Option<u64>],
        ir_reach: &[bool],
        intra: impl Fn(u64) -> bool,
    ) -> (EdgeSet, EdgeSet) {
        let mut ir_edges = BTreeSet::new();
        for &b in &func.layout {
            let blk = func.block(b);
            if blk.insts.is_empty() || !ir_reach[b.index()] {
                continue;
            }
            if matches!(blk.terminator().map(|t| &t.inst), Some(Inst::JmpInd { .. })) {
                continue;
            }
            let Some(from) = block_addr[b.index()] else {
                continue;
            };
            for e in &blk.succs {
                if let Some(to) = block_addr[e.block.index()] {
                    ir_edges.insert((from, to));
                }
            }
        }

        // Leaders: fragment starts, derived block addresses, decoded
        // branch targets, post-terminator addresses, jump-table entries,
        // EH pads. On a faithful rewrite this set collapses to exactly
        // the block starts; on a corrupted one the extra leaders surface
        // as edge differences.
        let mut leaders: BTreeSet<u64> = frags.iter().map(|(r, _)| r.start).collect();
        for a in block_addr.iter().flatten() {
            leaders.insert(*a);
        }
        for (_, slots) in frags {
            for s in slots {
                if s.inst.is_terminator() {
                    leaders.insert(s.end());
                }
                if let Inst::Jcc {
                    target: Target::Addr(t),
                    ..
                }
                | Inst::Jmp {
                    target: Target::Addr(t),
                    ..
                } = s.inst
                {
                    if intra(t) {
                        leaders.insert(t);
                    }
                }
            }
        }
        for jt in &func.jump_tables {
            for k in 0..jt.targets.len() {
                if let Some(v) = self
                    .elf
                    .read_u64(jt.addr + (jt.entry_size as u64) * k as u64)
                {
                    if intra(v) {
                        leaders.insert(v);
                    }
                }
            }
        }
        for &pad in &self.eh_pads {
            if intra(pad) {
                leaders.insert(pad);
            }
        }

        // Unreached decoded instructions in IR-dead blocks don't belong
        // in the comparison: collect the dead blocks' address ranges.
        let mut dead_starts: HashSet<u64> = HashSet::new();
        for &b in &func.layout {
            // Empty dead blocks alias the next live block's address and
            // must not suppress its decoded edges.
            if !ir_reach[b.index()] && !func.block(b).insts.is_empty() {
                if let Some(a) = block_addr[b.index()] {
                    dead_starts.insert(a);
                }
            }
        }

        let mut dec_edges = BTreeSet::new();
        for (range, slots) in frags {
            let mut i = 0;
            while i < slots.len() {
                let start = slots[i].addr;
                let mut j = i;
                while !slots[j].inst.is_terminator()
                    && j + 1 < slots.len()
                    && !leaders.contains(&slots[j + 1].addr)
                {
                    j += 1;
                }
                let last = &slots[j];
                let next_in_frag = j + 1 < slots.len();
                let in_dead_block = dead_starts.contains(&start);
                if !in_dead_block {
                    match last.inst {
                        Inst::Jcc {
                            target: Target::Addr(t),
                            ..
                        } => {
                            if intra(t) {
                                dec_edges.insert((start, t));
                            }
                            if next_in_frag {
                                dec_edges.insert((start, last.end()));
                            }
                        }
                        Inst::Jmp {
                            target: Target::Addr(t),
                            ..
                        } => {
                            if intra(t) {
                                dec_edges.insert((start, t));
                            }
                        }
                        Inst::JmpInd { .. } | Inst::Ret | Inst::RepzRet | Inst::Ud2 => {}
                        _ => {
                            // Chunk ends at a leader boundary by falling
                            // through into it.
                            if next_in_frag {
                                dec_edges.insert((start, last.end()));
                            }
                        }
                    }
                }
                let _ = range;
                i = j + 1;
            }
        }
        (ir_edges, dec_edges)
    }
}

/// Decoded/IR instruction equivalence: branch widths are a legal
/// emitter choice (relaxation), everything else must match exactly.
fn inst_matches(want: &Inst, got: &Inst) -> bool {
    match (want, got) {
        (
            Inst::Jcc {
                cond: c1,
                target: t1,
                ..
            },
            Inst::Jcc {
                cond: c2,
                target: t2,
                ..
            },
        ) => c1 == c2 && t1 == t2,
        (Inst::Jmp { target: t1, .. }, Inst::Jmp { target: t2, .. }) => t1 == t2,
        _ => want == got,
    }
}

/// Function symbols with nonzero size in executable sections must not
/// overlap.
fn check_symbol_overlaps(elf: &Elf, findings: &mut Vec<Finding>) {
    let mut ranges: Vec<(u64, u64, &str)> = elf
        .symbols
        .iter()
        .filter(|s| s.kind == SymKind::Func && s.size > 0)
        .filter(|s| match s.section {
            SymSection::Section(i) => elf.sections.get(i).is_some_and(|sec| sec.is_exec()),
            _ => false,
        })
        .map(|s| (s.value, s.size, s.name.as_str()))
        .collect();
    ranges.sort_unstable();
    for w in ranges.windows(2) {
        let (a_start, a_size, a_name) = w[0];
        let (b_start, _, b_name) = w[1];
        if a_start + a_size > b_start {
            findings.push(Finding {
                kind: FindingKind::OverlappingCode,
                function: a_name.to_string(),
                addr: b_start,
                detail: format!(
                    "{a_name} [{a_start:#x}+{a_size:#x}) overlaps {b_name} at {b_start:#x}"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_elf::{Section, Symbol};
    use bolt_ir::{BasicBlock, BinaryInst, SuccEdge};
    use bolt_isa::{encode_at, encoded_len, Cond, JumpWidth, Label};

    const BASE: u64 = 0x400000;

    /// Builds a synthetic rewritten binary and its matching IR from a
    /// block list: IR targets are `Label(block_index)`, the encoded
    /// bytes get the derived block addresses, exactly as a faithful
    /// rewrite would.
    fn synthetic(blocks: &[(&[Inst], &[u32])]) -> (Elf, BinaryContext) {
        let mut addrs = Vec::new();
        let mut at = BASE;
        for (insts, _) in blocks {
            addrs.push(at);
            for i in *insts {
                at += encoded_len(i) as u64;
            }
        }
        let place = |i: &Inst| -> Inst {
            let addr = |t: &Target| match t {
                Target::Label(l) => Target::Addr(addrs[l.0 as usize]),
                a => *a,
            };
            match i {
                Inst::Jcc {
                    cond,
                    target,
                    width,
                } => Inst::Jcc {
                    cond: *cond,
                    target: addr(target),
                    width: *width,
                },
                Inst::Jmp { target, width } => Inst::Jmp {
                    target: addr(target),
                    width: *width,
                },
                other => *other,
            }
        };
        let mut bytes = Vec::new();
        let mut pc = BASE;
        for (insts, _) in blocks {
            for i in *insts {
                let enc = encode_at(&place(i), pc).expect("encodes");
                pc += enc.bytes.len() as u64;
                bytes.extend_from_slice(&enc.bytes);
            }
        }

        let mut elf = Elf::new(BASE);
        elf.sections.push(Section::code(".text.bolt", BASE, bytes));
        elf.symbols.push(Symbol::func("f", BASE, pc - BASE, 0));

        let mut func = bolt_ir::BinaryFunction::new("f", 0x1000);
        for (insts, succs) in blocks {
            let mut b = BasicBlock::new();
            b.insts = insts.iter().map(|&i| BinaryInst::new(i)).collect();
            b.succs = succs.iter().map(|&s| SuccEdge::cold(BlockId(s))).collect();
            func.add_block(b);
        }
        let mut ctx = BinaryContext::new();
        ctx.add_function(func);
        (elf, ctx)
    }

    fn diamond() -> (Elf, BinaryContext) {
        // b0: jcc -> b2, falls through to b1; b1: jmp -> b2; b2: ret.
        synthetic(&[
            (
                &[Inst::Jcc {
                    cond: Cond::E,
                    target: Target::Label(Label(2)),
                    width: JumpWidth::Short,
                }],
                &[2, 1],
            ),
            (
                &[Inst::Jmp {
                    target: Target::Label(Label(2)),
                    width: JumpWidth::Short,
                }],
                &[2],
            ),
            (&[Inst::Ret], &[]),
        ])
    }

    #[test]
    fn faithful_synthetic_rewrite_is_clean() {
        let (elf, ctx) = diamond();
        let report = verify_rewrite(&elf, &ctx);
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.findings
        );
        assert_eq!(report.functions_checked, 1);
        let (ir, dec) = edge_sets(&elf, &ctx, "f").expect("paired");
        assert_eq!(ir, dec);
        assert_eq!(ir.len(), 3); // b0->b2, b0->b1, b1->b2
    }

    /// Overwriting the conditional branch with an unconditional one
    /// strands the middle block: the verifier must see bytes the CFG
    /// can no longer reach (and the instruction mismatch itself).
    #[test]
    fn decoded_unreachable_code_is_reported() {
        let (mut elf, ctx) = diamond();
        // jcc short (0x74 disp) -> jmp short (0xEB disp), same length.
        elf.sections[0].data[0] = 0xEB;
        let report = verify_rewrite(&elf, &ctx);
        let kinds: Vec<FindingKind> = report.findings.iter().map(|f| f.kind).collect();
        assert!(
            kinds.contains(&FindingKind::UnreachableBytes),
            "expected UnreachableBytes, got {:?}",
            report.findings
        );
        assert!(kinds.contains(&FindingKind::CfgMismatch));
    }

    /// Blocks the IR itself considers dead (kept in the layout by
    /// uce-disabled presets) are emitted but never reached — that is
    /// not a defect.
    #[test]
    fn ir_dead_blocks_are_exempt_from_reachability() {
        // b0: jmp -> b2; b1 (IR-dead, no preds): jmp -> b2; b2: ret.
        let (elf, ctx) = synthetic(&[
            (
                &[Inst::Jmp {
                    target: Target::Label(Label(2)),
                    width: JumpWidth::Short,
                }],
                &[2],
            ),
            (
                &[Inst::Jmp {
                    target: Target::Label(Label(2)),
                    width: JumpWidth::Short,
                }],
                &[2],
            ),
            (&[Inst::Ret], &[]),
        ]);
        let report = verify_rewrite(&elf, &ctx);
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.findings
        );
    }

    /// A fragment whose last instruction can fall through escapes the
    /// function: the structural check needs no IR pairing to see it.
    #[test]
    fn trailing_fallthrough_is_reported() {
        let (mut elf, ctx) = synthetic(&[
            (
                &[Inst::Jcc {
                    cond: Cond::E,
                    target: Target::Label(Label(1)),
                    width: JumpWidth::Short,
                }],
                &[1, 1],
            ),
            (&[Inst::Ret], &[]),
        ]);
        // Overwrite the final ret with a 1-byte nop: same decode length,
        // but execution now runs off the end of the symbol.
        let end = elf.sections[0].data.len() - 1;
        elf.sections[0].data[end] = 0x90;
        let report = verify_rewrite(&elf, &ctx);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::FallthroughOutOfFunction));
    }
}
