//! Stages 7–8 of the rewriting pipeline (paper Figure 3): emit and link
//! functions, then rewrite the binary.
//!
//! Rewritten functions are emitted into new sections (`.text.bolt` hot,
//! `.text.bolt.cold` for split fragments); the original `.text` is kept so
//! non-simple functions keep working at their old addresses. Jump tables
//! are patched in place, and the line/exception tables are rebuilt for
//! moved code (paper section 3.4).
//!
//! Without relocations the rewriter cannot find every reference to a
//! function: a pointer built by `movabs` or stored in a data table still
//! holds the original entry address. Two rules keep such pointers
//! running the rewritten code: each moved function's original entry is
//! overwritten with a `jmp` to its new copy (LLVM BOLT's patch-entries),
//! and a `MovRSym` materialises the original address, because that is
//! the value any pointer it is compared against holds.

use bolt_elf::{sections, Elf, Section, SymKind};
use bolt_ir::{
    emit_units, BinaryContext, BlockId, EmitBlock, EmitError, EmitInst, EmitResult, EmitUnit,
    ExceptionTable, LineTable,
};
use bolt_isa::{encode_at, Inst, JumpWidth, Label, Target};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Base address of the rewritten hot text.
pub const BOLT_TEXT_BASE: u64 = 0x100_0000;
/// Base address of the rewritten cold text.
pub const BOLT_COLD_BASE: u64 = 0x200_0000;

/// Summary of the rewrite.
#[derive(Debug, Clone, Default)]
pub struct RewriteStats {
    pub emitted_functions: usize,
    pub skipped_functions: usize,
    pub hot_text_size: u64,
    pub cold_text_size: u64,
    pub patched_jump_table_entries: usize,
    /// Original entries of moved (or ICF-folded) functions overwritten
    /// with a `jmp` to the new entry, and those left alone because the
    /// function is shorter than that jump.
    pub patched_entries: usize,
    pub unpatched_entries: usize,
    /// Wall clock of the three rewrite steps (`-time-passes`): emitting
    /// the functions, assembling the output ELF around them, rebuilding
    /// the line and exception tables.
    pub emit_time: Duration,
    pub assemble_time: Duration,
    pub tables_time: Duration,
}

/// The line and exception tables of the rewritten binary (paper section
/// 3.4): entries inside `moved` code go, `result`'s for its new home come.
/// One sweep: the input table is sorted (`discover` normalizes it), the
/// moved ranges are sorted and merged here, and the emitter's entries
/// are sorted, so survivors and new entries merge without a sort.
fn rebuild_tables(
    ctx: &BinaryContext,
    mut moved: Vec<(u64, u64)>,
    result: &EmitResult,
) -> (LineTable, ExceptionTable) {
    // Sorted and merged into disjoint `[start, end)` ranges.
    moved.sort_unstable();
    moved.dedup_by(|next, last| {
        let joins = next.0 <= last.1;
        if joins {
            last.1 = last.1.max(next.1);
        }
        joins
    });
    // "Is `a` inside a moved range?" for ascending `a`: a cursor past
    // every range that ends at or before `a`.
    let moved = &moved[..];
    let inside_moved = || {
        let mut next = 0;
        move |a: u64| {
            while moved.get(next).is_some_and(|r| r.1 <= a) {
                next += 1;
            }
            moved.get(next).is_some_and(|r| r.0 <= a)
        }
    };

    debug_assert!(ctx.lines.entries.is_sorted(), "discover normalizes lines");
    let kept = || {
        let mut inside = inside_moved();
        ctx.lines
            .entries
            .iter()
            .filter(move |e| !inside(e.0))
            .copied()
    };
    let new = || {
        result
            .line_entries
            .iter()
            .map(|(a, li)| (*a, li.file, li.line))
    };
    let mut entries = Vec::with_capacity(kept().count() + new().len());
    // The new entries are sorted by address; two share one only if the
    // hot and cold streams overlap, and then they are sorted here.
    if new().is_sorted() {
        merge_dedup(kept(), new(), &mut entries);
    } else {
        let mut sorted: Vec<_> = new().collect();
        sorted.sort_unstable();
        merge_dedup(kept(), sorted.into_iter(), &mut entries);
    }
    let lines = LineTable {
        files: ctx.lines.files.clone(),
        entries,
    };

    let mut kept = inside_moved();
    let mut eh = ExceptionTable {
        entries: ctx
            .exceptions
            .entries
            .iter()
            .filter(|(cs, _)| !kept(**cs))
            .map(|(&cs, &lp)| (cs, lp))
            .collect(),
    };
    for (call_addr, pad_label) in &result.eh_entries {
        eh.add(*call_addr, result.label_addrs[pad_label]);
    }
    (lines, eh)
}

/// Appends the merge of the sorted `a` and `b` to `out`, dropping
/// repeats.
fn merge_dedup<T: Ord + Copy>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
    out: &mut Vec<T>,
) {
    let mut b = b.peekable();
    let mut push = |e| {
        if out.last() != Some(&e) {
            out.push(e);
        }
    };
    for e in a {
        while let Some(n) = b.next_if(|n| *n < e) {
            push(n);
        }
        push(e);
    }
    b.for_each(push);
}

/// Rewrites `elf` according to the optimized `ctx`, emitting functions in
/// `order`.
///
/// # Errors
///
/// Propagates emission failures (which indicate pipeline bugs: the
/// pipeline must leave the IR emittable).
pub fn rewrite_binary(
    elf: &Elf,
    ctx: &BinaryContext,
    order: &[usize],
) -> Result<(Elf, RewriteStats), EmitError> {
    let mut stats = RewriteStats::default();
    let started = Instant::now();

    // Which functions get re-emitted.
    let emitted: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| ctx.functions[i].is_simple && ctx.functions[i].folded_into.is_none())
        .collect();
    stats.emitted_functions = emitted.len();
    stats.skipped_functions = ctx.functions.len() - emitted.len();

    // Label allocation: a run of labels per emitted function, in
    // emission order; block `b` of function `fi` is `first_label[fi] + b`.
    let mut first_label = vec![0u32; ctx.functions.len()];
    let mut next_label = 0u32;
    for &fi in &emitted {
        first_label[fi] = next_label;
        next_label += ctx.functions[fi].blocks.len() as u32;
    }
    let block_label = |fi: usize, b: BlockId| Label(first_label[fi] + b.0);
    // Old entry address -> new entry label (through ICF folds), sorted by
    // address; of two functions at one address the later one wins.
    let mut is_emitted = vec![false; ctx.functions.len()];
    for &fi in &emitted {
        is_emitted[fi] = true;
    }
    let mut entry_labels: Vec<(u64, Label)> = Vec::new();
    for (i, f) in ctx.functions.iter().enumerate().rev() {
        let k = bolt_passes::icf::resolve_fold(ctx, i);
        if is_emitted[k] {
            entry_labels.push((f.address, block_label(k, ctx.functions[k].entry())));
        }
    }
    entry_labels.sort_by_key(|e| e.0);
    entry_labels.dedup_by_key(|e| e.0);
    let entry_label_of = |addr: u64| -> Option<Label> {
        let i = entry_labels.binary_search_by_key(&addr, |e| e.0).ok()?;
        Some(entry_labels[i].1)
    };

    // Convert functions to emission units.
    let map_target = |fi: usize, t: Target| -> Target {
        match t {
            // Intra-function block reference.
            Target::Label(l) => Target::Label(block_label(fi, BlockId(l.0))),
            Target::Addr(a) => match entry_label_of(a) {
                Some(l) => Target::Label(l),
                None => Target::Addr(a),
            },
        }
    };

    let mut units = Vec::with_capacity(emitted.len());
    for &fi in &emitted {
        let func = &ctx.functions[fi];
        let mut unit = EmitUnit::new(&func.name);
        unit.align = 16;
        unit.cold_start = func.cold_start;
        unit.blocks.reserve_exact(func.layout.len());
        for &bid in &func.layout {
            let mut eb = EmitBlock::new(block_label(fi, bid));
            // BOLT discards alignment; blocks are packed tight.
            eb.align = 1;
            eb.insts.reserve_exact(func.block(bid).insts.len());
            for inst in &func.block(bid).insts {
                let mut m = inst.inst;
                match &mut m {
                    Inst::Jcc { target, .. } | Inst::Jmp { target, .. } | Inst::Call { target } => {
                        *target = map_target(fi, *target);
                    }
                    // ICP's guard is the only `MovRSym` in optimizer IR
                    // (the decoder reports `movabs` as `MovRI`). It is
                    // compared against a function pointer, which holds the
                    // callee's original entry, so its target stays put.
                    Inst::MovRSym { .. } => {}
                    // Data references (loads/stores/lea, indirect calls
                    // through the GOT) stay absolute: data does not move,
                    // and RIP-relative fields are re-encoded against the
                    // instruction's new location automatically.
                    _ => {}
                }
                let mut ei = EmitInst::new(m);
                ei.line = inst.line;
                ei.eh_pad = inst.landing_pad.map(|lp| block_label(fi, lp));
                eb.insts.push(ei);
            }
            unit.blocks.push(eb);
        }
        units.push(unit);
    }

    let mut result = emit_units(&units, BOLT_TEXT_BASE, BOLT_COLD_BASE, &HashMap::new())?;
    // The units copy every emitted instruction, and the relocations are
    // the linker's (this output carries none): nothing reads them again.
    drop((units, std::mem::take(&mut result.relocs)));
    stats.hot_text_size = result.text.len() as u64;
    stats.cold_text_size = result.cold.len() as u64;
    stats.emit_time = started.elapsed();

    // ---- assemble the output ELF ----
    let mut out = elf.clone();
    // The line and exception tables are rebuilt below; the input's copies
    // need not stay alive beside the new ones.
    for name in [sections::LINES, sections::EH] {
        if let Some(sec) = out.section_mut(name) {
            sec.data = Vec::new();
        }
    }

    // Patch jump tables in read-only data; a table lies in one section.
    let holds = |s: &Section, a| s.is_alloc() && !s.is_exec() && s.addr_range().contains(&a);
    for &fi in &emitted {
        for jt in &ctx.functions[fi].jump_tables {
            let Some(sec) = out.sections.iter_mut().find(|s| holds(s, jt.addr)) else {
                continue;
            };
            for (k, target) in jt.targets.iter().enumerate() {
                let entry_addr = jt.addr + 8 * k as u64;
                if holds(sec, entry_addr) {
                    let new_addr = result.label_addrs[&block_label(fi, *target)];
                    let off = (entry_addr - sec.addr) as usize;
                    sec.data[off..off + 8].copy_from_slice(&new_addr.to_le_bytes());
                    stats.patched_jump_table_entries += 1;
                }
            }
        }
    }

    // Patch each moved function's original entry with a `jmp` to its new
    // one (a folded function's, to its keeper's), so pointers the rewriter
    // cannot see run the rewritten code. A function shorter than the jump
    // keeps its bytes.
    let mut old_entries: Vec<(u64, u64, Label)> = ctx
        .functions
        .iter()
        .filter_map(|f| Some((f.address, f.size, entry_label_of(f.address)?)))
        .collect();
    old_entries.sort_unstable_by_key(|e| e.0);
    old_entries.dedup_by_key(|e| e.0);
    for (addr, size, label) in old_entries {
        let jmp = Inst::Jmp {
            target: Target::Addr(result.label_addrs[&label]),
            width: JumpWidth::Near,
        };
        let bytes = encode_at(&jmp, addr)
            .expect("a near jmp reaches any text")
            .bytes;
        let in_text = |s: &&mut Section| s.is_exec() && s.addr_range().contains(&addr);
        match out.sections.iter_mut().find(in_text) {
            Some(sec) if size >= bytes.len() as u64 => {
                let off = (addr - sec.addr) as usize;
                sec.data[off..off + bytes.len()].copy_from_slice(&bytes);
                stats.patched_entries += 1;
            }
            _ => stats.unpatched_entries += 1,
        }
    }

    // New code sections.
    let text = std::mem::take(&mut result.text);
    out.sections
        .push(Section::code(".text.bolt", BOLT_TEXT_BASE, text));
    let bolt_text_idx = out.sections.len() - 1;
    if !result.cold.is_empty() {
        let cold = std::mem::take(&mut result.cold);
        out.sections
            .push(Section::code(".text.bolt.cold", BOLT_COLD_BASE, cold));
    }

    // Symbol updates: moved functions point at their new home.
    let mut new_sym_addr: HashMap<&str, (u64, u64)> = HashMap::new();
    for s in &result.symbols {
        new_sym_addr.insert(&s.name, (s.addr, s.size));
    }
    for sym in out.symbols.iter_mut() {
        if sym.kind != SymKind::Func {
            continue;
        }
        if let Some(&(addr, size)) = new_sym_addr.get(sym.name.as_str()) {
            sym.value = addr;
            sym.size = size;
            sym.section = bolt_elf::SymSection::Section(bolt_text_idx);
        } else if let Some(&fi) = ctx.by_name.get(&sym.name) {
            // Folded function: symbol resolves to the keeper's new entry.
            let keeper = &ctx.functions[fi];
            if keeper.name != sym.name {
                if let Some(&(addr, _)) = new_sym_addr.get(keeper.name.as_str()) {
                    sym.value = addr;
                    sym.size = 0;
                    sym.section = bolt_elf::SymSection::Section(bolt_text_idx);
                }
            }
        }
    }
    // Cold fragment symbols are new.
    for s in &result.symbols {
        if s.is_cold_fragment {
            out.symbols.push(bolt_elf::Symbol::func(
                &s.name,
                s.addr,
                s.size,
                out.sections.len() - 1,
            ));
        }
    }

    // Entry point follows _start if it moved.
    if let Some(&fi) = ctx.by_name.get("_start") {
        let f = &ctx.functions[fi];
        if is_emitted[fi] {
            out.entry = result.label_addrs[&block_label(fi, f.entry())];
        }
    }

    // Relocations in the output would describe the old text; drop them.
    out.relocations.clear();

    let tables_started = Instant::now();
    stats.assemble_time = tables_started - started - stats.emit_time;

    // Rebuild the line and exception tables for the moved functions.
    let moved = emitted.iter().map(|&fi| &ctx.functions[fi]);
    let moved = moved.map(|f| (f.address, f.address + f.size)).collect();
    let (lines, eh) = rebuild_tables(ctx, moved, &result);
    if let Some(sec) = out.section_mut(sections::LINES) {
        sec.data = lines.to_bytes();
    }
    if let Some(sec) = out.section_mut(sections::EH) {
        sec.data = eh.to_bytes();
    }
    stats.tables_time = tables_started.elapsed();

    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_ir::LineInfo;

    /// The rebuild this file used to do: every table entry tested against
    /// every moved range in turn. Kept as the reference the sorted-range
    /// rebuild must match byte for byte.
    fn rebuild_tables_quadratic(
        ctx: &BinaryContext,
        moved: &[(u64, u64)],
        result: &EmitResult,
    ) -> (LineTable, ExceptionTable) {
        let inside_moved = |a: u64| -> bool { moved.iter().any(|&(s, e)| a >= s && a < e) };
        let mut lines = ctx.lines.clone();
        lines.entries.retain(|e| !inside_moved(e.0));
        for (addr, li) in &result.line_entries {
            lines.push(*addr, li.file, li.line);
        }
        lines.normalize();
        let mut eh = ctx.exceptions.clone();
        eh.entries.retain(|cs, _| !inside_moved(*cs));
        for (call_addr, pad_label) in &result.eh_entries {
            eh.add(*call_addr, result.label_addrs[pad_label]);
        }
        (lines, eh)
    }

    /// A context with a line entry and a call site on every address of
    /// `0x0FF0..0x1100`, so each range boundary below is hit exactly.
    fn dense_ctx() -> BinaryContext {
        let mut ctx = BinaryContext::new();
        let file = ctx.lines.intern_file("dense.cpp");
        for addr in 0x0FF0..0x1100u64 {
            ctx.lines.push(addr, file, addr as u32 & 0xFF);
            ctx.exceptions.add(addr, 0x5000 + addr);
        }
        ctx
    }

    /// New-home entries plus three that land on addresses surviving in the
    /// old tables: a second line for `0x1020` (both stay), an exact copy
    /// of `0x1021`'s (dropped), a new landing pad for `0x1022` (replaces).
    fn emitted() -> EmitResult {
        let mut result = EmitResult::default();
        let at = |line| LineInfo { file: 0, line };
        result.line_entries = vec![
            (BOLT_TEXT_BASE, at(7)),
            (BOLT_TEXT_BASE + 4, at(8)),
            (0x1020, at(9)),
            (0x1021, at(0x21)),
        ];
        result.label_addrs.insert(Label(0), BOLT_COLD_BASE);
        result.eh_entries = vec![(BOLT_TEXT_BASE + 4, Label(0)), (0x1022, Label(0))];
        result
    }

    fn assert_same_tables(ctx: &BinaryContext, moved: &[(u64, u64)]) {
        let result = emitted();
        let (lines, eh) = rebuild_tables(ctx, moved.to_vec(), &result);
        let (ref_lines, ref_eh) = rebuild_tables_quadratic(ctx, moved, &result);
        assert_eq!(lines.to_bytes(), ref_lines.to_bytes(), "lines, {moved:x?}");
        assert_eq!(eh.to_bytes(), ref_eh.to_bytes(), "eh, {moved:x?}");
    }

    #[test]
    fn table_rebuild_matches_the_quadratic_reference_at_every_boundary() {
        let ctx = dense_ctx();
        // Moved and unmoved functions interleaved, given out of address
        // order as a function order would: a gap, two adjacent ranges, a
        // zero-size function between and inside ranges, a range starting
        // where the table starts and one running past its end.
        let moved = [
            (0x1040, 0x1050),
            (0x1000, 0x1010),
            (0x1010, 0x1020),
            (0x1030, 0x1030),
            (0x1048, 0x1048),
            (0x0FF0, 0x0FF8),
            (0x10F0, 0x1200),
            (0x1060, 0x1061),
        ];
        assert_same_tables(&ctx, &moved);
        let (lines, eh) = rebuild_tables(&ctx, moved.to_vec(), &emitted());
        // `addr == start` goes, `addr == end` stays; adjacent ranges leave
        // no survivor between them; a zero-size function moves nothing.
        for (addr, kept) in [
            (0x0FFF, true),
            (0x1000, false),
            (0x100F, false),
            (0x1010, false),
            (0x101F, false),
            (0x1020, true),
            (0x1030, true),
            (0x1048, false),
            (0x1050, true),
            (0x1060, false),
            (0x1061, true),
            (0x10FF, false),
        ] {
            assert_eq!(lines.lookup(addr).is_some(), kept, "line at {addr:#x}");
            assert_eq!(eh.landing_pad_for(addr).is_some(), kept, "eh at {addr:#x}");
        }
        assert_eq!(lines.lookup(BOLT_TEXT_BASE + 4), Some((0, 8)));
        let at = |addr| lines.entries.iter().filter(move |e| e.0 == addr).count();
        assert_eq!((at(0x1020), at(0x1021)), (2, 1));
        assert_eq!(eh.landing_pad_for(0x1022), Some(BOLT_COLD_BASE));
        assert_eq!(eh.landing_pad_for(BOLT_TEXT_BASE + 4), Some(BOLT_COLD_BASE));
    }

    #[test]
    fn table_rebuild_matches_the_quadratic_reference_on_seeded_ranges() {
        let ctx = dense_ctx();
        assert_same_tables(&ctx, &[]);
        // Overlapping, nested, empty and duplicate ranges in any order
        // (a xorshift stream; 200 range sets of up to 12 ranges).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..200 {
            let moved: Vec<(u64, u64)> = (0..next(13))
                .map(|_| {
                    let start = 0x0FE8 + next(0x130);
                    (start, start + next(0x28))
                })
                .collect();
            assert_same_tables(&ctx, &moved);
        }
    }
}
