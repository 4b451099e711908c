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

use crate::disasm::line_records;
use bolt_elf::{sections, Elf, Section, SymKind};
use bolt_ir::{
    emit_with_threads, BinaryContext, BinaryFunction, BlockId, EmitError, EmitInst, EmitResult,
    EmitSource, ExceptionTable, LineRecords,
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
/// 3.4), the line table as `.bolt.lines` bytes: entries inside `moved`
/// code go, `result`'s for its new home come. The input's entries are
/// strictly increasing ([`LineRecords`] sorts a copy only when they are
/// not), the moved ranges are sorted and merged here, and the emitter's
/// entries are sorted, so binary search finds the runs of entries
/// between moved ranges, and those merge with the new entries straight
/// into the output bytes. No entry inside moved code is read.
fn rebuild_tables(
    lines: &LineRecords,
    exceptions: &ExceptionTable,
    mut moved: Vec<(u64, u64)>,
    result: &EmitResult,
) -> (Vec<u8>, ExceptionTable) {
    // Sorted and merged into disjoint `[start, end)` ranges.
    moved.sort_unstable();
    moved.dedup_by(|next, last| {
        let joins = next.0 <= last.1;
        if joins {
            last.1 = last.1.max(next.1);
        }
        joins
    });

    // The entries outside every moved range, as runs of indices: one
    // before, between and after the ranges.
    let below = |a: Option<u64>| a.map_or(lines.len(), |a| lines.partition_point(|e| e < a));
    let starts = moved.iter().map(|r| Some(r.0)).chain([None]);
    let ends = [Some(0)].into_iter().chain(moved.iter().map(|r| Some(r.1)));
    let kept = ends
        .zip(starts)
        .map(|(end, start)| below(end)..below(start));
    debug_assert!(result.line_entries.is_sorted(), "the emitter sorts them");
    let lines = lines.merge_to_bytes(kept, &result.line_entries);

    // "Is `a` inside a moved range?" for ascending `a`: a cursor past
    // every range that ends at or before `a`.
    let mut next = 0;
    let mut inside_moved = |a: u64| {
        while moved.get(next).is_some_and(|r| r.1 <= a) {
            next += 1;
        }
        moved.get(next).is_some_and(|r| r.0 <= a)
    };
    let mut eh = ExceptionTable {
        entries: exceptions
            .entries
            .iter()
            .filter(|(cs, _)| !inside_moved(**cs))
            .map(|(&cs, &lp)| (cs, lp))
            .collect(),
    };
    for (call_addr, pad_label) in &result.eh_entries {
        eh.add(*call_addr, result.label_addrs[pad_label]);
    }
    (lines, eh)
}

/// The optimized IR as the emitter reads it ([`EmitSource`]): the
/// emitted functions in emission order, each one's blocks in layout
/// order, every branch and call target mapped to a label as its
/// instruction is read. Nothing is copied; the output carries no
/// relocations, so none are recorded.
struct IrSource<'a> {
    ctx: &'a BinaryContext,
    /// Function indices, in emission order.
    emitted: Vec<usize>,
    /// A run of labels per emitted function, in emission order: block
    /// `b` of function `fi` is `first_label[fi] + b`.
    first_label: Vec<u32>,
    /// Old entry address -> new entry label (through ICF folds), sorted
    /// by address; of two functions at one address the later one wins.
    entry_labels: Vec<(u64, Label)>,
}

impl<'a> IrSource<'a> {
    /// The simple, unfolded functions of `order`, in that order.
    fn new(ctx: &'a BinaryContext, order: &[usize]) -> IrSource<'a> {
        let emitted: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| ctx.functions[i].is_simple && ctx.functions[i].folded_into.is_none())
            .collect();
        let mut first_label = vec![0u32; ctx.functions.len()];
        let mut next_label = 0u32;
        for &fi in &emitted {
            first_label[fi] = next_label;
            next_label += ctx.functions[fi].blocks.len() as u32;
        }
        let mut source = IrSource {
            ctx,
            emitted,
            first_label,
            entry_labels: Vec::new(),
        };
        let mut is_emitted = vec![false; ctx.functions.len()];
        for &fi in &source.emitted {
            is_emitted[fi] = true;
        }
        for (i, f) in ctx.functions.iter().enumerate().rev() {
            let k = bolt_passes::icf::resolve_fold(ctx, i);
            if is_emitted[k] {
                let entry = source.block_label(k, ctx.functions[k].entry());
                source.entry_labels.push((f.address, entry));
            }
        }
        source.entry_labels.sort_by_key(|e| e.0);
        source.entry_labels.dedup_by_key(|e| e.0);
        source
    }

    fn block_label(&self, fi: usize, b: BlockId) -> Label {
        Label(self.first_label[fi] + b.0)
    }

    /// The new entry label of the function that started at `addr`.
    fn entry_label_of(&self, addr: u64) -> Option<Label> {
        let i = (self.entry_labels)
            .binary_search_by_key(&addr, |e| e.0)
            .ok()?;
        Some(self.entry_labels[i].1)
    }

    fn func(&self, unit: usize) -> (usize, &'a BinaryFunction) {
        let fi = self.emitted[unit];
        (fi, &self.ctx.functions[fi])
    }
}

impl EmitSource for IrSource<'_> {
    const RELOCS: bool = false;

    fn units(&self) -> usize {
        self.emitted.len()
    }

    fn name(&self, unit: usize) -> &str {
        &self.func(unit).1.name
    }

    fn align(&self, _: usize) -> u16 {
        16
    }

    fn cold_start(&self, unit: usize) -> Option<usize> {
        self.func(unit).1.cold_start
    }

    fn blocks(&self, unit: usize) -> usize {
        self.func(unit).1.layout.len()
    }

    fn label(&self, unit: usize, block: usize) -> Label {
        let (fi, func) = self.func(unit);
        self.block_label(fi, func.layout[block])
    }

    /// BOLT discards alignment; blocks are packed tight.
    fn block_align(&self, _: usize, _: usize) -> u16 {
        1
    }

    fn insts(&self, unit: usize, block: usize) -> impl Iterator<Item = EmitInst> + '_ {
        let (fi, func) = self.func(unit);
        let map_target = move |t: Target| match t {
            // Intra-function block reference.
            Target::Label(l) => Target::Label(self.block_label(fi, BlockId(l.0))),
            Target::Addr(a) => self.entry_label_of(a).map_or(t, Target::Label),
        };
        func.block(func.layout[block])
            .insts
            .iter()
            .map(move |inst| {
                let mut m = inst.inst;
                match &mut m {
                    Inst::Jcc { target, .. } | Inst::Jmp { target, .. } | Inst::Call { target } => {
                        *target = map_target(*target);
                    }
                    // ICP's guard is the only `MovRSym` in optimizer IR (the
                    // decoder reports `movabs` as `MovRI`). It is compared
                    // against a function pointer, which holds the callee's
                    // original entry, so its target stays put.
                    Inst::MovRSym { .. } => {}
                    // Data references (loads/stores/lea, indirect calls
                    // through the GOT) stay absolute: data does not move, and
                    // RIP-relative fields are re-encoded against the
                    // instruction's new location automatically.
                    _ => {}
                }
                EmitInst {
                    inst: m,
                    line: inst.line,
                    eh_pad: inst.landing_pad.map(|lp| self.block_label(fi, lp)),
                }
            })
    }
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
    rewrite_binary_with_threads(elf, ctx, order, 0)
}

/// [`rewrite_binary`] with an explicit thread-count knob for emission
/// (the driver's `-threads=N`): `0` = auto (`BOLT_THREADS` env override
/// or `available_parallelism`), `1` forces the serial path. The output is
/// identical at any value.
///
/// # Errors
///
/// As [`rewrite_binary`].
pub fn rewrite_binary_with_threads(
    elf: &Elf,
    ctx: &BinaryContext,
    order: &[usize],
    threads: usize,
) -> Result<(Elf, RewriteStats), EmitError> {
    let n_threads = bolt_emu::Knobs::get().threads(threads);
    rewrite_with(elf, ctx, order, |source| {
        emit_with_threads(
            source,
            BOLT_TEXT_BASE,
            BOLT_COLD_BASE,
            &HashMap::new(),
            n_threads,
        )
    })
}

/// [`rewrite_binary`], emitting the code with `emit_code`.
fn rewrite_with(
    elf: &Elf,
    ctx: &BinaryContext,
    order: &[usize],
    emit_code: impl FnOnce(&IrSource) -> Result<EmitResult, EmitError>,
) -> Result<(Elf, RewriteStats), EmitError> {
    let mut stats = RewriteStats::default();
    let started = Instant::now();

    let source = IrSource::new(ctx, order);
    stats.emitted_functions = source.emitted.len();
    stats.skipped_functions = ctx.functions.len() - source.emitted.len();
    let mut result = emit_code(&source)?;
    stats.hot_text_size = result.text.len() as u64;
    stats.cold_text_size = result.cold.len() as u64;
    stats.emit_time = started.elapsed();

    // ---- assemble the output ELF ----
    // The input, but for the line and exception tables, which are
    // rebuilt below, and the relocations, which would describe the old
    // text.
    let mut out = Elf {
        entry: elf.entry,
        sections: (elf.sections.iter())
            .map(|s| match s.name.as_str() {
                sections::LINES | sections::EH => Section {
                    name: s.name.clone(),
                    data: Vec::new(),
                    ..*s
                },
                _ => s.clone(),
            })
            .collect(),
        symbols: elf.symbols.clone(),
        relocations: Vec::new(),
    };

    // Patch jump tables in read-only data; a table lies in one section.
    let holds = |s: &Section, a| s.is_alloc() && !s.is_exec() && s.addr_range().contains(&a);
    for &fi in &source.emitted {
        for jt in &ctx.functions[fi].jump_tables {
            let Some(sec) = out.sections.iter_mut().find(|s| holds(s, jt.addr)) else {
                continue;
            };
            for (k, target) in jt.targets.iter().enumerate() {
                let entry_addr = jt.addr + 8 * k as u64;
                if holds(sec, entry_addr) {
                    let new_addr = result.label_addrs[&source.block_label(fi, *target)];
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
        .filter_map(|f| Some((f.address, f.size, source.entry_label_of(f.address)?)))
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
        if source.emitted.contains(&fi) {
            out.entry = result.label_addrs[&source.block_label(fi, f.entry())];
        }
    }

    let tables_started = Instant::now();
    stats.assemble_time = tables_started - started - stats.emit_time;

    // Rebuild the line and exception tables for the moved functions.
    let moved = source.emitted.iter().map(|&fi| &ctx.functions[fi]);
    let moved = moved.map(|f| (f.address, f.address + f.size)).collect();
    let lines = line_records(elf);
    let (lines, eh) = rebuild_tables(&lines, &ctx.exceptions, moved, &result);
    if let Some(sec) = out.section_mut(sections::LINES) {
        sec.data = lines;
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
    use bolt_compiler::{compile_and_link, CompileOptions};
    use bolt_elf::write_elf;
    use bolt_emu::Machine;
    use bolt_ir::{emit_units, EmitBlock, EmitUnit, LineInfo, LineTable};
    use bolt_passes::PassOptions;
    use bolt_profile::{LbrSampler, Profile, SampleTrigger};
    use bolt_workloads::{Scale, Workload};

    /// The rebuild this file used to do: every table entry tested against
    /// every moved range in turn, on the table parsed from the input's
    /// `.bolt.lines` bytes (none if they do not parse). Kept as the
    /// reference the sorted-range rebuild must match byte for byte.
    fn rebuild_tables_quadratic(
        line_bytes: &[u8],
        exceptions: &ExceptionTable,
        moved: &[(u64, u64)],
        result: &EmitResult,
    ) -> (Vec<u8>, ExceptionTable) {
        let inside_moved = |a: u64| -> bool { moved.iter().any(|&(s, e)| a >= s && a < e) };
        let mut lines = LineTable::from_bytes(line_bytes).unwrap_or_default();
        lines.entries.retain(|e| !inside_moved(e.0));
        for (addr, li) in &result.line_entries {
            lines.push(*addr, li.file, li.line);
        }
        lines.normalize();
        let mut eh = exceptions.clone();
        eh.entries.retain(|cs, _| !inside_moved(*cs));
        for (call_addr, pad_label) in &result.eh_entries {
            eh.add(*call_addr, result.label_addrs[pad_label]);
        }
        (lines.to_bytes(), eh)
    }

    /// Tables with a line entry and a call site on every address of
    /// `0x0FF0..0x1100`, so each range boundary below is hit exactly: the
    /// `.bolt.lines` bytes and the exception table.
    fn dense_tables() -> (Vec<u8>, ExceptionTable) {
        let mut lines = LineTable::new();
        let mut eh = ExceptionTable::new();
        let file = lines.intern_file("dense.cpp");
        for addr in 0x0FF0..0x1100u64 {
            lines.push(addr, file, addr as u32 & 0xFF);
            eh.add(addr, 0x5000 + addr);
        }
        (lines.to_bytes(), eh)
    }

    /// New-home entries plus three that land on addresses surviving in the
    /// old tables: a second line for `0x1020` (both stay), an exact copy
    /// of `0x1021`'s (dropped), a new landing pad for `0x1022` (replaces).
    /// The line entries are sorted, as the emitter leaves them.
    fn emitted() -> EmitResult {
        let mut result = EmitResult::default();
        let at = |line| LineInfo { file: 0, line };
        result.line_entries = vec![
            (0x1020, at(9)),
            (0x1021, at(0x21)),
            (BOLT_TEXT_BASE, at(7)),
            (BOLT_TEXT_BASE + 4, at(8)),
        ];
        result.label_addrs.insert(Label(0), BOLT_COLD_BASE);
        result.eh_entries = vec![(BOLT_TEXT_BASE + 4, Label(0)), (0x1022, Label(0))];
        result
    }

    /// The rebuild from `line_bytes` (read as the rewrite reads an
    /// input's section) equals the quadratic reference's.
    fn assert_same_tables(line_bytes: &[u8], eh: &ExceptionTable, moved: &[(u64, u64)]) {
        let result = emitted();
        let records = LineRecords::parse(line_bytes).unwrap_or_default();
        let (lines, eh_new) = rebuild_tables(&records, eh, moved.to_vec(), &result);
        let (ref_lines, ref_eh) = rebuild_tables_quadratic(line_bytes, eh, moved, &result);
        assert_eq!(lines, ref_lines, "lines, {moved:x?}");
        assert_eq!(eh_new.to_bytes(), ref_eh.to_bytes(), "eh, {moved:x?}");
    }

    #[test]
    fn table_rebuild_matches_the_quadratic_reference_at_every_boundary() {
        let (line_bytes, eh) = dense_tables();
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
        assert_same_tables(&line_bytes, &eh, &moved);
        let records = LineRecords::parse(&line_bytes).unwrap();
        let (lines, eh) = rebuild_tables(&records, &eh, moved.to_vec(), &emitted());
        let lines = LineTable::from_bytes(&lines).unwrap();
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
        let (line_bytes, eh) = dense_tables();
        // The same entries shuffled, with repeats (an input `discover`
        // used to normalize), and cut short (one it used to ignore).
        let mut shuffled = LineTable::from_bytes(&line_bytes).unwrap();
        let n = shuffled.entries.len();
        for i in 0..n {
            shuffled.entries.swap(i, (i * 7919 + 13) % n);
        }
        shuffled.entries.extend_from_within(..40);
        let shuffled = shuffled.to_bytes();
        let truncated = &line_bytes[..line_bytes.len() - 9];
        assert!(LineTable::from_bytes(truncated).is_err());
        let inputs: [&[u8]; 3] = [&line_bytes, &shuffled, truncated];
        for input in inputs {
            assert_same_tables(input, &eh, &[]);
        }
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
            for input in inputs {
                assert_same_tables(input, &eh, &moved);
            }
        }
    }

    /// The emission this file used to do: a copy of every emitted
    /// function as `EmitUnit`s, with its own label allocation and target
    /// mapping, emitted through `emit_units`. Kept as the reference the
    /// emission straight from the IR must match byte for byte.
    fn emit_through_units(source: &IrSource) -> Result<EmitResult, EmitError> {
        let (ctx, emitted) = (source.ctx, &source.emitted);
        let mut first_label = vec![0u32; ctx.functions.len()];
        let mut next_label = 0u32;
        for &fi in emitted {
            first_label[fi] = next_label;
            next_label += ctx.functions[fi].blocks.len() as u32;
        }
        let block_label = |fi: usize, b: BlockId| Label(first_label[fi] + b.0);
        let mut is_emitted = vec![false; ctx.functions.len()];
        for &fi in emitted {
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
        let map_target = |fi: usize, t: Target| -> Target {
            match t {
                Target::Label(l) => Target::Label(block_label(fi, BlockId(l.0))),
                Target::Addr(a) => match entry_label_of(a) {
                    Some(l) => Target::Label(l),
                    None => Target::Addr(a),
                },
            }
        };
        let mut units = Vec::with_capacity(emitted.len());
        for &fi in emitted {
            let func = &ctx.functions[fi];
            let mut unit = EmitUnit::new(&func.name);
            unit.align = 16;
            unit.cold_start = func.cold_start;
            for &bid in &func.layout {
                let mut eb = EmitBlock::new(block_label(fi, bid));
                eb.align = 1;
                for inst in &func.block(bid).insts {
                    let mut m = inst.inst;
                    if let Inst::Jcc { target, .. }
                    | Inst::Jmp { target, .. }
                    | Inst::Call { target } = &mut m
                    {
                        *target = map_target(fi, *target);
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
        result.relocs.clear();
        Ok(result)
    }

    /// A `Scale::Test` workload binary and one LBR profile of it.
    fn profiled(workload: Workload) -> (Elf, Profile) {
        let program = workload.build(Scale::Test);
        let elf = compile_and_link(&program, &CompileOptions::default())
            .expect("workload compiles")
            .elf;
        let mut machine = Machine::new();
        machine.load_elf(&elf);
        let mut sampler = LbrSampler::new(997, SampleTrigger::Instructions);
        machine
            .run(&mut sampler, 100_000_000)
            .expect("workload runs");
        (elf, sampler.profile)
    }

    fn bolt(elf: &Elf, profile: &Profile, preset: &str) -> crate::BoltOutput {
        let opts = crate::BoltOptions {
            passes: PassOptions::preset(preset).expect("a preset"),
            ..crate::BoltOptions::paper_default()
        };
        let out = crate::optimize(elf, profile, &opts).expect("BOLT succeeds");
        assert!(out.quarantine.is_clean(), "{}", out.quarantine.render());
        out
    }

    #[test]
    fn emission_from_the_ir_matches_the_unit_building_oracle() {
        for workload in [Workload::Tao, Workload::Hhvm] {
            let (elf, profile) = profiled(workload);
            for &preset in PassOptions::PRESETS {
                let out = bolt(&elf, &profile, preset);
                let order = &out.pipeline.function_order;
                let (oracle, _) = rewrite_with(&elf, &out.ctx, order, emit_through_units)
                    .expect("the oracle rewrites");
                assert!(
                    write_elf(&out.elf).unwrap() == write_elf(&oracle).unwrap(),
                    "{} under {preset}",
                    workload.name()
                );
            }
        }
    }

    /// An input line table that is unsorted, truncated or absent. The
    /// rewrite used to normalize an unsorted table on reading it and to
    /// ignore one that did not parse; it now reads the section's bytes
    /// where they are needed. Either way an unsorted table rewrites as
    /// its sorted form, a truncated one as an empty table, and a binary
    /// without one as with an empty one but for that section.
    #[test]
    fn line_table_inputs_rewrite_as_their_normal_forms() {
        let (elf, profile) = profiled(Workload::Tao);
        let with_lines = |lines: Option<Vec<u8>>| {
            let mut elf = elf.clone();
            match lines {
                Some(bytes) => elf.section_mut(sections::LINES).unwrap().data = bytes,
                None => elf.sections.retain(|s| s.name != sections::LINES),
            }
            bolt(&elf, &profile, "default").elf
        };
        let bytes = elf.section(sections::LINES).unwrap().data.clone();
        let mut unsorted = LineTable::from_bytes(&bytes).unwrap();
        assert!(unsorted.entries.len() > 100 && unsorted.entries.is_sorted());
        unsorted.entries.reverse();
        unsorted.entries.push(unsorted.entries[7]);
        let sorted = with_lines(Some(bytes.clone()));
        assert!(with_lines(Some(unsorted.to_bytes())) == sorted, "unsorted");

        let empty = with_lines(Some(LineTable::new().to_bytes()));
        let truncated = with_lines(Some(bytes[..bytes.len() - 1].to_vec()));
        assert!(truncated == empty, "truncated");
        let absent = with_lines(None);
        assert!(absent.section(sections::LINES).is_none());
        let code = |elf: &Elf| elf.section(".text.bolt").unwrap().data.clone();
        assert!(code(&absent) == code(&empty), "absent");
        // The rewrite with line info carries it to the new code.
        let lines = LineTable::from_bytes(&sorted.section(sections::LINES).unwrap().data);
        let lines = lines.unwrap();
        assert!(lines.entries.iter().any(|e| e.0 >= BOLT_TEXT_BASE));
        assert!(lines.entries.is_sorted());
    }
}
