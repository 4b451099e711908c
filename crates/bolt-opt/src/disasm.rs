//! Stages 2–3 of the rewriting pipeline (paper Figure 3): disassembly and
//! CFG construction.
//!
//! Functions whose control flow cannot be reconstructed with full
//! confidence are left non-simple and untouched (paper section 3.1) —
//! e.g. indirect jumps that do not match a jump-table pattern, or jump
//! tables living in writable memory.

use crate::discover::RawFunction;
use bolt_elf::{sections, Elf};
use bolt_ir::{
    BasicBlock, BinaryContext, BinaryFunction, BinaryInst, BlockId, JumpTable, LineInfo,
    LineRecords, NonSimpleReason, SuccEdge,
};
use bolt_isa::{decode, AluOp, Inst, Label, Mem, Reg, Rm, Target};
use bolt_passes::sharded;
use std::sync::mpsc::{channel, sync_channel};

/// One decoded instruction with placement info.
#[derive(Debug, Clone)]
struct Slot {
    addr: u64,
    inst: Inst,
}

/// A recognized jump-table dispatch.
#[derive(Debug, Clone)]
struct JtInfo {
    /// Address of the indirect jump instruction.
    jmp_addr: u64,
    /// Address of the table in data.
    table_addr: u64,
    /// Entry target addresses.
    targets: Vec<u64>,
}

/// Everything about one function that needs the decoder, and nothing of
/// the IR: what the planner hands the builder.
struct Plan {
    /// The decoded instructions, in address order. The builder hands the
    /// buffer back to the planner once it has built the function.
    slots: Vec<Slot>,
    /// Block start addresses, sorted: block `r` starts at leader `r`.
    leaders: Vec<u64>,
    /// Each leader's index in `slots`.
    leader_slots: Vec<usize>,
    jump_tables: Vec<JtInfo>,
}

/// Plans travel in batches of this many functions, so the builder waits
/// (and is woken) at most once per batch.
pub const PLAN_BATCH: usize = 16;

/// Batches the planner may run ahead of the builder. A constant: with
/// [`PLAN_BATCH`] it bounds the plans in flight, and so the decode
/// buffers in circulation, whatever the input.
const PLAN_QUEUE: usize = 2;

/// Disassembles every discovered function into `ctx`, constructing CFGs,
/// with the worker count resolved automatically. Returns the number of
/// simple functions.
///
/// Each function is planned, then built. Planning — decoding,
/// jump-table recognition, leaders — is per-function pure. Building —
/// every block, instruction vector, edge and jump table of the IR — runs
/// on the calling thread, so the whole IR is allocated by the thread
/// that owns and later frees it: none of it lands in a worker's
/// allocator arena, where it would stay resident beside the calling
/// thread's heap. When the sweep is sharded (the rule of
/// [`bolt_passes::sharded`]), one planner thread runs ahead of the
/// builder, whatever the thread count: it sends plans in function-index
/// order, in batches, through a bounded channel, and the builder hands
/// each decode buffer back for reuse. Two threads is the most this
/// stage uses: planning and building each take about half of its work,
/// so more planners would only wait for the builder.
pub fn disassemble_all(ctx: &mut BinaryContext, funcs: &[RawFunction], elf: &Elf) -> usize {
    disassemble_all_with_threads(ctx, funcs, elf, 0)
}

/// [`disassemble_all`] with an explicit worker-count knob (the driver's
/// `-threads=N`): `0` = auto (`BOLT_THREADS` env override or
/// `available_parallelism`), `1` forces the serial path, any `N > 1`
/// runs the one planner beside the building caller. The resulting
/// context is identical at any value.
pub fn disassemble_all_with_threads(
    ctx: &mut BinaryContext,
    funcs: &[RawFunction],
    elf: &Elf,
    threads: usize,
) -> usize {
    let n_threads = bolt_emu::Knobs::get().threads(threads);
    let ctx_ref = &*ctx;
    let lines = line_records(elf);
    // Builds from a plan; returns the plan's decode buffer for reuse.
    let build = |raw, plan: Result<Plan, NonSimpleReason>| match plan {
        Ok(plan) => (build_function(ctx_ref, &lines, raw, &plan), plan.slots),
        Err(reason) => (Err(reason), Vec::new()),
    };
    let results: Vec<Result<BinaryFunction, NonSimpleReason>> = if !sharded(funcs.len(), n_threads)
    {
        let mut spare = Vec::new();
        (funcs.iter())
            .map(|raw| {
                let plan = plan_function(ctx_ref, raw, elf, std::mem::take(&mut spare));
                let (func, slots) = build(raw, plan);
                spare = slots;
                func
            })
            .collect()
    } else {
        std::thread::scope(|scope| {
            let (plans, queue) = sync_channel(PLAN_QUEUE);
            let (give_back, spares) = channel();
            scope.spawn(move || {
                for batch in funcs.chunks(PLAN_BATCH) {
                    let plan = |raw| {
                        let slots = spares.try_recv().unwrap_or_default();
                        plan_function(ctx_ref, raw, elf, slots)
                    };
                    if plans.send(batch.iter().map(plan).collect()).is_err() {
                        return; // the builder is gone
                    }
                }
            });
            let mut results = Vec::with_capacity(funcs.len());
            for batch in funcs.chunks(PLAN_BATCH) {
                let plans: Vec<_> = queue.recv().expect("disassembly planner");
                for (raw, plan) in batch.iter().zip(plans) {
                    let (func, slots) = build(raw, plan);
                    // Once the planner has finished it takes no buffer back.
                    drop(give_back.send(slots));
                    results.push(func);
                }
            }
            results
        })
    };

    let mut simple = 0;
    for (fi, result) in results.into_iter().enumerate() {
        match result {
            Ok(mut func) => {
                func.is_simple = true;
                ctx.functions[fi] = func;
                simple += 1;
            }
            Err(reason) => {
                ctx.functions[fi].is_simple = false;
                ctx.functions[fi].non_simple_reason = Some(reason);
            }
        }
    }
    ctx.reindex();
    simple
}

/// The entries of `elf`'s line table, read in place; none when it has no
/// `.bolt.lines` section or the section does not parse.
pub(crate) fn line_records(elf: &Elf) -> LineRecords<'_> {
    let data = elf.section(sections::LINES).map(|s| &s.data[..]);
    data.and_then(|d| LineRecords::parse(d).ok())
        .unwrap_or_default()
}

/// Decodes `raw` into `slots` (a buffer to reuse), recognizes its jump
/// tables and finds its blocks' leaders; fails where the function cannot
/// be simple.
fn plan_function(
    ctx: &BinaryContext,
    raw: &RawFunction,
    elf: &Elf,
    mut slots: Vec<Slot>,
) -> Result<Plan, NonSimpleReason> {
    let start = raw.address;
    let end = raw.address + raw.size;
    let Some(bytes) = elf.read_vaddr(start, raw.size as usize) else {
        return Err(NonSimpleReason::UndecodableBytes);
    };

    // Linear decode.
    slots.clear();
    let mut off = 0usize;
    while off < bytes.len() {
        let addr = start + off as u64;
        let Ok(d) = decode(&bytes[off..], addr) else {
            return Err(NonSimpleReason::UndecodableBytes);
        };
        slots.push(Slot { addr, inst: d.inst });
        off += d.len as usize;
    }

    // Jump-table recognition.
    let mut jump_tables: Vec<JtInfo> = Vec::new();
    for (i, s) in slots.iter().enumerate() {
        let Inst::JmpInd { rm } = s.inst else {
            continue;
        };
        match rm {
            Rm::Mem(Mem::RipRel { .. }) => {
                // Tail jump through memory (PLT-style): allowed, no
                // successors.
                continue;
            }
            Rm::Mem(_) => return Err(NonSimpleReason::UnresolvedIndirectJump),
            Rm::Reg(jreg) => {
                let Some(jt) = match_jump_table(ctx, &slots[..i], jreg, s.addr) else {
                    // An indirect jump we cannot prove is a local dispatch:
                    // possibly an indirect tail call (paper section 6.4).
                    return Err(NonSimpleReason::UnresolvedIndirectJump);
                };
                // All entries must land inside the function.
                if !jt.targets.iter().all(|t| *t >= start && *t < end) {
                    return Err(NonSimpleReason::OutOfRangeControlFlow);
                }
                jump_tables.push(jt);
            }
        }
    }

    // Leaders: block start addresses, sorted and deduplicated below.
    let mut leaders: Vec<u64> = vec![start];
    for (i, s) in slots.iter().enumerate() {
        match s.inst {
            Inst::Jcc { target, .. } | Inst::Jmp { target, .. } => {
                if let Target::Addr(t) = target {
                    if t >= start && t < end {
                        leaders.push(t);
                    }
                }
                if let Some(next) = slots.get(i + 1) {
                    leaders.push(next.addr);
                }
            }
            Inst::Ret | Inst::RepzRet | Inst::Ud2 | Inst::JmpInd { .. } => {
                if let Some(next) = slots.get(i + 1) {
                    leaders.push(next.addr);
                }
            }
            _ => {}
        }
    }
    for jt in &jump_tables {
        leaders.extend_from_slice(&jt.targets);
    }
    // Landing pads of the function's call sites in the exception table.
    for (_, &lp) in ctx.exceptions.entries.range(start..end) {
        if lp < start || lp >= end {
            return Err(NonSimpleReason::OutOfRangeControlFlow);
        }
        leaders.push(lp);
    }
    leaders.sort_unstable();
    leaders.dedup();
    // Leaders must fall on instruction boundaries: find each one's slot
    // in one walk of both sorted lists.
    let mut leader_slots: Vec<usize> = Vec::with_capacity(leaders.len());
    let mut slot = 0;
    for &l in &leaders {
        while slots.get(slot).is_some_and(|s| s.addr < l) {
            slot += 1;
        }
        if slots.get(slot).map(|s| s.addr) != Some(l) {
            return Err(NonSimpleReason::OutOfRangeControlFlow);
        }
        leader_slots.push(slot);
    }
    Ok(Plan {
        slots,
        leaders,
        leader_slots,
        jump_tables,
    })
}

/// Builds `raw`'s IR from its plan: blocks, instructions (with line info
/// and landing pads), edges and jump tables; fails where the CFG does
/// not hold together.
fn build_function(
    ctx: &BinaryContext,
    lines: &LineRecords,
    raw: &RawFunction,
    plan: &Plan,
) -> Result<BinaryFunction, NonSimpleReason> {
    let start = raw.address;
    let end = raw.address + raw.size;
    let Plan {
        slots,
        leaders,
        leader_slots,
        jump_tables,
    } = plan;
    // Block `r` starts at leader `r`.
    let block_of_addr = |a: u64| -> BlockId {
        let rank = leaders.binary_search(&a).expect("targets are leaders");
        BlockId(rank as u32)
    };

    // Build blocks.
    let mut func = BinaryFunction::new(&raw.name, raw.address);
    func.size = raw.size;
    func.section = raw.section.clone();
    func.blocks.reserve_exact(leaders.len());
    func.layout.reserve_exact(leaders.len());
    for &l in leaders {
        let mut b = BasicBlock::new();
        b.orig_addr = l;
        func.add_block(b);
    }
    // Assign instructions (discarding NOPs and alignment padding: paper
    // section 4, "BOLT's policy of discarding all NOPs after reading the
    // input binary"). Block `r` holds the slots from leader `r` up to
    // leader `r + 1`; counting them first sizes its vector exactly. Line
    // entries and call sites are sorted by address, like the slots, so
    // a cursor into each walks forward from the function's start.
    let mut next_line = lines.partition_point(|a| a < start);
    let mut call_sites = ctx.exceptions.entries.range(start..end).peekable();
    for (rank, &lo) in leader_slots.iter().enumerate() {
        let hi = leader_slots.get(rank + 1).copied().unwrap_or(slots.len());
        let run = &slots[lo..hi];
        let is_code = |s: &&Slot| !matches!(s.inst, Inst::Nop { .. });
        let mut insts = Vec::with_capacity(run.iter().filter(is_code).count());
        for s in run.iter().filter(is_code) {
            let mut bi = BinaryInst::new(s.inst).at(s.addr);
            while lines.get(next_line).is_some_and(|e| e.0 < s.addr) {
                next_line += 1;
            }
            if let Some((_, file, line)) = lines.get(next_line).filter(|e| e.0 == s.addr) {
                bi.line = Some(LineInfo { file, line });
            }
            if s.inst.is_call() {
                while call_sites.next_if(|(&cs, _)| cs < s.addr).is_some() {}
                if let Some((_, &lp)) = call_sites.next_if(|(&cs, _)| cs == s.addr) {
                    bi.landing_pad = Some(block_of_addr(lp));
                }
            }
            insts.push(bi);
        }
        func.blocks[rank].insts = insts;
    }
    // Edges + intra-function target relabeling. Blocks are in address
    // order, so a block falls through to the next id.
    let n_blocks = leaders.len();
    for rank in 0..n_blocks {
        let bid = BlockId(rank as u32);
        let next_block = (rank + 1 < n_blocks).then(|| BlockId(rank as u32 + 1));
        let term = func.block(bid).terminator().map(|t| t.inst);
        let falls = func.block(bid).can_fall_through();
        let mut succs: Vec<SuccEdge> = Vec::new();
        match term {
            Some(Inst::Jcc { target, .. }) => {
                let taken = match target {
                    Target::Addr(t) if t >= start && t < end => {
                        let tb = block_of_addr(t);
                        // Relabel to a block reference.
                        func.block_mut(bid)
                            .terminator_mut()
                            .expect("jcc")
                            .inst
                            .set_target(Target::Label(Label(tb.0)));
                        Some(tb)
                    }
                    // Conditional tail call: taken edge leaves the
                    // function.
                    Target::Addr(_) => None,
                    Target::Label(_) => unreachable!("decoded targets are addresses"),
                };
                if let Some(tb) = taken {
                    succs.push(SuccEdge::cold(tb));
                }
                let Some(fb) = next_block else {
                    return Err(NonSimpleReason::OutOfRangeControlFlow);
                };
                succs.push(SuccEdge::cold(fb));
            }
            Some(Inst::Jmp { target, .. }) => {
                if let Target::Addr(t) = target {
                    if t >= start && t < end {
                        let tb = block_of_addr(t);
                        func.block_mut(bid)
                            .terminator_mut()
                            .expect("jmp")
                            .inst
                            .set_target(Target::Label(Label(tb.0)));
                        succs.push(SuccEdge::cold(tb));
                    }
                    // else: tail call, no successors.
                }
            }
            Some(Inst::JmpInd { .. }) => {
                // Jump table dispatch: edges to each distinct target.
                let jmp_addr = func.block(bid).terminator().expect("jmpind").addr;
                if let Some(jt) = jump_tables.iter().find(|j| j.jmp_addr == jmp_addr) {
                    let mut seen = vec![false; n_blocks];
                    for &t in &jt.targets {
                        let tb = block_of_addr(t);
                        if !std::mem::replace(&mut seen[tb.index()], true) {
                            succs.push(SuccEdge::cold(tb));
                        }
                    }
                }
            }
            Some(Inst::Ret) | Some(Inst::RepzRet) | Some(Inst::Ud2) => {}
            Some(_) | None => {
                if falls {
                    let Some(fb) = next_block else {
                        return Err(NonSimpleReason::OutOfRangeControlFlow);
                    };
                    succs.push(SuccEdge::cold(fb));
                }
            }
        }
        func.block_mut(bid).succs = succs;
    }

    // Register recognized jump tables with block targets.
    for jt in jump_tables {
        func.jump_tables.push(JumpTable {
            addr: jt.table_addr,
            name: format!("jt_{:x}", jt.table_addr),
            targets: jt.targets.iter().map(|&t| block_of_addr(t)).collect(),
            entry_size: 8,
        });
    }

    func.rebuild_preds();
    func.validate()
        .map_err(|_| NonSimpleReason::OutOfRangeControlFlow)?;
    Ok(func)
}

/// Matches the jump-table dispatch idiom ending in `jmp *%jreg`:
///
/// ```text
///   cmpq $N, %idx
///   jae  default
///   leaq table(%rip), %base
///   movq (%base,%idx,8), %jreg
///   jmpq *%jreg
/// ```
///
/// The table must live in read-only memory (a writable table defeats
/// static analysis — the function stays non-simple).
fn match_jump_table(
    ctx: &BinaryContext,
    before: &[Slot],
    jreg: Reg,
    jmp_addr: u64,
) -> Option<JtInfo> {
    // Scan a small window backwards for the load, lea, and bound check.
    let window = &before[before.len().saturating_sub(6)..];
    let mut table_addr = None;
    let mut load_base = None;
    let mut bound = None;
    for s in window.iter().rev() {
        match s.inst {
            Inst::Load {
                dst,
                mem:
                    Mem::BaseIndexScale {
                        base,
                        scale: 8,
                        disp: 0,
                        ..
                    },
            } if dst == jreg && load_base.is_none() => {
                load_base = Some(base);
            }
            Inst::Lea {
                dst,
                mem: Mem::RipRel {
                    target: Target::Addr(a),
                },
            } if Some(dst) == load_base && table_addr.is_none() => {
                table_addr = Some(a);
            }
            Inst::AluI {
                op: AluOp::Cmp,
                imm,
                ..
            } if bound.is_none() => {
                bound = Some(imm as u64);
            }
            _ => {}
        }
    }
    let (table_addr, n) = (table_addr?, bound?);
    if n == 0 || n > 1 << 14 {
        return None;
    }
    // The table must be fully inside read-only data.
    let mut targets = Vec::with_capacity(n as usize);
    for k in 0..n {
        let entry = ctx.read_rodata_u64(table_addr + 8 * k)?;
        targets.push(entry);
    }
    Some(JtInfo {
        jmp_addr,
        table_addr,
        targets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::discover;
    use bolt_compiler::{
        compile_and_link, CompileOptions, FunctionBuilder, MirProgram, Operand, Rvalue,
    };

    /// Compiles a program with branches, a switch, and calls, then
    /// disassembles it.
    fn build_and_disassemble(opts: &CompileOptions) -> (BinaryContext, Elf) {
        let mut p = MirProgram::with_entry("main");
        let mut f = FunctionBuilder::new("dispatch", 0, "d.c", 1);
        let arms = f.switch(Operand::Local(0), 3);
        for (i, arm) in arms.targets.clone().iter().enumerate() {
            f.switch_to(*arm);
            f.ret(Operand::Const(i as i64));
        }
        f.switch_to(arms.default);
        f.ret(Operand::Const(-1));
        p.add_function(f.finish());

        let mut m = FunctionBuilder::new("main", 1, "m.c", 0);
        let r = m.call("dispatch", vec![Operand::Const(1)]);
        let c = m.assign(Rvalue::Cmp(
            bolt_compiler::CmpOp::Gt,
            Operand::Local(r),
            Operand::Const(0),
        ));
        let (t, e) = m.branch(Operand::Local(c));
        m.switch_to(t);
        m.ret(Operand::Const(1));
        m.switch_to(e);
        m.ret(Operand::Const(0));
        p.add_function(m.finish());
        p.validate().unwrap();

        let bin = compile_and_link(&p, opts).unwrap();
        let (mut ctx, funcs) = discover(&bin.elf);
        disassemble_all(&mut ctx, &funcs, &bin.elf);
        (ctx, bin.elf)
    }

    #[test]
    fn compiled_binary_fully_disassembles() {
        let (ctx, _) = build_and_disassemble(&CompileOptions::default());
        for f in &ctx.functions {
            assert!(
                f.is_simple,
                "{} should be simple (reason: {:?})",
                f.name, f.non_simple_reason
            );
        }
        let dispatch = ctx.function_by_name("dispatch").unwrap();
        assert_eq!(dispatch.jump_tables.len(), 1, "switch produced a table");
        assert_eq!(dispatch.jump_tables[0].targets.len(), 3);
        let main = ctx.function_by_name("main").unwrap();
        assert!(main.num_live_blocks() >= 3, "branchy main has blocks");
        // NOPs were discarded.
        for f in &ctx.functions {
            for b in &f.blocks {
                assert!(!b.insts.iter().any(|i| matches!(i.inst, Inst::Nop { .. })));
            }
        }
    }

    #[test]
    fn line_info_attached() {
        let (ctx, _) = build_and_disassemble(&CompileOptions::default());
        let main = ctx.function_by_name("main").unwrap();
        let has_lines = main
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| i.line.is_some());
        assert!(has_lines, "debug info flows into the IR");
    }

    #[test]
    fn plt_stubs_simple_and_resolved() {
        let (ctx, _) = build_and_disassemble(&CompileOptions::default());
        let stub = ctx.function_by_name("__plt___bolt_exit").unwrap();
        assert!(stub.is_simple, "GOT tail jump is analyzable");
        assert!(!ctx.plt_stubs.is_empty());
    }

    #[test]
    fn legacy_amd_binary_disassembles() {
        let opts = CompileOptions {
            legacy_amd: true,
            ..CompileOptions::default()
        };
        let (ctx, _) = build_and_disassemble(&opts);
        let main = ctx.function_by_name("main").unwrap();
        let has_repz = main
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| i.inst == Inst::RepzRet);
        assert!(has_repz);
    }

    const BASE: u64 = 0x40_0000;
    const TABLE: u64 = 0x50_0000;

    /// Encodes `insts` back to back from `base`.
    fn code(base: u64, insts: &[Inst]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in insts {
            let at = base + bytes.len() as u64;
            bytes.extend(bolt_isa::encode_at(i, at).expect("encodes").bytes);
        }
        bytes
    }

    /// Disassembles `insts`, placed at `BASE`, as one function.
    fn disassemble_one(
        ctx: &BinaryContext,
        insts: &[Inst],
    ) -> Result<BinaryFunction, NonSimpleReason> {
        disassemble_with_lines(ctx, &LineRecords::default(), insts)
    }

    /// [`disassemble_one`] with a line table.
    fn disassemble_with_lines(
        ctx: &BinaryContext,
        lines: &LineRecords,
        insts: &[Inst],
    ) -> Result<BinaryFunction, NonSimpleReason> {
        let bytes = code(BASE, insts);
        let raw = RawFunction {
            name: "f".into(),
            address: BASE,
            size: bytes.len() as u64,
            section: ".text".into(),
        };
        let mut elf = Elf::new(BASE);
        elf.sections
            .push(bolt_elf::Section::code(".text", BASE, bytes));
        let plan = plan_function(ctx, &raw, &elf, Vec::new())?;
        build_function(ctx, lines, &raw, &plan)
    }

    /// `movq $1, %rax` (7 bytes at `BASE`), a branch to `to`, `ret`.
    fn branch_to(to: u64) -> [Inst; 3] {
        let jcc = Inst::Jcc {
            cond: bolt_isa::Cond::E,
            target: Target::Addr(to),
            width: bolt_isa::JumpWidth::Short,
        };
        [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            jcc,
            Inst::Ret,
        ]
    }

    #[test]
    fn branch_into_the_middle_of_an_instruction_is_out_of_range() {
        let ctx = BinaryContext::new();
        assert!(disassemble_one(&ctx, &branch_to(BASE)).is_ok());
        assert_eq!(
            disassemble_one(&ctx, &branch_to(BASE + 2)).unwrap_err(),
            NonSimpleReason::OutOfRangeControlFlow
        );
    }

    /// A two-entry jump-table dispatch on `%rdi`, two arms returning,
    /// and the read-only table holding `entries(arm0, arm1)`.
    fn jump_table_case(entries: impl Fn(u64, u64) -> [u64; 2]) -> (BinaryContext, Vec<Inst>) {
        let mut insts = vec![
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rdi,
                imm: 2,
            },
            Inst::Jcc {
                cond: bolt_isa::Cond::Ae,
                target: Target::Addr(0), // the last `ret`, set below
                width: bolt_isa::JumpWidth::Near,
            },
            Inst::Lea {
                dst: Reg::Rax,
                mem: Mem::rip(Target::Addr(TABLE)),
            },
            Inst::Load {
                dst: Reg::Rcx,
                mem: Mem::BaseIndexScale {
                    base: Reg::Rax,
                    index: Reg::Rdi,
                    scale: 8,
                    disp: 0,
                },
            },
            Inst::JmpInd {
                rm: Rm::Reg(Reg::Rcx),
            },
        ];
        let arm = |imm| Inst::MovRI { dst: Reg::Rax, imm };
        insts.extend([arm(10), Inst::Ret, arm(11), Inst::Ret, Inst::Ret]);
        let addr = |i: usize| BASE + code(BASE, &insts[..i]).len() as u64;
        let (arm0, arm1, default) = (addr(5), addr(7), addr(9));
        insts[1].set_target(Target::Addr(default));
        let table = entries(arm0, arm1);
        let mut ctx = BinaryContext::new();
        ctx.rodata
            .push((TABLE, table.iter().flat_map(|e| e.to_le_bytes()).collect()));
        (ctx, insts)
    }

    #[test]
    fn jump_table_entry_into_the_middle_of_an_instruction_is_out_of_range() {
        let (ctx, insts) = jump_table_case(|arm0, arm1| [arm0, arm1]);
        let func = disassemble_one(&ctx, &insts).expect("the dispatch is recognized");
        assert_eq!(func.jump_tables.len(), 1);
        let (ctx, insts) = jump_table_case(|arm0, arm1| [arm0, arm1 + 1]);
        assert_eq!(
            disassemble_one(&ctx, &insts).unwrap_err(),
            NonSimpleReason::OutOfRangeControlFlow
        );
    }

    #[test]
    fn landing_pad_outside_its_function_is_out_of_range() {
        let insts = [
            Inst::Call {
                target: Target::Addr(0x60_0000),
            },
            Inst::Ret,
            Inst::Ret,
        ];
        let mut ctx = BinaryContext::new();
        ctx.exceptions.add(BASE, BASE + 6); // the second `ret`
        let func = disassemble_one(&ctx, &insts).expect("an in-function pad");
        assert_eq!(func.blocks[0].insts[0].landing_pad, Some(BlockId(1)));
        let mut ctx = BinaryContext::new();
        ctx.exceptions.add(BASE, BASE + 7); // one past the end
        assert_eq!(
            disassemble_one(&ctx, &insts).unwrap_err(),
            NonSimpleReason::OutOfRangeControlFlow
        );
    }

    /// Line info comes from a cursor that starts at the function: the
    /// entry on the previous function's last instruction, right before
    /// this one's first (which has none), is not carried over.
    #[test]
    fn line_cursor_starts_at_the_function() {
        let insts = [Inst::Push(Reg::Rbp), Inst::Pop(Reg::Rbp), Inst::Ret];
        let mut table = bolt_ir::LineTable::new();
        let file = table.intern_file("f.c");
        table.push(BASE - 1, file, 7); // the neighbour's last `ret`
        table.push(BASE + 1, file, 8);
        table.push(BASE + 3, file, 9); // past the end
        let bytes = table.to_bytes();
        let lines = LineRecords::parse(&bytes).expect("parses");
        let func =
            disassemble_with_lines(&BinaryContext::new(), &lines, &insts).expect("disassembles");
        let lines: Vec<_> = func.blocks[0]
            .insts
            .iter()
            .map(|i| i.line.map(|l| l.line))
            .collect();
        assert_eq!(lines, [None, Some(8), None]);
    }
}
