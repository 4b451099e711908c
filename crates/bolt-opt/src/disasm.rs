//! Stages 2–3 of the rewriting pipeline (paper Figure 3): disassembly and
//! CFG construction.
//!
//! Functions whose control flow cannot be reconstructed with full
//! confidence are left non-simple and untouched (paper section 3.1) —
//! e.g. indirect jumps that do not match a jump-table pattern, or jump
//! tables living in writable memory.

use crate::discover::RawFunction;
use bolt_elf::Elf;
use bolt_ir::{
    BasicBlock, BinaryContext, BinaryInst, BlockId, JumpTable, LineInfo, NonSimpleReason, SuccEdge,
};
use bolt_isa::{decode, AluOp, Inst, Label, Mem, Reg, Rm, Target};
use std::collections::{BTreeMap, BTreeSet};

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

/// Disassembles every discovered function into `ctx`, constructing CFGs.
/// Functions are processed in parallel (BOLT processes functions
/// concurrently; disassembly and CFG construction are per-function pure),
/// with the worker count resolved automatically. Returns the number of
/// simple functions.
pub fn disassemble_all(ctx: &mut BinaryContext, funcs: &[RawFunction], elf: &Elf) -> usize {
    disassemble_all_with_threads(ctx, funcs, elf, 0)
}

/// [`disassemble_all`] with an explicit worker-count knob (the driver's
/// `-threads=N`): `0` = auto (`BOLT_THREADS` env override or
/// `available_parallelism`), `1` forces the serial path. The resulting
/// context is identical at any value.
pub fn disassemble_all_with_threads(
    ctx: &mut BinaryContext,
    funcs: &[RawFunction],
    elf: &Elf,
    threads: usize,
) -> usize {
    let n_threads = bolt_emu::Knobs::get().threads(threads);
    let results: Vec<Result<bolt_ir::BinaryFunction, NonSimpleReason>> =
        if n_threads <= 1 || funcs.len() < 32 {
            funcs
                .iter()
                .map(|raw| disassemble_function(ctx, raw, elf))
                .collect()
        } else {
            let chunk = funcs.len().div_ceil(n_threads);
            let ctx_ref = &*ctx;
            std::thread::scope(|scope| {
                let handles: Vec<_> = funcs
                    .chunks(chunk)
                    .map(|slice| {
                        scope.spawn(move || {
                            slice
                                .iter()
                                .map(|raw| disassemble_function(ctx_ref, raw, elf))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("disassembly worker"))
                    .collect()
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

fn disassemble_function(
    ctx: &BinaryContext,
    raw: &RawFunction,
    elf: &Elf,
) -> Result<bolt_ir::BinaryFunction, NonSimpleReason> {
    let start = raw.address;
    let end = raw.address + raw.size;
    let Some(bytes) = elf.read_vaddr(start, raw.size as usize) else {
        return Err(NonSimpleReason::UndecodableBytes);
    };

    // Linear decode.
    let mut slots: Vec<Slot> = Vec::new();
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

    // Leaders.
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.insert(start);
    for (i, s) in slots.iter().enumerate() {
        match s.inst {
            Inst::Jcc { target, .. } | Inst::Jmp { target, .. } => {
                if let Target::Addr(t) = target {
                    if t >= start && t < end {
                        leaders.insert(t);
                    }
                }
                if let Some(next) = slots.get(i + 1) {
                    leaders.insert(next.addr);
                }
            }
            Inst::Ret | Inst::RepzRet | Inst::Ud2 | Inst::JmpInd { .. } => {
                if let Some(next) = slots.get(i + 1) {
                    leaders.insert(next.addr);
                }
            }
            _ => {}
        }
    }
    for jt in &jump_tables {
        for t in &jt.targets {
            leaders.insert(*t);
        }
    }
    // Landing pads referenced by the exception table.
    for (&cs, &lp) in &ctx.exceptions.entries {
        if cs >= start && cs < end {
            if lp < start || lp >= end {
                return Err(NonSimpleReason::OutOfRangeControlFlow);
            }
            leaders.insert(lp);
        }
    }
    // Leaders must fall on instruction boundaries.
    let inst_at: BTreeMap<u64, usize> =
        slots.iter().enumerate().map(|(i, s)| (s.addr, i)).collect();
    for l in &leaders {
        if !inst_at.contains_key(l) {
            return Err(NonSimpleReason::OutOfRangeControlFlow);
        }
    }

    // Build blocks.
    let mut func = bolt_ir::BinaryFunction::new(&raw.name, raw.address);
    func.size = raw.size;
    func.section = raw.section.clone();
    let leader_list: Vec<u64> = leaders.iter().copied().collect();
    let mut block_of_addr: BTreeMap<u64, BlockId> = BTreeMap::new();
    for &l in &leader_list {
        let mut b = BasicBlock::new();
        b.orig_addr = l;
        let id = func.add_block(b);
        block_of_addr.insert(l, id);
    }
    // Assign instructions (discarding NOPs and alignment padding: paper
    // section 4, "BOLT's policy of discarding all NOPs after reading the
    // input binary"). Leaders are slot addresses in address order, so
    // block `r` holds the slots from leader `r` up to leader `r + 1`;
    // counting them first sizes its vector exactly.
    for (rank, &leader) in leader_list.iter().enumerate() {
        let lo = inst_at[&leader];
        let hi = leader_list
            .get(rank + 1)
            .map_or(slots.len(), |l| inst_at[l]);
        let run = &slots[lo..hi];
        let is_code = |s: &&Slot| !matches!(s.inst, Inst::Nop { .. });
        let mut insts = Vec::with_capacity(run.iter().filter(is_code).count());
        for s in run.iter().filter(is_code) {
            let mut bi = BinaryInst::new(s.inst).at(s.addr);
            if let Some((file, line)) = ctx.lines.lookup(s.addr) {
                bi.line = Some(LineInfo { file, line });
            }
            if s.inst.is_call() {
                if let Some(lp) = ctx.exceptions.landing_pad_for(s.addr) {
                    bi.landing_pad = block_of_addr.get(&lp).copied();
                }
            }
            insts.push(bi);
        }
        func.blocks[rank].insts = insts;
    }

    // Edges + intra-function target relabeling.
    let blocks_in_order: Vec<(u64, BlockId)> =
        block_of_addr.iter().map(|(&a, &b)| (a, b)).collect();
    let next_block: BTreeMap<BlockId, BlockId> = blocks_in_order
        .windows(2)
        .map(|w| (w[0].1, w[1].1))
        .collect();

    for &(_, bid) in &blocks_in_order {
        let term = func.block(bid).terminator().map(|t| t.inst);
        let falls = func.block(bid).can_fall_through();
        let mut succs: Vec<SuccEdge> = Vec::new();
        match term {
            Some(Inst::Jcc { target, .. }) => {
                let taken = match target {
                    Target::Addr(t) if t >= start && t < end => {
                        let tb = block_of_addr[&t];
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
                let Some(&fb) = next_block.get(&bid) else {
                    return Err(NonSimpleReason::OutOfRangeControlFlow);
                };
                succs.push(SuccEdge::cold(fb));
            }
            Some(Inst::Jmp { target, .. }) => {
                if let Target::Addr(t) = target {
                    if t >= start && t < end {
                        let tb = block_of_addr[&t];
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
                    let mut seen = BTreeSet::new();
                    for t in &jt.targets {
                        let tb = block_of_addr[t];
                        if seen.insert(tb) {
                            succs.push(SuccEdge::cold(tb));
                        }
                    }
                }
            }
            Some(Inst::Ret) | Some(Inst::RepzRet) | Some(Inst::Ud2) => {}
            Some(_) | None => {
                if falls {
                    let Some(&fb) = next_block.get(&bid) else {
                        return Err(NonSimpleReason::OutOfRangeControlFlow);
                    };
                    succs.push(SuccEdge::cold(fb));
                }
            }
        }
        func.block_mut(bid).succs = succs;
    }

    // Register recognized jump tables with block targets.
    for jt in &jump_tables {
        func.jump_tables.push(JumpTable {
            addr: jt.table_addr,
            name: format!("jt_{:x}", jt.table_addr),
            targets: jt.targets.iter().map(|t| block_of_addr[t]).collect(),
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
}
