//! Differential test for identical code folding: the pass keys function
//! bodies structurally (the derived `Hash`/`Eq` of `Inst`), where it used
//! to render every instruction through `Display` into a byte string. The
//! string-key implementation is kept here, verbatim, as the reference;
//! both must fold exactly the same functions into the same keepers, in
//! the same alias order, with the same summed execution counts — on the
//! profiled workload binaries and on generated families of near-twins,
//! with the bodies hashed on one, two and three threads.

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::emu::Machine;
use bolt::ir::{BasicBlock, BinaryContext, BinaryFunction, BlockId, JumpTable, SuccEdge};
use bolt::isa::{AluOp, Cond, Inst, JumpWidth, Label, Mem, Reg, Rm, Target};
use bolt::opt::{disassemble_all, discover};
use bolt::passes::{icf, peephole};
use bolt::profile::{attach_profile, LbrSampler, SampleTrigger};
use bolt::workloads::{Scale, Workload};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The string-key `normalize` as it was before the structural key
/// (comments dropped).
fn normalize_reference(ctx: &BinaryContext, func: &BinaryFunction) -> Option<Vec<u8>> {
    use std::io::Write;
    let mut out = Vec::new();
    let mut ordinal = vec![u32::MAX; func.blocks.len()];
    for (i, id) in func.layout.iter().enumerate() {
        ordinal[id.index()] = i as u32;
    }
    let norm_target = |t: Target, out: &mut Vec<u8>| -> Option<()> {
        match t {
            Target::Label(l) => {
                out.push(0xB0);
                out.extend_from_slice(&ordinal.get(l.0 as usize).copied()?.to_le_bytes());
            }
            Target::Addr(a) => {
                if let Some(fi) = ctx.function_at(a) {
                    let callee = &ctx.functions[fi];
                    if a == callee.address {
                        let resolved = callee.folded_into.unwrap_or(fi);
                        out.push(0xF0);
                        out.extend_from_slice(&(resolved as u64).to_le_bytes());
                        return Some(());
                    }
                    // All that was left of an empty `if .. && fi ==
                    // ctx.function_at(func.address)? {}`: its `?`.
                    if !ordinal.is_empty() {
                        ctx.function_at(func.address)?;
                    }
                }
                out.push(0xA0);
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
        Some(())
    };
    for &id in &func.layout {
        let b = func.block(id);
        let _ = write!(
            out,
            "[{}:{}]",
            ordinal[id.index()],
            u8::from(b.is_landing_pad)
        );
        for inst in &b.insts {
            let mut i = inst.inst;
            match &mut i {
                Inst::Jcc { target, .. }
                | Inst::Jmp { target, .. }
                | Inst::Call { target }
                | Inst::MovRSym { target, .. } => {
                    let t = *target;
                    *target = Target::Addr(0);
                    let _ = write!(out, "{i}");
                    norm_target(t, &mut out)?;
                    continue;
                }
                Inst::Load { mem, .. } | Inst::Store { mem, .. } | Inst::Lea { mem, .. } => {
                    if let Mem::RipRel { target } = mem {
                        let t = *target;
                        *target = Target::Addr(0);
                        let _ = write!(out, "{i}");
                        norm_target(t, &mut out)?;
                        continue;
                    }
                }
                Inst::JmpInd { rm } | Inst::CallInd { rm } => {
                    if let Rm::Mem(Mem::RipRel { target }) = rm {
                        let t = *target;
                        *target = Target::Addr(0);
                        let _ = write!(out, "{i}");
                        norm_target(t, &mut out)?;
                        continue;
                    }
                }
                _ => {}
            }
            let _ = write!(out, "{i}");
        }
        for e in &b.succs {
            out.push(0xE0);
            out.extend_from_slice(&ordinal[e.block.index()].to_le_bytes());
        }
    }
    for jt in &func.jump_tables {
        out.push(0xD0);
        for t in &jt.targets {
            out.extend_from_slice(&ordinal[t.index()].to_le_bytes());
        }
    }
    Some(out)
}

/// The `run_icf` that went with it: every body rendered every round, one
/// keeper per hash bucket.
fn run_icf_reference(ctx: &mut BinaryContext) -> u64 {
    let mut folded = 0;
    for _round in 0..3 {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut bodies: HashMap<usize, Vec<u8>> = HashMap::new();
        for (i, f) in ctx.functions.iter().enumerate() {
            if !f.may_transform() || f.folded_into.is_some() || f.name == "_start" {
                continue;
            }
            let Some(body) = normalize_reference(ctx, f) else {
                continue;
            };
            let mut h = DefaultHasher::new();
            body.hash(&mut h);
            buckets.entry(h.finish()).or_default().push(i);
            bodies.insert(i, body);
        }
        let mut any = false;
        let mut keys: Vec<u64> = buckets.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let group = &buckets[&k];
            if group.len() < 2 {
                continue;
            }
            let mut sorted = group.clone();
            sorted.sort_by_key(|&i| ctx.functions[i].address);
            let keeper = sorted[0];
            for &other in &sorted[1..] {
                if bodies[&other] != bodies[&keeper] {
                    continue;
                }
                let name = ctx.functions[other].name.clone();
                let exec = ctx.functions[other].exec_count;
                ctx.functions[other].folded_into = Some(keeper);
                ctx.functions[keeper].icf_aliases.push(name);
                ctx.functions[keeper].exec_count += exec;
                folded += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    ctx.reindex();
    folded
}

/// Everything ICF writes, per function.
fn fold_state(ctx: &BinaryContext) -> Vec<(&str, Option<usize>, &[String], u64)> {
    ctx.functions
        .iter()
        .map(|f| {
            (
                f.name.as_str(),
                f.folded_into,
                f.icf_aliases.as_slice(),
                f.exec_count,
            )
        })
        .collect()
}

/// Runs both implementations on copies of `ctx` and returns the fold
/// count after asserting that they agree on it and on every function,
/// with the bodies hashed on one, two and three threads.
fn assert_same_folds(what: &str, ctx: &mut BinaryContext) -> u64 {
    let mut reference = ctx.clone();
    let expected = run_icf_reference(&mut reference);
    for threads in [2, 3] {
        let mut sharded = ctx.clone();
        let folded = icf::run_icf_with_threads(&mut sharded, threads);
        assert_eq!(folded, expected, "{what}: fold count at {threads} threads");
        let state = fold_state(&sharded);
        assert_eq!(state, fold_state(&reference), "{what} at {threads} threads");
    }
    let folded = icf::run_icf(ctx);
    assert_eq!(folded, expected, "{what}: fold count");
    assert_eq!(fold_state(ctx), fold_state(&reference), "{what}");
    assert_eq!(ctx.by_name, reference.by_name, "{what}: name index");
    folded
}

/// A profiled, disassembled context: the driver's state when the
/// pipeline starts.
fn workload_ctx(workload: Workload) -> BinaryContext {
    let program = workload.build(Scale::Test);
    let binary = compile_and_link(&program, &CompileOptions::default()).expect("compiles");
    let mut machine = Machine::new();
    machine.load_elf(&binary.elf);
    let mut sampler = LbrSampler::new(997, SampleTrigger::Instructions);
    machine.run(&mut sampler, u64::MAX).expect("runs");
    let (mut ctx, raw) = discover(&binary.elf);
    disassemble_all(&mut ctx, &raw, &binary.elf);
    attach_profile(&mut ctx, &sampler.profile);
    ctx
}

/// Both `icf` registrations of the default pipeline — on the input as
/// disassembled and again after the peepholes reworked the bodies.
#[test]
fn workloads_fold_identically() {
    let mut folded_anywhere = 0;
    for workload in [
        Workload::Hhvm,
        Workload::Tao,
        Workload::ClangLike,
        Workload::Interp,
    ] {
        let mut ctx = workload_ctx(workload);
        folded_anywhere += assert_same_folds(&format!("{} icf", workload.name()), &mut ctx);
        peephole::run_peepholes(&mut ctx);
        folded_anywhere += assert_same_folds(&format!("{} icf(2)", workload.name()), &mut ctx);
    }
    assert!(folded_anywhere > 0, "the workloads must exercise folding");
}

/// What one generated function is made of. Members of a family share
/// everything but one field.
#[derive(Clone, Copy)]
struct Shape {
    width: JumpWidth,
    imm: i32,
    callee: u64,
    data: u64,
    landing_pad: bool,
    table: bool,
}

const BASE: Shape = Shape {
    width: JumpWidth::Near,
    imm: 5,
    callee: 0,
    data: 0x60_0000,
    landing_pad: false,
    table: false,
};

/// `cmp $imm, %rdi; jl L2 | [call callee;] load data(%rip); ret | ret`,
/// optionally with a jump table over its blocks.
fn shaped(name: &str, addr: u64, s: Shape) -> BinaryFunction {
    let mut f = BinaryFunction::new(name, addr);
    f.size = 16;
    let b0 = f.add_block(BasicBlock::new());
    let b1 = f.add_block(BasicBlock::new());
    let b2 = f.add_block(BasicBlock::new());
    f.block_mut(b0).push(Inst::AluI {
        op: AluOp::Cmp,
        dst: Reg::Rdi,
        imm: s.imm,
    });
    f.block_mut(b0).push(Inst::Jcc {
        cond: Cond::L,
        target: Target::Label(Label(2)),
        width: s.width,
    });
    f.block_mut(b0).succs = vec![SuccEdge::cold(b2), SuccEdge::cold(b1)];
    if s.callee != 0 {
        f.block_mut(b1).push(Inst::Call {
            target: Target::Addr(s.callee),
        });
    }
    f.block_mut(b1).push(Inst::Load {
        dst: Reg::Rax,
        mem: Mem::rip(Target::Addr(s.data)),
    });
    f.block_mut(b1).push(Inst::Ret);
    f.block_mut(b2).is_landing_pad = s.landing_pad;
    f.block_mut(b2).push(Inst::Ret);
    if s.table {
        f.jump_tables.push(JumpTable {
            addr: 0x70_0000 + addr,
            name: format!("{name}.jt"),
            targets: vec![BlockId(1), BlockId(2), BlockId(1)],
            entry_size: 8,
        });
    }
    f.rebuild_preds();
    f
}

/// Families of near-twins: within a family only the named field varies.
/// Returns the context and, per family, its members' function indices.
fn twin_families() -> (BinaryContext, HashMap<&'static str, Vec<usize>>) {
    let mut ctx = BinaryContext::new();
    let mut families: HashMap<&'static str, Vec<usize>> = HashMap::new();
    let mut next_addr = 0x1000u64;
    let mut add = |family: &'static str, ctx: &mut BinaryContext, shape: Shape| -> u64 {
        let addr = next_addr;
        next_addr += 0x100;
        let mut f = shaped(&format!("{family}{addr:x}"), addr, shape);
        f.exec_count = addr / 0x100;
        families
            .entry(family)
            .or_default()
            .push(ctx.add_function(f));
        addr
    };
    // Leaves first: two twins and a function unlike them.
    let leaf_a = add("leaf", &mut ctx, BASE);
    let leaf_b = add("leaf", &mut ctx, BASE);
    let odd = add("odd", &mut ctx, Shape { imm: 99, ..BASE });
    let mut callers = Vec::new();
    for k in 0..6 {
        let width = [JumpWidth::Short, JumpWidth::Near][k % 2];
        add("width", &mut ctx, Shape { width, ..BASE });
        let imm = [5, 6, 7][k % 3];
        add("imm", &mut ctx, Shape { imm, ..BASE });
        let data = 0x60_0000 + 8 * (k as u64 % 2);
        add("data", &mut ctx, Shape { data, ..BASE });
        let landing_pad = k % 2 == 1;
        add(
            "pad",
            &mut ctx,
            Shape {
                landing_pad,
                ..BASE
            },
        );
        let table = k % 2 == 1;
        add("table", &mut ctx, Shape { table, ..BASE });
        // Callers of the twin leaves fold once the leaves have; a caller
        // of the odd one never joins them.
        let callee = [leaf_a, leaf_b, odd][k % 3];
        callers.push(add("caller", &mut ctx, Shape { callee, ..BASE }));
    }
    // A second level, so the third round has work too.
    for callee in callers {
        add("caller2", &mut ctx, Shape { callee, ..BASE });
    }
    (ctx, families)
}

#[test]
fn generated_twin_families_fold_identically() {
    let (mut ctx, families) = twin_families();
    let folded = assert_same_folds("twin families", &mut ctx);
    assert!(folded > 0);

    let keepers_of = |family: &str| {
        let mut keepers: Vec<usize> = families[family]
            .iter()
            .map(|&i| icf::resolve_fold(&ctx, i))
            .collect();
        keepers.sort_unstable();
        keepers.dedup();
        keepers.len()
    };
    // Jump width was never part of the key; every other difference is.
    assert_eq!(keepers_of("width"), 1, "widths fold together");
    assert_eq!(keepers_of("imm"), 3, "one class per immediate");
    assert_eq!(keepers_of("data"), 2, "one class per data address");
    assert_eq!(keepers_of("pad"), 2, "landing-pad flag separates");
    assert_eq!(keepers_of("table"), 2, "a jump table separates");
    assert_eq!(keepers_of("caller"), 2, "twin callees merge their callers");
    assert_eq!(keepers_of("caller2"), 2, "and the callers' callers");
    // `width`, `imm == 5`, `data + 0`, pad-less and table-less members are
    // all the same body as the leaves.
    let leaf = icf::resolve_fold(&ctx, families["leaf"][0]);
    for family in ["width", "imm", "data", "pad", "table"] {
        let first = icf::resolve_fold(&ctx, families[family][0]);
        assert_eq!(first, leaf, "{family}'s base member is a leaf twin");
    }

    // A second run finds nothing new, in either implementation.
    assert_eq!(assert_same_folds("twin families, rerun", &mut ctx), 0);
}
