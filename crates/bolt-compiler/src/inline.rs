//! MIR inlining: compiler inlining at `-O1`/`-O2` plus PGO-driven hot-call
//! inlining, with LTO gating cross-module sites.
//!
//! Inlined statements keep their original global line numbers, so two
//! inlined copies of a callee share profile counters — reproducing the
//! Figure 2 aggregation problem that motivates post-link optimization.

use crate::mir::{
    Callee, MirBlock, MirBlockId, MirFunction, MirProgram, Operand, Rvalue, Stmt, Terminator,
};
use crate::options::CompileOptions;
use std::collections::HashMap;

/// Maximum callee size (blocks / statements) for hint-driven inlining.
const MAX_INLINE_BLOCKS: usize = 8;
const MAX_INLINE_STMTS: usize = 24;
/// Tiny callees inlined unconditionally at `-O2`.
const TINY_STMTS: usize = 4;
/// A call site is "hot" for PGO inlining if it gets at least this fraction
/// of the hottest line's samples.
const PGO_HOT_FRACTION: f64 = 0.05;
/// Fixpoint rounds (bounds nested inlining depth).
const MAX_ROUNDS: usize = 3;

/// Whether `callee` may be inlined at all.
fn inlinable(callee: &MirFunction) -> bool {
    let stmts: usize = callee.blocks.iter().map(|b| b.stmts.len()).sum();
    if callee.blocks.len() > MAX_INLINE_BLOCKS || stmts > MAX_INLINE_STMTS {
        return false;
    }
    // No recursion.
    let self_call = callee.blocks.iter().any(|b| {
        b.stmts
            .iter()
            .any(|s| matches!(s, Stmt::Call { callee: Callee::Direct(n), .. } if *n == callee.name))
    });
    !self_call
}

/// Whether this specific call site should be inlined under `opts`.
fn should_inline(
    caller: &MirFunction,
    callee: &MirFunction,
    line: u32,
    opts: &CompileOptions,
) -> bool {
    if opts.opt_level == 0 {
        return false;
    }
    if caller.module != callee.module && !opts.lto {
        return false;
    }
    let stmts: usize = callee.blocks.iter().map(|b| b.stmts.len()).sum();
    if callee.inline_hint {
        return true;
    }
    if opts.opt_level >= 2 && stmts <= TINY_STMTS {
        return true;
    }
    if let Some(profile) = &opts.pgo {
        let hot = (profile.max_line() as f64 * PGO_HOT_FRACTION) as u64;
        let count = profile.calls_at(line, &callee.name).max(profile.line(line));
        if count > 0 && count >= hot.max(1) {
            return true;
        }
    }
    false
}

/// One inlining transformation: splices `callee` into `caller` at
/// (`block`, `stmt_idx`). The call must be a direct call without a landing
/// pad.
fn inline_at(caller: &mut MirFunction, block: MirBlockId, stmt_idx: usize, callee: &MirFunction) {
    let call = caller.blocks[block.index()].stmts[stmt_idx].clone();
    let Stmt::Call {
        dst,
        callee: Callee::Direct(_),
        args,
        landing_pad: None,
        line: call_line,
    } = call
    else {
        panic!("inline_at target is not a plain direct call");
    };

    // Local remapping: callee local l -> caller local (base + l).
    let local_base = caller.locals;
    caller.locals += callee.locals;
    // Block remapping: callee block b -> caller block (block_base + b).
    let block_base = caller.blocks.len() as u32;

    // Split the call block: statements after the call move to a fresh
    // continuation block owning the original terminator.
    let cont_id = MirBlockId(block_base + callee.blocks.len() as u32);
    let orig = &mut caller.blocks[block.index()];
    let after: Vec<Stmt> = orig.stmts.split_off(stmt_idx + 1);
    orig.stmts.pop(); // remove the call itself
    let cont = MirBlock {
        stmts: after,
        term: std::mem::replace(&mut orig.term, Terminator::Unreachable),
        term_line: orig.term_line,
    };

    // Argument binding, attributed to the call site's line.
    for (i, a) in args.iter().enumerate() {
        orig.stmts.push(Stmt::Assign {
            dst: local_base + i as u32,
            rv: Rvalue::Use(*a),
            line: call_line,
        });
    }
    let callee_entry = MirBlockId(block_base + callee.entry().0);
    orig.term = Terminator::Goto(callee_entry);
    orig.term_line = call_line;

    // Copy callee blocks, remapping locals and block ids; returns become
    // assignments + gotos to the continuation. Lines are kept verbatim:
    // that is the Figure 2 mechanism.
    let remap_block = |b: MirBlockId| MirBlockId(block_base + b.0);
    let remap_op = |op: &Operand| match op {
        Operand::Local(l) => Operand::Local(local_base + l),
        Operand::Const(c) => Operand::Const(*c),
    };
    for cb in &callee.blocks {
        let mut stmts = Vec::with_capacity(cb.stmts.len());
        for s in &cb.stmts {
            stmts.push(match s {
                Stmt::Assign { dst, rv, line } => Stmt::Assign {
                    dst: local_base + dst,
                    rv: match rv {
                        Rvalue::Use(a) => Rvalue::Use(remap_op(a)),
                        Rvalue::BinOp(op, a, b) => Rvalue::BinOp(*op, remap_op(a), remap_op(b)),
                        Rvalue::Shift(k, a, amt) => Rvalue::Shift(*k, remap_op(a), *amt),
                        Rvalue::Cmp(op, a, b) => Rvalue::Cmp(*op, remap_op(a), remap_op(b)),
                        Rvalue::LoadGlobal { global, index } => Rvalue::LoadGlobal {
                            global: global.clone(),
                            index: remap_op(index),
                        },
                        Rvalue::FuncAddr(n) => Rvalue::FuncAddr(n.clone()),
                    },
                    line: *line,
                },
                Stmt::StoreGlobal {
                    global,
                    index,
                    value,
                    line,
                } => Stmt::StoreGlobal {
                    global: global.clone(),
                    index: remap_op(index),
                    value: remap_op(value),
                    line: *line,
                },
                Stmt::Call {
                    dst,
                    callee,
                    args,
                    landing_pad,
                    line,
                } => Stmt::Call {
                    dst: dst.map(|d| local_base + d),
                    callee: match callee {
                        Callee::Direct(n) => Callee::Direct(n.clone()),
                        Callee::Indirect(p) => Callee::Indirect(remap_op(p)),
                    },
                    args: args.iter().map(&remap_op).collect(),
                    landing_pad: landing_pad.map(remap_block),
                    line: *line,
                },
                Stmt::Emit { value, line } => Stmt::Emit {
                    value: remap_op(value),
                    line: *line,
                },
            });
        }
        let (term, term_line) = match &cb.term {
            Terminator::Return(v) => {
                let mut ret_stmts = Vec::new();
                if let Some(d) = dst {
                    ret_stmts.push(Stmt::Assign {
                        dst: d,
                        rv: Rvalue::Use(remap_op(v)),
                        line: cb.term_line,
                    });
                }
                stmts.extend(ret_stmts);
                (Terminator::Goto(cont_id), cb.term_line)
            }
            other => {
                let mut t = other.clone();
                t.remap(remap_block);
                // Remap terminator operands into the caller's local space.
                match &mut t {
                    Terminator::Branch { cond, .. } => *cond = remap_op(cond),
                    Terminator::Switch { scrut, .. } => *scrut = remap_op(scrut),
                    _ => {}
                }
                (t, cb.term_line)
            }
        };
        caller.blocks.push(MirBlock {
            stmts,
            term,
            term_line,
        });
    }
    caller.blocks.push(cont);

    // Layout: insert the inlined blocks then the continuation right after
    // the call block.
    let pos = caller
        .layout
        .iter()
        .position(|b| *b == block)
        .expect("call block is live");
    let mut insert: Vec<MirBlockId> = callee
        .layout
        .iter()
        .map(|b| MirBlockId(block_base + b.0))
        .collect();
    insert.push(cont_id);
    caller.layout.splice(pos + 1..pos + 1, insert);
}

/// Statistics from an inlining run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineStats {
    pub sites_inlined: usize,
    pub rounds: usize,
}

/// Runs the inliner over the whole program.
pub fn run_inlining(program: &mut MirProgram, opts: &CompileOptions) -> InlineStats {
    let mut stats = InlineStats::default();
    if opts.opt_level == 0 {
        return stats;
    }
    for round in 0..MAX_ROUNDS {
        // The round's callees as they stood at its start. Only inlinable
        // functions can be inlined, so only they are copied; a callee
        // missing here is skipped like one that is not inlinable (names
        // are unique: `validate` rejects duplicates).
        let snapshot: HashMap<String, MirFunction> = program
            .functions
            .iter()
            .filter(|f| inlinable(f))
            .map(|f| (f.name.clone(), f.clone()))
            .collect();
        let mut any = false;
        for func in &mut program.functions {
            // Find one inlinable site at a time (indices shift after each
            // splice).
            loop {
                let mut site = None;
                'scan: for &bb in &func.layout {
                    for (si, s) in func.blocks[bb.index()].stmts.iter().enumerate() {
                        if let Stmt::Call {
                            callee: Callee::Direct(name),
                            landing_pad: None,
                            line,
                            ..
                        } = s
                        {
                            if *name == func.name {
                                continue;
                            }
                            let Some(callee) = snapshot.get(name) else {
                                continue;
                            };
                            if should_inline(func, callee, *line, opts) {
                                site = Some((bb, si, name.clone()));
                                break 'scan;
                            }
                        }
                    }
                }
                let Some((bb, si, name)) = site else { break };
                inline_at(func, bb, si, &snapshot[&name]);
                stats.sites_inlined += 1;
                any = true;
            }
        }
        stats.rounds = round + 1;
        if !any {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::mir::{BinOp, CmpOp, Interp};

    /// foo(x) = x>0 ? 1 : 2, inline-hinted; bar() = foo(5); baz() = foo(-5).
    fn figure2_program() -> MirProgram {
        let mut p = MirProgram::with_entry("main");
        let mut foo = FunctionBuilder::new("foo", 0, "foo.c", 1);
        foo.inline_hint();
        let c = foo.assign_cmp(CmpOp::Gt, Operand::Local(0), Operand::Const(0));
        let (t, e) = foo.branch(Operand::Local(c));
        foo.switch_to(t);
        foo.ret(Operand::Const(1));
        foo.switch_to(e);
        foo.ret(Operand::Const(2));
        p.add_function(foo.finish());

        let mut bar = FunctionBuilder::new("bar", 1, "bar.c", 0);
        let r = bar.call("foo", vec![Operand::Const(5)]);
        bar.ret(Operand::Local(r));
        p.add_function(bar.finish());

        let mut baz = FunctionBuilder::new("baz", 2, "baz.c", 0);
        let r = baz.call("foo", vec![Operand::Const(-5)]);
        baz.ret(Operand::Local(r));
        p.add_function(baz.finish());

        let mut main = FunctionBuilder::new("main", 3, "main.c", 0);
        let a = main.call("bar", vec![]);
        let b = main.call("baz", vec![]);
        let s = main.assign(Rvalue::BinOp(
            BinOp::Add,
            Operand::Local(a),
            Operand::Local(b),
        ));
        main.emit(Operand::Local(s));
        main.ret(Operand::Local(s));
        p.add_function(main.finish());
        p.validate().unwrap();
        p
    }

    #[test]
    fn inlining_preserves_semantics() {
        let mut p = figure2_program();
        let (r_before, out_before) = {
            let mut before = Interp::new(&p, 100_000);
            let r = before.run(&[]).unwrap();
            (r, before.output.clone())
        };

        let opts = CompileOptions {
            lto: true,
            ..CompileOptions::default()
        };
        let stats = run_inlining(&mut p, &opts);
        assert!(stats.sites_inlined >= 2, "foo inlined into bar and baz");
        p.validate().unwrap();

        let mut after = Interp::new(&p, 100_000);
        let r_after = after.run(&[]).unwrap();
        assert_eq!(r_before, r_after);
        assert_eq!(out_before, after.output);
        assert_eq!(r_after, 3);
    }

    #[test]
    fn inlined_copies_share_lines() {
        let mut p = figure2_program();
        let opts = CompileOptions {
            lto: true,
            ..CompileOptions::default()
        };
        run_inlining(&mut p, &opts);
        // The branch line of foo must now appear in both bar and baz.
        let foo_branch_line = p.function("foo").unwrap().blocks[0].term_line;
        for name in ["bar", "baz"] {
            let f = p.function(name).unwrap();
            let has_line = f.blocks.iter().any(|b| b.term_line == foo_branch_line);
            assert!(has_line, "{name} contains foo's branch line (Figure 2)");
        }
    }

    #[test]
    fn lto_gates_cross_module_inlining() {
        let mut p = figure2_program();
        let no_lto = CompileOptions {
            lto: false,
            ..CompileOptions::default()
        };
        // foo is in module 0; bar/baz in modules 1/2: nothing to inline
        // without LTO (bar/baz calls are cross-module; main's calls target
        // non-tiny, non-hinted functions).
        let stats = run_inlining(&mut p, &no_lto);
        assert_eq!(stats.sites_inlined, 0);
    }

    #[test]
    fn recursive_functions_not_inlined() {
        let mut p = MirProgram::with_entry("rec");
        let mut rec = FunctionBuilder::new("rec", 0, "r.c", 1);
        rec.inline_hint();
        let c = rec.assign_cmp(CmpOp::Le, Operand::Local(0), Operand::Const(0));
        let (base, go) = rec.branch(Operand::Local(c));
        rec.switch_to(base);
        rec.ret(Operand::Const(0));
        rec.switch_to(go);
        let n1 = rec.assign(Rvalue::BinOp(
            BinOp::Sub,
            Operand::Local(0),
            Operand::Const(1),
        ));
        let r = rec.call("rec", vec![Operand::Local(n1)]);
        rec.ret(Operand::Local(r));
        p.add_function(rec.finish());

        let mut main = FunctionBuilder::new("main", 0, "m.c", 0);
        let r = main.call("rec", vec![Operand::Const(3)]);
        main.ret(Operand::Local(r));
        p.add_function(main.finish());
        p.entry = "main".into();
        p.validate().unwrap();

        let mut q = p.clone();
        let stats = run_inlining(&mut q, &CompileOptions::default());
        assert_eq!(stats.sites_inlined, 0, "recursive callee skipped");
    }
}
