//! Pass 3: indirect-call promotion.
//!
//! A hot indirect call with a dominant target becomes a guarded direct
//! call, turning an unpredictable indirect branch into a compare plus a
//! direct call the predictor handles trivially (paper Table 1, pass 3).
//!
//! The transformation needs a scratch register that is dead at the call
//! site; BOLT uses its dataflow framework for exactly this (paper
//! section 4), and so do we.

use bolt_ir::{dataflow, BasicBlock, BinaryContext, BlockId, SuccEdge};
use bolt_isa::{AluOp, Cond, Inst, JumpWidth, Label, Reg, Rm, Target};

/// Runs the pass; returns the number of call sites promoted.
pub fn run_icp(ctx: &mut BinaryContext, threshold: f64) -> u64 {
    let mut n = 0;
    // Collect the planned promotions first: (func, block, inst idx,
    // target function address).
    let mut plans: Vec<(usize, BlockId, usize, u64)> = Vec::new();
    for (fi, func) in ctx.functions.iter().enumerate() {
        if !func.may_transform() || func.folded_into.is_some() {
            continue;
        }
        for &id in &func.layout {
            for (k, inst) in func.block(id).insts.iter().enumerate() {
                if !matches!(inst.inst, Inst::CallInd { rm: Rm::Reg(_) }) {
                    continue;
                }
                let Some(targets) = ctx.indirect_call_targets.get(&inst.addr) else {
                    continue;
                };
                let total: u64 = targets.iter().map(|(_, c)| c).sum();
                if total == 0 {
                    continue;
                }
                let Some(&(hot_fi, hot_count)) = targets.iter().max_by_key(|(_, c)| *c) else {
                    continue;
                };
                if (hot_count as f64) < threshold * total as f64 {
                    continue;
                }
                let hot_addr = ctx.functions[hot_fi].address;
                plans.push((fi, id, k, hot_addr));
            }
        }
    }

    // Apply plans per function, later instruction indices first so earlier
    // indices stay valid. Liveness is solved here only, per planned site;
    // planning needs none: a promotion leaves liveness unchanged at every
    // other site (its guard writes the scratch register before reading
    // it), so a site without a dead scratch register is refused just the
    // same when its turn comes.
    plans.sort_by_key(|p| std::cmp::Reverse((p.0, p.1, p.2)));
    for (fi, id, k, hot_addr) in plans {
        if promote(ctx, fi, id, k, hot_addr) {
            n += 1;
        }
    }
    n
}

/// Rewrites one indirect call site into:
///
/// ```text
///   ...head...
///   movabs $hot, %scratch
///   cmpq %scratch, %target
///   jne Lind
///   callq hot            ; direct-call block
///   jmp  Ljoin
/// Lind:
///   callq *%target       ; fallback block
/// Ljoin:
///   ...tail...
/// ```
///
/// `hot` is the callee's *original* entry in both places, but the
/// emitter resolves them differently: the direct `callq` follows the
/// callee to its new home, while the guard's `movabs` (a `MovRSym`, which
/// nothing but this pass puts in optimizer IR) keeps the original
/// address, because that is what a function pointer in `%target` holds.
fn promote(ctx: &mut BinaryContext, fi: usize, id: BlockId, k: usize, hot_addr: u64) -> bool {
    // Need a dead scratch register != the target register.
    let func = &ctx.functions[fi];
    let facts = dataflow::solve(func, &dataflow::Liveness);
    let live = dataflow::live_before_each(func, id, &facts);
    let Inst::CallInd {
        rm: Rm::Reg(target_reg),
    } = func.block(id).insts[k].inst
    else {
        return false;
    };
    let Some(&scratch) = Reg::CALLER_SAVED
        .iter()
        .find(|r| **r != target_reg && !live[k].contains(**r))
    else {
        return false;
    };

    let func = &mut ctx.functions[fi];
    let call_inst = func.block(id).insts[k].clone();
    let count = func.block(id).exec_count;

    // Split: head keeps insts[..k]; tail gets insts[k+1..] + terminator +
    // succs.
    let tail_insts: Vec<_> = func.block_mut(id).insts.split_off(k + 1);
    func.block_mut(id).insts.pop(); // the indirect call

    let head_succs = std::mem::take(&mut func.block_mut(id).succs);

    let direct_id = BlockId(func.blocks.len() as u32);
    func.blocks.push(BasicBlock::new());
    let fallback_id = BlockId(func.blocks.len() as u32);
    func.blocks.push(BasicBlock::new());
    let join_id = BlockId(func.blocks.len() as u32);
    func.blocks.push(BasicBlock::new());

    // Head: guard sequence.
    {
        let head = func.block_mut(id);
        head.push(Inst::MovRSym {
            dst: scratch,
            target: Target::Addr(hot_addr),
        });
        head.push(Inst::Alu {
            op: AluOp::Cmp,
            dst: target_reg,
            src: scratch,
        });
        head.push(Inst::Jcc {
            cond: Cond::Ne,
            target: Target::Label(Label(fallback_id.0)),
            width: JumpWidth::Near,
        });
        head.succs = vec![
            SuccEdge::with_count(fallback_id, count / 10),
            SuccEdge::with_count(direct_id, count.saturating_sub(count / 10)),
        ];
    }
    // Direct-call block.
    {
        let mut direct_call = call_inst.clone();
        direct_call.inst = Inst::Call {
            target: Target::Addr(hot_addr),
        };
        let b = func.block_mut(direct_id);
        b.exec_count = count.saturating_sub(count / 10);
        b.insts.push(direct_call);
        b.push(Inst::Jmp {
            target: Target::Label(Label(join_id.0)),
            width: JumpWidth::Near,
        });
        b.succs = vec![SuccEdge::with_count(join_id, b.exec_count)];
    }
    // Fallback block keeps the original indirect call.
    {
        let b = func.block_mut(fallback_id);
        b.exec_count = count / 10;
        b.insts.push(call_inst);
        b.succs = vec![SuccEdge::with_count(join_id, b.exec_count)];
    }
    // Join block inherits the tail.
    {
        let b = func.block_mut(join_id);
        b.exec_count = count;
        b.insts = tail_insts;
        b.succs = head_succs;
    }

    // Layout: head, direct, fallback, join — inserted in place.
    let pos = func
        .layout
        .iter()
        .position(|b| *b == id)
        .expect("block is live");
    func.layout
        .splice(pos + 1..pos + 1, [direct_id, fallback_id, join_id]);
    if let Some(cold) = func.cold_start {
        if cold > pos {
            func.cold_start = Some(cold + 3);
        }
    }
    func.rebuild_preds();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_ir::{BinaryFunction, BinaryInst};

    fn icp_ctx(dominant: bool) -> BinaryContext {
        let mut ctx = BinaryContext::new();
        let mut hot = BinaryFunction::new("hot_target", 0x9000);
        hot.size = 4;
        let b = hot.add_block(BasicBlock::new());
        hot.block_mut(b).push(Inst::Ret);
        ctx.add_function(hot);
        let mut other = BinaryFunction::new("other", 0xA000);
        other.size = 4;
        let b = other.add_block(BasicBlock::new());
        other.block_mut(b).push(Inst::Ret);
        ctx.add_function(other);

        let mut caller = BinaryFunction::new("caller", 0x1000);
        caller.size = 32;
        let b = caller.add_block(BasicBlock::new());
        caller.block_mut(b).exec_count = 1000;
        caller.block_mut(b).insts.push(
            BinaryInst::new(Inst::CallInd {
                rm: Rm::Reg(Reg::R11),
            })
            .at(0x1004),
        );
        caller.block_mut(b).push(Inst::Ret);
        caller.exec_count = 1000;
        ctx.add_function(caller);

        let targets = if dominant {
            vec![(0usize, 950u64), (1usize, 50u64)]
        } else {
            vec![(0usize, 500u64), (1usize, 500u64)]
        };
        ctx.indirect_call_targets.insert(0x1004, targets);
        ctx
    }

    #[test]
    fn dominant_target_promoted() {
        let mut ctx = icp_ctx(true);
        assert_eq!(run_icp(&mut ctx, 0.51), 1);
        let f = &ctx.functions[2];
        f.validate().unwrap();
        // The guard compares against the hot target.
        let head = f.block(BlockId(0));
        assert!(head.insts.iter().any(|i| matches!(
            i.inst,
            Inst::MovRSym {
                target: Target::Addr(0x9000),
                ..
            }
        )));
        // A direct call to the hot target exists somewhere.
        let has_direct = f.layout.iter().any(|&b| {
            f.block(b).insts.iter().any(|i| {
                i.inst
                    == Inst::Call {
                        target: Target::Addr(0x9000),
                    }
            })
        });
        assert!(has_direct);
        // The fallback indirect call survives.
        let has_indirect = f.layout.iter().any(|&b| {
            f.block(b)
                .insts
                .iter()
                .any(|i| matches!(i.inst, Inst::CallInd { .. }))
        });
        assert!(has_indirect);
    }

    #[test]
    fn balanced_targets_not_promoted() {
        let mut ctx = icp_ctx(false);
        assert_eq!(run_icp(&mut ctx, 0.51), 0);
    }

    #[test]
    fn no_profile_no_promotion() {
        let mut ctx = icp_ctx(true);
        ctx.indirect_call_targets.clear();
        assert_eq!(run_icp(&mut ctx, 0.51), 0);
    }

    /// Liveness is solved only where a promotion is planned. The witness
    /// is a function `dataflow::solve` cannot survive — a successor edge
    /// to a block it does not have — holding an indirect call the profile
    /// says nothing about: the pass must leave it alone instead of
    /// panicking, while the profiled site next door is promoted with the
    /// scratch register the eager solve picks.
    #[test]
    fn liveness_is_solved_only_for_functions_with_a_profiled_indirect_call() {
        let mut ctx = icp_ctx(true);
        let mut unprofiled = BinaryFunction::new("unprofiled", 0x2000);
        unprofiled.size = 32;
        let b = unprofiled.add_block(BasicBlock::new());
        unprofiled.block_mut(b).insts.push(
            BinaryInst::new(Inst::CallInd {
                rm: Rm::Reg(Reg::R11),
            })
            .at(0x2004),
        );
        unprofiled.block_mut(b).push(Inst::Ret);
        unprofiled.block_mut(b).succs = vec![SuccEdge::cold(BlockId(7))];
        let poisoned = ctx.add_function(unprofiled);
        let solved = std::panic::catch_unwind(|| {
            dataflow::solve(&ctx.functions[poisoned], &dataflow::Liveness)
        });
        assert!(solved.is_err(), "the witness must be fatal to the solver");

        // What the eager pass computed for the profiled site.
        let caller = &ctx.functions[2];
        let facts = dataflow::solve(caller, &dataflow::Liveness);
        let live = dataflow::live_before_each(caller, BlockId(0), &facts);
        let expected = *Reg::CALLER_SAVED
            .iter()
            .find(|r| **r != Reg::R11 && !live[0].contains(**r))
            .expect("a dead caller-saved register exists");

        let untouched = ctx.functions[poisoned].clone();
        assert_eq!(run_icp(&mut ctx, 0.51), 1);
        assert_eq!(ctx.functions[poisoned].blocks, untouched.blocks);
        let head = ctx.functions[2].block(BlockId(0));
        let guard: Vec<Inst> = head.insts.iter().map(|i| i.inst).collect();
        assert_eq!(
            guard[..2],
            [
                Inst::MovRSym {
                    dst: expected,
                    target: Target::Addr(0x9000),
                },
                Inst::Alu {
                    op: AluOp::Cmp,
                    dst: Reg::R11,
                    src: expected,
                },
            ]
        );
    }
}
