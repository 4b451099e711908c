//! Pass 2/7: identical code folding.
//!
//! Folds functions whose normalized bodies are identical — including
//! functions with jump tables, which linker ICF cannot fold (paper
//! section 4: ~3% size reduction on HHVM beyond the linker's ICF).

use crate::function_pass::in_chunks;
use bolt_ir::{BinaryContext, BinaryFunction};
use bolt_isa::{Inst, JumpWidth, Mem, Rm, Target};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One element of a normalized function body. Intra-function targets are
/// block ordinals and cross-function targets function indices, so two
/// structurally identical bodies are equal element for element.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    /// Block header: layout ordinal and landing-pad flag.
    Block(u32, bool),
    /// An instruction, its target (which follows as its own element)
    /// zeroed and its jump width — the emitter's choice — canonical.
    Inst(Inst),
    /// A block of this function: a branch or jump-table target.
    Local(u32),
    /// The entry of the function with this index.
    Func(usize),
    /// Any other address.
    Addr(u64),
    /// A CFG successor.
    Succ(u32),
    /// Start of a jump table.
    Table,
}

/// Streams the normalized body of `func` into `emit`; `None` if an
/// instruction names a block the function does not have.
fn normalize(ctx: &BinaryContext, func: &BinaryFunction, mut emit: impl FnMut(Key)) -> Option<()> {
    // Block ordinal by id.
    let mut ordinal = vec![u32::MAX; func.blocks.len()];
    for (i, id) in func.layout.iter().enumerate() {
        ordinal[id.index()] = i as u32;
    }
    for &id in &func.layout {
        let b = func.block(id);
        emit(Key::Block(ordinal[id.index()], b.is_landing_pad));
        for inst in &b.insts {
            let mut i = inst.inst;
            let target = match &mut i {
                Inst::Jcc { target, width, .. } | Inst::Jmp { target, width } => {
                    *width = JumpWidth::Near;
                    Some(target)
                }
                Inst::Call { target } | Inst::MovRSym { target, .. } => Some(target),
                Inst::Load { mem, .. }
                | Inst::Store { mem, .. }
                | Inst::Lea { mem, .. }
                | Inst::JmpInd { rm: Rm::Mem(mem) }
                | Inst::CallInd { rm: Rm::Mem(mem) } => match mem {
                    Mem::RipRel { target } => Some(target),
                    _ => None,
                },
                _ => None,
            };
            let target = target.map(|t| std::mem::replace(t, Target::Addr(0)));
            emit(Key::Inst(i));
            match target {
                Some(Target::Label(l)) => emit(Key::Local(*ordinal.get(l.0 as usize)?)),
                Some(Target::Addr(a)) => emit(match ctx.function_at(a) {
                    // Cross-function reference: use the fold target so
                    // ICF converges transitively.
                    Some(fi) if ctx.functions[fi].address == a => {
                        Key::Func(ctx.functions[fi].folded_into.unwrap_or(fi))
                    }
                    _ => Key::Addr(a),
                }),
                None => {}
            }
        }
        for e in &b.succs {
            emit(Key::Succ(ordinal[e.block.index()]));
        }
    }
    // Jump tables: same target ordinals in the same order fold fine.
    for jt in &func.jump_tables {
        emit(Key::Table);
        for t in &jt.targets {
            emit(Key::Local(ordinal[t.index()]));
        }
    }
    Some(())
}

/// A multiply-rotate hasher: equality is checked inside a bucket, so the
/// hash only has to be quick and spread well.
struct BodyHasher(u64);

impl Hasher for BodyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let mixed = self.0.rotate_left(5) ^ u64::from_le_bytes(word);
            self.0 = mixed.wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

/// The hash of `f`'s normalized body, callee identity left out; `None`
/// if ICF may not fold `f`.
fn body_hash(ctx: &BinaryContext, f: &BinaryFunction) -> Option<u64> {
    let mut h = BodyHasher(0);
    let feed = |k: Key| match k {
        Key::Func(_) => {}
        k => k.hash(&mut h),
    };
    let eligible = f.may_transform() && f.folded_into.is_none() && f.name != "_start";
    (eligible && normalize(ctx, f, feed).is_some()).then(|| h.finish())
}

/// Runs one ICF fixpoint; returns the number of functions folded.
pub fn run_icf(ctx: &mut BinaryContext) -> u64 {
    run_icf_with_threads(ctx, 1)
}

/// [`run_icf`], hashing the bodies on `n_threads` threads (an effective
/// count, see `bolt_emu::Knobs::threads`). Hashing only reads the
/// context, and the hashes are gathered in function order, so the folds
/// are the same at any count.
pub fn run_icf_with_threads(ctx: &mut BinaryContext, n_threads: usize) -> u64 {
    // `(hash, address, index)` per candidate, sorted: possible twins are
    // adjacent, lowest address first. The hash leaves callee identity
    // out, so the folds below do not change it and one pass computes it.
    let mut hashes = vec![None; ctx.functions.len()];
    let context = &*ctx;
    in_chunks(&mut hashes, n_threads, |first, out| {
        let functions = &context.functions[first..first + out.len()];
        for (hash, f) in out.iter_mut().zip(functions) {
            *hash = body_hash(context, f);
        }
    });
    let mut candidates: Vec<(u64, u64, usize)> = (hashes.into_iter().enumerate())
        .filter_map(|(i, h)| Some((h?, ctx.functions[i].address, i)))
        .collect();
    candidates.sort_unstable();
    let mut folded = 0;
    // Iterate: folding can enable more folds (mutually recursive twins).
    for _round in 0..3 {
        // Bodies are built and compared only inside a bucket, all under
        // the same fold state: the round's folds apply together below.
        let mut folds: Vec<(usize, usize)> = Vec::new();
        let buckets = candidates.chunk_by(|a, b| a.0 == b.0);
        for bucket in buckets.filter(|b| b.len() > 1) {
            // Keep the lowest-address function of each distinct body.
            let mut keepers: HashMap<Vec<Key>, usize> = HashMap::new();
            for &(_, _, i) in bucket {
                let mut body = Vec::new();
                let live = ctx.functions[i].folded_into.is_none();
                if live && normalize(ctx, &ctx.functions[i], |k| body.push(k)).is_some() {
                    match keepers.entry(body) {
                        Entry::Occupied(keeper) => folds.push((i, *keeper.get())),
                        Entry::Vacant(first) => drop(first.insert(i)),
                    }
                }
            }
        }
        if folds.is_empty() {
            break;
        }
        folded += folds.len() as u64;
        for (other, keeper) in folds {
            let name = ctx.functions[other].name.clone();
            let exec = ctx.functions[other].exec_count;
            ctx.functions[other].folded_into = Some(keeper);
            ctx.functions[keeper].icf_aliases.push(name);
            ctx.functions[keeper].exec_count += exec;
        }
    }
    ctx.reindex();
    folded
}

/// Resolves a function index through fold chains.
pub fn resolve_fold(ctx: &BinaryContext, mut idx: usize) -> usize {
    while let Some(next) = ctx.functions[idx].folded_into {
        idx = next;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_ir::{BasicBlock, BlockId, SuccEdge};
    use bolt_isa::{AluOp, Cond, Label, Reg};

    fn twin(name: &str, addr: u64, imm: i32) -> BinaryFunction {
        let mut f = BinaryFunction::new(name, addr);
        f.size = 16;
        let b0 = f.add_block(BasicBlock::new());
        let b1 = f.add_block(BasicBlock::new());
        let b2 = f.add_block(BasicBlock::new());
        f.block_mut(b0).push(Inst::AluI {
            op: AluOp::Cmp,
            dst: Reg::Rdi,
            imm,
        });
        f.block_mut(b0).push(Inst::Jcc {
            cond: Cond::L,
            target: Target::Label(Label(2)),
            width: JumpWidth::Near,
        });
        f.block_mut(b0).succs = vec![SuccEdge::cold(b2), SuccEdge::cold(b1)];
        f.block_mut(b1).push(Inst::MovRI {
            dst: Reg::Rax,
            imm: 1,
        });
        f.block_mut(b1).push(Inst::Ret);
        f.block_mut(b2).push(Inst::MovRI {
            dst: Reg::Rax,
            imm: 0,
        });
        f.block_mut(b2).push(Inst::Ret);
        f.rebuild_preds();
        f
    }

    #[test]
    fn identical_functions_fold() {
        let mut ctx = BinaryContext::new();
        ctx.add_function(twin("a", 0x1000, 5));
        ctx.add_function(twin("b", 0x2000, 5));
        ctx.add_function(twin("c", 0x3000, 5));
        assert_eq!(run_icf(&mut ctx), 2);
        assert_eq!(ctx.functions[1].folded_into, Some(0));
        assert_eq!(ctx.functions[2].folded_into, Some(0));
        assert_eq!(ctx.functions[0].icf_aliases, vec!["b", "c"]);
        // Lookup through aliases works after reindex.
        assert_eq!(ctx.function_by_name("b").unwrap().name, "a");
    }

    #[test]
    fn different_functions_do_not_fold() {
        let mut ctx = BinaryContext::new();
        ctx.add_function(twin("a", 0x1000, 5));
        ctx.add_function(twin("b", 0x2000, 6)); // different immediate
        assert_eq!(run_icf(&mut ctx), 0);
    }

    #[test]
    fn fold_counts_transfer_exec_counts() {
        let mut ctx = BinaryContext::new();
        let mut a = twin("a", 0x1000, 5);
        a.exec_count = 10;
        let mut b = twin("b", 0x2000, 5);
        b.exec_count = 32;
        ctx.add_function(a);
        ctx.add_function(b);
        run_icf(&mut ctx);
        assert_eq!(ctx.functions[0].exec_count, 42);
    }

    #[test]
    fn functions_calling_identical_twins_fold_transitively() {
        // a/b identical; c calls a, d calls b: after folding a/b, c and d
        // normalize identically and fold too.
        let mut ctx = BinaryContext::new();
        ctx.add_function(twin("a", 0x1000, 5));
        ctx.add_function(twin("b", 0x2000, 5));
        for (name, addr, callee) in [("c", 0x3000u64, 0x1000u64), ("d", 0x4000, 0x2000)] {
            let mut f = BinaryFunction::new(name, addr);
            f.size = 8;
            let b0 = f.add_block(BasicBlock::new());
            f.block_mut(b0).push(Inst::Call {
                target: Target::Addr(callee),
            });
            f.block_mut(b0).push(Inst::Ret);
            ctx.add_function(f);
        }
        let folded = run_icf(&mut ctx);
        assert_eq!(folded, 2, "both the twins and their callers fold");
        assert_eq!(ctx.functions[3].folded_into, Some(2));
    }

    /// The hash leaves callees out, so callers of different functions
    /// share a bucket: the bucket is partitioned by body, not compared
    /// member by member with its lowest-address function.
    #[test]
    fn bucket_mates_fold_among_themselves() {
        let mut ctx = BinaryContext::new();
        ctx.add_function(twin("x", 0x1000, 5));
        ctx.add_function(twin("y", 0x2000, 6));
        for (name, addr, callee) in [
            ("calls_x", 0x3000u64, 0x1000u64),
            ("calls_y", 0x4000, 0x2000),
            ("calls_y_too", 0x5000, 0x2000),
        ] {
            let mut f = BinaryFunction::new(name, addr);
            f.size = 8;
            let b0 = f.add_block(BasicBlock::new());
            f.block_mut(b0).push(Inst::Call {
                target: Target::Addr(callee),
            });
            f.block_mut(b0).push(Inst::Ret);
            ctx.add_function(f);
        }
        assert_eq!(run_icf(&mut ctx), 1);
        assert_eq!(ctx.functions[2].folded_into, None);
        assert_eq!(ctx.functions[4].folded_into, Some(3));
    }

    /// Jump width is the emitter's choice and never was part of the key.
    #[test]
    fn jump_width_does_not_separate_twins() {
        let mut ctx = BinaryContext::new();
        ctx.add_function(twin("near", 0x1000, 5));
        let mut short = twin("short", 0x2000, 5);
        let Inst::Jcc { width, .. } = &mut short.block_mut(BlockId(0)).insts[1].inst else {
            panic!("the twin's second instruction is its branch");
        };
        *width = JumpWidth::Short;
        ctx.add_function(short);
        assert_eq!(run_icf(&mut ctx), 1);
    }
}
