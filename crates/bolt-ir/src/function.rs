//! Binary functions: the unit of disassembly, optimization, and re-emission.

use crate::{BasicBlock, BlockId, SuccEdge};
use std::collections::VecDeque;
use std::fmt;

/// A jump table recovered from `.rodata`, owned by a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JumpTable {
    /// Address of the table in the input binary.
    pub addr: u64,
    /// Symbol name of the table (used when re-emitting).
    pub name: String,
    /// Table entries as block targets.
    pub targets: Vec<BlockId>,
    /// Size of one entry in bytes (8 = absolute addresses).
    pub entry_size: u8,
}

/// Why a function was marked non-simple and left untouched (paper
/// sections 3.1 and 6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NonSimpleReason {
    /// Disassembly hit an unsupported byte sequence.
    UndecodableBytes,
    /// An indirect jump could not be resolved to a jump table.
    UnresolvedIndirectJump,
    /// A branch target fell outside the function's address range.
    /// (E.g. the indirect tail calls called out in paper section 6.4.)
    OutOfRangeControlFlow,
    /// The function overlaps another symbol.
    OverlappingCode,
    /// The fault-tolerance ladder excluded the function: a pass panicked
    /// on it, a verifier flagged it, or its layout-only retry failed
    /// too. Its original bytes are preserved verbatim in the output.
    Quarantined,
}

impl fmt::Display for NonSimpleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonSimpleReason::UndecodableBytes => write!(f, "undecodable bytes"),
            NonSimpleReason::UnresolvedIndirectJump => write!(f, "unresolved indirect jump"),
            NonSimpleReason::OutOfRangeControlFlow => write!(f, "out-of-range control flow"),
            NonSimpleReason::OverlappingCode => write!(f, "overlapping code"),
            NonSimpleReason::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// How much of the pipeline may touch a function — the rungs of the
/// driver's retry/degrade ladder. Every function starts at
/// [`OptTier::Full`]; a function that fails a pass or a verifier is
/// retried at [`OptTier::LayoutOnly`] before being quarantined outright
/// (`is_simple = false`, reason [`NonSimpleReason::Quarantined`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptTier {
    /// Every enabled pass may transform the function.
    #[default]
    Full,
    /// Only layout passes (block/function reordering, splitting, uce,
    /// fixup-branches) run; instruction-mutating passes skip the
    /// function.
    LayoutOnly,
}

/// A function reconstructed from the binary, its CFG, and its layout.
///
/// `blocks` is indexed by [`BlockId`]; `layout` gives the current emission
/// order and always starts with the entry block. Deleted blocks are kept in
/// `blocks` (so ids stay stable) but removed from `layout`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BinaryFunction {
    pub name: String,
    /// Start address in the input binary.
    pub address: u64,
    /// Size in bytes in the input binary.
    pub size: u64,
    /// Containing section name.
    pub section: String,
    pub blocks: Vec<BasicBlock>,
    /// Current block emission order; `layout[0]` is the entry block.
    pub layout: Vec<BlockId>,
    /// Index into `layout` where the cold (split) part begins.
    pub cold_start: Option<usize>,
    /// Total profile execution count (entries into the function).
    pub exec_count: u64,
    /// Fraction of profile that matched the CFG (1.0 = perfect).
    pub profile_accuracy: f64,
    /// Whether BOLT fully understands the function and may rewrite it.
    pub is_simple: bool,
    /// Why the function is non-simple, when it is not.
    pub non_simple_reason: Option<NonSimpleReason>,
    /// Which pipeline rung may transform the function (the quarantine
    /// ladder's per-function demotion level). [`OptTier::Full`] for
    /// every healthy function.
    pub opt_tier: OptTier,
    pub jump_tables: Vec<JumpTable>,
    /// Names folded into this function by identical-code-folding.
    pub icf_aliases: Vec<String>,
    /// Set when this function was folded into another by ICF; folded
    /// functions are not emitted and their symbol resolves to the keeper.
    pub folded_into: Option<usize>,
}

impl BinaryFunction {
    /// Creates an empty simple function.
    pub fn new(name: impl Into<String>, address: u64) -> BinaryFunction {
        BinaryFunction {
            name: name.into(),
            address,
            is_simple: true,
            profile_accuracy: 1.0,
            section: bolt_elf_section_text(),
            ..BinaryFunction::default()
        }
    }

    /// Adds a block, returning its id.
    pub fn add_block(&mut self, block: BasicBlock) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(block);
        self.layout.push(id);
        id
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        self.layout.first().copied().unwrap_or(BlockId(0))
    }

    /// Whether instruction-mutating passes may rewrite this function.
    /// Layout passes gate on `is_simple` alone; everything that changes
    /// instructions must come through here, so a function demoted to
    /// [`OptTier::LayoutOnly`] by the quarantine ladder genuinely only
    /// gets its layout optimized on the retry. (Folded-function
    /// exclusion stays with the individual passes, exactly as before
    /// the ladder existed.)
    pub fn may_transform(&self) -> bool {
        self.is_simple && self.opt_tier == OptTier::Full
    }

    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Number of blocks currently in the layout.
    pub fn num_live_blocks(&self) -> usize {
        self.layout.len()
    }

    /// Total instruction count over live blocks.
    pub fn num_insts(&self) -> usize {
        self.layout
            .iter()
            .map(|id| self.block(*id).insts.len())
            .sum()
    }

    /// Whether the function has been split into hot and cold parts.
    pub fn is_split(&self) -> bool {
        self.cold_start.is_some()
    }

    /// Iterates over live blocks in layout order.
    pub fn iter_layout(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> + '_ {
        self.layout.iter().map(move |id| (*id, self.block(*id)))
    }

    /// The layout successor of `id` (the block physically after it).
    pub fn layout_next(&self, id: BlockId) -> Option<BlockId> {
        let pos = self.layout.iter().position(|b| *b == id)?;
        self.layout.get(pos + 1).copied()
    }

    /// Recomputes all predecessor lists from successor lists, including
    /// landing-pad `throwers`.
    pub fn rebuild_preds(&mut self) {
        for b in &mut self.blocks {
            b.preds.clear();
            b.throwers.clear();
        }
        for &from in &self.layout {
            for si in 0..self.blocks[from.index()].succs.len() {
                let to = self.blocks[from.index()].succs[si].block;
                let preds = &mut self.blocks[to.index()].preds;
                if !preds.contains(&from) {
                    preds.push(from);
                }
            }
        }
        // Landing pads: collect throwers from call annotations.
        for &from in &self.layout {
            for ii in 0..self.blocks[from.index()].insts.len() {
                let Some(lp) = self.blocks[from.index()].insts[ii].landing_pad else {
                    continue;
                };
                let b = &mut self.blocks[lp.index()];
                b.is_landing_pad = true;
                if !b.throwers.contains(&from) {
                    b.throwers.push(from);
                }
            }
        }
    }

    /// Blocks reachable from the entry following CFG edges and
    /// call→landing-pad edges.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if self.layout.is_empty() {
            return seen;
        }
        let mut q = VecDeque::new();
        let entry = self.entry();
        seen[entry.index()] = true;
        q.push_back(entry);
        while let Some(b) = q.pop_front() {
            let blk = self.block(b);
            let succ_iter = blk.succs.iter().map(|e| e.block);
            let lp_iter = blk.insts.iter().filter_map(|i| i.landing_pad);
            for next in succ_iter.chain(lp_iter) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    q.push_back(next);
                }
            }
        }
        seen
    }

    /// Reverse post-order over the CFG from the entry.
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        if self.blocks.is_empty() {
            return Vec::new();
        }
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.layout.len());
        // Iterative DFS.
        let entry = self.entry();
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited[entry.index()] = true;
        while let Some((b, i)) = stack.pop() {
            let succs = &self.block(b).succs;
            if i < succs.len() {
                stack.push((b, i + 1));
                let next = succs[i].block;
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(b);
            }
        }
        post.reverse();
        post
    }

    /// Checks structural invariants; returns a human-readable violation if
    /// any. Used by tests and (in debug builds) after each pass.
    pub fn validate(&self) -> Result<(), String> {
        // Layout is a duplicate-free subset of block ids.
        let mut seen = vec![false; self.blocks.len()];
        for id in &self.layout {
            let i = id.index();
            if i >= self.blocks.len() {
                return Err(format!(
                    "{}: layout references missing block {id}",
                    self.name
                ));
            }
            if seen[i] {
                return Err(format!("{}: block {id} appears twice in layout", self.name));
            }
            seen[i] = true;
        }
        if let Some(cold) = self.cold_start {
            if cold == 0 || cold > self.layout.len() {
                return Err(format!("{}: invalid cold_start {cold}", self.name));
            }
        }
        for &id in &self.layout {
            let b = self.block(id);
            for e in &b.succs {
                if e.block.index() >= self.blocks.len() {
                    return Err(format!(
                        "{}: {id} has edge to missing block {}",
                        self.name, e.block
                    ));
                }
                if !seen[e.block.index()] {
                    return Err(format!(
                        "{}: {id} has edge to dead block {}",
                        self.name, e.block
                    ));
                }
            }
            // Terminator targets (labels encoded as block ids) must match
            // edges.
            if let Some(term) = b.terminator() {
                use bolt_isa::{Inst, Target};
                match term.inst {
                    Inst::Jcc { target, .. } | Inst::Jmp { target, .. } => {
                        if let Target::Label(l) = target {
                            let tgt = BlockId(l.0);
                            if b.succ_edge(tgt).is_none() {
                                return Err(format!(
                                    "{}: {id} branches to {tgt} without a CFG edge",
                                    self.name
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
            // Non-last terminators are a structural error.
            for inst in b.insts.iter().rev().skip(1) {
                if inst.inst.is_terminator() {
                    return Err(format!(
                        "{}: {id} has terminator in the middle of the block",
                        self.name
                    ));
                }
            }
        }
        for jt in &self.jump_tables {
            for t in &jt.targets {
                if t.index() >= self.blocks.len() || !seen[t.index()] {
                    return Err(format!(
                        "{}: jump table {} targets dead block {t}",
                        self.name, jt.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Sum of all taken-edge counts (used by dyno stats).
    pub fn total_edge_count(&self) -> u64 {
        self.layout.iter().map(|&id| self.block(id).outflow()).sum()
    }

    /// Hottest-first order of block ids by execution count.
    pub fn blocks_by_hotness(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.layout.clone();
        ids.sort_by_key(|id| std::cmp::Reverse(self.block(*id).exec_count));
        ids
    }
}

fn bolt_elf_section_text() -> String {
    ".text".to_string()
}

/// Convenience: builds an edge list for tests.
pub fn edges(list: &[(u32, u64)]) -> Vec<SuccEdge> {
    list.iter()
        .map(|&(b, c)| SuccEdge::with_count(BlockId(b), c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_isa::{Cond, Inst, JumpWidth, Label, Reg, Target};

    /// A diamond: 0 -> {1, 2} -> 3.
    fn diamond() -> BinaryFunction {
        let mut f = BinaryFunction::new("diamond", 0x400000);
        for _ in 0..4 {
            f.add_block(BasicBlock::new());
        }
        f.block_mut(BlockId(0)).push(Inst::Jcc {
            cond: Cond::E,
            target: Target::Label(Label(2)),
            width: JumpWidth::Near,
        });
        f.block_mut(BlockId(0)).succs = edges(&[(2, 30), (1, 70)]);
        f.block_mut(BlockId(1)).push(Inst::Push(Reg::Rax));
        f.block_mut(BlockId(1)).succs = edges(&[(3, 70)]);
        f.block_mut(BlockId(2)).push(Inst::Push(Reg::Rbx));
        f.block_mut(BlockId(2)).succs = edges(&[(3, 30)]);
        f.block_mut(BlockId(3)).push(Inst::Ret);
        f.rebuild_preds();
        f
    }

    #[test]
    fn preds_rebuilt() {
        let f = diamond();
        assert_eq!(f.block(BlockId(3)).preds.len(), 2);
        assert_eq!(f.block(BlockId(0)).preds.len(), 0);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let rpo = f.reverse_post_order();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
    }

    #[test]
    fn reachability_sees_landing_pads() {
        let mut f = diamond();
        // Add a landing pad only reachable via a call annotation.
        let lp = f.add_block(BasicBlock::new());
        f.block_mut(lp).push(Inst::Ret);
        f.block_mut(lp).is_landing_pad = true;
        let call = crate::BinaryInst {
            inst: Inst::Call {
                target: Target::Addr(0x400100),
            },
            addr: 0,
            line: None,
            landing_pad: Some(lp),
        };
        f.block_mut(BlockId(1)).insts.insert(0, call);
        f.rebuild_preds();
        let reach = f.reachable();
        assert!(reach[lp.index()], "landing pad must be reachable");
        assert_eq!(f.block(lp).throwers, vec![BlockId(1)]);
    }

    #[test]
    fn validate_catches_violations() {
        let mut f = diamond();
        f.layout.push(BlockId(2));
        assert!(f.validate().unwrap_err().contains("twice"));

        let mut f = diamond();
        f.block_mut(BlockId(0)).succs = edges(&[(1, 70)]);
        assert!(f.validate().unwrap_err().contains("without a CFG edge"));

        let mut f = diamond();
        f.block_mut(BlockId(1))
            .insts
            .insert(0, crate::BinaryInst::new(Inst::Ret));
        assert!(f
            .validate()
            .unwrap_err()
            .contains("terminator in the middle"));
    }

    #[test]
    fn hotness_order() {
        let mut f = diamond();
        f.block_mut(BlockId(1)).exec_count = 70;
        f.block_mut(BlockId(2)).exec_count = 30;
        f.block_mut(BlockId(0)).exec_count = 100;
        f.block_mut(BlockId(3)).exec_count = 100;
        let hot = f.blocks_by_hotness();
        assert_eq!(hot[3], BlockId(2), "coldest block last");
    }
}
