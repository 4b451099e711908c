//! Pass 9: `reorder-bbs` — basic-block layout and hot/cold splitting
//! (the most effective BOLT pass, together with function reordering;
//! paper section 4).

use bolt_ir::{BinaryContext, BinaryFunction, BlockId};
use bolt_isa::encoded_len;

/// `-reorder-blocks=` algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockLayout {
    /// Keep the original layout.
    None,
    /// Reverse the original layout (a sanity-check pessimization).
    Reverse,
    /// Greedy Pettis–Hansen chaining on edge weights (`branch`).
    Branch,
    /// Like `cache+` but without distance-sensitive scoring.
    Cache,
    /// ExtTSP-style layout (`cache+`, the paper's configuration).
    #[default]
    CachePlus,
}

/// `-split-functions=` mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitMode {
    /// No splitting.
    None,
    /// Split cold blocks out of profiled functions (the paper's
    /// `-split-functions=3 -split-all-cold`).
    #[default]
    Profiled,
}

/// Runs block reordering + splitting over every simple function with
/// profile data. Returns the number of functions whose layout changed.
pub fn run_reorder_bbs(
    ctx: &mut BinaryContext,
    algo: BlockLayout,
    split: SplitMode,
    split_all_cold: bool,
    split_eh: bool,
) -> u64 {
    let mut changed = 0;
    for func in ctx.functions.iter_mut().filter(|f| f.is_simple) {
        if func.folded_into.is_some() {
            continue;
        }
        let before = func.layout.clone();
        if algo != BlockLayout::None && func.exec_count > 0 && func.layout.len() > 2 {
            reorder_function(func, algo);
        }
        if split != SplitMode::None && func.exec_count > 0 {
            split_function(func, split_all_cold, split_eh);
        }
        if func.layout != before || func.cold_start.is_some() {
            changed += 1;
        }
    }
    changed
}

/// Estimated byte size of a block.
fn block_size(func: &BinaryFunction, id: BlockId) -> u64 {
    func.block(id)
        .insts
        .iter()
        .map(|i| encoded_len(&i.inst) as u64)
        .sum()
}

/// Reorders one function's layout in place.
pub fn reorder_function(func: &mut BinaryFunction, algo: BlockLayout) {
    match algo {
        BlockLayout::None => {}
        BlockLayout::Reverse => {
            let entry = func.entry();
            let mut rest: Vec<BlockId> = func
                .layout
                .iter()
                .copied()
                .filter(|b| *b != entry)
                .collect();
            rest.reverse();
            let mut layout = vec![entry];
            layout.extend(rest);
            func.layout = layout;
        }
        BlockLayout::Branch | BlockLayout::Cache => greedy_chains(func, false),
        BlockLayout::CachePlus => {
            if func.layout.len() <= 400 {
                ext_tsp(func);
            } else {
                greedy_chains(func, true);
            }
        }
    }
}

/// Greedy Pettis–Hansen chaining: merge chains across the heaviest edges
/// whenever the source is a chain tail and the target a chain head.
/// With `hot_first`, final chains are emitted hottest-first.
fn greedy_chains(func: &mut BinaryFunction, hot_first: bool) {
    let n = func.blocks.len();
    let mut edges: Vec<(u64, usize, usize)> = Vec::new();
    for (id, b) in func.iter_layout() {
        for e in &b.succs {
            if e.block != id {
                edges.push((e.count, id.index(), e.block.index()));
            }
        }
    }
    edges.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let live: Vec<bool> = {
        let mut v = vec![false; n];
        for id in &func.layout {
            v[id.index()] = true;
        }
        v
    };
    let mut chain_of: Vec<usize> = (0..n).collect();
    let mut chains: Vec<Vec<usize>> = (0..n)
        .map(|b| if live[b] { vec![b] } else { vec![] })
        .collect();
    let entry = func.entry().index();
    for (w, from, to) in edges {
        if w == 0 {
            break;
        }
        let cf = chain_of[from];
        let ct = chain_of[to];
        if cf == ct || to == entry {
            continue;
        }
        if chains[cf].last() == Some(&from) && chains[ct].first() == Some(&to) {
            let tail = std::mem::take(&mut chains[ct]);
            for b in &tail {
                chain_of[*b] = cf;
            }
            chains[cf].extend(tail);
        }
    }
    emit_chains(func, chains, chain_of, hot_first);
}

fn emit_chains(
    func: &mut BinaryFunction,
    chains: Vec<Vec<usize>>,
    chain_of: Vec<usize>,
    hot_first: bool,
) {
    let entry_chain = chain_of[func.entry().index()];
    let mut ids: Vec<usize> = (0..chains.len())
        .filter(|&c| !chains[c].is_empty())
        .collect();
    let heat = |c: usize| -> u64 {
        chains[c]
            .iter()
            .map(|&b| func.block(BlockId(b as u32)).exec_count)
            .max()
            .unwrap_or(0)
    };
    if hot_first {
        ids.sort_by_key(|&c| {
            (
                std::cmp::Reverse(u64::from(c == entry_chain)),
                std::cmp::Reverse(heat(c)),
                c,
            )
        });
    } else {
        ids.sort_by_key(|&c| (std::cmp::Reverse(u64::from(c == entry_chain)), c));
    }
    let before_len = func.layout.len();
    let mut layout = Vec::with_capacity(before_len);
    for c in ids {
        for &b in &chains[c] {
            layout.push(BlockId(b as u32));
        }
    }
    debug_assert_eq!(layout.len(), before_len);
    func.layout = layout;
}

/// ExtTSP constants (Newell & Pupyrev's extended-TSP model, used by
/// BOLT's `cache+`).
const FORWARD_DISTANCE: f64 = 1024.0;
const BACKWARD_DISTANCE: f64 = 640.0;
const FALLTHROUGH_WEIGHT: f64 = 1.0;
const FORWARD_WEIGHT: f64 = 0.1;
const BACKWARD_WEIGHT: f64 = 0.1;

/// ExtTSP contribution of one edge given src end and dst start offsets.
fn ext_tsp_edge_score(w: u64, src_end: f64, dst_start: f64) -> f64 {
    let w = w as f64;
    if (src_end - dst_start).abs() < f64::EPSILON {
        return FALLTHROUGH_WEIGHT * w;
    }
    if dst_start > src_end {
        let d = dst_start - src_end;
        if d < FORWARD_DISTANCE {
            return FORWARD_WEIGHT * w * (1.0 - d / FORWARD_DISTANCE);
        }
    } else {
        let d = src_end - dst_start;
        if d < BACKWARD_DISTANCE {
            return BACKWARD_WEIGHT * w * (1.0 - d / BACKWARD_DISTANCE);
        }
    }
    0.0
}

/// Chains of blocks under ExtTSP merging. A chain is named by the
/// original index of its first block.
///
/// An edge's score depends only on the distance between its ends, and
/// blocks never move within a chain (a merge appends one chain to
/// another), so an edge inside a chain keeps its score for good: it is
/// computed once, when a merge takes the edge inside.
struct Chains {
    sizes: Vec<u64>,
    /// Edges between two live blocks with a count, in layout order: the
    /// order every score sums them in.
    edges: Vec<(usize, usize, u64)>,
    /// Per edge, its score, once it lies inside a chain.
    edge_score: Vec<f64>,
    /// Per chain, the edges inside it and the edges with one end in it,
    /// by index, ascending.
    inside: Vec<Vec<usize>>,
    boundary: Vec<Vec<usize>>,
    blocks: Vec<Vec<usize>>,
    chain_of: Vec<usize>,
    /// Per block, its byte offset in its chain.
    offset: Vec<u64>,
    /// Per chain, its length in bytes and the score of the edges inside.
    length: Vec<u64>,
    score: Vec<f64>,
    entry: usize,
}

/// Two chains joined by at least one edge: a merge candidate in either
/// order.
struct Pair {
    /// The chains of the source and of the target of `edge`.
    src: usize,
    dst: usize,
    /// The first edge in edge-list order between the two chains.
    edge: usize,
    /// The gain of `src` then `dst`, and of `dst` then `src`, up to
    /// rounding: the sum of the scores of the edges between the two
    /// chains. `None` for an order that moves the entry block, which
    /// must stay first.
    gains: [Option<f64>; 2],
    /// How far rounding can put either gain from its exact value
    /// ([`Chains::exact_gain`]).
    slack: f64,
}

impl Chains {
    fn new(func: &BinaryFunction) -> Chains {
        let n = func.blocks.len();
        let mut live = vec![false; n];
        for id in &func.layout {
            live[id.index()] = true;
        }
        let mut edges = Vec::new();
        let mut boundary = vec![Vec::new(); n];
        for (id, b) in func.iter_layout() {
            for e in &b.succs {
                let (s, t) = (id.index(), e.block.index());
                if s != t && e.count > 0 && live[t] {
                    boundary[s].push(edges.len());
                    boundary[t].push(edges.len());
                    edges.push((s, t, e.count));
                }
            }
        }
        let sizes: Vec<u64> = (0..n)
            .map(|b| block_size(func, BlockId(b as u32)))
            .collect();
        Chains {
            length: sizes.clone(),
            sizes,
            edge_score: vec![0.0; edges.len()],
            edges,
            // Self-loops are dropped: no edge lies inside one block.
            inside: vec![Vec::new(); n],
            boundary,
            blocks: (0..n)
                .map(|b| if live[b] { vec![b] } else { vec![] })
                .collect(),
            chain_of: (0..n).collect(),
            offset: vec![0; n],
            score: vec![0.0; n],
            entry: func.entry().index(),
        }
    }

    /// The edges between chains `a` and `b`, ascending.
    fn between(&self, a: usize, b: usize) -> impl Iterator<Item = usize> + '_ {
        let (small, other) = if self.boundary[a].len() <= self.boundary[b].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.boundary[small].iter().copied().filter(move |&e| {
            let (s, t, _) = self.edges[e];
            self.chain_of[s] == other || self.chain_of[t] == other
        })
    }

    /// The score of edge `e`, between chain `first` and another, once
    /// the other is placed after `first`.
    fn cross_score(&self, e: usize, first: usize) -> f64 {
        let (s, t, w) = self.edges[e];
        let at = |b: usize| {
            let shift = if self.chain_of[b] == first {
                0
            } else {
                self.length[first]
            };
            shift + self.offset[b]
        };
        ext_tsp_edge_score(w, (at(s) + self.sizes[s]) as f64, at(t) as f64)
    }

    /// The gain of chain `y` after chain `x`, exactly as rescoring over
    /// every edge computes it: the score of the edges inside the two
    /// chains and between them, summed in edge-list order (the order a
    /// sum over every edge that skips the others adds them in), less the
    /// two chains' own scores.
    fn exact_gain(&self, x: usize, y: usize) -> f64 {
        let inside = merge_sorted(&self.inside[x], &self.inside[y]);
        let mut merged = 0.0;
        for e in merge_sorted_iter(inside, self.between(x, y)) {
            let (s, t, _) = self.edges[e];
            merged += if self.chain_of[s] == self.chain_of[t] {
                self.edge_score[e]
            } else {
                self.cross_score(e, x)
            };
        }
        merged - (self.score[x] + self.score[y])
    }

    /// Appends to `pairs` the pairs of chain `c` with every chain it
    /// shares an edge with, above `c` only when `above` is set. `slot`
    /// is scratch space, one entry per chain, holding no `stamp` yet.
    ///
    /// The merged score of two chains is, in exact arithmetic, their own
    /// scores plus those of the edges between them: an edge inside a
    /// chain scores the same wherever the chain goes. So the gain is the
    /// sum over the edges between, up to rounding: the sequential sums of
    /// nonnegative terms and the two operations that combine them put it
    /// within `(2m + c + 7)·u` of the merged score (`u` = 2⁻⁵³, `m` terms
    /// merged, `c` of them between) of the exact gain. The slack is more
    /// than twice that.
    fn pairs_of(
        &self,
        c: usize,
        above: bool,
        (slot, stamp): (&mut [(usize, usize)], usize),
        pairs: &mut Vec<Pair>,
    ) {
        let first_new = pairs.len();
        let mut between = Vec::new();
        for &e in &self.boundary[c] {
            let (s, t, _) = self.edges[e];
            let (src, dst) = (self.chain_of[s], self.chain_of[t]);
            let other = if src == c { dst } else { src };
            if above && other < c {
                continue;
            }
            if slot[other].0 != stamp {
                slot[other] = (stamp, pairs.len());
                between.push(0);
                pairs.push(Pair {
                    src,
                    dst,
                    edge: e,
                    gains: [Some(0.0); 2],
                    slack: 0.0,
                });
            }
            let i = slot[other].1;
            let p = &mut pairs[i];
            let (first, second) = (p.src, p.dst);
            for (gain, x) in p.gains.iter_mut().zip([first, second]) {
                *gain = gain.map(|g| g + self.cross_score(e, x));
            }
            between[i - first_new] += 1;
        }
        for (p, between) in pairs[first_new..].iter_mut().zip(between) {
            let own = self.score[p.src] + self.score[p.dst];
            let m = self.inside[p.src].len() + self.inside[p.dst].len() + between;
            let most = p.gains.iter().flatten().fold(0.0f64, |a, &g| a.max(g));
            p.slack = (4 * m + 32) as f64 * f64::EPSILON * (own + most);
            for (gain, second) in p.gains.iter_mut().zip([p.dst, p.src]) {
                if self.blocks[second].first() == Some(&self.entry) {
                    *gain = None;
                }
            }
        }
    }

    /// Appends chain `y` to chain `x`.
    fn merge(&mut self, x: usize, y: usize) {
        let between: Vec<usize> = self.between(x, y).collect();
        for &e in &between {
            self.edge_score[e] = self.cross_score(e, x);
        }
        let tail = std::mem::take(&mut self.blocks[y]);
        for &b in &tail {
            self.chain_of[b] = x;
            self.offset[b] += self.length[x];
        }
        self.blocks[x].extend(tail);
        self.length[x] += self.length[y];
        let inside = merge_sorted(&self.inside[x], &self.inside[y]);
        let inside: Vec<usize> = merge_sorted_iter(inside, between.into_iter()).collect();
        self.score[x] = inside
            .iter()
            .map(|&e| self.edge_score[e])
            .fold(0.0, |a, s| a + s);
        self.inside[x] = inside;
        self.inside[y] = Vec::new();
        let boundary = merge_sorted(&self.boundary[x], &self.boundary[y]);
        let chain_of = &self.chain_of;
        let edges = &self.edges;
        let boundary = boundary
            .filter(|&e| chain_of[edges[e].0] != chain_of[edges[e].1])
            .collect();
        self.boundary[x] = boundary;
        self.boundary[y] = Vec::new();
    }
}

/// The union of two ascending lists, ascending and without repeats.
fn merge_sorted<'a>(a: &'a [usize], b: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
    merge_sorted_iter(a.iter().copied(), b.iter().copied())
}

/// [`merge_sorted`] over iterators.
fn merge_sorted_iter(
    a: impl Iterator<Item = usize>,
    b: impl Iterator<Item = usize>,
) -> impl Iterator<Item = usize> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let next = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => return None,
        };
        a.next_if_eq(&next);
        b.next_if_eq(&next);
        Some(next)
    })
}

/// Every candidate merge: the bounds of its gain, its key (the pair's
/// first edge, then 0 for that edge's source chain first, 1 for the
/// other order) and its first and second chain.
fn candidates(
    pairs: &[Pair],
) -> impl Iterator<Item = (f64, f64, (usize, usize), usize, usize)> + '_ {
    pairs.iter().flat_map(|p| {
        let orders = [(p.src, p.dst), (p.dst, p.src)].into_iter().enumerate();
        orders.filter_map(move |(order, (x, y))| {
            let gain = p.gains[order]?;
            Some((gain - p.slack, gain + p.slack, (p.edge, order), x, y))
        })
    })
}

/// Greedy ExtTSP chain merging: repeatedly merge the chain pair (in the
/// orientation) with the best score gain; of equal gains, the one with
/// the lowest key (see [`candidates`]).
///
/// Incremental: a merge rescores only the pairs that touch the merged
/// chain, and a pair's gain is scored from the edges between its two
/// chains alone, with a bound on its rounding error. Only the merges
/// whose bounds reach the best one's are scored exactly, by the sum that
/// rescoring every pair over every edge computes, so the merges, and the
/// layout, are bit for bit those of that rescoring.
fn ext_tsp(func: &mut BinaryFunction) {
    let mut chains = Chains::new(func);
    let n = chains.blocks.len();
    let mut slot = vec![(usize::MAX, 0); n];
    let mut pairs = Vec::new();
    for c in 0..n {
        chains.pairs_of(c, true, (&mut slot, c), &mut pairs);
    }
    for round in n.. {
        // The exact gain of every merge that could have the best one.
        let floor = candidates(&pairs).map(|c| c.0).fold(f64::MIN, f64::max);
        let mut best: Option<(f64, (usize, usize), usize, usize)> = None;
        for (_, most, key, x, y) in candidates(&pairs) {
            if most < floor || most <= 1e-9 {
                continue;
            }
            let gain = chains.exact_gain(x, y);
            let better = best.is_none_or(|(g, k, _, _)| gain > g || (gain == g && key < k));
            if gain > 1e-9 && better {
                best = Some((gain, key, x, y));
            }
        }
        let Some((_, _, x, y)) = best else { break };
        chains.merge(x, y);
        let touches = |p: &Pair| [x, y].contains(&p.src) || [x, y].contains(&p.dst);
        pairs.retain(|p| !touches(p));
        chains.pairs_of(x, false, (&mut slot, round), &mut pairs);
    }
    let Chains {
        blocks, chain_of, ..
    } = chains;
    emit_chains(func, blocks, chain_of, true);
}

/// Moves cold blocks to the end of the layout and records the split point
/// (paper sections 3.1–3.2: function splitting).
pub fn split_function(func: &mut BinaryFunction, split_all_cold: bool, split_eh: bool) {
    let entry = func.entry();
    let is_cold = |func: &BinaryFunction, id: BlockId| -> bool {
        if id == entry {
            return false;
        }
        let b = func.block(id);
        if b.is_landing_pad {
            // -split-eh: landing pads go cold unless they are hot.
            return split_eh && b.exec_count == 0;
        }
        split_all_cold && b.exec_count == 0
    };
    let hot: Vec<BlockId> = func
        .layout
        .iter()
        .copied()
        .filter(|&b| !is_cold(func, b))
        .collect();
    let cold: Vec<BlockId> = func
        .layout
        .iter()
        .copied()
        .filter(|&b| is_cold(func, b))
        .collect();
    if cold.is_empty() {
        func.cold_start = None;
        return;
    }
    let split_at = hot.len();
    let mut layout = hot;
    layout.extend(cold);
    func.layout = layout;
    func.cold_start = Some(split_at);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PassManager, PassOptions};
    use bolt_compiler::{compile_and_link, CompileOptions};
    use bolt_elf::Elf;
    use bolt_emu::Machine;
    use bolt_ir::{edges, BasicBlock};
    use bolt_isa::{Cond, Inst, JumpWidth, Label, Target};
    use bolt_profile::{LbrSampler, Profile, SampleTrigger};
    use bolt_workloads::{Scale, Workload};
    use proptest::prelude::*;

    /// The ExtTSP merge loop as first written, kept as the oracle of the
    /// incremental one: every round rescores every candidate pair over
    /// every edge, walking the edges for the pairs in turn.
    fn ext_tsp_oracle(func: &mut BinaryFunction) {
        let n = func.blocks.len();
        let sizes: Vec<u64> = (0..n)
            .map(|b| block_size(func, BlockId(b as u32)))
            .collect();
        let live: Vec<bool> = {
            let mut v = vec![false; n];
            for id in &func.layout {
                v[id.index()] = true;
            }
            v
        };
        // Edge list.
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        for (id, b) in func.iter_layout() {
            for e in &b.succs {
                if e.block != id && e.count > 0 {
                    edges.push((id.index(), e.block.index(), e.count));
                }
            }
        }

        let mut chain_of: Vec<usize> = (0..n).collect();
        let mut chains: Vec<Vec<usize>> = (0..n)
            .map(|b| if live[b] { vec![b] } else { vec![] })
            .collect();
        let entry = func.entry().index();

        // Score of edges internal to (the concatenation of) chains a then b.
        let score_concat = |a: &[usize], b: &[usize], edges: &[(usize, usize, u64)]| -> f64 {
            // Offsets.
            let mut offset = vec![f64::NAN; n];
            let mut pos = 0.0f64;
            for &blk in a.iter().chain(b.iter()) {
                offset[blk] = pos;
                pos += sizes[blk] as f64;
            }
            let mut score = 0.0;
            for &(s, t, w) in edges {
                let (so, to) = (offset[s], offset[t]);
                if so.is_nan() || to.is_nan() {
                    continue;
                }
                score += ext_tsp_edge_score(w, so + sizes[s] as f64, to);
            }
            score
        };

        loop {
            // Candidate chain pairs connected by at least one edge.
            let mut best: Option<(f64, usize, usize)> = None;
            let mut seen_pairs = std::collections::HashSet::new();
            for &(s, t, _) in &edges {
                let (ca, cb) = (chain_of[s], chain_of[t]);
                if ca == cb || chains[ca].is_empty() || chains[cb].is_empty() {
                    continue;
                }
                for (x, y) in [(ca, cb), (cb, ca)] {
                    // The entry block must stay first overall; never put a
                    // chain before the entry chain.
                    if chains[y].first() == Some(&entry) {
                        continue;
                    }
                    if !seen_pairs.insert((x, y)) {
                        continue;
                    }
                    let base = score_concat(&chains[x], &[], &edges)
                        + score_concat(&chains[y], &[], &edges);
                    let merged = score_concat(&chains[x], &chains[y], &edges);
                    let gain = merged - base;
                    if gain > 1e-9 && best.map(|(g, _, _)| gain > g).unwrap_or(true) {
                        best = Some((gain, x, y));
                    }
                }
            }
            let Some((_, x, y)) = best else { break };
            let tail = std::mem::take(&mut chains[y]);
            for &b in &tail {
                chain_of[b] = x;
            }
            chains[x].extend(tail);
        }
        emit_chains(func, chains, chain_of, true);
    }

    /// Chain-shaped CFG where the source order is pessimal:
    /// 0 -> 3 (hot 100) / 1 (cold 1); 3 -> 2 (hot); 1 -> 2; 2: ret.
    fn pessimal() -> BinaryFunction {
        let mut f = BinaryFunction::new("f", 0x1000);
        f.exec_count = 101;
        for _ in 0..4 {
            f.add_block(BasicBlock::new());
        }
        f.block_mut(BlockId(0)).push(Inst::Jcc {
            cond: Cond::E,
            target: Target::Label(Label(3)),
            width: JumpWidth::Near,
        });
        f.block_mut(BlockId(0)).succs = edges(&[(3, 100), (1, 1)]);
        f.block_mut(BlockId(0)).exec_count = 101;
        f.block_mut(BlockId(1)).push(Inst::Nop { len: 1 });
        f.block_mut(BlockId(1)).succs = edges(&[(2, 1)]);
        f.block_mut(BlockId(1)).exec_count = 1;
        f.block_mut(BlockId(2)).push(Inst::Ret);
        f.block_mut(BlockId(2)).exec_count = 101;
        f.block_mut(BlockId(3)).push(Inst::Nop { len: 1 });
        f.block_mut(BlockId(3)).succs = edges(&[(2, 100)]);
        f.block_mut(BlockId(3)).exec_count = 100;
        f.rebuild_preds();
        f
    }

    #[test]
    fn hot_path_becomes_contiguous() {
        for algo in [
            BlockLayout::Branch,
            BlockLayout::Cache,
            BlockLayout::CachePlus,
        ] {
            let mut f = pessimal();
            reorder_function(&mut f, algo);
            let pos = |b: u32| f.layout.iter().position(|x| x.0 == b).unwrap();
            assert_eq!(f.layout[0], BlockId(0), "{algo:?}: entry first");
            assert_eq!(
                pos(3),
                1,
                "{algo:?}: hot successor follows entry in {:?}",
                f.layout
            );
            assert!(
                pos(2) < pos(1) || pos(2) == pos(3) + 1,
                "{algo:?}: hot chain continues"
            );
            // Permutation preserved.
            let mut ids: Vec<u32> = f.layout.iter().map(|b| b.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn reverse_is_a_valid_pessimization() {
        let mut f = pessimal();
        reorder_function(&mut f, BlockLayout::Reverse);
        assert_eq!(f.layout[0], BlockId(0), "entry still first");
        let mut ids: Vec<u32> = f.layout.iter().map(|b| b.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn splitting_moves_cold_blocks() {
        let mut f = pessimal();
        // Make block 1 completely cold.
        f.block_mut(BlockId(1)).exec_count = 0;
        f.block_mut(BlockId(0)).succs = edges(&[(3, 100), (1, 0)]);
        reorder_function(&mut f, BlockLayout::CachePlus);
        split_function(&mut f, true, true);
        assert!(f.is_split());
        let cold = f.cold_start.unwrap();
        assert_eq!(&f.layout[cold..], &[BlockId(1)]);
    }

    #[test]
    fn ext_tsp_scoring_prefers_fallthrough() {
        let ft = ext_tsp_edge_score(100, 64.0, 64.0);
        let near_fwd = ext_tsp_edge_score(100, 64.0, 128.0);
        let far_fwd = ext_tsp_edge_score(100, 64.0, 5000.0);
        let back = ext_tsp_edge_score(100, 640.0, 0.0);
        assert!(ft > near_fwd, "fallthrough beats a short jump");
        assert!(near_fwd > far_fwd, "near jump beats far jump");
        assert_eq!(far_fwd, 0.0);
        assert!(back < ft && back >= 0.0);
    }

    #[test]
    fn zero_profile_functions_untouched() {
        let mut ctx = BinaryContext::new();
        let mut f = pessimal();
        f.exec_count = 0;
        let before = f.layout.clone();
        ctx.add_function(f);
        run_reorder_bbs(
            &mut ctx,
            BlockLayout::CachePlus,
            SplitMode::Profiled,
            true,
            true,
        );
        assert_eq!(ctx.functions[0].layout, before);
        assert!(!ctx.functions[0].is_split());
    }

    /// A random function of `n` blocks for the ExtTSP differential test,
    /// biased toward what makes the merge order delicate: equal block
    /// sizes and symmetric equal-weight diamonds (so gains tie exactly),
    /// huge counts, blocks left out of the layout, self-loops, and
    /// duplicate and zero-count edges.
    fn random_cfg(n: usize, seed: u64) -> BinaryFunction {
        let mut state = seed | 1;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut f = BinaryFunction::new("random", 0x1000);
        f.exec_count = 1;
        let equal_sizes = next(2) == 0;
        // Huge counts make rounding errors as large as small gains.
        let scale = [1, 1, 1_000_000_007][next(3) as usize];
        let counts = [0, 1, 10, 10, 100, 100].map(|c| c * scale);
        for _ in 0..n {
            let b = f.add_block(BasicBlock::new());
            let nops = if equal_sizes { 2 } else { 1 + next(12) };
            for _ in 0..nops {
                let len = if equal_sizes { 4 } else { 1 + next(9) as u8 };
                f.block_mut(b).push(Inst::Nop { len });
            }
            f.block_mut(b).exec_count = if equal_sizes { 10 } else { next(200) };
        }
        for b in 0..n as u32 {
            let mut succs = Vec::new();
            for _ in 0..next(4) {
                let count = match next(8) {
                    k @ 0..=5 => counts[k as usize],
                    _ => next(1000) * scale,
                };
                succs.push((next(n as u64) as u32, count));
            }
            f.block_mut(BlockId(b)).succs = edges(&succs);
        }
        // Symmetric diamonds: a -> {b, c} -> d, every edge the same weight.
        for _ in 0..next(1 + n as u64 / 8) {
            let [a, b, c, d] = [(); 4].map(|_| next(n as u64) as u32);
            let w = counts[1 + next(5) as usize];
            f.block_mut(BlockId(a)).succs = edges(&[(b, w), (c, w)]);
            f.block_mut(BlockId(b)).succs = edges(&[(d, w)]);
            f.block_mut(BlockId(c)).succs = edges(&[(d, w)]);
        }
        // Block 0 is the entry; about one block in eight is dead.
        let mut layout = vec![BlockId(0)];
        let mut rest: Vec<BlockId> = (1..n as u32).map(BlockId).collect();
        for i in (1..rest.len()).rev() {
            rest.swap(i, next(i as u64 + 1) as usize);
        }
        layout.extend(rest.into_iter().filter(|_| next(8) != 0));
        f.layout = layout;
        f
    }

    fn both_layouts(func: &BinaryFunction) -> (Vec<BlockId>, Vec<BlockId>) {
        let (mut new, mut oracle) = (func.clone(), func.clone());
        ext_tsp(&mut new);
        ext_tsp_oracle(&mut oracle);
        (new.layout, oracle.layout)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ext_tsp_matches_the_rescoring_oracle(n in 2usize..81, seed in any::<u64>()) {
            let func = random_cfg(n, seed);
            let (new, oracle) = both_layouts(&func);
            prop_assert_eq!(new, oracle, "n = {}, seed = {:#x}", n, seed);
        }
    }

    /// Four equal blocks in a symmetric diamond: both arms gain exactly
    /// the same, so only the tie-break decides which follows the entry.
    #[test]
    fn ext_tsp_breaks_an_exact_tie_as_the_oracle_does() {
        let mut f = BinaryFunction::new("diamond", 0x1000);
        f.exec_count = 1;
        for _ in 0..4 {
            let b = f.add_block(BasicBlock::new());
            f.block_mut(b).push(Inst::Nop { len: 4 });
        }
        f.block_mut(BlockId(0)).succs = edges(&[(1, 10), (2, 10)]);
        f.block_mut(BlockId(1)).succs = edges(&[(3, 10)]);
        f.block_mut(BlockId(2)).succs = edges(&[(3, 10)]);
        let (new, oracle) = both_layouts(&f);
        assert_eq!(new, oracle);
        assert_eq!(new[..2], [BlockId(0), BlockId(1)], "first edge wins");
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

    /// Every Test-scale workload family under every preset: each profiled
    /// function gets the oracle's layout, on the IR that the passes before
    /// `reorder-bbs` leave.
    #[test]
    fn ext_tsp_matches_the_oracle_on_every_workload() {
        let workloads = [
            Workload::Hhvm,
            Workload::Tao,
            Workload::Proxygen,
            Workload::Multifeed1,
            Workload::Multifeed2,
            Workload::ClangLike,
            Workload::GccLike,
            Workload::Interp,
        ];
        let mut compared = 0;
        for workload in workloads {
            let (elf, profile) = profiled(workload);
            for &preset in PassOptions::PRESETS {
                let opts = PassOptions::preset(preset).expect("a preset");
                let driver = bolt_opt::BoltOptions::paper_default();
                let mut ctx = bolt_opt::prepare(&elf, &profile, &driver).ctx;
                let mut manager = PassManager::standard(&opts);
                manager.truncate_before("reorder-bbs");
                manager.run(&mut ctx, &opts);
                let laid_out = ctx.functions.iter().filter(|f| {
                    f.is_simple
                        && f.folded_into.is_none()
                        && f.exec_count > 0
                        && (3..=400).contains(&f.layout.len())
                });
                for f in laid_out {
                    let (new, oracle) = both_layouts(f);
                    assert_eq!(
                        new,
                        oracle,
                        "{} under {preset}: {}",
                        workload.name(),
                        f.name
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared >= 300, "only {compared} layouts compared");
    }
}
