//! Code emission with branch relaxation.
//!
//! This module is shared between the compiler substrate's linker and BOLT's
//! "emit and link functions" stage (paper Figure 3): it takes an ordered
//! list of functions whose blocks reference each other through global
//! [`Label`]s, chooses short/near branch encodings by iterative relaxation
//! (conditional branches are 2 vs 6 bytes on x86-64 — paper section 3.1),
//! assigns addresses, applies fixups, and reports everything needed to
//! rebuild symbol tables, line tables, and exception tables.

use crate::LineInfo;
use bolt_isa::{apply_fixup, encode_at, encoded_len, EncodeError, Inst, JumpWidth, Label, Target};
use std::collections::HashMap;
use std::fmt;

/// An instruction queued for emission, with the metadata that must survive
/// relocation.
#[derive(Debug, Clone, Copy)]
pub struct EmitInst {
    pub inst: Inst,
    /// Source line to record in the output line table.
    pub line: Option<LineInfo>,
    /// Landing-pad label if this is a call site with an exception handler.
    pub eh_pad: Option<Label>,
}

impl EmitInst {
    pub fn new(inst: Inst) -> EmitInst {
        EmitInst {
            inst,
            line: None,
            eh_pad: None,
        }
    }
}

impl From<Inst> for EmitInst {
    fn from(inst: Inst) -> EmitInst {
        EmitInst::new(inst)
    }
}

/// A block of instructions with a globally unique label.
#[derive(Debug, Clone)]
pub struct EmitBlock {
    pub label: Label,
    /// Start alignment in bytes (1 = none). Padding is emitted as NOPs so
    /// fall-through execution stays valid, exactly like compiler alignment
    /// padding.
    pub align: u16,
    pub insts: Vec<EmitInst>,
}

impl EmitBlock {
    pub fn new(label: Label) -> EmitBlock {
        EmitBlock {
            label,
            align: 1,
            insts: Vec::new(),
        }
    }
}

/// A function queued for emission. Blocks from `cold_start` onward are
/// placed in the cold section (function splitting, paper section 3.2).
#[derive(Debug, Clone)]
pub struct EmitUnit {
    pub name: String,
    /// Function start alignment.
    pub align: u16,
    pub blocks: Vec<EmitBlock>,
    pub cold_start: Option<usize>,
}

impl EmitUnit {
    pub fn new(name: impl Into<String>) -> EmitUnit {
        EmitUnit {
            name: name.into(),
            align: 16,
            blocks: Vec::new(),
            cold_start: None,
        }
    }
}

/// A symbol produced by emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitSymbol {
    pub name: String,
    pub addr: u64,
    pub size: u64,
    /// True for the `.cold` fragment of a split function.
    pub is_cold_fragment: bool,
}

/// Resolved block-label addresses. Both callers allocate labels densely
/// from 0, so a label indexes a vector; one past the dense range (twice
/// the block count, plus slack) lives in a map instead.
#[derive(Debug, Clone, Default)]
pub struct LabelAddrs {
    /// Address by label number; [`UNSET`] where no block has the label.
    dense: Vec<u64>,
    sparse: HashMap<Label, u64>,
}

/// A dense slot with no address (no block is placed at `u64::MAX`).
const UNSET: u64 = u64::MAX;

impl LabelAddrs {
    /// An empty table whose dense part covers labels below `dense_len`.
    fn with_dense_len(dense_len: usize) -> LabelAddrs {
        LabelAddrs {
            dense: vec![UNSET; dense_len],
            sparse: HashMap::new(),
        }
    }

    /// The address of `label`, if a block defines it.
    pub fn get(&self, label: Label) -> Option<u64> {
        match self.dense.get(label.0 as usize) {
            Some(&addr) => (addr != UNSET).then_some(addr),
            None => self.sparse.get(&label).copied(),
        }
    }

    /// Sets `label`'s address, returning the one it replaces.
    pub fn insert(&mut self, label: Label, addr: u64) -> Option<u64> {
        debug_assert_ne!(addr, UNSET);
        match self.dense.get_mut(label.0 as usize) {
            Some(slot) => Some(std::mem::replace(slot, addr)).filter(|&old| old != UNSET),
            None => self.sparse.insert(label, addr),
        }
    }

    /// Every `(label, address)` pair: dense labels in order, then the
    /// sparse ones in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, u64)> + '_ {
        let dense = self.dense.iter().enumerate();
        let dense = dense.filter(|(_, &a)| a != UNSET);
        let dense = dense.map(|(l, &a)| (Label(l as u32), a));
        dense.chain(self.sparse.iter().map(|(&l, &a)| (l, a)))
    }

    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Equal when they map the same labels to the same addresses, however
/// each splits them between its dense and sparse parts.
impl PartialEq for LabelAddrs {
    fn eq(&self, other: &LabelAddrs) -> bool {
        self.len() == other.len() && self.iter().all(|(l, a)| other.get(l) == Some(a))
    }
}

impl Eq for LabelAddrs {}

impl std::ops::Index<&Label> for LabelAddrs {
    type Output = u64;

    /// # Panics
    ///
    /// If no block defines `label`.
    fn index(&self, label: &Label) -> &u64 {
        let dense = self.dense.get(label.0 as usize).filter(|&&a| a != UNSET);
        dense
            .or_else(|| self.sparse.get(label))
            .unwrap_or_else(|| panic!("no address for label {label}"))
    }
}

/// The result of emitting a set of functions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmitResult {
    /// Hot code bytes, based at the `text_base` passed to [`emit`].
    pub text: Vec<u8>,
    /// Cold code bytes, based at `cold_base`.
    pub cold: Vec<u8>,
    /// Resolved code label addresses (every block label).
    pub label_addrs: LabelAddrs,
    /// Function symbols (hot fragments plus `.cold` fragments).
    pub symbols: Vec<EmitSymbol>,
    /// `(address, line)` pairs for the output line table, sorted (by
    /// address, then line).
    pub line_entries: Vec<(u64, LineInfo)>,
    /// `(call-site address, landing-pad label)` pairs for the output
    /// exception table.
    pub eh_entries: Vec<(u64, Label)>,
}

/// Errors produced by the emitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// A label was referenced but defined neither by a block nor by the
    /// external label map.
    UnresolvedLabel(Label),
    /// The last block of a section fragment can fall through.
    TrailingFallthrough { function: String },
    /// The encoder rejected an instruction.
    Encode(EncodeError),
    /// A block label was defined twice.
    DuplicateLabel(Label),
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::UnresolvedLabel(l) => write!(f, "unresolved label {l}"),
            EmitError::TrailingFallthrough { function } => {
                write!(f, "function {function} ends in a fall-through block")
            }
            EmitError::Encode(e) => write!(f, "encode error: {e}"),
            EmitError::DuplicateLabel(l) => write!(f, "label {l} defined twice"),
        }
    }
}

impl std::error::Error for EmitError {}

impl From<EncodeError> for EmitError {
    fn from(e: EncodeError) -> EmitError {
        EmitError::Encode(e)
    }
}

/// NOP padding bytes to reach `align` from `pos`.
fn pad_len(pos: u64, align: u16) -> u64 {
    if align <= 1 {
        return 0;
    }
    let a = align as u64;
    (a - pos % a) % a
}

/// Fills `out` with NOPs, as few and as long as they come.
fn fill_nops(mut out: &mut [u8]) {
    while !out.is_empty() {
        let chunk = out.len().min(9);
        out[..chunk].copy_from_slice(bolt_isa::NOP_SEQUENCES[chunk - 1]);
        out = &mut out[chunk..];
    }
}

/// One block in placement order: where it goes and what its length is
/// made of.
struct Placed {
    unit: u32,
    block: u32,
    cold: bool,
    align: u16,
    label: Label,
    /// Bytes of its instructions other than relaxable branches.
    fixed: u32,
    /// Its relaxable branches, `branches[first_branch..end_branch]`.
    first_branch: u32,
    end_branch: u32,
    /// Start address in the current round.
    start: u64,
}

impl Placed {
    /// End address in the current round.
    fn end(&self, branches: &[Branch]) -> u64 {
        let branches = &branches[self.first_branch as usize..self.end_branch as usize];
        self.start + u64::from(self.fixed) + branches.iter().map(Branch::len).sum::<u64>()
    }
}

/// Fewest placed blocks a shard of the length and encoding passes
/// takes. Kept low enough that the `Scale::Test` workloads (70 to 180
/// blocks) still shard in the integration tests.
pub const MIN_SHARD_BLOCKS: usize = 16;

/// Runs `work` on each job, the first on the calling thread and each
/// other on a scoped worker; the results come back in job order.
fn run_jobs<J: Send, R: Send>(jobs: Vec<J>, work: impl Fn(J) -> R + Sync) -> Vec<R> {
    let work = &work;
    std::thread::scope(|scope| {
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        let workers: Vec<_> = jobs.map(|job| scope.spawn(move || work(job))).collect();
        let mut results = Vec::with_capacity(1 + workers.len());
        results.extend(first.map(work));
        for worker in workers {
            results.push(worker.join().expect("emit worker"));
        }
        results
    })
}

/// Measures `placed`'s blocks: sets their fixed lengths, and returns
/// their relaxable branches, numbered from 0, and how many of their
/// instructions carry a line and a landing pad.
fn measure<S: EmitSource + ?Sized>(src: &S, placed: &mut [Placed]) -> (Vec<Branch>, [usize; 2]) {
    let mut branches = Vec::new();
    let mut counts = [0; 2];
    for p in placed {
        p.first_branch = branches.len() as u32;
        let mut fixed = 0u32;
        for einst in src.insts(p.unit as usize, p.block as usize) {
            counts[0] += usize::from(einst.line.is_some());
            counts[1] += usize::from(einst.eh_pad.is_some());
            match einst.inst {
                Inst::Jcc { target, .. } | Inst::Jmp { target, .. } => {
                    let mut working = einst.inst;
                    set_width(&mut working, JumpWidth::Short);
                    let short_len = encoded_len(&working) as u8;
                    set_width(&mut working, JumpWidth::Near);
                    branches.push(Branch {
                        target,
                        prefix: fixed,
                        short_len,
                        near_len: encoded_len(&working) as u8,
                        near: false,
                        end: 0,
                    });
                }
                _ => fixed += encoded_len(&einst.inst) as u32,
            }
        }
        p.fixed = fixed;
        p.end_branch = branches.len() as u32;
    }
    (branches, counts)
}

/// One shard of the encoding pass: a run of placed blocks and the parts
/// of the output that are theirs.
struct EncodeJob<'a> {
    placed: &'a [Placed],
    /// The hot and cold bytes from the end of the blocks before, with
    /// the address each part starts at.
    streams: [(u64, &'a mut [u8]); 2],
    lines: &'a mut [(u64, LineInfo)],
    pads: &'a mut [(u64, Label)],
}

/// What every encoding shard reads.
struct Encoder<'a, S: ?Sized> {
    src: &'a S,
    branches: &'a [Branch],
    label_addrs: &'a LabelAddrs,
    extern_labels: &'a HashMap<Label, u64>,
}

/// The address of `l`: a block's, else one defined outside the code.
fn resolve(
    label_addrs: &LabelAddrs,
    extern_labels: &HashMap<Label, u64>,
    l: Label,
) -> Result<u64, EmitError> {
    (label_addrs.get(l))
        .or_else(|| extern_labels.get(&l).copied())
        .ok_or(EmitError::UnresolvedLabel(l))
}

impl<S: EmitSource + ?Sized> Encoder<'_, S> {
    /// Encodes the job's blocks into its parts of the output.
    fn encode(&self, job: EncodeJob) -> Result<(), EmitError> {
        let EncodeJob {
            placed,
            mut streams,
            lines,
            pads,
        } = job;
        let (mut lines, mut pads) = (lines.iter_mut(), pads.iter_mut());
        let mut next_branch = placed.first().map_or(0, |p| p.first_branch as usize);
        let mut ends = streams.each_ref().map(|s| s.0);
        for p in placed {
            let stream = usize::from(p.cold);
            let (base, ref mut buf) = streams[stream];
            let at = |addr: u64| (addr - base) as usize;
            debug_assert!(p.start >= ends[stream]);
            fill_nops(&mut buf[at(ends[stream])..at(p.start)]);
            let mut addr = p.start;
            for einst in self.src.insts(p.unit as usize, p.block as usize) {
                let mut working = einst.inst;
                if let Inst::Jcc { .. } | Inst::Jmp { .. } = working {
                    set_width(&mut working, self.branches[next_branch].width());
                    next_branch += 1;
                }
                let mut enc = encode_at(&working, addr)?;
                let len = enc.bytes.len();
                if let Some(f) = enc.fixup {
                    let to = resolve(self.label_addrs, self.extern_labels, f.label)?;
                    apply_fixup(&mut enc.bytes, &f, addr, len, to)?;
                }
                if let Some(line) = einst.line {
                    *lines.next().expect("a slot per line") = (addr, line);
                }
                if let Some(pad) = einst.eh_pad {
                    *pads.next().expect("a slot per landing pad") = (addr, pad);
                }
                buf[at(addr)..at(addr) + len].copy_from_slice(&enc.bytes);
                addr += len as u64;
            }
            debug_assert_eq!(addr, p.end(self.branches));
            ends[stream] = addr;
        }
        Ok(())
    }
}

/// A relaxable branch (`jcc` / `jmp`): short until its target is out of
/// an 8-bit displacement's reach.
struct Branch {
    target: Target,
    /// Bytes of the block's fixed instructions before it.
    prefix: u32,
    short_len: u8,
    near_len: u8,
    near: bool,
    /// End address in the current round.
    end: u64,
}

impl Branch {
    fn len(&self) -> u64 {
        u64::from(if self.near {
            self.near_len
        } else {
            self.short_len
        })
    }

    fn width(&self) -> JumpWidth {
        if self.near {
            JumpWidth::Near
        } else {
            JumpWidth::Short
        }
    }
}

/// What the emitter reads: an ordered list of functions ("units"), each
/// an ordered list of labelled blocks of instructions. Two sources
/// exist: a slice of [`EmitUnit`]s (the linker's), and the optimizer's
/// view of its IR in emission order, which maps branch targets to labels
/// as it hands each instruction out instead of copying the functions.
pub trait EmitSource {
    /// Number of units.
    fn units(&self) -> usize;
    fn name(&self, unit: usize) -> &str;
    /// Start alignment of the unit's hot (and cold) fragment.
    fn align(&self, unit: usize) -> u16;
    /// First block placed in the cold stream, if the unit is split.
    fn cold_start(&self, unit: usize) -> Option<usize>;
    /// Number of blocks in the unit.
    fn blocks(&self, unit: usize) -> usize;
    /// The block's label, unique across the source.
    fn label(&self, unit: usize, block: usize) -> Label;
    /// The block's start alignment (1 = none).
    fn block_align(&self, unit: usize, block: usize) -> u16;
    /// The block's instructions, in order.
    fn insts(&self, unit: usize, block: usize) -> impl Iterator<Item = EmitInst> + '_;
}

impl EmitSource for [EmitUnit] {
    fn units(&self) -> usize {
        self.len()
    }

    fn name(&self, unit: usize) -> &str {
        &self[unit].name
    }

    fn align(&self, unit: usize) -> u16 {
        self[unit].align
    }

    fn cold_start(&self, unit: usize) -> Option<usize> {
        self[unit].cold_start
    }

    fn blocks(&self, unit: usize) -> usize {
        self[unit].blocks.len()
    }

    fn label(&self, unit: usize, block: usize) -> Label {
        self[unit].blocks[block].label
    }

    fn block_align(&self, unit: usize, block: usize) -> u16 {
        self[unit].blocks[block].align
    }

    fn insts(&self, unit: usize, block: usize) -> impl Iterator<Item = EmitInst> + '_ {
        self[unit].blocks[block].insts.iter().copied()
    }
}

/// Emits `units` in order: [`emit`] over the units as an [`EmitSource`].
///
/// # Errors
///
/// See [`EmitError`].
pub fn emit_units(
    units: &[EmitUnit],
    text_base: u64,
    cold_base: u64,
    extern_labels: &HashMap<Label, u64>,
) -> Result<EmitResult, EmitError> {
    emit(units, text_base, cold_base, extern_labels)
}

/// Emits `src`'s units in order. Hot fragments go to a stream based at
/// `text_base`; blocks past each unit's `cold_start` go to a stream based
/// at `cold_base`. `extern_labels` resolves references to labels defined
/// outside the emitted code (data, PLT, GOT, unmodified functions).
///
/// Branch relaxation starts every label-targeted branch short and grows it
/// to near until a fixed point — growth is monotone, so this terminates.
/// Each instruction's length is computed once; a round re-sums block
/// lengths and re-checks the branches still short.
///
/// # Errors
///
/// See [`EmitError`].
pub fn emit<S: EmitSource + Sync + ?Sized>(
    src: &S,
    text_base: u64,
    cold_base: u64,
    extern_labels: &HashMap<Label, u64>,
) -> Result<EmitResult, EmitError> {
    emit_with_threads(src, text_base, cold_base, extern_labels, 1)
}

/// [`emit`] on up to `n_threads` threads: the passes over every
/// instruction, lengths and encoding, run in shards of consecutive
/// placed blocks, the first on the calling thread. Relaxation, which
/// only re-sums lengths, runs on the calling thread, which also sizes
/// every output buffer: the shards write into their parts of them. The
/// result is the same at any thread count, the first error in placement
/// order included.
///
/// # Errors
///
/// See [`EmitError`].
pub fn emit_with_threads<S: EmitSource + Sync + ?Sized>(
    src: &S,
    text_base: u64,
    cold_base: u64,
    extern_labels: &HashMap<Label, u64>,
    n_threads: usize,
) -> Result<EmitResult, EmitError> {
    let n_blocks: usize = (0..src.units()).map(|u| src.blocks(u)).sum();
    let shards = n_threads.clamp(1, (n_blocks / MIN_SHARD_BLOCKS).max(1));
    emit_in_shards(src, text_base, cold_base, extern_labels, shards)
}

/// [`emit`], with the length and encoding passes in `shards` shards.
fn emit_in_shards<S: EmitSource + Sync + ?Sized>(
    src: &S,
    text_base: u64,
    cold_base: u64,
    extern_labels: &HashMap<Label, u64>,
    shards: usize,
) -> Result<EmitResult, EmitError> {
    // Every block label, checked for duplicates in unit order.
    let n_units = src.units();
    let all_blocks = || (0..n_units).flat_map(|u| (0..src.blocks(u)).map(move |b| (u, b)));
    let n_blocks = all_blocks().count();
    let labels = all_blocks().map(|(u, b)| src.label(u, b).0 as usize);
    let dense_len = labels.max().map_or(0, |l| l + 1).min(2 * n_blocks + 64);
    let mut label_addrs = LabelAddrs::with_dense_len(dense_len);
    for (u, b) in all_blocks() {
        let label = src.label(u, b);
        if label_addrs.insert(label, 0).is_some() {
            return Err(EmitError::DuplicateLabel(label));
        }
    }

    // Placement order: every unit's hot blocks, then every unit's cold
    // blocks.
    let mut placed: Vec<Placed> = Vec::with_capacity(n_blocks);
    for cold in [false, true] {
        for ui in 0..n_units {
            let n = src.blocks(ui);
            let cold_start = src.cold_start(ui);
            let split = cold_start.unwrap_or(n);
            let range = if cold { split..n } else { 0..split };
            for bi in range {
                let is_fragment_start = bi == 0 || cold_start == Some(bi);
                let align = if is_fragment_start {
                    src.align(ui)
                } else {
                    src.block_align(ui, bi)
                };
                placed.push(Placed {
                    unit: ui as u32,
                    block: bi as u32,
                    cold,
                    align: align.max(1),
                    label: src.label(ui, bi),
                    fixed: 0,
                    first_branch: 0,
                    end_branch: 0,
                    start: 0,
                });
            }
        }
    }

    // Lengths, computed here once, in shards of equal block counts. Each
    // shard numbers its branches from 0; they are renumbered as the
    // lists are joined.
    let per_shard = n_blocks.div_ceil(shards).max(1);
    let measured = run_jobs(placed.chunks_mut(per_shard).collect(), |chunk| {
        measure(src, chunk)
    });
    let counts: Vec<[usize; 2]> = measured.iter().map(|m| m.1).collect();
    let mut lists = measured.into_iter().map(|m| m.0);
    let mut branches = lists.next().unwrap_or_default();
    for (chunk, list) in placed.chunks_mut(per_shard).skip(1).zip(lists) {
        let base = branches.len() as u32;
        for p in chunk {
            p.first_branch += base;
            p.end_branch += base;
        }
        branches.extend(list);
    }

    // Relaxation loop: compute addresses with current widths, grow any
    // short branch whose target does not fit, repeat.
    let ends = loop {
        // Address assignment pass.
        let mut pos = [text_base, cold_base];
        for p in &mut placed {
            let at = &mut pos[usize::from(p.cold)];
            *at += pad_len(*at, p.align);
            p.start = *at;
            label_addrs.insert(p.label, *at);
            let mut grown = 0;
            for b in &mut branches[p.first_branch as usize..p.end_branch as usize] {
                grown += b.len();
                b.end = *at + u64::from(b.prefix) + grown;
            }
            *at += u64::from(p.fixed) + grown;
        }

        // Width check pass.
        let mut grew = false;
        for b in branches.iter_mut().filter(|b| !b.near) {
            let to = match b.target {
                Target::Addr(a) => a,
                Target::Label(l) => resolve(&label_addrs, extern_labels, l)?,
            };
            if i8::try_from(to.wrapping_sub(b.end) as i64).is_err() {
                b.near = true;
                grew = true;
            }
        }
        if !grew {
            break pos;
        }
    };

    // Final encoding pass, in the same shards, into output buffers sized
    // exactly: each shard's part of a stream runs from the end of the
    // blocks before it to the end of its own.
    let bases = [text_base, cold_base];
    let mut streams = [0, 1].map(|s| vec![0u8; (ends[s] - bases[s]) as usize]);
    let [n_lines, n_pads] = counts
        .iter()
        .fold([0; 2], |a, c| [a[0] + c[0], a[1] + c[1]]);
    let mut line_entries = vec![(0, LineInfo { file: 0, line: 0 }); n_lines];
    let mut eh_entries = vec![(0, Label(0)); n_pads];
    let mut jobs = Vec::with_capacity(counts.len());
    let [mut hot, mut cold] = streams.each_mut().map(|s| &mut s[..]);
    let (mut lines, mut pads) = (&mut line_entries[..], &mut eh_entries[..]);
    let mut starts = bases;
    for (chunk, &[n_lines, n_pads]) in placed.chunks(per_shard).zip(&counts) {
        let mut upto = starts;
        for p in chunk {
            upto[usize::from(p.cold)] = p.end(&branches);
        }
        let cut = |s: usize| (upto[s] - starts[s]) as usize;
        let (h, hot_rest) = std::mem::take(&mut hot).split_at_mut(cut(0));
        let (c, cold_rest) = std::mem::take(&mut cold).split_at_mut(cut(1));
        let (l, lines_rest) = std::mem::take(&mut lines).split_at_mut(n_lines);
        let (e, pads_rest) = std::mem::take(&mut pads).split_at_mut(n_pads);
        (hot, cold, lines, pads) = (hot_rest, cold_rest, lines_rest, pads_rest);
        jobs.push(EncodeJob {
            placed: chunk,
            streams: [(starts[0], h), (starts[1], c)],
            lines: l,
            pads: e,
        });
        starts = upto;
    }
    let encoder = Encoder {
        src,
        branches: &branches,
        label_addrs: &label_addrs,
        extern_labels,
    };
    for encoded in run_jobs(jobs, |job| encoder.encode(job)) {
        encoded?;
    }
    let mut result = EmitResult {
        line_entries,
        eh_entries,
        ..EmitResult::default()
    };

    // Per-unit fragment extents, `[hot, cold]`: (start, end).
    let mut frags: Vec<[Option<(u64, u64)>; 2]> = vec![[None; 2]; n_units];
    for p in &placed {
        let end = p.end(&branches);
        frags[p.unit as usize][usize::from(p.cold)]
            .get_or_insert((p.start, end))
            .1 = end;
    }

    // Fall-through validation: the last block of each fragment must not
    // fall through (callers are responsible for terminating layouts).
    let last_hot = placed.iter().rfind(|p| !p.cold);
    for p in last_hot.into_iter().chain(placed.last().filter(|p| p.cold)) {
        let unit = p.unit as usize;
        let falls = match src.insts(unit, p.block as usize).last() {
            None => true,
            Some(i) => {
                !i.inst.is_uncond_branch()
                    && !i.inst.is_return()
                    && !matches!(i.inst, Inst::JmpInd { .. } | Inst::Ud2)
            }
        };
        if falls {
            return Err(EmitError::TrailingFallthrough {
                function: src.name(unit).to_string(),
            });
        }
    }

    // Symbols.
    for (u, [hot, cold]) in frags.into_iter().enumerate() {
        if let Some((start, end)) = hot {
            result.symbols.push(EmitSymbol {
                name: src.name(u).to_string(),
                addr: start,
                size: end - start,
                is_cold_fragment: false,
            });
        }
        if let Some((start, end)) = cold {
            result.symbols.push(EmitSymbol {
                name: format!("{}.cold", src.name(u)),
                addr: start,
                size: end - start,
                is_cold_fragment: true,
            });
        }
    }

    let [text, cold] = streams;
    result.text = text;
    result.cold = cold;
    result.label_addrs = label_addrs;
    // Hot entries, then cold: already sorted unless the cold stream
    // starts below the hot one's end.
    if !result.line_entries.is_sorted_by(|a, b| a.0 < b.0) {
        result.line_entries.sort_unstable();
    }
    Ok(result)
}

fn set_width(inst: &mut Inst, w: JumpWidth) {
    match inst {
        Inst::Jcc { width, .. } | Inst::Jmp { width, .. } => *width = w,
        _ => {}
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_isa::{decode_all, Cond, Reg};

    fn label(n: u32) -> Label {
        Label(n)
    }

    /// Two blocks, forward short jump.
    #[test]
    fn short_branch_selected_when_close() {
        let mut unit = EmitUnit::new("f");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Jcc {
                cond: Cond::E,
                target: Target::Label(label(1)),
                width: JumpWidth::Near,
            }
            .into(),
        );
        b0.insts.push(Inst::Ret.into());
        let mut b1 = EmitBlock::new(label(1));
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        // jcc short (2) + ret (1) + ret (1).
        assert_eq!(r.text.len(), 4);
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(
            decoded[0].1.inst.target(),
            Some(Target::Addr(r.label_addrs[&label(1)]))
        );
    }

    /// A jump over ~200 bytes of padding must relax to near.
    #[test]
    fn long_branch_relaxes_to_near() {
        let mut unit = EmitUnit::new("f");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Jmp {
                target: Target::Label(label(2)),
                width: JumpWidth::Short,
            }
            .into(),
        );
        let mut b1 = EmitBlock::new(label(1));
        for _ in 0..40 {
            b1.insts.push(Inst::Nop { len: 9 }.into());
        }
        b1.insts.push(Inst::Ret.into());
        let mut b2 = EmitBlock::new(label(2));
        b2.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1, b2];
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        // First instruction must be the 5-byte near jmp, landing exactly on
        // label 2.
        assert_eq!(decoded[0].1.len, 5);
        assert_eq!(
            decoded[0].1.inst.target(),
            Some(Target::Addr(r.label_addrs[&label(2)]))
        );
    }

    #[test]
    fn cold_split_goes_to_cold_stream() {
        let mut unit = EmitUnit::new("split_me");
        unit.align = 16;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Label(label(1)),
                width: JumpWidth::Short,
            }
            .into(),
        );
        b0.insts.push(Inst::Ret.into());
        let mut b1 = EmitBlock::new(label(1)); // cold
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        unit.cold_start = Some(1);
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        assert!(!r.cold.is_empty());
        assert_eq!(r.label_addrs[&label(1)], 0x600000);
        // Hot->cold branch must be near (distance is 2MB).
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        assert_eq!(decoded[0].1.len, 6);
        // Two symbols: hot fragment and .cold fragment.
        let names: Vec<&str> = r.symbols.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"split_me"));
        assert!(names.contains(&"split_me.cold"));
    }

    #[test]
    fn alignment_pads_with_nops() {
        let mut unit = EmitUnit::new("a");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(Inst::Push(Reg::Rbp).into()); // 1 byte
        let mut b1 = EmitBlock::new(label(1));
        b1.align = 16;
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        assert_eq!(r.label_addrs[&label(1)] % 16, 0);
        // Everything still decodes (padding is NOPs).
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        assert!(decoded
            .iter()
            .any(|(_, d)| matches!(d.inst, Inst::Nop { .. })));
    }

    #[test]
    fn extern_labels_resolve() {
        let mut ext = HashMap::new();
        ext.insert(label(100), 0x700010u64); // some rodata
        let mut unit = EmitUnit::new("f");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Load {
                dst: Reg::Rax,
                mem: bolt_isa::Mem::rip(Target::Label(label(100))),
            }
            .into(),
        );
        b0.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0];
        let r = emit_units(&[unit], 0x400000, 0x600000, &ext).unwrap();
        let decoded = decode_all(&r.text, 0x400000).unwrap();
        match decoded[0].1.inst {
            Inst::Load {
                mem: bolt_isa::Mem::RipRel { target },
                ..
            } => {
                assert_eq!(target, Target::Addr(0x700010));
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unresolved_label_is_error() {
        let mut unit = EmitUnit::new("f");
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(
            Inst::Call {
                target: Target::Label(label(999)),
            }
            .into(),
        );
        b0.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0];
        assert_eq!(
            emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap_err(),
            EmitError::UnresolvedLabel(label(999))
        );
    }

    #[test]
    fn trailing_fallthrough_rejected() {
        let mut unit = EmitUnit::new("f");
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(Inst::Push(Reg::Rax).into());
        unit.blocks = vec![b0];
        assert!(matches!(
            emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()),
            Err(EmitError::TrailingFallthrough { .. })
        ));
    }

    #[test]
    fn line_and_eh_metadata_carried() {
        let mut unit = EmitUnit::new("f");
        unit.align = 1;
        let mut b0 = EmitBlock::new(label(0));
        let mut call = EmitInst::new(Inst::Call {
            target: Target::Label(label(1)),
        });
        call.line = Some(LineInfo { file: 0, line: 22 });
        call.eh_pad = Some(label(1));
        b0.insts.push(call);
        b0.insts.push(Inst::Ret.into());
        let mut b1 = EmitBlock::new(label(1));
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        let r = emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap();
        assert_eq!(r.line_entries.len(), 1);
        assert_eq!(
            r.line_entries[0],
            (0x400000, LineInfo { file: 0, line: 22 })
        );
        assert_eq!(r.eh_entries.len(), 1);
        assert_eq!(r.eh_entries[0].0, 0x400000);
        assert_eq!(r.eh_entries[0].1, label(1));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut unit = EmitUnit::new("f");
        let mut b0 = EmitBlock::new(label(0));
        b0.insts.push(Inst::Ret.into());
        let mut b1 = EmitBlock::new(label(0));
        b1.insts.push(Inst::Ret.into());
        unit.blocks = vec![b0, b1];
        assert_eq!(
            emit_units(&[unit], 0x400000, 0x600000, &HashMap::new()).unwrap_err(),
            EmitError::DuplicateLabel(label(0))
        );
    }
}
