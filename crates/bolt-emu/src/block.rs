//! The translation cache behind the superblock and uop engines
//! (`Machine::run_engine`).
//!
//! Per-instruction emulation pays a decode-cache probe, an interpreter
//! dispatch, and a sink callback for every retired instruction. Real
//! binary translators amortize that cost across basic blocks: decode a
//! straight-line run once, then execute the pre-decoded entries in a
//! tight loop. This module holds the cache itself — packed [`Block`]
//! descriptors indexed by entry `rip` in a [`TextIndex`] over the
//! machine's executable sections (the decode cache's regions), with the
//! decoded instructions, per-instruction fetch records, static
//! memory-op shapes, and the precomputed I-side line footprint in shared
//! pools.
//!
//! Blocks span memory-touching instructions and end only at control
//! transfers. Each memory-touching instruction's static D-side shape
//! (which instruction, read or write — the width is fixed by the ISA;
//! only the effective address and its line crossing are resolved at
//! execute time) is recorded at translation time, and the engine
//! captures the resolved addresses while the block executes, emitting
//! one [`BlockEvent`] whose interleaved fetch + memory records
//! reproduce the step engine's event order exactly. Blocks also
//! *chain*: a block's terminator caches up to two `(successor rip →
//! block index)` links so the hot loop follows direct jumps and
//! fall-throughs without consulting the entry index at all.
//!
//! The cache translates in two modes (see [`ensure_span`]): superblock
//! mode packs exactly the above; uop mode additionally lowers each
//! decoded instruction to a pre-resolved [`MicroOp`] in a pool parallel
//! to the decoded entries — see [`crate::uop`]. The decoded `insts`
//! stay populated too: a block whose lowering fails validation executes
//! them instead.
//!
//! **Blocks self-invalidate on stores into indexed text** (a region or
//! the [`MAX_INST_LEN`](crate::MAX_INST_LEN) bytes past its end): the
//! engine checks the dirty flag after every executed instruction and
//! abandons the packed entries mid-block. The pools (and every chain
//! link with them) are reclaimed at the next block boundary and the
//! patched bytes are retranslated, matching the step engine's (also
//! invalidated) decode cache. A block never crosses the end of its
//! entry's region.
//!
//! [`ensure_span`]: BlockCache::ensure_span

use crate::text::TextIndex;
use crate::uop::MicroOp;
use crate::{BlockEvent, EmuError, MemRecord, Memory};
use bolt_isa::{decode, Inst, Rm};
use std::ops::Range;

/// Longest straight-line run a single block may hold. Blocks usually end
/// far earlier (at a branch); the cap bounds translation latency for
/// degenerate compute-only runs.
const MAX_BLOCK_INSTS: usize = 64;

/// Chain-link slot holding no successor yet.
const NO_LINK: (u64, u32) = (u64::MAX, 0);

/// How the cache translates — pinned per span by
/// [`ensure_span`](BlockCache::ensure_span).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum TranslationMode {
    /// Blocks span memory accesses (shapes recorded) and chain.
    #[default]
    Superblock,
    /// Superblock packing, plus each instruction lowered to a
    /// pre-resolved [`MicroOp`] in a parallel pool.
    Uop,
}

/// The execution tier a translated block runs at. Blocks normally run
/// [`Full`](BlockTier::Full); a translation-validation finding at
/// translate time degrades the block one or two tiers instead of
/// aborting the run — the fault-tolerance counterpart of per-function
/// quarantine on the optimize path. Degradation is strictly local: the
/// rest of the cache keeps running at full speed, and every tier is
/// observationally identical, so engine invariance holds even
/// with degraded blocks in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockTier {
    /// Execute at the cache's translation mode (micro-ops in uop mode,
    /// packed decoded entries otherwise).
    #[default]
    Full,
    /// Uop mode only: the lowered micro-ops failed validation but the
    /// decoded entries re-validated clean — execute those (superblock
    /// semantics) and leave the untrusted uops unread.
    Decoded,
    /// The packed translation itself is untrusted: single-step the
    /// block's instructions through the interpreter's fetch path,
    /// which never consults the pools.
    Step,
}

/// Cumulative per-tier block counts: how many translations landed at
/// each [`BlockTier`]. Diagnostics only — never part of a
/// [`RunResult`](crate::RunResult), so engine-invariance comparisons
/// are unaffected. Survives pool reclaims (SMC invalidation); reset by
/// `Machine::reset`/`load_elf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounts {
    pub full: u64,
    pub decoded: u64,
    pub step: u64,
}

impl TierCounts {
    /// Total translations that could not run at full tier.
    pub fn degraded(&self) -> u64 {
        self.decoded + self.step
    }
}

/// A deterministic translation fault to inject (the emulate-path
/// counterpart of the poison pass): fires on the Nth `translate` call,
/// forcing the same degradation path a real validation finding of that
/// kind would take. Per-cache state — parallel tests never interfere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Pretend the micro-op lowering is untrusted while the decoded
    /// entries are fine (degrades the block to [`BlockTier::Decoded`]
    /// in uop mode).
    UopInvalid,
    /// Pretend semantic validation found a disagreement that survives
    /// re-validation (degrades the block to [`BlockTier::Step`]).
    SemInvalid,
}

/// Static shape of one data-memory access inside a block: which
/// instruction performs it and its direction, recorded at translation
/// time. The access width is fixed at 8 bytes by the
/// ISA; the effective address — and hence any line crossing — is only
/// resolvable at execute time and is captured into a [`MemRecord`] then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemShape {
    /// Instruction index within the block.
    pub inst: u32,
    /// `true` for stores.
    pub write: bool,
}

/// Records the static D-side shape(s) of `inst`, in the order the
/// executor emits its `on_mem` events.
fn push_shapes_for(inst_idx: u32, inst: &Inst, out: &mut Vec<MemShape>) {
    let mut push = |write| {
        out.push(MemShape {
            inst: inst_idx,
            write,
        })
    };
    match inst {
        Inst::Push(_) | Inst::Store { .. } => push(true),
        Inst::Pop(_) | Inst::Load { .. } | Inst::Ret | Inst::RepzRet => push(false),
        // A call pushes its return address; an indirect call through
        // memory first loads the target.
        Inst::Call { .. } => push(true),
        Inst::CallInd { rm } => {
            if matches!(rm, Rm::Mem(_)) {
                push(false);
            }
            push(true);
        }
        Inst::JmpInd { rm } => {
            if matches!(rm, Rm::Mem(_)) {
                push(false);
            }
        }
        _ => {}
    }
}

/// The static memory-shape list a spanning translation records for
/// `insts` — the same recording [`BlockCache::translate`] performs,
/// exposed so the semantic validator's tests and mutation harness build
/// shape lists from the single source of truth.
pub fn translation_shapes(insts: &[(Inst, u8)]) -> Vec<MemShape> {
    let mut out = Vec::new();
    for (i, (inst, _)) in insts.iter().enumerate() {
        push_shapes_for(i as u32, inst, &mut out);
    }
    out
}

/// One translated basic block: a packed descriptor into the cache's
/// shared pools.
#[derive(Debug)]
struct Block {
    /// Address of the first instruction.
    entry: u64,
    /// Range into the instruction/fetch pools.
    insts: Range<u32>,
    /// Range into the line-footprint pool: the 64-byte-aligned line
    /// addresses `[entry, entry + byte_len)` spans, ascending.
    lines: Range<u32>,
    /// Range into the memory-shape pool.
    mems: Range<u32>,
    /// Total bytes the block's instructions occupy.
    byte_len: u32,
    inst_count: u32,
    /// Fetches straddling a 64-byte line boundary.
    crossings64: u32,
    /// Chain links: `(successor rip, successor block index)`, installed
    /// by the engine when a transition resolves. Two slots
    /// cover a conditional branch's taken and fall-through successors;
    /// dynamic terminators (indirect jumps, returns) memoize their most
    /// recent targets. Links never outlive the blocks vector — every
    /// invalidation path clears it wholesale.
    links: [(u64, u32); 2],
    /// Execution tier (degraded when translation validation failed).
    tier: BlockTier,
}

/// Whether `inst` must be the last instruction of its block: control
/// transfers and program exits (so a block has at most one dynamic
/// successor per execution).
fn ends_block(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Jcc { .. }
            | Inst::Jmp { .. }
            | Inst::JmpInd { .. }
            | Inst::Call { .. }
            | Inst::CallInd { .. }
            | Inst::Ret
            | Inst::RepzRet
            | Inst::Ud2
            | Inst::Syscall
    )
}

/// The translation cache: entry-`rip`-indexed [`Block`]s over the
/// machine's executable regions, with pooled storage.
#[derive(Debug)]
pub(crate) struct BlockCache {
    /// Entry `rip` → block index + 1 (`0` = untranslated), over the
    /// decode cache's regions. Allocated on the first translation-engine
    /// run, so step-only machines pay nothing.
    pub(crate) index: TextIndex,
    /// Translation mode (see [`TranslationMode`]).
    mode: TranslationMode,
    blocks: Vec<Block>,
    /// Decoded `(inst, len)` entries, packed across all blocks.
    insts: Vec<(Inst, u8)>,
    /// Lowered micro-ops, parallel to `insts` entry-for-entry (uop mode
    /// only; empty otherwise).
    uops: Vec<MicroOp>,
    /// Per-instruction `(addr, len)` fetch records, parallel to `insts`.
    fetches: Vec<(u64, u8)>,
    /// Pooled 64-byte line footprints.
    lines: Vec<u64>,
    /// Pooled static memory-op shapes.
    mem_shapes: Vec<MemShape>,
    /// Set by [`invalidate`](Self::invalidate); pools are rebuilt at the
    /// next block boundary ([`reclaim`](Self::reclaim)), never while a
    /// block is executing out of them.
    dirty: bool,
    /// Cumulative per-tier translation counts (survive reclaims).
    tiers: TierCounts,
    /// Pending injected fault: `(translations remaining, kind)`. Fires
    /// once when the countdown hits zero.
    fault: Option<(u64, InjectedFault)>,
    /// Prove every translation symbolically (see [`crate::transval`]).
    /// Configuration, not state: [`clear`](Self::clear) leaves it alone.
    pub(crate) sem_validate: bool,
}

impl Default for BlockCache {
    fn default() -> BlockCache {
        BlockCache {
            index: TextIndex::default(),
            mode: TranslationMode::default(),
            blocks: Vec::new(),
            insts: Vec::new(),
            uops: Vec::new(),
            fetches: Vec::new(),
            lines: Vec::new(),
            mem_shapes: Vec::new(),
            dirty: false,
            tiers: TierCounts::default(),
            fault: None,
            sem_validate: crate::Knobs::get().sem_validate(),
        }
    }
}

impl BlockCache {
    /// Drops everything — called by `Machine::reset`.
    pub(crate) fn clear(&mut self) {
        self.index = TextIndex::default();
        self.blocks.clear();
        self.insts.clear();
        self.uops.clear();
        self.fetches.clear();
        self.lines.clear();
        self.mem_shapes.clear();
        self.dirty = false;
        self.tiers = TierCounts::default();
        self.fault = None;
    }

    /// Cumulative per-tier translation counts.
    pub(crate) fn tier_counts(&self) -> TierCounts {
        self.tiers
    }

    /// The execution tier of block `idx`.
    #[inline]
    pub(crate) fn tier(&self, idx: u32) -> BlockTier {
        self.blocks[idx as usize].tier
    }

    /// Arms a deterministic injected translation fault: the `nth`
    /// subsequent `translate` call (0-based) degrades as if a real
    /// validation finding of `kind` had fired.
    pub(crate) fn inject_fault(&mut self, nth: u64, kind: InjectedFault) {
        self.fault = Some((nth, kind));
    }

    /// Advances the injected-fault countdown for one translation;
    /// returns the fault kind if it fires now.
    fn take_fault(&mut self) -> Option<InjectedFault> {
        match &mut self.fault {
            Some((0, kind)) => {
                let k = *kind;
                self.fault = None;
                Some(k)
            }
            Some((n, _)) => {
                *n -= 1;
                None
            }
            None => None,
        }
    }

    /// Sizes the entry index to `text`'s regions and pins the
    /// translation mode (no-op when both already match, e.g. a machine
    /// reused across runs of one image under one engine).
    pub(crate) fn ensure_span(&mut self, text: &TextIndex, mode: TranslationMode) {
        if self.index.regions() != text.regions() || self.mode != mode {
            // A full clear, except that an armed injected fault and the
            // cumulative tier counters survive: both are per-machine
            // diagnostics configured/read across the run boundary this
            // method sits on (`Machine::reset` clears them for real).
            let fault = self.fault.take();
            let tiers = self.tiers;
            self.clear();
            self.fault = fault;
            self.tiers = tiers;
            self.mode = mode;
            self.index = text.empty_copy();
        }
    }

    /// The translated block entered at `rip`, if any.
    pub(crate) fn lookup(&mut self, rip: u64) -> Option<u32> {
        let e = *self.index.slot(rip)?;
        (e != 0).then(|| e - 1)
    }

    /// Unmaps every block (a store landed in cached text). Pool storage
    /// stays intact until [`reclaim`](Self::reclaim) so a
    /// currently-executing block's packed entries remain valid; chain
    /// links die with the blocks at reclaim.
    pub(crate) fn invalidate(&mut self) {
        if !self.blocks.is_empty() {
            self.index.clear();
            self.dirty = true;
        }
    }

    /// Whether an invalidation is pending (the engine checks this after
    /// every executed instruction to abandon a block whose later
    /// entries a store may have patched).
    #[inline]
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Invalidates everything if the store `[addr, addr + len)` can
    /// overlap indexed text (see [`TextIndex::touches`]). The fast path
    /// — stores to data/stack — is two compares against the regions'
    /// hull.
    #[inline]
    pub(crate) fn note_write(&mut self, addr: u64, len: u64) {
        if self.index.touches(addr, len) {
            self.invalidate();
        }
    }

    /// Rebuilds the pools after an invalidation. Called between blocks;
    /// returns whether anything was reclaimed (chain state held by the
    /// caller is stale if so).
    pub(crate) fn reclaim(&mut self) -> bool {
        if self.dirty {
            self.blocks.clear();
            self.insts.clear();
            self.uops.clear();
            self.fetches.clear();
            self.lines.clear();
            self.mem_shapes.clear();
            self.dirty = false;
            true
        } else {
            false
        }
    }

    /// Translates the straight-line run starting at `entry`: decodes up
    /// to the first block-ending instruction or [`MAX_BLOCK_INSTS`],
    /// packs the entries, and precomputes the 64-byte line footprint,
    /// crossing count, and static memory-op shapes. A block never
    /// crosses the end of its entry's region.
    ///
    /// # Errors
    ///
    /// [`EmuError::NotExecutable`] if `entry` lies in no region, and
    /// [`EmuError::BadInstruction`] if the bytes at `entry` itself do
    /// not decode — exactly when a step-engine fetch would fail. A later
    /// undecodable instruction just ends the block early; execution
    /// reaches it as its own (failing) entry only if control actually
    /// gets there.
    pub(crate) fn translate(&mut self, mem: &Memory, entry: u64) -> Result<u32, EmuError> {
        let region_end = self
            .index
            .region_end(entry)
            .ok_or(EmuError::NotExecutable { rip: entry })?;
        let insts_start = self.insts.len();
        let mems_start = self.mem_shapes.len();
        let mut at = entry;
        let mut crossings = 0u32;
        let mut buf = [0u8; 16];
        loop {
            mem.read(at, &mut buf);
            let d = match decode(&buf, at) {
                Ok(d) => d,
                Err(_) if at == entry => return Err(EmuError::BadInstruction { rip: entry }),
                Err(_) => break,
            };
            push_shapes_for(
                (self.insts.len() - insts_start) as u32,
                &d.inst,
                &mut self.mem_shapes,
            );
            self.insts.push((d.inst, d.len));
            self.fetches.push((at, d.len));
            if (at >> 6) != ((at + d.len as u64 - 1) >> 6) {
                crossings += 1;
            }
            at += d.len as u64;
            if ends_block(&d.inst)
                || self.insts.len() - insts_start >= MAX_BLOCK_INSTS
                || at >= region_end
            {
                break;
            }
        }
        let injected = self.take_fault();
        let mut tier = BlockTier::Full;
        if self.mode == TranslationMode::Uop {
            // Lower the whole block at once: the flags-liveness pass
            // needs to see every instruction. The pools stay parallel —
            // `uops[i]` always pairs with `insts[i]`.
            crate::uop::lower_into(&mut self.uops, &self.insts[insts_start..]);
            debug_assert_eq!(self.uops.len(), self.insts.len());
            if injected == Some(InjectedFault::UopInvalid) {
                // The lowering is untrusted but the decoded entries it
                // came from are independently checkable — degrade one
                // tier and leave the uop pool entries unread.
                tier = BlockTier::Decoded;
            }
        }
        let lines_start = self.lines.len();
        let mut line = (entry >> 6) << 6;
        while line < at {
            self.lines.push(line);
            line += 64;
        }
        let idx = self.blocks.len() as u32;
        self.blocks.push(Block {
            entry,
            insts: insts_start as u32..self.insts.len() as u32,
            lines: lines_start as u32..self.lines.len() as u32,
            mems: mems_start as u32..self.mem_shapes.len() as u32,
            byte_len: (at - entry) as u32,
            inst_count: (self.insts.len() - insts_start) as u32,
            crossings64: crossings,
            links: [NO_LINK; 2],
            tier,
        });
        *self.index.slot(entry).expect("entry is indexed") = idx + 1;
        // Semantic validation degrades rather than aborts: a finding at
        // the uop tier first re-proves the decoded entries alone (the
        // lowering may be the only culprit); a finding that survives
        // re-validation — or one at any other tier — sends the block to
        // per-instruction stepping, which never reads the pools.
        if injected == Some(InjectedFault::SemInvalid) {
            tier = BlockTier::Step;
        } else if self.sem_validate {
            let with_uops = self.mode == TranslationMode::Uop && tier == BlockTier::Full;
            if !self.validate_tier(mem, idx, with_uops).is_empty() {
                tier = if with_uops && self.validate_tier(mem, idx, false).is_empty() {
                    BlockTier::Decoded
                } else {
                    BlockTier::Step
                };
            }
        }
        self.blocks[idx as usize].tier = tier;
        match tier {
            BlockTier::Full => self.tiers.full += 1,
            BlockTier::Decoded => self.tiers.decoded += 1,
            BlockTier::Step => self.tiers.step += 1,
        }
        Ok(idx)
    }

    /// Symbolically proves the cached translation of block `idx`
    /// equivalent to the step semantics of a *fresh decode* of the same
    /// bytes — so a corrupted cache entry is caught even when its pools
    /// are internally consistent. Returns the disagreements (empty =
    /// proven equivalent).
    pub(crate) fn validate_semantics(
        &self,
        mem: &Memory,
        idx: u32,
    ) -> Vec<crate::transval::SemFinding> {
        self.validate_tier(mem, idx, self.mode == TranslationMode::Uop)
    }

    /// [`validate_semantics`](Self::validate_semantics) against a
    /// chosen tier: with `with_uops` false the micro-op pool is left
    /// out of the proof — exactly what a [`BlockTier::Decoded`] block
    /// executes, so the degrade ladder re-validates the tier it is
    /// about to fall back to, not the one that just failed.
    fn validate_tier(
        &self,
        mem: &Memory,
        idx: u32,
        with_uops: bool,
    ) -> Vec<crate::transval::SemFinding> {
        use crate::transval::{SemFinding, SemFindingKind};
        let (range, entry, _, _) = self.block_info(idx);
        let mut reference = Vec::with_capacity(range.len());
        let mut at = entry;
        let mut buf = [0u8; 16];
        for _ in range.clone() {
            mem.read(at, &mut buf);
            match decode(&buf, at) {
                Ok(d) => {
                    reference.push((d.inst, d.len));
                    at += d.len as u64;
                }
                Err(_) => {
                    return vec![SemFinding {
                        kind: SemFindingKind::DecodeMismatch,
                        entry,
                        inst: reference.len() as u32,
                        detail: format!(
                            "cached block holds {} instructions but the bytes at {at:#x} \
                             do not decode",
                            range.len()
                        ),
                    }];
                }
            }
        }
        let cached = &self.insts[range.clone()];
        let uops =
            (with_uops && self.mode == TranslationMode::Uop).then(|| &self.uops[range.clone()]);
        crate::transval::validate_translation(
            entry,
            &reference,
            cached,
            uops,
            Some(self.shapes(idx)),
        )
    }

    /// Total bytes block `idx`'s instructions occupy.
    pub(crate) fn byte_len(&self, idx: u32) -> u64 {
        self.blocks[idx as usize].byte_len as u64
    }

    /// Everything the hot loop needs about block `idx` in
    /// one descriptor read: instruction pool range, entry address, total
    /// byte length, and whether the block touches memory.
    #[inline]
    pub(crate) fn block_info(&self, idx: u32) -> (Range<usize>, u64, u64, bool) {
        let b = &self.blocks[idx as usize];
        (
            b.insts.start as usize..b.insts.end as usize,
            b.entry,
            b.byte_len as u64,
            b.mems.start != b.mems.end,
        )
    }

    /// One packed instruction entry.
    #[inline]
    pub(crate) fn inst(&self, i: usize) -> (Inst, u8) {
        self.insts[i]
    }

    /// Moves the micro-op pool (uop mode; same indices as
    /// [`inst`](Self::inst)) out of the cache while one block executes,
    /// so the executor can read its entries while it mutates the
    /// machine; [`put_uops`](Self::put_uops) hands it back. Nothing that
    /// runs mid-block reads or resizes the pool: translation and
    /// [`reclaim`](Self::reclaim) happen only between blocks.
    #[inline]
    pub(crate) fn take_uops(&mut self) -> Vec<MicroOp> {
        std::mem::take(&mut self.uops)
    }

    /// Returns the pool [`take_uops`](Self::take_uops) moved out.
    #[inline]
    pub(crate) fn put_uops(&mut self, uops: Vec<MicroOp>) {
        self.uops = uops;
    }

    /// Block `idx`'s static memory-op shapes.
    pub(crate) fn shapes(&self, idx: u32) -> &[MemShape] {
        let b = &self.blocks[idx as usize];
        &self.mem_shapes[b.mems.start as usize..b.mems.end as usize]
    }

    /// The chained successor of block `from` for a transition to `rip`,
    /// if one is cached — the hot-loop path that skips
    /// [`lookup`](Self::lookup) entirely.
    #[inline]
    pub(crate) fn linked(&self, from: u32, rip: u64) -> Option<u32> {
        let l = &self.blocks[from as usize].links;
        if l[0].0 == rip {
            return Some(l[0].1);
        }
        if l[1].0 == rip {
            return Some(l[1].1);
        }
        None
    }

    /// Caches `from → to` for transitions to `rip`. The first slot is
    /// sticky (a direct jump or fall-through successor); the second
    /// covers a conditional's other arm, or memoizes the most recent
    /// target of a dynamic terminator.
    pub(crate) fn install_link(&mut self, from: u32, rip: u64, to: u32) {
        let l = &mut self.blocks[from as usize].links;
        if l[0].0 == NO_LINK.0 || l[0].0 == rip {
            l[0] = (rip, to);
        } else {
            l[1] = (rip, to);
        }
    }

    /// The batched trace event describing block `idx` (no memory
    /// records — the shape of a block that touches no memory).
    pub(crate) fn event(&self, idx: u32) -> BlockEvent<'_> {
        let b = &self.blocks[idx as usize];
        BlockEvent {
            entry: b.entry,
            inst_count: b.inst_count,
            byte_len: b.byte_len,
            fetches: &self.fetches[b.insts.start as usize..b.insts.end as usize],
            lines64: &self.lines[b.lines.start as usize..b.lines.end as usize],
            crossings64: b.crossings64,
            mems: &[],
        }
    }

    /// The batched trace event for the first `count` instructions of
    /// block `idx`, carrying the memory records the executor captured.
    /// `count` covers the whole block in
    /// the common case; a store into text mid-block truncates to the
    /// executed prefix (line footprint and crossings recomputed for the
    /// prefix, which stays exact because lines ascend from the entry).
    pub(crate) fn prefix_event<'a>(
        &'a self,
        idx: u32,
        count: u32,
        mems: &'a [MemRecord],
    ) -> BlockEvent<'a> {
        let b = &self.blocks[idx as usize];
        debug_assert!(count >= 1 && count <= b.inst_count);
        if count == b.inst_count {
            let mut ev = self.event(idx);
            ev.mems = mems;
            return ev;
        }
        let fetches = &self.fetches[b.insts.start as usize..][..count as usize];
        let &(last_addr, last_len) = fetches.last().expect("count >= 1");
        let end = last_addr + last_len as u64;
        let nlines = (((end - 1) >> 6) - (b.entry >> 6) + 1) as usize;
        let crossings = fetches
            .iter()
            .filter(|&&(a, l)| (a >> 6) != ((a + l as u64 - 1) >> 6))
            .count() as u32;
        BlockEvent {
            entry: b.entry,
            inst_count: count,
            byte_len: (end - b.entry) as u32,
            fetches,
            lines64: &self.lines[b.lines.start as usize..][..nlines],
            crossings64: crossings,
            mems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_isa::{encode_at, AluOp, Mem, Reg};

    /// Encodes `insts` contiguously at `base` into a fresh memory.
    fn memory_with(insts: &[Inst], base: u64) -> (Memory, u64) {
        let mut mem = Memory::new();
        let mut at = base;
        for i in insts {
            let e = encode_at(i, at).unwrap();
            mem.write(at, &e.bytes);
            at += e.bytes.len() as u64;
        }
        (mem, at - base)
    }

    fn cache_over(base: u64, span: usize) -> BlockCache {
        let mut c = BlockCache::default();
        let text = TextIndex::new(std::iter::once(base..base + span as u64));
        c.ensure_span(&text, TranslationMode::Superblock);
        c
    }

    #[test]
    fn straight_line_run_ends_at_control_transfer() {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 2,
            },
            Inst::Ret,
            Inst::Nop { len: 1 },
        ];
        let (mem, len) = memory_with(&insts, 0x400000);
        let mut c = cache_over(0x400000, len as usize);
        let idx = c.translate(&mem, 0x400000).unwrap();
        let ev = c.event(idx);
        assert_eq!(ev.inst_count, 3, "block stops at (and includes) ret");
        assert_eq!(ev.entry, 0x400000);
        assert_eq!(ev.fetches.len(), 3);
        assert_eq!(ev.fetches[0].0, 0x400000);
        let span: u32 = ev.fetches.iter().map(|&(_, l)| l as u32).sum();
        assert_eq!(ev.byte_len, span);
        assert_eq!(c.lookup(0x400000), Some(idx), "entry indexed");
        assert_eq!(c.lookup(0x400001), None, "interior rips not indexed");
    }

    /// A straight-line run is one block spanning its memory accesses,
    /// with the static shapes recorded in executor order.
    #[test]
    fn superblocks_span_memory_instructions_and_record_shapes() {
        let m = Mem::BaseDisp {
            base: Reg::R10,
            disp: 0,
        };
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Load {
                dst: Reg::Rcx,
                mem: m,
            },
            Inst::MovRI {
                dst: Reg::Rdx,
                imm: 2,
            },
            Inst::Store {
                mem: m,
                src: Reg::Rdx,
            },
            Inst::Push(Reg::Rax),
            Inst::Pop(Reg::Rcx),
            Inst::Ret,
        ];
        let (mem, len) = memory_with(&insts, 0x400000);
        let mut c = cache_over(0x400000, len as usize);
        let idx = c.translate(&mem, 0x400000).unwrap();
        let ev = c.event(idx);
        assert_eq!(ev.inst_count, 7, "one superblock up to (and incl.) ret");
        assert!(c.block_info(idx).3, "block_info reports the memory ops");
        let shapes: Vec<(u32, bool)> = c.shapes(idx).iter().map(|s| (s.inst, s.write)).collect();
        assert_eq!(
            shapes,
            vec![(1, false), (3, true), (4, true), (5, false), (6, false)],
            "load, store, push, pop, ret's pop — in executor order"
        );
    }

    #[test]
    fn superblock_chain_links_install_and_drop() {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Ret,
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 2,
            },
            Inst::Ret,
        ];
        let (mem, len) = memory_with(&insts, 0x400000);
        let mut c = cache_over(0x400000, len as usize);
        let a = c.translate(&mem, 0x400000).unwrap();
        let b_entry = 0x400000 + c.event(a).byte_len as u64;
        let b = c.translate(&mem, b_entry).unwrap();
        assert_eq!(c.linked(a, b_entry), None, "no link before install");
        c.install_link(a, b_entry, b);
        assert_eq!(c.linked(a, b_entry), Some(b), "link followed");
        assert_eq!(c.linked(a, 0x400000), None, "other rips still miss");
        // Second slot covers a different successor; a third distinct
        // target evicts only the secondary slot.
        c.install_link(a, 0x400000, a);
        assert_eq!(c.linked(a, 0x400000), Some(a));
        assert_eq!(c.linked(a, b_entry), Some(b), "primary slot sticky");
        c.install_link(a, 0x999999, b);
        assert_eq!(c.linked(a, b_entry), Some(b), "primary survives eviction");
        assert_eq!(c.linked(a, 0x400000), None, "secondary evicted");
        // Invalidation drops every link with the blocks.
        c.invalidate();
        assert!(c.is_dirty());
        assert!(c.reclaim(), "reclaim reports the flush");
        let a2 = c.translate(&mem, 0x400000).unwrap();
        assert_eq!(c.linked(a2, b_entry), None, "links died with the flush");
    }

    #[test]
    fn line_footprint_and_crossings_precomputed() {
        // 7-byte movs starting 3 bytes before a 64-byte boundary: the
        // first instruction straddles it.
        let base = 0x400040 - 3;
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 2,
            },
            Inst::Ret,
        ];
        let (mem, len) = memory_with(&insts, base);
        let mut c = cache_over(base, len as usize);
        let ev_idx = c.translate(&mem, base).unwrap();
        let ev = c.event(ev_idx);
        assert_eq!(ev.crossings64, 1, "first mov straddles the boundary");
        assert_eq!(ev.lines64, &[0x400000, 0x400040], "both lines spanned");
    }

    /// A truncated event (SMC mid-superblock) recomputes the prefix's
    /// byte length, line footprint, and crossings exactly.
    #[test]
    fn prefix_event_truncates_exactly() {
        let base = 0x400040 - 3;
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 2,
            },
            Inst::MovRI {
                dst: Reg::Rdx,
                imm: 3,
            },
            Inst::Ret,
        ];
        let (mem, len) = memory_with(&insts, base);
        let mut c = cache_over(base, len as usize);
        let idx = c.translate(&mem, base).unwrap();
        let full = c.event(idx);
        assert_eq!(full.inst_count, 4);
        let one = c.prefix_event(idx, 1, &[]);
        assert_eq!(one.inst_count, 1);
        assert_eq!(one.byte_len, 7);
        assert_eq!(one.lines64, &[0x400000, 0x400040]);
        assert_eq!(one.crossings64, 1, "the straddling first mov");
        let two = c.prefix_event(idx, 2, &[]);
        assert_eq!(two.byte_len, 14);
        assert_eq!(two.lines64, &[0x400000, 0x400040]);
        assert_eq!(two.crossings64, 1);
        let all = c.prefix_event(idx, 4, &[]);
        assert_eq!(all.byte_len, full.byte_len);
        assert_eq!(all.lines64, full.lines64);
        assert_eq!(all.crossings64, full.crossings64);
    }

    #[test]
    fn invalidate_unmaps_but_reclaims_only_between_blocks() {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Ret,
        ];
        let (mem, len) = memory_with(&insts, 0x400000);
        let mut c = cache_over(0x400000, len as usize);
        let idx = c.translate(&mem, 0x400000).unwrap();
        c.invalidate();
        assert_eq!(c.lookup(0x400000), None, "mapping gone immediately");
        assert_eq!(
            c.event(idx).inst_count,
            2,
            "packed entries stay valid until reclaim"
        );
        c.reclaim();
        assert!(c.blocks.is_empty() && c.insts.is_empty() && c.lines.is_empty());
        // Retranslation after reclaim works.
        let idx = c.translate(&mem, 0x400000).unwrap();
        assert_eq!(c.event(idx).inst_count, 2);
    }

    /// A block never crosses the end of its entry's region, even when
    /// the bytes beyond it keep decoding; an entry in no region is not
    /// executable.
    #[test]
    fn translation_stops_at_a_region_end() {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 2,
            },
            Inst::MovRI {
                dst: Reg::Rdx,
                imm: 3,
            },
            Inst::Ret,
        ];
        let (mem, len) = memory_with(&insts, 0x400000);
        // The region covers only the first two instructions; the rest
        // decodes fine but lies outside.
        let span = 14usize; // two 7-byte movs
        assert!((span as u64) < len);
        let mut c = cache_over(0x400000, span);
        let idx = c.translate(&mem, 0x400000).unwrap();
        let ev = c.event(idx);
        assert_eq!(ev.inst_count, 2, "block bounded by the region end");
        assert_eq!(ev.byte_len as usize, span);
        assert_eq!(
            c.translate(&mem, 0x400000 + span as u64),
            Err(EmuError::NotExecutable {
                rip: 0x400000 + span as u64
            })
        );
    }

    /// Blocks in two regions resolve through one index; a store between
    /// the regions leaves them alone, one into the second invalidates.
    #[test]
    fn two_regions_share_one_index() {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Ret,
        ];
        let (mut mem, len) = memory_with(&insts, 0x400000);
        let (high, _) = memory_with(&insts, 0x1000000);
        for a in 0..len {
            mem.write_u8(0x1000000 + a, high.read_u8(0x1000000 + a));
        }
        let mut c = BlockCache::default();
        let text = TextIndex::new([0x1000000..0x1000000 + len, 0x400000..0x400000 + len]);
        c.ensure_span(&text, TranslationMode::Superblock);
        let hi = c.translate(&mem, 0x1000000).unwrap();
        let lo = c.translate(&mem, 0x400000).unwrap();
        assert_eq!(c.lookup(0x1000000), Some(hi));
        assert_eq!(c.lookup(0x400000), Some(lo));
        assert_eq!(c.lookup(0x400001), None);
        c.note_write(0x800000, 8);
        assert!(!c.is_dirty(), "store between the regions ignored");
        c.note_write(0x1000004, 8);
        assert!(c.is_dirty(), "store into the second region invalidates");
        c.reclaim();
        assert_eq!(c.lookup(0x400000), None);
        assert_eq!(c.lookup(0x1000000), None);
    }

    /// Uop mode packs like superblock mode and keeps the micro-op pool
    /// parallel to the decoded pool across blocks, invalidation, and
    /// retranslation.
    #[test]
    fn uop_mode_lowers_a_parallel_pool() {
        let m = Mem::BaseDisp {
            base: Reg::R10,
            disp: 16,
        };
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Load {
                dst: Reg::Rcx,
                mem: m,
            },
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rcx,
                imm: 3,
            },
            Inst::Ret,
        ];
        let (mem, len) = memory_with(&insts, 0x400000);
        let mut c = BlockCache::default();
        c.ensure_span(
            &TextIndex::new(std::iter::once(0x400000..0x400000 + len)),
            TranslationMode::Uop,
        );
        let idx = c.translate(&mem, 0x400000).unwrap();
        assert_eq!(c.event(idx).inst_count, 4, "packs like a superblock");
        assert_eq!(c.uops.len(), c.insts.len(), "pools parallel");
        let (range, _, _, _) = c.block_info(idx);
        assert_eq!(
            c.uops[range.start].kind,
            crate::uop::UopKind::MovRI,
            "entries line up with the decoded pool"
        );
        assert_eq!(c.uops[range.start + 1].kind, crate::uop::UopKind::LoadBD);
        assert_eq!(c.uops[range.start + 1].imm, 16, "disp pre-resolved");
        assert_eq!(
            c.shapes(idx).len(),
            2,
            "uop mode records D-side shapes (load + ret's pop) like superblock mode"
        );
        // Invalidation + retranslation keeps the pools in lockstep.
        c.invalidate();
        c.reclaim();
        assert!(c.uops.is_empty(), "uop pool reclaimed with the rest");
        let idx = c.translate(&mem, 0x400000).unwrap();
        assert_eq!(c.event(idx).inst_count, 4);
        assert_eq!(c.uops.len(), c.insts.len());
    }

    #[test]
    fn undecodable_entry_fails_like_a_fetch() {
        let mem = Memory::new(); // zeros do not decode
        let mut c = cache_over(0x400000, 64);
        assert_eq!(
            c.translate(&mem, 0x400000),
            Err(EmuError::BadInstruction { rip: 0x400000 })
        );
    }

    #[test]
    fn undecodable_tail_ends_the_block_early() {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 7,
            },
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 8,
            },
        ];
        let (mem, len) = memory_with(&insts, 0x400000);
        // Span extends past the encoded bytes; the zeros after them fail
        // to decode and end the block without failing the translation.
        let mut c = cache_over(0x400000, len as usize + 32);
        let idx = c.translate(&mem, 0x400000).unwrap();
        assert_eq!(c.event(idx).inst_count, 2);
    }
}
