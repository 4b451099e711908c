//! The CPU front-end performance model: the reproduction's substitute for
//! hardware performance counters (paper section 6 measures branch misses,
//! I-cache/D-cache misses, I-TLB/D-TLB misses, LLC misses, and CPU time).

use crate::{BranchPredictor, Cache, SimConfig};
use bolt_emu::{BlockEvent, BranchEvent, TraceSink};

/// Counter snapshot reported by the model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub instructions: u64,
    pub cycles: f64,
    pub cond_branches: u64,
    pub branch_mispredicts: u64,
    pub l1i_accesses: u64,
    pub l1i_misses: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub llc_misses: u64,
    pub itlb_misses: u64,
    pub dtlb_misses: u64,
}

impl Counters {
    /// Adds `other`'s event counts into `self` — aggregation across
    /// independent runs (e.g. the shards of a batch). Every field is a
    /// sum, so merging is commutative and associative and a batch summed
    /// in shard-index order equals any other order.
    pub fn merge(&mut self, other: &Counters) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.cond_branches += other.cond_branches;
        self.branch_mispredicts += other.branch_mispredicts;
        self.l1i_accesses += other.l1i_accesses;
        self.l1i_misses += other.l1i_misses;
        self.l1d_accesses += other.l1d_accesses;
        self.l1d_misses += other.l1d_misses;
        self.l2_misses += other.l2_misses;
        self.llc_misses += other.llc_misses;
        self.itlb_misses += other.itlb_misses;
        self.dtlb_misses += other.dtlb_misses;
    }

    /// Percentage reduction of a metric from `self` (baseline) to `other`.
    pub fn reduction(base: u64, new: u64) -> f64 {
        if base == 0 {
            0.0
        } else {
            100.0 * (base as f64 - new as f64) / base as f64
        }
    }

    /// Speedup of `new` over `self` in percent (by cycle count).
    pub fn speedup_over(&self, new: &Counters) -> f64 {
        if new.cycles == 0.0 {
            0.0
        } else {
            100.0 * (self.cycles - new.cycles) / new.cycles
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// Serializes to the compact binary artifact *payload* (see
    /// [`bolt_emu::artifact`] for the framing): every field as eight
    /// little-endian bytes in declaration order, `cycles` by its IEEE
    /// bit pattern — so equal counters encode to equal bytes and a
    /// supervised sum can be compared byte-for-byte against the
    /// in-process path.
    pub fn to_bytes(&self) -> Vec<u8> {
        let fields = [
            self.instructions,
            self.cycles.to_bits(),
            self.cond_branches,
            self.branch_mispredicts,
            self.l1i_accesses,
            self.l1i_misses,
            self.l1d_accesses,
            self.l1d_misses,
            self.l2_misses,
            self.llc_misses,
            self.itlb_misses,
            self.dtlb_misses,
        ];
        let mut out = Vec::with_capacity(fields.len() * 8);
        for f in fields {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }

    /// Decodes a [`Counters::to_bytes`] payload (exact length
    /// required).
    pub fn from_bytes(bytes: &[u8]) -> Result<Counters, bolt_emu::ArtifactError> {
        use bolt_emu::artifact::ByteReader;
        let mut r = ByteReader::new(bytes);
        let c = Counters {
            instructions: r.u64("instructions")?,
            cycles: f64::from_bits(r.u64("cycles")?),
            cond_branches: r.u64("cond_branches")?,
            branch_mispredicts: r.u64("branch_mispredicts")?,
            l1i_accesses: r.u64("l1i_accesses")?,
            l1i_misses: r.u64("l1i_misses")?,
            l1d_accesses: r.u64("l1d_accesses")?,
            l1d_misses: r.u64("l1d_misses")?,
            l2_misses: r.u64("l2_misses")?,
            llc_misses: r.u64("llc_misses")?,
            itlb_misses: r.u64("itlb_misses")?,
            dtlb_misses: r.u64("dtlb_misses")?,
        };
        r.finish("counters payload slack")?;
        Ok(c)
    }

    /// Frames [`Counters::to_bytes`] as a durable artifact
    /// (`KIND_COUNTERS`).
    pub fn to_artifact(&self) -> Vec<u8> {
        bolt_emu::artifact::frame(bolt_emu::artifact::KIND_COUNTERS, &self.to_bytes())
    }

    /// Validates framing and decodes a [`Counters::to_artifact`] byte
    /// string.
    pub fn from_artifact(bytes: &[u8]) -> Result<Counters, bolt_emu::ArtifactError> {
        let payload = bolt_emu::artifact::unframe(bytes, bolt_emu::artifact::KIND_COUNTERS)?;
        Counters::from_bytes(payload)
    }
}

impl std::ops::AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, other: &Counters) {
        self.merge(other);
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;

    fn add(mut self, other: Counters) -> Counters {
        self.merge(&other);
        self
    }
}

impl std::iter::Sum for Counters {
    fn sum<I: Iterator<Item = Counters>>(iter: I) -> Counters {
        iter.fold(Counters::default(), |mut acc, c| {
            acc.merge(&c);
            acc
        })
    }
}

impl<'a> std::iter::Sum<&'a Counters> for Counters {
    fn sum<I: Iterator<Item = &'a Counters>>(iter: I) -> Counters {
        iter.fold(Counters::default(), |mut acc, c| {
            acc.merge(c);
            acc
        })
    }
}

/// The microarchitectural model. Implements [`TraceSink`] so it can be
/// attached directly to the emulator.
///
/// The hierarchy is L1I + L1D → unified L2 → LLC → memory, with separate
/// I/D TLBs and a gshare + BTB + RAS branch predictor. The cycle cost model
/// is additive: a base CPI plus fixed penalties per miss event — crude, but
/// it preserves the *ordering* the paper's evaluation depends on (front-end
/// bound binaries are dominated by I-cache/iTLB misses and branch
/// mispredictions).
#[derive(Debug)]
pub struct CpuModel {
    pub cfg: SimConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    itlb: Cache,
    dtlb: Cache,
    pub predictor: BranchPredictor,
    instructions: u64,
    extra_cycles: f64,
    /// The line (as `addr | (line_bytes - 1)`) the last D-side access
    /// lay wholly inside, if it crossed no line boundary. Only
    /// [`on_mem`](TraceSink::on_mem) touches L1D and the dTLB, and it
    /// leaves that line at way 0 of its L1D set and its page at way 0
    /// of its dTLB set; a way-0 hit reorders nothing, so the next access
    /// wholly inside the same line is a guaranteed hit in both and
    /// costs two access counts. `None` after a line-crossing access
    /// (its second line may have demoted or evicted the first in a
    /// shared set) and always when a line can span two pages.
    last_dline: Option<u64>,
}

impl CpuModel {
    pub fn new(cfg: SimConfig) -> CpuModel {
        CpuModel {
            l1i: Cache::new(cfg.l1i_bytes, cfg.l1i_ways, cfg.line_bytes),
            l1d: Cache::new(cfg.l1d_bytes, cfg.l1d_ways, cfg.line_bytes),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes),
            llc: Cache::new(cfg.llc_bytes, cfg.llc_ways, cfg.line_bytes),
            itlb: Cache::new(
                cfg.itlb_entries * cfg.page_bytes,
                cfg.itlb_ways,
                cfg.page_bytes,
            ),
            dtlb: Cache::new(
                cfg.dtlb_entries * cfg.page_bytes,
                cfg.dtlb_ways,
                cfg.page_bytes,
            ),
            predictor: BranchPredictor::new(cfg.predictor_history_bits, cfg.btb_entries),
            instructions: 0,
            extra_cycles: 0.0,
            last_dline: None,
            cfg,
        }
    }

    /// Charges the D-side access from `addr` to its last byte `end` (at
    /// most one line further on) through the dTLB, L1D and the miss
    /// path, and returns what [`last_dline`](CpuModel::last_dline) may
    /// remember after it.
    fn charge_dside(&mut self, addr: u64, end: u64) -> Option<u64> {
        if !self.dtlb.access(addr) {
            self.extra_cycles += self.cfg.tlb_miss_latency;
        }
        if !self.l1d.access(addr) {
            self.extra_cycles += self.miss_path(addr);
        }
        // An access crossing a line boundary touches the next line too,
        // exactly like the I-side check in `on_inst`.
        let mask = self.cfg.line_bytes - 1;
        if addr ^ end > mask {
            if !self.l1d.access(end) {
                self.extra_cycles += self.miss_path(end);
            }
            return None;
        }
        (self.cfg.page_bytes >= self.cfg.line_bytes).then_some(addr | mask)
    }

    /// L1 missed; walks L2 -> LLC -> memory.
    fn miss_path(&mut self, addr: u64) -> f64 {
        if self.l2.access(addr) {
            self.cfg.l2_latency
        } else if self.llc.access(addr) {
            self.cfg.l2_latency + self.cfg.llc_latency
        } else {
            self.cfg.l2_latency + self.cfg.llc_latency + self.cfg.mem_latency
        }
    }

    /// The rest of [`TraceSink::on_block`] once `ev.lines64[missed]` has
    /// missed in L1I. L1I and L1D/dTLB share no state, but both sides'
    /// misses walk the same L2/LLC, so from here on the walks must land
    /// in the step engine's order: a line's walk happens at the first
    /// fetch whose bytes reach it, i.e. after the memory records of every
    /// earlier instruction and before that instruction's own.
    #[cold]
    fn on_block_after_l1i_miss(&mut self, ev: BlockEvent<'_>, missed: usize) {
        let mut fetch = 0usize;
        let mut mems = ev.mems;
        for (i, &line) in ev.lines64[missed..].iter().enumerate() {
            if i > 0 && self.l1i.access(line) {
                continue;
            }
            while ev
                .fetches
                .get(fetch)
                .is_some_and(|&(addr, len)| addr.wrapping_add(len as u64 - 1) < line)
            {
                fetch += 1;
            }
            let earlier = mems.partition_point(|m| (m.inst as usize) < fetch);
            for m in &mems[..earlier] {
                self.on_mem(m.addr, m.len, m.write);
            }
            mems = &mems[earlier..];
            self.extra_cycles += self.miss_path(line);
        }
        for m in mems {
            self.on_mem(m.addr, m.len, m.write);
        }
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> Counters {
        Counters {
            instructions: self.instructions,
            cycles: self.instructions as f64 * self.cfg.base_cpi + self.extra_cycles,
            cond_branches: self.predictor.cond_branches,
            branch_mispredicts: self.predictor.total_steering_misses(),
            l1i_accesses: self.l1i.accesses,
            l1i_misses: self.l1i.misses,
            l1d_accesses: self.l1d.accesses,
            l1d_misses: self.l1d.misses,
            l2_misses: self.l2.misses,
            llc_misses: self.llc.misses,
            itlb_misses: self.itlb.misses,
            dtlb_misses: self.dtlb.misses,
        }
    }
}

impl TraceSink for CpuModel {
    #[inline]
    fn on_inst(&mut self, addr: u64, len: u8) {
        self.instructions += 1;
        if !self.itlb.access(addr) {
            self.extra_cycles += self.cfg.tlb_miss_latency;
        }
        if !self.l1i.access(addr) {
            self.extra_cycles += self.miss_path(addr);
        }
        // A fetch crossing a line boundary touches the next line too.
        let end = addr.wrapping_add(len as u64 - 1);
        if addr ^ end >= self.cfg.line_bytes && !self.l1i.access(end) {
            self.extra_cycles += self.miss_path(end);
        }
    }

    /// Charges a translated block's whole footprint in one call.
    ///
    /// Bit-identical to replaying the event's interleaved
    /// [`on_inst`]/[`on_mem`] sequence. The I-side argument: a
    /// straight-line block's fetch stream touches pages and lines in
    /// monotone non-decreasing order, so every repeat access is a
    /// guaranteed most-recently-used hit with no penalty and no
    /// LRU-order effect — only the first touch of each distinct
    /// page/line can miss, and D-side accesses in between touch
    /// *different* structures (L1D/dTLB) so they cannot disturb it.
    /// So the I-side footprint is charged first, one probe per distinct
    /// page and line with the repeats bulk-counted, and then the memory
    /// records are walked alone. The one thing both sides share is
    /// L2/LLC, reached only through an L1 miss: the first L1I miss of an
    /// event hands over to [`on_block_after_l1i_miss`], which restores
    /// the program order of the walks. Penalties are summed in a
    /// different order than the replay would, which is exact because
    /// every latency is integer-valued (`presets_are_consistent`).
    ///
    /// [`on_inst`]: TraceSink::on_inst
    /// [`on_mem`]: TraceSink::on_mem
    /// [`on_block_after_l1i_miss`]: CpuModel::on_block_after_l1i_miss
    #[inline]
    fn on_block(&mut self, ev: BlockEvent<'_>) {
        // The precomputed footprint models 64-byte lines; a config with
        // exotic geometry replays the exact per-instruction path.
        if self.cfg.line_bytes != 64 || self.cfg.page_bytes <= 16 || ev.fetches.is_empty() {
            ev.replay(self);
            return;
        }
        self.instructions += ev.inst_count as u64;
        // iTLB: pages of instruction-start addresses (every page in the
        // range holds at least one start — pages dwarf instructions).
        let page_mask = !(self.cfg.page_bytes - 1);
        let last_page = ev.fetches[ev.fetches.len() - 1].0 & page_mask;
        let mut page = ev.entry & page_mask;
        let mut pages_probed = 0u64;
        loop {
            pages_probed += 1;
            if !self.itlb.access(page) {
                self.extra_cycles += self.cfg.tlb_miss_latency;
            }
            if page >= last_page {
                break;
            }
            page += self.cfg.page_bytes;
        }
        // Bulk-count the repeat accesses (one per instruction in the
        // step engine), mirroring the L1I correction below.
        self.itlb.accesses += ev.inst_count as u64 - pages_probed;
        // L1I: each distinct line once; repeats bulk-counted (the step
        // engine reports one access per fetch plus one per crossing).
        let total_accesses = ev.inst_count as u64 + ev.crossings64 as u64;
        self.l1i.accesses += total_accesses - ev.lines64.len() as u64;
        for (i, &line) in ev.lines64.iter().enumerate() {
            if !self.l1i.access(line) {
                return self.on_block_after_l1i_miss(ev, i);
            }
        }
        for m in ev.mems {
            self.on_mem(m.addr, m.len, m.write);
        }
    }

    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        let outcome = self.predictor.observe(ev);
        if outcome.mispredicted {
            self.extra_cycles += self.cfg.branch_miss_latency;
        } else if outcome.btb_fetch_miss {
            self.extra_cycles += self.cfg.btb_miss_latency;
        }
    }

    #[inline]
    fn on_mem(&mut self, addr: u64, len: u8, _write: bool) {
        let end = addr.wrapping_add(len.max(1) as u64 - 1);
        let mask = self.cfg.line_bytes - 1;
        if self.last_dline == Some(addr | mask) && addr ^ end <= mask {
            self.l1d.accesses += 1;
            self.dtlb.accesses += 1;
            return;
        }
        self.last_dline = self.charge_dside(addr, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_emu::{BranchKind, MemRecord};
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn tight_loop_is_fast_scattered_code_is_slow() {
        let cfg = SimConfig::small();
        // Tight loop: 1000 insts in 64 bytes.
        let mut hot = CpuModel::new(cfg.clone());
        for i in 0..1000u64 {
            hot.on_inst(0x400000 + (i % 16) * 4, 4);
        }
        // Scattered: 1000 insts spread over 4MB.
        let mut cold = CpuModel::new(cfg);
        for i in 0..1000u64 {
            cold.on_inst(0x400000 + (i * 4099) % (4 << 20), 4);
        }
        let h = hot.counters();
        let c = cold.counters();
        assert!(h.cycles < c.cycles, "locality must be rewarded");
        assert!(h.l1i_misses < c.l1i_misses);
        assert!(h.itlb_misses < c.itlb_misses);
        assert!(c.llc_misses > 0, "scattered code spills past LLC");
    }

    #[test]
    fn branch_penalty_counted() {
        let cfg = SimConfig::small();
        let mut m = CpuModel::new(cfg);
        let base = m.counters().cycles;
        for i in 0..64u64 {
            m.on_branch(BranchEvent {
                from: 0x400000,
                to: 0x400100,
                taken: i % 2 == 0, // alternation takes time to learn
                kind: BranchKind::Cond,
            });
        }
        let c = m.counters();
        assert!(c.branch_mispredicts > 0);
        assert!(c.cycles > base);
    }

    #[test]
    fn line_straddling_data_access_touches_both_lines() {
        let cfg = SimConfig::small();
        let line = cfg.line_bytes;
        // 8-byte access entirely inside one line: one D-side access.
        let mut within = CpuModel::new(cfg.clone());
        within.on_mem(0x500000, 8, false);
        assert_eq!(within.counters().l1d_accesses, 1);

        // 8-byte access straddling a line boundary: both lines touched.
        let mut straddle = CpuModel::new(cfg.clone());
        straddle.on_mem(0x500000 + line - 4, 8, false);
        let c = straddle.counters();
        assert_eq!(c.l1d_accesses, 2, "second line accessed");
        assert_eq!(c.l1d_misses, 2, "both lines cold-miss");
        assert!(
            c.cycles > within.counters().cycles,
            "the extra line costs cycles"
        );

        // The straddling access warms *both* lines: repeating it hits.
        straddle.on_mem(0x500000 + line - 4, 8, false);
        assert_eq!(straddle.counters().l1d_misses, 2, "no new misses");

        // Writes take the same path.
        let mut w = CpuModel::new(cfg);
        w.on_mem(0x600000 + line - 1, 2, true);
        assert_eq!(w.counters().l1d_accesses, 2);
    }

    /// Builds the [`BlockEvent`] fields the emulator's translation cache
    /// would precompute for a contiguous run of instruction lengths.
    fn block_parts(entry: u64, lens: &[u8]) -> (Vec<(u64, u8)>, Vec<u64>, u32) {
        let mut fetches = Vec::new();
        let mut crossings = 0u32;
        let mut at = entry;
        for &len in lens {
            fetches.push((at, len));
            if (at >> 6) != ((at + len as u64 - 1) >> 6) {
                crossings += 1;
            }
            at += len as u64;
        }
        let mut lines = Vec::new();
        let mut line = (entry >> 6) << 6;
        while line < at {
            lines.push(line);
            line += 64;
        }
        (fetches, lines, crossings)
    }

    /// One straight-line block: entry, instruction lengths, and the
    /// memory records of one execution.
    type Block = (u64, Vec<u8>, Vec<MemRecord>);

    fn rec(inst: u32, addr: u64, len: u8, write: bool) -> MemRecord {
        MemRecord {
            inst,
            addr,
            len,
            write,
        }
    }

    /// Per-event replay with every D-side access charged in full, never
    /// through [`CpuModel::last_dline`]: the reference both `on_block`
    /// and the line memo must be invisible against.
    struct FullCharge<'a>(&'a mut CpuModel);

    impl TraceSink for FullCharge<'_> {
        fn on_inst(&mut self, addr: u64, len: u8) {
            self.0.on_inst(addr, len);
        }

        fn on_mem(&mut self, addr: u64, len: u8, _write: bool) {
            self.0
                .charge_dside(addr, addr.wrapping_add(len.max(1) as u64 - 1));
        }
    }

    /// Charges the first `count` instructions of `block` into `batched`
    /// as one `on_block` event — a truncated prefix event, as a store
    /// into text mid-block produces, when `count` is short of the block
    /// — and into `stepped` as the interleaved `on_inst`/`on_mem`
    /// sequence the step engine emits, each access charged in full.
    fn charge_both(batched: &mut CpuModel, stepped: &mut CpuModel, block: &Block, count: usize) {
        let (entry, lens, mems) = block;
        let lens = &lens[..count];
        let (fetches, lines, crossings) = block_parts(*entry, lens);
        let mems: Vec<MemRecord> = mems
            .iter()
            .copied()
            .filter(|m| (m.inst as usize) < count)
            .collect();
        let ev = BlockEvent {
            entry: *entry,
            inst_count: count as u32,
            byte_len: lens.iter().map(|&l| l as u32).sum(),
            fetches: &fetches,
            lines64: &lines,
            crossings64: crossings,
            mems: &mems,
        };
        batched.on_block(ev);
        ev.replay(&mut FullCharge(stepped));
    }

    /// Everything the charging proofs compare: the full `Counters` (so
    /// `l2_misses`, `llc_misses` and `cycles` too) and the accesses of
    /// the four first-level structures, two of which `Counters` omits.
    fn observed(m: &CpuModel) -> (Counters, [u64; 4]) {
        let accesses = [&m.itlb, &m.l1i, &m.dtlb, &m.l1d].map(|c| c.accesses);
        (m.counters(), accesses)
    }

    /// Few enough sets everywhere that a handful of lines collide at
    /// every level: direct-mapped two-line L1I, a single-line L1D (every
    /// change of D-side line misses), L2 of 2 sets x 2 ways and LLC of
    /// 4 sets x 2 ways shared by both sides.
    fn aliasing_cfg() -> SimConfig {
        SimConfig {
            l1i_bytes: 128,
            l1i_ways: 1,
            l1d_bytes: 64,
            l1d_ways: 1,
            l2_bytes: 256,
            l2_ways: 2,
            llc_bytes: 512,
            llc_ways: 2,
            ..SimConfig::small()
        }
    }

    /// The batched `on_block` must charge byte-identically to replaying
    /// `on_inst` per fetch — including line crossings, page boundaries,
    /// and the bulk-counted repeat accesses — and leave the same cache
    /// state behind (a second run over the same block stays identical).
    #[test]
    fn batched_block_equals_per_inst_charging() {
        for (entry, lens) in [
            (0x400000u64, vec![4u8; 12]),       // within one line
            (0x40003Du64, vec![7, 7, 7, 2, 3]), // line crossing mid-block
            (0x400FF0u64, vec![4; 16]),         // page + line boundary
            (0x400FFDu64, vec![7]),             // single straddling inst
        ] {
            let block = (entry, lens, Vec::new());
            let mut batched = CpuModel::new(SimConfig::small());
            let mut stepped = CpuModel::new(SimConfig::small());
            for round in 0..2 {
                charge_both(&mut batched, &mut stepped, &block, block.1.len());
                assert_eq!(
                    observed(&batched),
                    observed(&stepped),
                    "entry {entry:#x} round {round}"
                );
            }
        }
    }

    /// Events carrying memory records must charge byte-identically to
    /// replaying the interleaved `on_inst`/`on_mem` sequence, across
    /// same-line D-side runs, line-crossing accesses, page boundaries,
    /// repeated executions of the same block (identical cache-state
    /// evolution), and L1I misses whose L2/LLC walks contend with the
    /// D-side's.
    #[test]
    fn batched_superblock_equals_interleaved_charging() {
        let cfg = SimConfig::small();
        let mut cases: Vec<Block> = vec![
            // Same-line D-side run (push/pop pattern).
            (
                0x400000,
                vec![4u8; 8],
                vec![
                    rec(1, 0x7FFF_0000, 8, true),
                    rec(2, 0x7FFF_0008, 8, false),
                    rec(3, 0x7FFF_0010, 8, true),
                    rec(6, 0x7FFF_0010, 8, false),
                ],
            ),
            // Crossing D access mid-run, then a same-line repeat.
            (
                0x40003D,
                vec![7, 7, 7, 2, 3],
                vec![
                    rec(0, 0x50003C, 8, false),
                    rec(1, 0x500038, 8, true),
                    rec(4, 0x500038, 8, false),
                ],
            ),
            // Page-straddling fetches with interleaved scattered mems.
            (
                0x400FF0,
                vec![4; 16],
                vec![
                    rec(0, 0x600000, 8, false),
                    rec(5, 0x600FFC, 8, true), // crosses line and page
                    rec(5, 0x600FFC, 8, false),
                    rec(15, 0x600000, 8, true),
                ],
            ),
            // Every instruction touches memory (worst case).
            (
                0x400100,
                vec![7; 6],
                (0..6)
                    .map(|i| rec(i, 0x500000 + (i as u64 % 2) * 8, 8, i % 2 == 0))
                    .collect(),
            ),
        ];
        // Alternating-line patterns: stack-vs-data in distinct sets and
        // an adversarial pair mapping to the same L1D set.
        let l1d_sets = cfg.l1d_bytes / cfg.line_bytes / cfg.l1d_ways as u64;
        for stride in [0x100, l1d_sets * 64, l1d_sets * 64 + 64] {
            cases.push((
                0x400200,
                vec![4u8; 10],
                (0..10)
                    .map(|i| rec(i, 0x600000 + (i as u64 % 2) * stride, 8, i % 3 == 0))
                    .collect(),
            ));
        }
        for block in &cases {
            let mut batched = CpuModel::new(cfg.clone());
            let mut stepped = CpuModel::new(cfg.clone());
            for round in 0..3 {
                charge_both(&mut batched, &mut stepped, block, block.1.len());
                assert_eq!(
                    observed(&batched),
                    observed(&stepped),
                    "entry {:#x} round {round}",
                    block.0
                );
            }
        }

        // Both sides contending for L2 and LLC. Twenty-four 7-byte
        // instructions from 0x400030 span four lines, A0..A3, first
        // reached by fetches 0, 2, 11 and 20; A0/A2 and A1/A3 share a
        // direct-mapped L1I set, so all four miss on every execution.
        // D0/D2 share L2 set 0 and LLC set 0 with A0 (A2 is in that L2
        // set too), D1/D3 share L2 set 1 and LLC set 1 with A1 (and A3
        // that L2 set): 4 lines per 2-way L2 set, 3 per 2-way LLC set.
        // The L1I misses land before (A0), between (A1, A2) and after
        // (A3) the D-side misses of one execution; the prefixes move
        // the end of the event across every one of those positions.
        let (d0, d1, d2, d3) = (0x50_0000, 0x50_0040, 0x50_0100, 0x50_0140);
        let block: Block = (
            0x40_0030,
            vec![7u8; 24],
            vec![
                rec(0, d0, 8, false),
                rec(1, d1, 8, true),
                rec(2, d0 + 8, 8, false),
                rec(5, d2, 8, false),
                rec(11, d0, 8, true),
                rec(12, d3, 8, false),
                rec(15, d2 + 0x3C, 8, false), // crosses into the next line
                rec(19, d1, 8, false),
                rec(23, d0, 8, true),
            ],
        );
        let cfg = aliasing_cfg();
        let mut batched = CpuModel::new(cfg.clone());
        let mut stepped = CpuModel::new(cfg.clone());
        // The same accesses with every fetch ahead of every memory
        // record: what charging the I-side walks up front would compute.
        let mut hoisted = CpuModel::new(cfg);
        let full = block.1.len();
        for count in [full; 4].into_iter().chain(1..=full) {
            charge_both(&mut batched, &mut stepped, &block, count);
            assert_eq!(
                observed(&batched),
                observed(&stepped),
                "aliasing block, first {count} instructions"
            );
            let (fetches, _, _) = block_parts(block.0, &block.1[..count]);
            for &(addr, len) in &fetches {
                hoisted.on_inst(addr, len);
            }
            for m in block.2.iter().filter(|m| (m.inst as usize) < count) {
                hoisted.on_mem(m.addr, m.len, m.write);
            }
        }
        let (c, h) = (stepped.counters(), hoisted.counters());
        assert!(c.l1i_misses >= 4 * 4 && c.l1d_misses >= 4 * 9);
        assert!(
            (c.l2_misses, c.llc_misses) != (h.l2_misses, h.llc_misses),
            "the case must tell program order from I-side-first order"
        );
    }

    /// A random block: an entry in one of a few code regions whose lines
    /// collide under both configs (one region straddles a page), 1-15
    /// byte instructions, and memory records over a small pool of lines
    /// (same-line runs, L2/LLC aliases of the code, a page end, line- and
    /// page-crossing accesses), sorted by instruction as the engines
    /// emit them.
    fn block_strategy() -> impl Strategy<Value = Block> {
        const CODE: [u64; 4] = [0x40_0000, 0x40_0080, 0x40_0FC0, 0x48_0000];
        const DATA: [u64; 6] = [
            0x50_0000,
            0x50_0040,
            0x50_0100,
            0x50_0140,
            0x50_0FC0,
            0x7FFF_0000,
        ];
        (
            (0usize..CODE.len(), 0u64..64),
            collection::vec(1u8..=15, 1..40),
            collection::vec(
                (
                    0u32..40,
                    0usize..DATA.len(),
                    0u64..64,
                    0u32..4,
                    any::<bool>(),
                ),
                0..30,
            ),
        )
            .prop_map(|((region, offset), lens, raw)| {
                let mut mems: Vec<MemRecord> = raw
                    .into_iter()
                    .map(|(inst, line, at, width, write)| {
                        rec(inst % lens.len() as u32, DATA[line] + at, 1 << width, write)
                    })
                    .collect();
                mems.sort_by_key(|m| m.inst);
                (CODE[region] + offset, lens, mems)
            })
    }

    /// A block whose D-side stream is mostly same-line repeats and
    /// line-crossing accesses: each record stays in the previous
    /// record's line three times in four, over three adjacent lines
    /// around a 4 KiB page boundary, at offsets bunched at the end of the
    /// line so that most accesses wider than a byte cross into the next.
    fn dside_block_strategy() -> impl Strategy<Value = Block> {
        const LINES: [u64; 3] = [0x50_0FC0, 0x50_1000, 0x50_1040];
        const OFFSETS: [u64; 8] = [0, 8, 24, 56, 57, 60, 62, 63];
        (
            0u64..64,
            collection::vec(1u8..=15, 1..24),
            collection::vec(
                (0u32..4, 0usize..3, 0usize..8, 0u32..4, any::<bool>()),
                1..48,
            ),
        )
            .prop_map(|(offset, lens, raw)| {
                let mut line = LINES[0];
                let per_inst = raw.len().div_ceil(lens.len());
                let mems = raw
                    .into_iter()
                    .enumerate()
                    .map(|(k, (stay, pick, at, width, write))| {
                        if stay == 0 {
                            line = LINES[pick];
                        }
                        let inst = (k / per_inst) as u32;
                        rec(inst, line + OFFSETS[at], 1 << width, write)
                    })
                    .collect();
                (0x40_0000 + offset, lens, mems)
            })
    }

    /// One two-way L1D set, and pages no bigger than lines: every line
    /// competes for the same two ways, so the second line of a crossing
    /// access demotes the first, and every crossing access crosses a
    /// page as well.
    fn one_set_cfg() -> SimConfig {
        SimConfig {
            l1d_bytes: 128,
            l1d_ways: 2,
            page_bytes: 64,
            ..SimConfig::small()
        }
    }

    /// Charges `blocks` one after another into one model — so every
    /// event starts from the cache state the previous ones left — and
    /// checks it against the full per-event replay after every event.
    /// One event in four (`cut == 0`) is a truncated prefix.
    fn charges_exactly(
        (name, cfg): (&str, SimConfig),
        blocks: &[(Block, usize)],
    ) -> Result<(), TestCaseError> {
        let mut batched = CpuModel::new(cfg.clone());
        let mut stepped = CpuModel::new(cfg);
        for (i, (block, cut)) in blocks.iter().enumerate() {
            let full = block.1.len();
            let count = if *cut == 0 { full.div_ceil(2) } else { full };
            charge_both(&mut batched, &mut stepped, block, count);
            prop_assert_eq!(
                observed(&batched),
                observed(&stepped),
                "{} config, after event {} of {:?}",
                name,
                i,
                blocks
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any sequence of blocks equals its interleaved replay after
        /// every event, under the test preset and under a hierarchy
        /// small enough that both sides keep missing into L2/LLC.
        #[test]
        fn batched_blocks_equal_interleaved_charging_on_random_sequences(
            aliasing in any::<bool>(),
            blocks in collection::vec((block_strategy(), 0usize..4), 1..12),
        ) {
            let cfg = if aliasing {
                ("aliasing", aliasing_cfg())
            } else {
                ("small", SimConfig::small())
            };
            charges_exactly(cfg, &blocks)?;
        }

        /// The D-side line memo is exact where it is fragile: streams of
        /// same-line repeats broken by line- and page-crossing accesses,
        /// under both presets, [`one_set_cfg`], and pages half a line
        /// long (where the memo must stay off).
        #[test]
        fn dside_line_memo_equals_full_charging(
            cfg in 0usize..4,
            blocks in collection::vec((dside_block_strategy(), 0usize..4), 1..8),
        ) {
            let cfg = [
                ("server", SimConfig::server()),
                ("small", SimConfig::small()),
                ("one-set", one_set_cfg()),
                ("half-line pages", SimConfig { page_bytes: 32, ..SimConfig::small() }),
            ][cfg].clone();
            charges_exactly(cfg, &blocks)?;
        }
    }

    #[test]
    fn counters_merge_sums_fields() {
        let cfg = SimConfig::small();
        let mut a = CpuModel::new(cfg.clone());
        for i in 0..100u64 {
            a.on_inst(0x400000 + i * 64, 4);
        }
        a.on_mem(0x500000, 8, false);
        let mut b = CpuModel::new(cfg);
        for i in 0..50u64 {
            b.on_inst(0x700000 + i * 64, 4);
        }
        let (ca, cb) = (a.counters(), b.counters());
        let mut m = ca;
        m.merge(&cb);
        assert_eq!(m.instructions, 150);
        assert_eq!(m.l1i_misses, ca.l1i_misses + cb.l1i_misses);
        assert_eq!(m.l1d_accesses, ca.l1d_accesses);
        assert!((m.cycles - (ca.cycles + cb.cycles)).abs() < 1e-9);
        // Sum over an iterator agrees, and order does not matter.
        let s1: Counters = [ca, cb].iter().sum();
        let s2: Counters = [cb, ca].iter().sum();
        assert_eq!(s1, m);
        assert_eq!(s2, m);
        // Merging the default is the identity.
        let mut id = ca;
        id.merge(&Counters::default());
        assert_eq!(id, ca);
    }

    #[test]
    fn counters_artifact_round_trip_and_bit_flip_rejection() {
        let cfg = SimConfig::small();
        let mut model = CpuModel::new(cfg);
        for i in 0..200u64 {
            model.on_inst(0x400000 + i * 8, 4);
            if i % 3 == 0 {
                model.on_mem(0x500000 + i * 64, 8, i % 2 == 0);
            }
        }
        let c = model.counters();
        let bytes = c.to_artifact();
        let back = Counters::from_artifact(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_artifact(), bytes, "canonical encoding");
        // Payload length is exact: slack and truncation both reject.
        let payload = c.to_bytes();
        assert!(Counters::from_bytes(&payload[..payload.len() - 1]).is_err());
        let mut slack = payload.clone();
        slack.push(0);
        assert!(Counters::from_bytes(&slack).is_err());
        // Any single bit flip in the framed artifact is rejected.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            assert!(Counters::from_artifact(&bad).is_err(), "flip byte {i}");
        }
    }

    #[test]
    fn counters_reduction_math() {
        assert!((Counters::reduction(100, 80) - 20.0).abs() < 1e-9);
        assert_eq!(Counters::reduction(0, 5), 0.0);
        let a = Counters {
            cycles: 120.0,
            ..Counters::default()
        };
        let b = Counters {
            cycles: 100.0,
            ..Counters::default()
        };
        assert!((a.speedup_over(&b) - 20.0).abs() < 1e-9);
    }
}
