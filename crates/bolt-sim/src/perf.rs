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
            cfg,
        }
    }

    fn miss_path(&mut self, addr: u64, from_l1i: bool) -> f64 {
        // L1 missed; walk L2 -> LLC -> memory.
        let _ = from_l1i;
        if self.l2.access(addr) {
            self.cfg.l2_latency
        } else if self.llc.access(addr) {
            self.cfg.l2_latency + self.cfg.llc_latency
        } else {
            self.cfg.l2_latency + self.cfg.llc_latency + self.cfg.mem_latency
        }
    }

    /// The interleaved-walk half of [`TraceSink::on_block`]: charges a
    /// superblock event whose fetch and memory records interleave by
    /// instruction index, in exact program order. First touches of
    /// I-side pages/lines are probed at their step-engine positions
    /// (so shared L2/LLC levels see the same probe order); repeat
    /// fetches and consecutive same-line D-side accesses — guaranteed
    /// most-recently-used hits whose re-stamp cannot change any LRU
    /// decision — are bulk-counted without a cache walk.
    fn on_superblock(&mut self, ev: BlockEvent<'_>) {
        // Same-line ⇒ same-page needs pages no smaller than lines.
        if self.cfg.page_bytes < 64 {
            ev.replay(self);
            return;
        }
        self.instructions += ev.inst_count as u64;
        let page_mask = !(self.cfg.page_bytes - 1);
        // Last-probed I-side line/page (fetches ascend, so `!=` means
        // first touch); invalid sentinels make the first fetch probe.
        let mut cur_line = u64::MAX;
        let mut cur_page = u64::MAX;
        let mut itlb_bulk = 0u64;
        let mut l1i_bulk = 0u64;
        // Two-slot memo of recently *charged* non-crossing D-side lines
        // (`d1` newest). A repeat of `d1` is a guaranteed
        // most-recently-used hit in both L1D and dTLB. A repeat of `d2`
        // is equally guaranteed when `d1` provably lives in a different
        // L1D set and a different dTLB set — then `d2` is still the
        // newest access within each of its own sets, and skipping its
        // re-stamp cannot change any LRU decision (recency *order*
        // within every set is preserved). This covers the alternating
        // stack-line/data-line pattern of typical straight-line code.
        let mut d1 = u64::MAX;
        let mut d2 = u64::MAX;
        let l1d_set_mask = (self.l1d.sets() - 1) as u64;
        let dtlb_set_mask = (self.dtlb.sets() - 1) as u64;
        let page_shift = self.cfg.page_bytes.trailing_zeros();
        let distinct_sets = |a: u64, b: u64| {
            ((a >> 6) & l1d_set_mask) != ((b >> 6) & l1d_set_mask)
                && ((a >> page_shift) & dtlb_set_mask) != ((b >> page_shift) & dtlb_set_mask)
        };
        let mut d_bulk = 0u64;
        let mut mi = 0usize;
        for (i, &(addr, len)) in ev.fetches.iter().enumerate() {
            let page = addr & page_mask;
            if page != cur_page {
                if !self.itlb.access(page) {
                    self.extra_cycles += self.cfg.tlb_miss_latency;
                }
                cur_page = page;
            } else {
                itlb_bulk += 1;
            }
            let la = (addr >> 6) << 6;
            if la != cur_line {
                if !self.l1i.access(la) {
                    self.extra_cycles += self.miss_path(la, true);
                }
                cur_line = la;
            } else {
                l1i_bulk += 1;
            }
            let le = ((addr + len as u64 - 1) >> 6) << 6;
            if le != la {
                // A crossing fetch's second line is always a first
                // touch (lines ascend strictly once left).
                if !self.l1i.access(le) {
                    self.extra_cycles += self.miss_path(le, true);
                }
                cur_line = le;
            }
            while let Some(m) = ev.mems.get(mi) {
                if m.inst as usize != i {
                    break;
                }
                mi += 1;
                let dl = (m.addr >> 6) << 6;
                let crosses = ((m.addr + m.len.max(1) as u64 - 1) >> 6) << 6 != dl;
                if !crosses && (dl == d1 || (dl == d2 && distinct_sets(d1, d2))) {
                    d_bulk += 1;
                } else {
                    self.on_mem(m.addr, m.len, m.write);
                    if crosses {
                        // The crossing touched two lines; neither slot
                        // can claim MRU safely any more.
                        d1 = u64::MAX;
                        d2 = u64::MAX;
                    } else if dl != d1 {
                        d2 = d1;
                        d1 = dl;
                    }
                }
            }
        }
        self.itlb.accesses += itlb_bulk;
        self.l1i.accesses += l1i_bulk;
        self.l1d.accesses += d_bulk;
        self.dtlb.accesses += d_bulk;
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
            self.extra_cycles += self.miss_path(addr, true);
        }
        // A fetch crossing a line boundary touches the next line too.
        let end = addr + len as u64 - 1;
        if end >> self.cfg.line_bytes.trailing_zeros()
            != addr >> self.cfg.line_bytes.trailing_zeros()
            && !self.l1i.access(end)
        {
            self.extra_cycles += self.miss_path(end, true);
        }
    }

    /// Charges a translated block's whole footprint in one call.
    ///
    /// Byte-identical to replaying the event's interleaved
    /// [`on_inst`]/[`on_mem`] sequence. The I-side argument: a
    /// straight-line block's fetch stream touches pages and lines in
    /// monotone non-decreasing order, so every repeat access is a
    /// guaranteed most-recently-used hit with no penalty and no
    /// LRU-order effect — only the first touch of each distinct
    /// page/line can miss, and D-side accesses in between touch
    /// *different* structures (L1D/dTLB) so they cannot disturb it.
    /// Events without memory records take the pure-I-side bulk path;
    /// interleaved records are walked in exact program order (each probe lands at
    /// its step-engine position relative to the shared L2/LLC levels),
    /// with the same bulk treatment applied to repeat fetches and to
    /// consecutive same-line D-side accesses (a push/pop run, a hot
    /// spill slot) — the D-side footprint charged in bulk the way the
    /// I-side already is.
    ///
    /// [`on_inst`]: TraceSink::on_inst
    /// [`on_mem`]: TraceSink::on_mem
    #[inline]
    fn on_block(&mut self, ev: BlockEvent<'_>) {
        // The precomputed footprint models 64-byte lines; a config with
        // exotic geometry replays the exact per-instruction path.
        if self.cfg.line_bytes != 64 || self.cfg.page_bytes <= 16 || ev.fetches.is_empty() {
            ev.replay(self);
            return;
        }
        if !ev.mems.is_empty() {
            self.on_superblock(ev);
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
        for &line in ev.lines64 {
            if !self.l1i.access(line) {
                self.extra_cycles += self.miss_path(line, true);
            }
        }
        let total_accesses = ev.inst_count as u64 + ev.crossings64 as u64;
        self.l1i.accesses += total_accesses - ev.lines64.len() as u64;
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
        if !self.dtlb.access(addr) {
            self.extra_cycles += self.cfg.tlb_miss_latency;
        }
        if !self.l1d.access(addr) {
            self.extra_cycles += self.miss_path(addr, false);
        }
        // An access crossing a line boundary touches the next line too,
        // exactly like the I-side check in `on_inst`.
        let end = addr + len.max(1) as u64 - 1;
        if end >> self.cfg.line_bytes.trailing_zeros()
            != addr >> self.cfg.line_bytes.trailing_zeros()
            && !self.l1d.access(end)
        {
            self.extra_cycles += self.miss_path(end, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_emu::BranchKind;

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

    /// The batched `on_block` must charge byte-identically to replaying
    /// `on_inst` per fetch — including line crossings, page boundaries,
    /// and the bulk-counted repeat accesses.
    #[test]
    fn batched_block_equals_per_inst_charging() {
        let cfg = SimConfig::small();
        for (entry, lens) in [
            (0x400000u64, vec![4u8; 12]),       // within one line
            (0x40003Du64, vec![7, 7, 7, 2, 3]), // line crossing mid-block
            (0x400FF0u64, vec![4; 16]),         // page + line boundary
            (0x400FFDu64, vec![7]),             // single straddling inst
        ] {
            let (fetches, lines, crossings) = block_parts(entry, &lens);
            let byte_len: u32 = lens.iter().map(|&l| l as u32).sum();
            let ev = bolt_emu::BlockEvent {
                entry,
                inst_count: lens.len() as u32,
                byte_len,
                fetches: &fetches,
                lines64: &lines,
                crossings64: crossings,
                mems: &[],
            };
            let mut stepped = CpuModel::new(cfg.clone());
            for &(addr, len) in &fetches {
                stepped.on_inst(addr, len);
            }
            let mut batched = CpuModel::new(cfg.clone());
            batched.on_block(ev);
            assert_eq!(
                stepped.counters(),
                batched.counters(),
                "entry {entry:#x} lens {lens:?}"
            );
            // Internal access counts match too — including the iTLB's,
            // which `Counters` does not (yet) report.
            assert_eq!(
                stepped.itlb.accesses, batched.itlb.accesses,
                "entry {entry:#x}: iTLB accesses bulk-counted"
            );
            assert_eq!(stepped.l1i.accesses, batched.l1i.accesses);
            // And the cache state evolved identically: a follow-up run
            // over the same block stays identical too.
            for &(addr, len) in &fetches {
                stepped.on_inst(addr, len);
            }
            batched.on_block(ev);
            assert_eq!(stepped.counters(), batched.counters());
        }
    }

    /// The superblock path — interleaved fetch + memory records — must
    /// charge byte-identically to replaying the interleaved
    /// `on_inst`/`on_mem` sequence, across same-line D-side runs (the
    /// bulk memo), line-crossing accesses, page boundaries, and
    /// repeated executions of the same block (identical cache-state
    /// evolution).
    #[test]
    fn batched_superblock_equals_interleaved_charging() {
        use bolt_emu::MemRecord;
        let cfg = SimConfig::small();
        let rec = |inst: u32, addr: u64, len: u8, write: bool| MemRecord {
            inst,
            addr,
            len,
            write,
        };
        let cases: Vec<(u64, Vec<u8>, Vec<MemRecord>)> = vec![
            // Same-line D-side run (push/pop pattern): bulk memo path.
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
            // Crossing D access mid-run, then a same-line repeat whose
            // memo must have been invalidated by the crossing.
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
        // Alternating-line patterns exercising the two-slot D-side
        // memo: stack-vs-data in distinct sets (bulked) and an
        // adversarial pair mapping to the same L1D set (must charge).
        let l1d_sets = CpuModel::new(cfg.clone()).l1d.sets() as u64;
        let mut cases = cases;
        for stride in [0x100, l1d_sets * 64, l1d_sets * 64 + 64] {
            cases.push((
                0x400200,
                vec![4u8; 10],
                (0..10)
                    .map(|i| rec(i, 0x600000 + (i as u64 % 2) * stride, 8, i % 3 == 0))
                    .collect(),
            ));
        }
        for (entry, lens, mems) in cases {
            let (fetches, lines, crossings) = block_parts(entry, &lens);
            let byte_len: u32 = lens.iter().map(|&l| l as u32).sum();
            let ev = bolt_emu::BlockEvent {
                entry,
                inst_count: lens.len() as u32,
                byte_len,
                fetches: &fetches,
                lines64: &lines,
                crossings64: crossings,
                mems: &mems,
            };
            let mut stepped = CpuModel::new(cfg.clone());
            let mut batched = CpuModel::new(cfg.clone());
            for round in 0..3 {
                let mut mi = 0usize;
                for (i, &(addr, len)) in fetches.iter().enumerate() {
                    stepped.on_inst(addr, len);
                    while mi < mems.len() && mems[mi].inst as usize == i {
                        let m = mems[mi];
                        stepped.on_mem(m.addr, m.len, m.write);
                        mi += 1;
                    }
                }
                batched.on_block(ev);
                assert_eq!(
                    stepped.counters(),
                    batched.counters(),
                    "entry {entry:#x} round {round}"
                );
                assert_eq!(stepped.itlb.accesses, batched.itlb.accesses);
                assert_eq!(stepped.l1i.accesses, batched.l1i.accesses);
                assert_eq!(stepped.dtlb.accesses, batched.dtlb.accesses);
                assert_eq!(stepped.l1d.accesses, batched.l1d.accesses);
            }
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
