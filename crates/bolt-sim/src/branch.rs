//! Branch prediction: gshare direction predictor + BTB + return-address
//! stack.

use bolt_emu::{BranchEvent, BranchKind};

/// The outcome of observing one branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchOutcome {
    /// The direction or target was predicted wrong (full pipeline flush).
    pub mispredicted: bool,
    /// The direction was right but the taken target was absent from the
    /// BTB (front-end fetch redirect — cheaper than a flush, and the
    /// mechanism that ties branch cost to code layout: fall-throughs never
    /// need the BTB).
    pub btb_fetch_miss: bool,
}

impl BranchOutcome {
    /// Whether anything went wrong at all.
    pub fn missed(self) -> bool {
        self.mispredicted || self.btb_fetch_miss
    }
}

const RAS_ENTRIES: usize = 32;

/// A gshare conditional-branch direction predictor with a branch target
/// buffer for indirect targets and a return-address stack.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    /// 2-bit saturating counters.
    pht: Vec<u8>,
    history: u64,
    history_bits: u32,
    /// BTB: (tag, target) per entry, direct-mapped.
    btb: Vec<(u64, u64)>,
    /// Return-address stack: a ring holding the `ras_len` most recent
    /// unreturned call sites, the newest at `ras_top - 1` (mod the
    /// size), so a call deeper than the ring overwrites the oldest.
    ras: [u64; RAS_ENTRIES],
    ras_top: usize,
    ras_len: usize,
    pub cond_branches: u64,
    pub cond_mispredicts: u64,
    pub btb_fetch_misses: u64,
    pub ind_branches: u64,
    pub ind_mispredicts: u64,
    pub returns: u64,
    pub return_mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `2^history_bits` PHT entries and
    /// `btb_entries` BTB slots.
    pub fn new(history_bits: u32, btb_entries: usize) -> BranchPredictor {
        assert!(btb_entries.is_power_of_two());
        BranchPredictor {
            pht: vec![1; 1 << history_bits], // weakly not-taken
            history: 0,
            history_bits,
            btb: vec![(u64::MAX, 0); btb_entries],
            ras: [0; RAS_ENTRIES],
            ras_top: 0,
            ras_len: 0,
            cond_branches: 0,
            cond_mispredicts: 0,
            btb_fetch_misses: 0,
            ind_branches: 0,
            ind_mispredicts: 0,
            returns: 0,
            return_mispredicts: 0,
        }
    }

    fn pht_index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.history_bits) - 1;
        (((pc >> 1) ^ self.history) & mask) as usize
    }

    fn btb_index(&self, pc: u64) -> usize {
        (pc as usize >> 1) & (self.btb.len() - 1)
    }

    /// Consumes one branch event, updating state and counters.
    pub fn observe(&mut self, ev: BranchEvent) -> BranchOutcome {
        match ev.kind {
            BranchKind::Cond => {
                self.cond_branches += 1;
                let idx = self.pht_index(ev.from);
                let predict_taken = self.pht[idx] >= 2;
                let mispredicted = predict_taken != ev.taken;
                // A correctly predicted *taken* branch still needs its
                // target from the BTB; a cold BTB entry costs a fetch
                // redirect. Fall-throughs never touch the BTB — this is
                // what ties branch cost to code layout.
                let btb_fetch_miss =
                    ev.taken && !mispredicted && !self.btb_probe_update(ev.from, ev.to);
                if ev.taken {
                    self.pht[idx] = (self.pht[idx] + 1).min(3);
                    if mispredicted {
                        self.btb_probe_update(ev.from, ev.to);
                    }
                } else {
                    self.pht[idx] = self.pht[idx].saturating_sub(1);
                }
                self.history =
                    ((self.history << 1) | u64::from(ev.taken)) & ((1 << self.history_bits) - 1);
                if mispredicted {
                    self.cond_mispredicts += 1;
                }
                if btb_fetch_miss {
                    self.btb_fetch_misses += 1;
                }
                BranchOutcome {
                    mispredicted,
                    btb_fetch_miss,
                }
            }
            BranchKind::Uncond => {
                // Unconditional direct jumps also occupy BTB entries.
                let miss = !self.btb_probe_update(ev.from, ev.to);
                if miss {
                    self.btb_fetch_misses += 1;
                }
                BranchOutcome {
                    mispredicted: false,
                    btb_fetch_miss: miss,
                }
            }
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                self.ind_branches += 1;
                let idx = self.btb_index(ev.from);
                let (tag, target) = self.btb[idx];
                let mispredicted = tag != ev.from || target != ev.to;
                self.btb[idx] = (ev.from, ev.to);
                if ev.kind == BranchKind::IndirectCall {
                    self.push_ras(ev.from);
                }
                if mispredicted {
                    self.ind_mispredicts += 1;
                }
                BranchOutcome {
                    mispredicted,
                    btb_fetch_miss: false,
                }
            }
            BranchKind::Call => {
                self.push_ras(ev.from);
                BranchOutcome::default()
            }
            BranchKind::Return => {
                self.returns += 1;
                // A return is predicted correctly iff the RAS top matches
                // the call site it returns past.
                let predicted = self.pop_ras();
                // `ev.to` is the return address = call site + call length;
                // accept any target within 16 bytes of the recorded call.
                let ok = predicted
                    .map(|call_pc| ev.to.wrapping_sub(call_pc) <= 16)
                    .unwrap_or(false);
                if !ok {
                    self.return_mispredicts += 1;
                }
                BranchOutcome {
                    mispredicted: !ok,
                    btb_fetch_miss: false,
                }
            }
        }
    }

    /// Probes and updates the BTB; returns `true` on hit.
    fn btb_probe_update(&mut self, pc: u64, target: u64) -> bool {
        let idx = self.btb_index(pc);
        let hit = self.btb[idx] == (pc, target);
        self.btb[idx] = (pc, target);
        hit
    }

    fn push_ras(&mut self, call_pc: u64) {
        self.ras[self.ras_top] = call_pc;
        self.ras_top = (self.ras_top + 1) % RAS_ENTRIES;
        self.ras_len = (self.ras_len + 1).min(RAS_ENTRIES);
    }

    fn pop_ras(&mut self) -> Option<u64> {
        if self.ras_len == 0 {
            return None;
        }
        self.ras_len -= 1;
        self.ras_top = (self.ras_top + RAS_ENTRIES - 1) % RAS_ENTRIES;
        Some(self.ras[self.ras_top])
    }

    /// Total mispredictions across branch classes (flushes only, not BTB
    /// fetch redirects).
    pub fn total_mispredicts(&self) -> u64 {
        self.cond_mispredicts + self.ind_mispredicts + self.return_mispredicts
    }

    /// All branch-steering misses: flushes plus BTB fetch redirects (the
    /// "branch miss" metric of paper Figure 6).
    pub fn total_steering_misses(&self) -> u64 {
        self.total_mispredicts() + self.btb_fetch_misses
    }

    /// Conditional-branch misprediction rate.
    pub fn cond_miss_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }
}

impl Default for BranchPredictor {
    fn default() -> BranchPredictor {
        BranchPredictor::new(14, 4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(from: u64, taken: bool) -> BranchEvent {
        BranchEvent {
            from,
            to: if taken { from + 100 } else { from + 2 },
            taken,
            kind: BranchKind::Cond,
        }
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut p = BranchPredictor::default();
        for _ in 0..100 {
            p.observe(cond(0x400000, true));
        }
        // Each distinct history pattern during warm-up costs one miss;
        // with 14 history bits that is at most ~15 before saturation.
        assert!(
            p.cond_mispredicts <= 16,
            "biased branch learned after warm-up ({} misses)",
            p.cond_mispredicts
        );
        // And the steady state is perfect: run another 100.
        let warm = p.cond_mispredicts;
        for _ in 0..100 {
            p.observe(cond(0x400000, true));
        }
        assert_eq!(p.cond_mispredicts, warm, "steady state never mispredicts");
    }

    #[test]
    fn alternating_pattern_learned_via_history() {
        let mut p = BranchPredictor::default();
        for i in 0..200 {
            p.observe(cond(0x400000, i % 2 == 0));
        }
        // gshare encodes the alternation in the history; late mispredicts
        // should be rare.
        assert!(
            p.cond_mispredicts < 40,
            "history-based learning ({} misses)",
            p.cond_mispredicts
        );
    }

    #[test]
    fn btb_catches_stable_indirect_targets() {
        let mut p = BranchPredictor::default();
        let ev = BranchEvent {
            from: 0x400100,
            to: 0x400800,
            taken: true,
            kind: BranchKind::IndirectJump,
        };
        p.observe(ev); // cold miss
        for _ in 0..10 {
            assert!(!p.observe(ev).mispredicted, "stable target predicted");
        }
        // Changing target mispredicts once.
        let ev2 = BranchEvent { to: 0x400900, ..ev };
        assert!(p.observe(ev2).mispredicted);
        assert_eq!(p.ind_mispredicts, 2);
    }

    #[test]
    fn ras_pairs_calls_and_returns() {
        let mut p = BranchPredictor::default();
        p.observe(BranchEvent {
            from: 0x400000,
            to: 0x400500,
            taken: true,
            kind: BranchKind::Call,
        });
        let mis = p.observe(BranchEvent {
            from: 0x400510,
            to: 0x400005, // returns right after the call
            taken: true,
            kind: BranchKind::Return,
        });
        assert!(!mis.mispredicted, "matched return predicted");
        // Unbalanced return mispredicts.
        let mis = p.observe(BranchEvent {
            from: 0x400520,
            to: 0x400005,
            taken: true,
            kind: BranchKind::Return,
        });
        assert!(mis.mispredicted);
    }

    /// The RAS keeps the 32 innermost call sites: recursion 40 deep
    /// overwrites the 8 outermost, and exactly those returns mispredict.
    #[test]
    fn ras_overflow_loses_exactly_the_outermost_returns() {
        let mut p = BranchPredictor::default();
        let site = |depth: u64| 0x400000 + depth * 0x100;
        for depth in 0..40 {
            p.observe(BranchEvent {
                from: site(depth),
                to: site(depth + 1),
                taken: true,
                kind: BranchKind::Call,
            });
        }
        for depth in (0..40).rev() {
            let outcome = p.observe(BranchEvent {
                from: site(depth + 1) + 0x40,
                to: site(depth) + 5,
                taken: true,
                kind: BranchKind::Return,
            });
            assert_eq!(outcome.mispredicted, depth < 8, "return to depth {depth}");
        }
        assert_eq!((p.returns, p.return_mispredicts), (40, 8));
    }
}
