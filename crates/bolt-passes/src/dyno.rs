//! `dyno-stats`: profile-weighted dynamic statistics (paper Table 2).
//!
//! These are the metrics BOLT prints with `-dyno-stats`: estimated dynamic
//! counts computed from the CFG and its edge/block profile — so the same
//! profile evaluated against two layouts shows how many taken branches
//! the layout avoided.

use bolt_ir::{BinaryContext, BinaryFunction};
use bolt_isa::Inst;
use std::fmt;

/// Profile-weighted dynamic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynoStats {
    pub executed_instructions: u64,
    pub executed_forward_branches: u64,
    pub taken_forward_branches: u64,
    pub executed_backward_branches: u64,
    pub taken_backward_branches: u64,
    pub executed_unconditional_branches: u64,
    pub total_branches: u64,
    pub taken_branches: u64,
    pub non_taken_conditional_branches: u64,
    pub taken_conditional_branches: u64,
    pub executed_calls: u64,
}

impl DynoStats {
    /// Percentage change of `self` relative to `base` for each metric
    /// (negative = reduction), formatted like paper Table 2.
    pub fn delta_report(&self, base: &DynoStats) -> String {
        fn pct(new: u64, old: u64) -> String {
            if old == 0 {
                return "    n/a".to_string();
            }
            let d = 100.0 * (new as f64 - old as f64) / old as f64;
            format!("{d:+7.1}%")
        }
        let rows = [
            (
                "executed forward branches",
                self.executed_forward_branches,
                base.executed_forward_branches,
            ),
            (
                "taken forward branches",
                self.taken_forward_branches,
                base.taken_forward_branches,
            ),
            (
                "executed backward branches",
                self.executed_backward_branches,
                base.executed_backward_branches,
            ),
            (
                "taken backward branches",
                self.taken_backward_branches,
                base.taken_backward_branches,
            ),
            (
                "executed unconditional branches",
                self.executed_unconditional_branches,
                base.executed_unconditional_branches,
            ),
            (
                "executed instructions",
                self.executed_instructions,
                base.executed_instructions,
            ),
            ("total branches", self.total_branches, base.total_branches),
            ("taken branches", self.taken_branches, base.taken_branches),
            (
                "non-taken conditional branches",
                self.non_taken_conditional_branches,
                base.non_taken_conditional_branches,
            ),
            (
                "taken conditional branches",
                self.taken_conditional_branches,
                base.taken_conditional_branches,
            ),
        ];
        let mut out = String::new();
        for (name, new, old) in rows {
            out.push_str(&format!("{:<34} {}\n", name, pct(new, old)));
        }
        out
    }

    /// Relative change of taken branches (the headline Table 2 number).
    pub fn taken_branch_delta(&self, base: &DynoStats) -> f64 {
        if base.taken_branches == 0 {
            0.0
        } else {
            100.0 * (self.taken_branches as f64 - base.taken_branches as f64)
                / base.taken_branches as f64
        }
    }
}

impl std::ops::Add for DynoStats {
    type Output = DynoStats;
    fn add(self, o: DynoStats) -> DynoStats {
        DynoStats {
            executed_instructions: self.executed_instructions + o.executed_instructions,
            executed_forward_branches: self.executed_forward_branches + o.executed_forward_branches,
            taken_forward_branches: self.taken_forward_branches + o.taken_forward_branches,
            executed_backward_branches: self.executed_backward_branches
                + o.executed_backward_branches,
            taken_backward_branches: self.taken_backward_branches + o.taken_backward_branches,
            executed_unconditional_branches: self.executed_unconditional_branches
                + o.executed_unconditional_branches,
            total_branches: self.total_branches + o.total_branches,
            taken_branches: self.taken_branches + o.taken_branches,
            non_taken_conditional_branches: self.non_taken_conditional_branches
                + o.non_taken_conditional_branches,
            taken_conditional_branches: self.taken_conditional_branches
                + o.taken_conditional_branches,
            executed_calls: self.executed_calls + o.executed_calls,
        }
    }
}

impl fmt::Display for DynoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "executed instructions : {}", self.executed_instructions)?;
        writeln!(f, "taken branches        : {}", self.taken_branches)?;
        writeln!(f, "total branches        : {}", self.total_branches)?;
        writeln!(f, "executed calls        : {}", self.executed_calls)
    }
}

/// Computes stats for one function under its current layout and profile.
pub fn function_dyno_stats(func: &BinaryFunction) -> DynoStats {
    let mut s = DynoStats::default();
    // Layout position of each block (for forward/backward classification).
    let mut pos = vec![usize::MAX; func.blocks.len()];
    for (i, b) in func.layout.iter().enumerate() {
        pos[b.index()] = i;
    }
    for (i, &id) in func.layout.iter().enumerate() {
        let b = func.block(id);
        let exec = b.exec_count;
        s.executed_instructions += exec * b.insts.len() as u64;
        if exec > 0 {
            let calls = b.insts.iter().filter(|i| i.inst.is_call()).count();
            s.executed_calls += exec * calls as u64;
        }
        let Some(term) = b.terminator() else {
            continue;
        };
        match term.inst {
            Inst::Jcc { .. } => {
                let taken = b.succs.first().map(|e| e.count).unwrap_or(0);
                let fall = b.succs.get(1).map(|e| e.count).unwrap_or(0);
                let executed = taken + fall;
                let target_pos = b
                    .succs
                    .first()
                    .map(|e| pos[e.block.index()])
                    .unwrap_or(usize::MAX);
                let forward = target_pos > i;
                s.total_branches += executed;
                s.taken_branches += taken;
                s.taken_conditional_branches += taken;
                s.non_taken_conditional_branches += fall;
                if forward {
                    s.executed_forward_branches += executed;
                    s.taken_forward_branches += taken;
                } else {
                    s.executed_backward_branches += executed;
                    s.taken_backward_branches += taken;
                }
            }
            Inst::Jmp { .. } | Inst::JmpInd { .. } => {
                s.executed_unconditional_branches += exec;
                s.total_branches += exec;
                s.taken_branches += exec;
            }
            _ => {}
        }
    }
    s
}

/// Aggregates stats across all live simple functions.
pub fn context_dyno_stats(ctx: &BinaryContext) -> DynoStats {
    let mut total = DynoStats::default();
    for f in &ctx.functions {
        if f.is_simple && f.folded_into.is_none() {
            total = total + function_dyno_stats(f);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_ir::{edges, BasicBlock, BlockId};
    use bolt_isa::{Cond, JumpWidth, Label, Target};

    /// b0 (100 exec): jcc-> b2 (70 taken), fall b1 (30); b1: jmp b2;
    /// b2: ret.
    fn profiled_func() -> BinaryFunction {
        let mut f = BinaryFunction::new("f", 0x1000);
        f.exec_count = 100;
        for _ in 0..3 {
            f.add_block(BasicBlock::new());
        }
        f.block_mut(BlockId(0)).exec_count = 100;
        f.block_mut(BlockId(0)).push(Inst::Jcc {
            cond: Cond::E,
            target: Target::Label(Label(2)),
            width: JumpWidth::Near,
        });
        f.block_mut(BlockId(0)).succs = edges(&[(2, 70), (1, 30)]);
        f.block_mut(BlockId(1)).exec_count = 30;
        f.block_mut(BlockId(1)).push(Inst::Jmp {
            target: Target::Label(Label(2)),
            width: JumpWidth::Near,
        });
        f.block_mut(BlockId(1)).succs = edges(&[(2, 30)]);
        f.block_mut(BlockId(2)).exec_count = 100;
        f.block_mut(BlockId(2)).push(Inst::Ret);
        f.rebuild_preds();
        f
    }

    #[test]
    fn counts_match_profile() {
        let s = function_dyno_stats(&profiled_func());
        assert_eq!(s.taken_conditional_branches, 70);
        assert_eq!(s.non_taken_conditional_branches, 30);
        assert_eq!(s.executed_unconditional_branches, 30);
        assert_eq!(s.taken_branches, 100);
        assert_eq!(s.total_branches, 130);
        assert_eq!(s.executed_forward_branches, 100);
        assert_eq!(s.executed_backward_branches, 0);
    }

    #[test]
    fn better_layout_reduces_taken_branches() {
        // Same CFG, but layout [0, 2, 1]: the hot edge becomes the
        // fall-through after fixup.
        let mut f = profiled_func();
        f.layout = vec![BlockId(0), BlockId(2), BlockId(1)];
        crate::fixup::fixup_function(&mut f);
        let optimized = function_dyno_stats(&f);
        let baseline = function_dyno_stats(&profiled_func());
        assert!(
            optimized.taken_branches < baseline.taken_branches,
            "{} < {}",
            optimized.taken_branches,
            baseline.taken_branches
        );
        assert!(optimized.taken_branch_delta(&baseline) < -30.0);
    }

    #[test]
    fn delta_report_formats() {
        let base = function_dyno_stats(&profiled_func());
        let report = base.delta_report(&base);
        assert!(report.contains("taken branches"));
        assert!(report.contains("+0.0%"));
    }
}
