//! `-report-bad-layout`: finds frequently executed functions with cold
//! blocks interleaved between hot ones (paper section 6.3 / Figure 10) and
//! renders them with source attribution.

use bolt_ir::{dump_function, BinaryContext, DumpOptions};
use std::time::Duration;

/// One bad-layout occurrence.
#[derive(Debug, Clone)]
pub struct BadLayoutCase {
    pub function: String,
    pub exec_count: u64,
    /// Index (in layout) of the cold block.
    pub cold_block: usize,
    /// Distinct source files contributing blocks to the function — more
    /// than one implicates inlining (paper Figure 10).
    pub files: Vec<String>,
}

/// Scans for hot functions containing a zero-count block physically
/// between two executed blocks.
pub fn find_bad_layout(ctx: &BinaryContext) -> Vec<BadLayoutCase> {
    let mut cases = Vec::new();
    for func in &ctx.functions {
        if !func.is_simple || func.exec_count == 0 || func.layout.len() < 3 {
            continue;
        }
        for w in 0..func.layout.len().saturating_sub(2) {
            let a = func.block(func.layout[w]);
            let b = func.block(func.layout[w + 1]);
            let c = func.block(func.layout[w + 2]);
            if a.exec_count > 0 && b.exec_count == 0 && c.exec_count > 0 {
                // Collect source files represented in this function.
                let mut files: Vec<String> = Vec::new();
                for blk in func.layout.iter().map(|&i| func.block(i)) {
                    for inst in &blk.insts {
                        if let Some(li) = inst.line {
                            if let Some(name) = ctx.line_files.get(li.file as usize) {
                                if !files.contains(name) {
                                    files.push(name.clone());
                                }
                            }
                        }
                    }
                }
                cases.push(BadLayoutCase {
                    function: func.name.clone(),
                    exec_count: func.exec_count,
                    cold_block: w + 1,
                    files,
                });
                break; // one case per function is enough for the report
            }
        }
    }
    cases.sort_by_key(|c| std::cmp::Reverse(c.exec_count));
    cases
}

/// Renders the report; with `print_debug_info`, includes a Figure 10-style
/// CFG dump of the worst offender.
pub fn bad_layout_report(ctx: &BinaryContext, print_debug_info: bool) -> String {
    let cases = find_bad_layout(ctx);
    let mut out = String::new();
    out.push_str(&format!(
        "bad-layout report: {} function(s) with cold blocks between hot blocks\n",
        cases.len()
    ));
    for c in cases.iter().take(20) {
        out.push_str(&format!(
            "  {} (exec {}): cold block at layout position {}; source files: {}\n",
            c.function,
            c.exec_count,
            c.cold_block,
            c.files.join(", ")
        ));
    }
    if print_debug_info {
        if let Some(worst) = cases.first() {
            if let Some(&fi) = ctx.by_name.get(&worst.function) {
                out.push('\n');
                out.push_str(&dump_function(
                    &ctx.functions[fi],
                    Some(&ctx.line_files),
                    DumpOptions {
                        print_debug_info: true,
                    },
                ));
            }
        }
    }
    out
}

/// Renders the `-time-passes` table: per-pass wall-clock time, share of
/// the pipeline total, change count, and (when the manager collected
/// per-pass dyno stats) the pass's taken-branch delta.
pub fn timing_report(pipeline: &bolt_passes::PipelineResult) -> String {
    let total = pipeline.total_duration();
    let total_secs = total.as_secs_f64().max(f64::MIN_POSITIVE);
    let mut out = String::new();
    out.push_str("BOLT pass timing (wall clock):\n");
    out.push_str(&format!(
        "  {:<20} {:>12} {:>7} {:>10}  {}\n",
        "pass", "time", "%", "changes", "taken-branch delta"
    ));
    for r in &pipeline.reports {
        let delta = match r.taken_branch_delta() {
            Some(d) => format!("{d:+.2}%"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "  {:<20} {:>12} {:>6.1}% {:>10}  {}\n",
            r.name,
            format!("{:.3?}", r.duration),
            100.0 * r.duration.as_secs_f64() / total_secs,
            r.changes,
            delta,
        ));
    }
    out.push_str(&format!(
        "  {:<20} {:>12}\n",
        "total",
        format!("{total:.3?}")
    ));
    out
}

/// Renders the rows `-time-passes` prints under the pass table: the
/// rewrite stage (emit and link, paper Figure 3 stages 7–8) split into
/// its three steps, each with its share of the stage.
pub fn rewrite_timing_report(stats: &crate::RewriteStats) -> String {
    let total = stats.emit_time + stats.assemble_time + stats.tables_time;
    let total_secs = total.as_secs_f64().max(f64::MIN_POSITIVE);
    let mut out = String::from("BOLT rewrite timing (wall clock):\n");
    for (step, time) in [
        ("emit", stats.emit_time),
        ("elf-assembly", stats.assemble_time),
        ("table-rebuild", stats.tables_time),
    ] {
        out.push_str(&format!(
            "  {:<20} {:>12} {:>6.1}%\n",
            step,
            format!("{time:.3?}"),
            100.0 * time.as_secs_f64() / total_secs,
        ));
    }
    out.push_str(&format!(
        "  {:<20} {:>12}\n",
        "total",
        format!("{total:.3?}")
    ));
    out
}

/// Renders the rows `-time-passes` prints above the pass table: the
/// stages before the pipeline (paper Figure 3 stages 1–5) with their
/// shares, then, with `-dyno-stats`, the before and after dyno-stats
/// sweeps as a share of the pass total (`passes`).
pub fn prepare_timing_report(
    timing: &crate::PrepareTiming,
    dyno: Option<Duration>,
    passes: Duration,
) -> String {
    let total = timing.discover + timing.disasm + timing.attach;
    let total_secs = total.as_secs_f64().max(f64::MIN_POSITIVE);
    let mut out = String::from("BOLT prepare timing (wall clock):\n");
    for (stage, time) in [
        ("discover", timing.discover),
        ("disasm", timing.disasm),
        ("attach", timing.attach),
    ] {
        out.push_str(&format!(
            "  {:<20} {:>12} {:>6.1}%\n",
            stage,
            format!("{time:.3?}"),
            100.0 * time.as_secs_f64() / total_secs,
        ));
    }
    out.push_str(&format!(
        "  {:<20} {:>12}\n",
        "total",
        format!("{total:.3?}")
    ));
    if let Some(dyno) = dyno {
        let passes_secs = passes.as_secs_f64().max(f64::MIN_POSITIVE);
        out.push_str(&format!(
            "  {:<20} {:>12} {:>6.1}% of the pass total\n",
            "dyno-stats",
            format!("{dyno:.3?}"),
            100.0 * dyno.as_secs_f64() / passes_secs,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_ir::{edges, BasicBlock, BinaryFunction, BlockId};
    use bolt_isa::{Cond, Inst, JumpWidth, Label, Target};

    #[test]
    fn detects_cold_between_hot() {
        let mut ctx = BinaryContext::new();
        let mut f = BinaryFunction::new("getNext", 0x1000);
        f.exec_count = 1_723_213;
        for _ in 0..3 {
            f.add_block(BasicBlock::new());
        }
        f.block_mut(BlockId(0)).exec_count = 1_635_334;
        f.block_mut(BlockId(0)).push(Inst::Jcc {
            cond: Cond::E,
            target: Target::Label(Label(2)),
            width: JumpWidth::Near,
        });
        f.block_mut(BlockId(0)).succs = edges(&[(2, 1_635_334), (1, 0)]);
        f.block_mut(BlockId(1)).exec_count = 0; // the interleaved cold block
        f.block_mut(BlockId(1)).push(Inst::Nop { len: 1 });
        f.block_mut(BlockId(1)).succs = edges(&[(2, 0)]);
        f.block_mut(BlockId(2)).exec_count = 1_769_771;
        f.block_mut(BlockId(2)).push(Inst::Ret);
        f.rebuild_preds();
        ctx.add_function(f);
        let cases = find_bad_layout(&ctx);
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].function, "getNext");
        assert_eq!(cases[0].cold_block, 1);
        let report = bad_layout_report(&ctx, true);
        assert!(report.contains("getNext"));
        assert!(report.contains("Binary Function"));
    }

    #[test]
    fn clean_layout_not_reported() {
        let mut ctx = BinaryContext::new();
        let mut f = BinaryFunction::new("fine", 0x1000);
        f.exec_count = 100;
        let b0 = f.add_block(BasicBlock::new());
        f.block_mut(b0).exec_count = 100;
        f.block_mut(b0).push(Inst::Ret);
        ctx.add_function(f);
        assert!(find_bad_layout(&ctx).is_empty());
    }

    /// CI parses these rows (the `table-rebuild` share is its tripwire
    /// against a quadratic rebuild), so their names and columns are pinned.
    #[test]
    fn rewrite_timing_rows_are_pinned() {
        let stats = crate::RewriteStats {
            emit_time: Duration::from_millis(30),
            assemble_time: Duration::from_millis(5),
            tables_time: Duration::from_millis(15),
            ..Default::default()
        };
        let report = rewrite_timing_report(&stats);
        let rows: Vec<Vec<&str>> = report
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            report.lines().next(),
            Some("BOLT rewrite timing (wall clock):")
        );
        assert_eq!(rows[1], ["emit", "30.000ms", "60.0%"]);
        assert_eq!(rows[2], ["elf-assembly", "5.000ms", "10.0%"]);
        assert_eq!(rows[3], ["table-rebuild", "15.000ms", "30.0%"]);
        assert_eq!(rows[4], ["total", "50.000ms"]);
        // An unmeasured rewrite renders without dividing by zero.
        assert!(rewrite_timing_report(&Default::default()).contains("0.0%"));
    }

    /// CI parses the `dyno-stats` row (its share of the pass total is
    /// the tripwire against a per-instruction cost in the dyno sweep), so
    /// the block's names and columns are pinned.
    #[test]
    fn prepare_timing_rows_are_pinned() {
        let timing = crate::PrepareTiming {
            discover: Duration::from_millis(2),
            disasm: Duration::from_millis(15),
            attach: Duration::from_millis(3),
        };
        let dyno = Some(Duration::from_millis(4));
        let report = prepare_timing_report(&timing, dyno, Duration::from_millis(80));
        let rows: Vec<Vec<&str>> = report
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            report.lines().next(),
            Some("BOLT prepare timing (wall clock):")
        );
        assert_eq!(rows[1], ["discover", "2.000ms", "10.0%"]);
        assert_eq!(rows[2], ["disasm", "15.000ms", "75.0%"]);
        assert_eq!(rows[3], ["attach", "3.000ms", "15.0%"]);
        assert_eq!(rows[4], ["total", "20.000ms"]);
        assert_eq!(
            rows[5],
            [
                "dyno-stats",
                "4.000ms",
                "5.0%",
                "of",
                "the",
                "pass",
                "total"
            ]
        );
        assert_eq!(rows.len(), 6);
        // Without -dyno-stats there is no sweep to report; an unmeasured
        // run renders without dividing by zero.
        let bare = prepare_timing_report(&Default::default(), None, Duration::ZERO);
        assert!(bare.contains("0.0%") && !bare.contains("dyno-stats"));
        let idle = prepare_timing_report(&Default::default(), dyno, Duration::ZERO);
        assert!(idle.lines().last().unwrap().starts_with("  dyno-stats"));
    }
}
