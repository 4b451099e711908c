//! CFG pretty-printer producing dumps in the style of paper Figure 4.

use crate::BinaryFunction;
use std::fmt::Write;

/// Options controlling [`dump_function`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DumpOptions {
    /// Print per-instruction source lines (`file:line` when the line
    /// table's file names are provided).
    pub print_debug_info: bool,
}

/// Renders a function's CFG in the BOLT dump format (paper Figure 4):
/// a header block with function-level facts followed by each basic block
/// with its instructions, successor edges, and landing-pad links.
pub fn dump_function(func: &BinaryFunction, files: Option<&[String]>, opts: DumpOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Binary Function \"{}\" {{", func.name);
    let _ = writeln!(out, "  State       : CFG constructed");
    let _ = writeln!(out, "  Address     : {:#x}", func.address);
    let _ = writeln!(out, "  Size        : {:#x}", func.size);
    let _ = writeln!(out, "  Section     : {}", func.section);
    let _ = writeln!(out, "  IsSimple    : {}", u8::from(func.is_simple));
    let _ = writeln!(out, "  IsSplit     : {}", u8::from(func.is_split()));
    let _ = writeln!(out, "  BB Count    : {}", func.num_live_blocks());
    let layout_names: Vec<String> = func.layout.iter().map(|b| b.to_string()).collect();
    let _ = writeln!(out, "  BB Layout   : {}", layout_names.join(", "));
    let _ = writeln!(out, "  Exec Count  : {}", func.exec_count);
    let _ = writeln!(out, "  Profile Acc : {:.1}%", func.profile_accuracy * 100.0);
    let _ = writeln!(out, "}}");

    for (id, b) in func.iter_layout() {
        let _ = writeln!(
            out,
            "{id} ({} instructions, align : {})",
            b.insts.len(),
            b.alignment
        );
        if id == func.entry() {
            let _ = writeln!(out, "  Entry Point");
        }
        if b.is_landing_pad {
            let _ = writeln!(out, "  Landing Pad");
        }
        let _ = writeln!(out, "  Exec Count : {}", b.exec_count);
        if !b.preds.is_empty() {
            let preds: Vec<String> = b.preds.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(out, "  Predecessors: {}", preds.join(", "));
        }
        if !b.throwers.is_empty() {
            let ts: Vec<String> = b.throwers.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(out, "  Throwers: {}", ts.join(", "));
        }
        let mut offset = 0u64;
        for inst in &b.insts {
            let mut line = format!("    {offset:08x}: {}", inst.inst);
            if let Some(lp) = inst.landing_pad {
                line.push_str(&format!(" # handler: {lp}"));
            }
            if opts.print_debug_info {
                if let Some(li) = inst.line {
                    let desc = files
                        .and_then(|files| files.get(li.file as usize))
                        .map(|f| format!("{f}:{}", li.line))
                        .unwrap_or_else(|| li.to_string());
                    line.push_str(&format!(" # {desc}"));
                }
            }
            let _ = writeln!(out, "{line}");
            offset += bolt_isa::encoded_len(&inst.inst) as u64;
        }
        if !b.succs.is_empty() {
            let succs: Vec<String> = b
                .succs
                .iter()
                .map(|e| format!("{} (mispreds: {}, count: {})", e.block, e.mispreds, e.count))
                .collect();
            let _ = writeln!(out, "  Successors: {}", succs.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasicBlock, BinaryInst, BlockId, LineInfo, SuccEdge};
    use bolt_isa::{Inst, Reg, Target};

    #[test]
    fn dump_contains_figure4_elements() {
        let mut f = BinaryFunction::new("_Z11filter_onlyi", 0x400ab1);
        f.exec_count = 104;
        f.size = 0x2f;
        let b0 = f.add_block(BasicBlock::new());
        let lp = f.add_block(BasicBlock::new());
        let mut call = BinaryInst::new(Inst::Call {
            target: Target::Addr(0x400100),
        });
        call.landing_pad = Some(lp);
        call.line = Some(LineInfo { file: 0, line: 23 });
        f.block_mut(b0).push(BinaryInst::new(Inst::Push(Reg::Rbp)));
        f.block_mut(b0).insts.push(call);
        f.block_mut(b0).exec_count = 104;
        f.block_mut(b0).succs = vec![SuccEdge::with_count(BlockId(1), 4)];
        f.block_mut(lp).push(Inst::Ret);
        f.block_mut(lp).exec_count = 4;
        f.rebuild_preds();

        let s = dump_function(
            &f,
            Some(&["exception4.cpp".to_string()]),
            DumpOptions {
                print_debug_info: true,
            },
        );
        assert!(s.contains("Binary Function \"_Z11filter_onlyi\""));
        assert!(s.contains("Exec Count  : 104"));
        assert!(s.contains("Entry Point"));
        assert!(s.contains("Landing Pad"));
        assert!(s.contains("handler: .BB1"));
        assert!(s.contains("exception4.cpp:23"));
        assert!(s.contains("Successors: .BB1 (mispreds: 0, count: 4)"));
        assert!(s.contains("Throwers: .BB0"));
    }
}
