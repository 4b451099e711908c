//! The metric names and units the benchmark prints. `BENCHMARK.json` lists
//! the same names (with direction and bound); `tests/smoke.rs` keeps the
//! two in step.

/// End-to-end metrics, printed with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cycles_vs_base_pct", "%"),
];

/// End-to-end metrics that are simulated statistics: on the same input
/// they repeat bit for bit, so `compare` lets them get no worse at all.
pub const EXACT: [&str; 1] = ["cycles_vs_base_pct"];

/// The Table-1 passes, as `PipelineResult.reports` names them.
pub const PASSES: [&str; 14] = [
    "strip-rep-ret",
    "icf",
    "icp",
    "peepholes",
    "inline-small",
    "simplify-ro-loads",
    "plt",
    "reorder-bbs",
    "uce",
    "fixup-branches",
    "reorder-functions",
    "sctc",
    "frame-opts",
    "shrink-wrapping",
];

const FIXED_PER_LAYER: [(&str, &str); 58] = [
    // bolt-compiler
    ("compiler.compile_link_ms", "ms"),
    ("compiler.text_bytes", "count"),
    // bolt-elf
    ("elf.read_ms", "ms"),
    ("elf.write_ms", "ms"),
    ("elf.bytes_in", "count"),
    ("elf.bytes_out", "count"),
    // bolt-emu
    ("emu.step.null_mips", "1/us"),
    ("emu.superblock.null_mips", "1/us"),
    ("emu.uop.null_mips", "1/us"),
    ("emu.load_ms", "ms"),
    ("emu.tier_full", "count"),
    ("emu.tier_degraded", "count"),
    ("emu.retired", "count"),
    ("emu.batch_efficiency", "ratio"),
    // bolt-sim: host time, then simulated statistics (exact)
    ("sim.charge_ms", "ms"),
    ("sim.charge_ns_per_inst", "ns"),
    ("sim.superblock.charge_ms", "ms"),
    ("sim.uop.model_mips", "1/us"),
    ("sim.base_cycles", "count"),
    ("sim.bolt_cycles", "count"),
    ("sim.base_ipc", "ratio"),
    ("sim.bolt_ipc", "ratio"),
    ("sim.base_l1i_misses", "count"),
    ("sim.bolt_l1i_misses", "count"),
    ("sim.base_itlb_misses", "count"),
    ("sim.bolt_itlb_misses", "count"),
    ("sim.base_branch_mispredicts", "count"),
    ("sim.bolt_branch_mispredicts", "count"),
    ("sim.base_l1d_misses", "count"),
    ("sim.base_llc_misses", "count"),
    ("sim.cycles_reduction_pct", "%"),
    // bolt-profile
    ("profile.sampler_ms", "ms"),
    ("profile.tee_extra_ms", "ms"),
    ("profile.samples", "count"),
    ("profile.fdata_write_ms", "ms"),
    ("profile.fdata_parse_ms", "ms"),
    ("profile.fdata_bytes", "count"),
    ("profile.attach_ms", "ms"),
    ("profile.attach_accuracy", "ratio"),
    // bolt-opt
    ("opt.discover_ms", "ms"),
    ("opt.disasm_ms", "ms"),
    ("opt.rewrite_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("opt.driver_rest_ms", "ms"),
    ("opt.simple_functions", "count"),
    ("opt.emitted_functions", "count"),
    ("opt.hot_text_bytes", "count"),
    ("opt.cold_text_bytes", "count"),
    ("opt.quarantine_events", "count"),
    // bolt-passes (per-pass rows follow from PASSES)
    ("passes.total_ms", "ms"),
    ("passes.taken_branch_delta_pct", "%"),
    ("passes.executed_insts_delta_pct", "%"),
    // bolt-verify
    ("verify.rewrite_ms", "ms"),
    ("verify.sem_ms", "ms"),
    ("verify.findings", "count"),
    // harness
    ("trace.overhead_pct", "%"),
    ("host.cal_ms", "ms"),
    ("host.cal_spread_pct", "%"),
];

/// Per-layer metrics, printed by a traced run. A layer a workload's op
/// never enters reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|(name, unit)| (name.to_string(), *unit))
        .collect();
    for pass in PASSES {
        all.push((format!("passes.{pass}_ms"), "ms"));
        all.push((format!("passes.{pass}_changes"), "count"));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract's name grammar: starts with a letter or digit, then
    /// at most 63 more of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn every_name_fits_the_grammar_and_is_used_once() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .chain(crate::workloads::Workload::ALL.map(|w| w.name().to_string()));
        for name in names {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn the_grammar_rejects_what_the_contract_rejects() {
        for good in ["op_ms", "passes.strip-rep-ret_ms", "9lives", "a"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
