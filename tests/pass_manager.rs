//! Pipeline-equivalence tests for the registry-driven `PassManager`: on
//! real profiled workload binaries, the manager must produce reports
//! (names, order, change counts) and a function order identical to the
//! pre-refactor hand-inlined pipeline, with wall-clock timing attached.

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::emu::Machine;
use bolt::ir::BinaryContext;
use bolt::opt::{disassemble_all, discover};
use bolt::passes::{
    fixup, frame, icf, icp, inline_small, layout, peephole, plt, reorder_functions, ro_loads, sctc,
    uce, PassManager, PassOptions,
};
use bolt::profile::{attach_profile, LbrSampler, SampleTrigger};
use bolt::workloads::{Scale, Workload};

/// A profiled, disassembled `Scale::Test` context of `workload` (the
/// driver's state right before the optimization pipeline runs).
fn profiled_ctx(workload: Workload) -> BinaryContext {
    let program = workload.build(Scale::Test);
    let binary = compile_and_link(&program, &CompileOptions::default()).expect("compiles");
    let mut machine = Machine::new();
    machine.load_elf(&binary.elf);
    let mut sampler = LbrSampler::new(997, SampleTrigger::Instructions);
    machine.run(&mut sampler, 100_000_000).expect("runs");
    let (mut ctx, raw) = discover(&binary.elf);
    disassemble_all(&mut ctx, &raw, &binary.elf);
    attach_profile(&mut ctx, &sampler.profile);
    ctx
}

/// The pre-refactor pipeline body, reproduced verbatim (minus the
/// debug-only validation): sixteen hand-inlined stanzas. This is the
/// behavioral baseline the manager must match exactly — with one
/// intentional divergence: the branch-fixup re-run after `sctc` is now
/// reported as its own `fixup-branches` entry instead of having its
/// change count discarded and its wall clock folded into sctc's.
fn legacy_pipeline(
    ctx: &mut BinaryContext,
    opts: &PassOptions,
) -> (Vec<(&'static str, u64)>, Vec<usize>) {
    let mut reports: Vec<(&'static str, u64)> = Vec::new();
    if opts.strip_rep_ret {
        reports.push(("strip-rep-ret", peephole::strip_rep_ret(ctx)));
    }
    if opts.icf {
        reports.push(("icf", icf::run_icf(ctx)));
    }
    if opts.icp {
        reports.push(("icp", icp::run_icp(ctx, opts.icp_threshold)));
    }
    if opts.peepholes {
        reports.push(("peepholes", peephole::run_peepholes(ctx)));
    }
    if opts.inline_small {
        reports.push(("inline-small", inline_small::run_inline_small(ctx)));
    }
    if opts.simplify_ro_loads {
        reports.push(("simplify-ro-loads", ro_loads::run_simplify_ro_loads(ctx)));
    }
    if opts.icf {
        reports.push(("icf", icf::run_icf(ctx)));
    }
    if opts.plt {
        reports.push(("plt", plt::run_plt(ctx)));
    }
    reports.push((
        "reorder-bbs",
        layout::run_reorder_bbs(
            ctx,
            opts.reorder_blocks,
            opts.split_functions,
            opts.split_all_cold,
            opts.split_eh,
        ),
    ));
    if opts.peepholes {
        reports.push(("peepholes", peephole::run_peepholes(ctx)));
    }
    if opts.uce {
        reports.push(("uce", uce::run_uce(ctx)));
    }
    reports.push(("fixup-branches", fixup::run_fixup_branches(ctx)));
    let function_order = reorder_functions::run_reorder_functions(ctx, opts.reorder_functions);
    reports.push(("reorder-functions", function_order.len() as u64));
    if opts.sctc {
        reports.push(("sctc", sctc::run_sctc(ctx)));
        reports.push(("fixup-branches", fixup::run_fixup_branches(ctx)));
    }
    if opts.frame_opts {
        reports.push(("frame-opts", frame::run_frame_opts(ctx)));
    }
    if opts.shrink_wrapping {
        reports.push(("shrink-wrapping", frame::run_shrink_wrapping(ctx)));
    }
    (reports, function_order)
}

/// TAO and the three other workload families, under every preset.
#[test]
fn manager_matches_legacy_pipeline_on_tao() {
    for workload in [
        Workload::Tao,
        Workload::Hhvm,
        Workload::ClangLike,
        Workload::Interp,
    ] {
        let baseline_ctx = profiled_ctx(workload);
        for preset in PassOptions::PRESETS {
            let label = format!("{workload:?} under {preset}");
            let opts = PassOptions::preset(preset).expect("a listed preset");
            let mut legacy_ctx = baseline_ctx.clone();
            let (expected_reports, expected_order) = legacy_pipeline(&mut legacy_ctx, &opts);

            let mut manager_ctx = baseline_ctx.clone();
            let result = PassManager::standard(&opts).run(&mut manager_ctx, &opts);

            let got: Vec<(&'static str, u64)> =
                result.reports.iter().map(|r| (r.name, r.changes)).collect();
            assert_eq!(got, expected_reports, "{label}: reports (names + changes)");
            assert_eq!(
                result.function_order, expected_order,
                "{label}: function order"
            );
        }
    }
}

#[test]
fn default_pipeline_reports_every_table1_row_with_timing() {
    let mut ctx = profiled_ctx(Workload::Tao);
    let opts = PassOptions::default();
    let result = PassManager::standard(&opts).run(&mut ctx, &opts);
    let names: Vec<&str> = result.reports.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        PassManager::standard_pass_names(),
        "default options run all sixteen Table-1 passes in order, plus \
         the post-sctc fixup-branches re-run as its own report"
    );
    assert!(
        result.total_duration() > std::time::Duration::ZERO,
        "wall-clock timing is recorded"
    );
    // The default manager config collects no per-pass dyno.
    assert!(result.reports.iter().all(|r| r.dyno_before.is_none()));
}

#[test]
fn per_pass_dyno_deltas_when_requested() {
    let mut manager = PassManager::standard(&PassOptions::default());
    manager.config.collect_dyno = true;
    let mut ctx = profiled_ctx(Workload::Tao);
    let result = manager.run(&mut ctx, &PassOptions::default());
    assert!(
        result
            .reports
            .iter()
            .all(|r| r.dyno_before.is_some() && r.dyno_after.is_some()),
        "every report carries before/after dyno stats"
    );
    // The layout pass exists to reduce taken branches; its delta must be
    // attributed to it (not just to the pipeline as a whole).
    let reorder = result
        .reports
        .iter()
        .find(|r| r.name == "reorder-bbs")
        .expect("reorder-bbs report");
    let (before, after) = (reorder.dyno_before.unwrap(), reorder.dyno_after.unwrap());
    assert!(
        after.taken_branches <= before.taken_branches,
        "reorder-bbs must not increase taken branches ({} -> {})",
        before.taken_branches,
        after.taken_branches
    );
}
