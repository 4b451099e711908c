//! The [`PassManager`]: a registry-driven replacement for the former
//! hand-inlined sixteen-stanza pipeline.
//!
//! Each Table-1 transformation implements [`Pass`]; the manager owns the
//! registration order, gates every pass on [`PassOptions`], validates IR
//! invariants between passes (in debug builds), and records a
//! [`PassReport`](crate::PassReport) per executed pass carrying the
//! change count, the wall-clock duration (`-time-passes`-style), and —
//! when [`ManagerConfig::collect_dyno`] is set — before/after
//! [`DynoStats`](crate::DynoStats) so per-pass dyno deltas can be
//! attributed.
//!
//! Extending the pipeline means implementing [`Pass`] and calling
//! [`PassManager::register`]; nothing else in the crate needs editing.
//! The same pass type may be registered repeatedly (the Table-1 order
//! runs `icf` and `peepholes` twice); repeated instances are
//! distinguished in validation messages and timing output as e.g.
//! `icf(2)`.

use crate::function_pass::{panic_message, run_function_pass_with, FunctionPass};
use crate::reorder_functions;
use crate::{
    dyno, fixup, frame, icf, icp, inline_small, layout, peephole, plt, ro_loads, sctc, uce,
    PassFailure, PassOptions, PassReport, PipelineResult,
};
use bolt_ir::{BinaryContext, BinaryFunction};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One pipeline transformation.
///
/// Passes are constructed from [`PassOptions`] at registration time (the
/// options a pass needs — ICP's threshold, the layout modes — are baked
/// into its struct), so `run` only sees the context. `enabled`
/// re-consults the options passed to [`PassManager::run`], which gate
/// the boolean on/off toggles only; to change *parameterized* options,
/// rebuild the manager with [`PassManager::standard`] rather than
/// passing a different option set to `run`.
pub trait Pass {
    /// The report/display name (Table 1 spelling, e.g. `"icf"`).
    fn name(&self) -> &'static str;

    /// Runs the transformation; returns the number of changes made
    /// (pass-specific unit, matching Table 1's activity column).
    fn run(&mut self, ctx: &mut BinaryContext) -> u64;

    /// Whether this pass should run under `opts`.
    fn enabled(&self, opts: &PassOptions) -> bool;

    /// Whether the manager should validate IR invariants after this pass
    /// (the former `validate_all` calls). `reorder-functions` opts out:
    /// it only chooses an emission order and the pre-refactor pipeline
    /// never validated after it.
    fn validate_after(&self) -> bool {
        true
    }

    /// Passes that choose a function emission order surface it here; the
    /// manager moves it into [`PipelineResult::function_order`].
    fn take_function_order(&mut self) -> Option<Vec<usize>> {
        None
    }

    /// Per-function pure passes expose their kernel here; the manager
    /// shards `ctx.functions` across worker threads via
    /// [`crate::run_function_pass`] when [`ManagerConfig::threads`] resolves to
    /// more than one. Whole-context passes return `None` and always run
    /// through [`run`](Self::run).
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        None
    }
}

/// When the manager runs the `bolt-verify` IR lint ([`LintMode`] is the
/// `-verify` / `-verify-each` surface; findings land in
/// [`PipelineResult::findings`] and each sweep is timed and reported as
/// a `verify` row like any pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// No lint sweeps (the default; keeps pipelines and their report
    /// lists byte-identical to a manager without the verifier).
    #[default]
    Off,
    /// One sweep after the last pass (`-verify`).
    Final,
    /// A sweep after every executed pass (`-verify-each`), pinpointing
    /// which pass broke an invariant.
    Each,
}

/// Manager knobs orthogonal to [`PassOptions`].
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Validate IR invariants after each pass (debug builds only, like
    /// the pre-refactor pipeline).
    pub validate: bool,
    /// Record [`DynoStats`](crate::DynoStats) before and after every
    /// pass, so each report carries its dyno delta. Costs one stats
    /// sweep per pass boundary; off by default.
    pub collect_dyno: bool,
    /// Worker-thread count for per-function passes (`-threads=N`).
    /// `0` (the default) resolves through `bolt_emu::Knobs::threads`
    /// (`BOLT_THREADS`, else available parallelism); `1` forces the
    /// serial path. The pipeline result is byte-identical at any
    /// value — see [`crate::function_pass`].
    pub threads: usize,
    /// Skip a *repeated* registration of a pass when its most recent
    /// earlier instance reported zero changes this run (`-skip-unchanged`)
    /// — e.g. the second `icf` on binaries where the first found nothing
    /// to fold. Skipped instances still get a [`PassReport`]
    /// (zero changes, zero duration) marked
    /// [`skipped`](crate::PassReport::skipped), so `-time-passes` output
    /// stays honest. Off by default: a pass that reported zero changes
    /// can in principle still fire after intervening passes rework the
    /// IR, so this trades that (empirically absent) case for pipeline
    /// wall clock.
    pub skip_unchanged: bool,
    /// Whether (and how often) to run the `bolt-verify` IR lint.
    pub lint: LintMode,
    /// Pass names excluded this run regardless of [`PassOptions`]. Set
    /// by the quarantine ladder: after a whole-context pass panics (the
    /// context is untrusted and the pipeline aborts), the driver
    /// discards the round and retries with the offender listed here.
    pub disabled: Vec<String>,
    /// Panic-firewall the pass kernels (`catch_unwind` around each
    /// per-function kernel invocation and each whole-context pass). On
    /// by default — this is what feeds the quarantine ladder. Off
    /// exists solely so `bench-snapshot` can measure the firewall's
    /// clean-run cost; with it off, a panicking pass unwinds through
    /// the manager.
    pub firewall: bool,
}

impl Default for ManagerConfig {
    fn default() -> ManagerConfig {
        ManagerConfig {
            validate: true,
            collect_dyno: false,
            threads: 0,
            skip_unchanged: false,
            lint: LintMode::Off,
            disabled: Vec::new(),
            firewall: true,
        }
    }
}

/// Owns the ordered pass registry and runs it over a context.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    pub config: ManagerConfig,
}

impl Default for PassManager {
    fn default() -> PassManager {
        PassManager::new()
    }
}

impl PassManager {
    /// An empty manager; use [`register`](Self::register) to populate.
    pub fn new() -> PassManager {
        PassManager {
            passes: Vec::new(),
            config: ManagerConfig::default(),
        }
    }

    /// The Table-1 pipeline in paper order (the crate-level doc table),
    /// with pass parameters drawn from `opts`.
    pub fn standard(opts: &PassOptions) -> PassManager {
        let mut m = PassManager::new();
        m.register(Box::new(StripRepRet))
            .register(Box::new(Icf))
            .register(Box::new(Icp {
                threshold: opts.icp_threshold,
            }))
            .register(Box::new(Peepholes))
            .register(Box::new(InlineSmall))
            .register(Box::new(SimplifyRoLoads))
            .register(Box::new(Icf))
            .register(Box::new(Plt))
            .register(Box::new(ReorderBbs {
                layout: opts.reorder_blocks,
                split: opts.split_functions,
                split_all_cold: opts.split_all_cold,
                split_eh: opts.split_eh,
            }))
            .register(Box::new(Peepholes))
            .register(Box::new(Uce))
            .register(Box::new(FixupBranches { after_sctc: false }))
            .register(Box::new(ReorderFunctions {
                algorithm: opts.reorder_functions,
                order: None,
            }))
            .register(Box::new(Sctc))
            // sctc rewires terminators, so branch fixup re-runs right
            // after it — as its own report, so `-time-passes` attributes
            // the re-run's wall clock and change count honestly.
            .register(Box::new(FixupBranches { after_sctc: true }))
            .register(Box::new(FrameOpts))
            .register(Box::new(ShrinkWrapping));
        m
    }

    /// Appends a pass to the registry (runs after everything already
    /// registered). The same pass name may appear more than once.
    pub fn register(&mut self, pass: Box<dyn Pass>) -> &mut PassManager {
        self.passes.push(pass);
        self
    }

    /// The registered pass names in execution order (including disabled
    /// and repeated passes).
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The pass names [`standard`](Self::standard) registers, in order:
    /// the [`crate::TABLE1`] rows plus the post-sctc `fixup-branches`
    /// re-run. The single source of truth for tests asserting the
    /// standard registration or report order.
    pub fn standard_pass_names() -> Vec<&'static str> {
        let mut names: Vec<&'static str> = crate::TABLE1.iter().map(|(name, _)| *name).collect();
        let sctc_pos = names.iter().position(|n| *n == "sctc").expect("sctc row");
        names.insert(sctc_pos + 1, "fixup-branches");
        names
    }

    /// Runs every registered pass enabled under `opts`, in order.
    ///
    /// Per-function passes ([`Pass::function_pass`]) are sharded across
    /// [`ManagerConfig::threads`] workers; whole-context passes run
    /// serially. The [`PipelineResult`] is byte-identical at any thread
    /// count.
    pub fn run(&mut self, ctx: &mut BinaryContext, opts: &PassOptions) -> PipelineResult {
        let n_threads = bolt_emu::Knobs::get().threads(self.config.threads);
        let mut result = PipelineResult::default();
        let mut occurrences: HashMap<&'static str, u32> = HashMap::new();
        // Change count of each pass name's most recent executed instance
        // this run, for `skip_unchanged`.
        let mut last_changes: HashMap<&'static str, u64> = HashMap::new();
        // Nothing mutates the context between one pass's after-sweep and
        // the next pass's before-sweep (validation is read-only), so each
        // boundary is swept once and shared.
        let mut carried_dyno: Option<dyno::DynoStats> = None;
        // Set when a whole-context pass panics: the context is untrusted,
        // so the remaining passes (and the final lint, which indexes into
        // possibly-inconsistent IR) are skipped.
        let mut aborted = false;
        for pass in &mut self.passes {
            if !pass.enabled(opts) || self.config.disabled.iter().any(|d| d == pass.name()) {
                continue;
            }
            let name = pass.name();
            let occurrence = occurrences.entry(name).and_modify(|n| *n += 1).or_insert(1);
            let instance = if *occurrence > 1 {
                format!("{name}({occurrence})")
            } else {
                name.to_string()
            };

            // Zero-change skipping: a repeated registration whose earlier
            // instance did nothing this run is reported but not executed.
            if self.config.skip_unchanged && *occurrence > 1 && last_changes.get(name) == Some(&0) {
                let dyno = self.config.collect_dyno.then(|| {
                    carried_dyno
                        .take()
                        .unwrap_or_else(|| dyno::context_dyno_stats(ctx))
                });
                carried_dyno = dyno;
                result.reports.push(PassReport {
                    name,
                    changes: 0,
                    duration: std::time::Duration::ZERO,
                    dyno_before: carried_dyno,
                    dyno_after: carried_dyno,
                    skipped: true,
                });
                continue;
            }

            let dyno_before = self.config.collect_dyno.then(|| {
                carried_dyno
                    .take()
                    .unwrap_or_else(|| dyno::context_dyno_stats(ctx))
            });
            let started = Instant::now();
            // Kernels always go through the sharder (which serializes
            // itself at n_threads <= 1), so a pass can never behave
            // differently between its run() wrapper and its kernel.
            // Both paths are panic-firewalled: a kernel panic
            // quarantines one function (inside `run_function_pass`); a
            // whole-context panic aborts the rest of the pipeline,
            // because there is no per-function boundary to contain it.
            let changes = match pass.function_pass() {
                Some(kernel) => {
                    let run = run_function_pass_with(kernel, ctx, n_threads, self.config.firewall);
                    for (function, detail) in run.failures {
                        result.failures.push(PassFailure {
                            pass: instance.clone(),
                            function: Some(function),
                            detail,
                        });
                    }
                    run.changes
                }
                None if !self.config.firewall => pass.run(ctx),
                None => match catch_unwind(AssertUnwindSafe(|| pass.run(ctx))) {
                    Ok(n) => n,
                    Err(payload) => {
                        result.failures.push(PassFailure {
                            pass: instance.clone(),
                            function: None,
                            detail: panic_message(payload.as_ref()),
                        });
                        aborted = true;
                        0
                    }
                },
            };
            let duration = started.elapsed();
            let dyno_after = self
                .config
                .collect_dyno
                .then(|| dyno::context_dyno_stats(ctx));
            carried_dyno = dyno_after;

            if let Some(order) = pass.take_function_order() {
                result.function_order = order;
            }
            last_changes.insert(name, changes);
            result.reports.push(PassReport {
                name,
                changes,
                duration,
                dyno_before,
                dyno_after,
                skipped: false,
            });
            if aborted {
                break;
            }
            if self.config.validate && pass.validate_after() {
                validate_all(ctx, &instance);
            }
            if self.config.lint == LintMode::Each {
                run_lint(ctx, &instance, &mut result);
            }
        }
        if self.config.lint == LintMode::Final && !aborted {
            run_lint(ctx, "pipeline", &mut result);
        }
        result
    }
}

/// One timed IR-lint sweep, reported as a `verify` row (change count =
/// findings) so `-time-passes` attributes verifier overhead separately.
fn run_lint(ctx: &BinaryContext, after: &str, result: &mut PipelineResult) {
    let started = Instant::now();
    let mut findings = bolt_verify::lint_context(ctx);
    let duration = started.elapsed();
    for f in &mut findings {
        f.detail = format!("after {after}: {}", f.detail);
    }
    result.reports.push(PassReport {
        name: "verify",
        changes: findings.len() as u64,
        duration,
        dyno_before: None,
        dyno_after: None,
        skipped: false,
    });
    result.findings.append(&mut findings);
}

/// Post-pass IR invariant check (debug builds only): every simple,
/// unfolded function must still satisfy its CFG/layout invariants.
fn validate_all(ctx: &BinaryContext, after: &str) {
    if cfg!(debug_assertions) {
        for f in &ctx.functions {
            if f.is_simple && f.folded_into.is_none() {
                if let Err(e) = f.validate() {
                    panic!("IR invariant broken after {after}: {e}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The sixteen Table-1 passes.

/// Table 1 #1: strip `repz` from `repz retq` (legacy AMD workaround).
struct StripRepRet;

impl Pass for StripRepRet {
    fn name(&self) -> &'static str {
        "strip-rep-ret"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        peephole::strip_rep_ret(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.strip_rep_ret
    }
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        Some(self)
    }
}

impl FunctionPass for StripRepRet {
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
        peephole::strip_rep_ret_function(func)
    }
}

/// Table 1 #2 and #7: identical code folding (registered twice).
struct Icf;

impl Pass for Icf {
    fn name(&self) -> &'static str {
        "icf"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        icf::run_icf(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.icf
    }
}

/// Table 1 #3: indirect call promotion.
struct Icp {
    threshold: f64,
}

impl Pass for Icp {
    fn name(&self) -> &'static str {
        "icp"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        icp::run_icp(ctx, self.threshold)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.icp
    }
}

/// Table 1 #4 and #10: simple peepholes (registered twice).
struct Peepholes;

impl Pass for Peepholes {
    fn name(&self) -> &'static str {
        "peepholes"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        peephole::run_peepholes(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.peepholes
    }
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        Some(self)
    }
}

impl FunctionPass for Peepholes {
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
        peephole::peepholes_function(func)
    }
}

/// Table 1 #5: inline small functions.
struct InlineSmall;

impl Pass for InlineSmall {
    fn name(&self) -> &'static str {
        "inline-small"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        inline_small::run_inline_small(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.inline_small
    }
}

/// Table 1 #6: turn loads of statically known `.rodata` into movs.
struct SimplifyRoLoads;

impl Pass for SimplifyRoLoads {
    fn name(&self) -> &'static str {
        "simplify-ro-loads"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        ro_loads::run_simplify_ro_loads(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.simplify_ro_loads
    }
}

/// Table 1 #8: remove indirection from PLT calls.
struct Plt;

impl Pass for Plt {
    fn name(&self) -> &'static str {
        "plt"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        plt::run_plt(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.plt
    }
}

/// Table 1 #9: block reordering + hot/cold splitting. Always registered
/// and always reported (with `-reorder-blocks=none` it reports zero
/// changes), matching the pre-refactor pipeline.
struct ReorderBbs {
    layout: layout::BlockLayout,
    split: layout::SplitMode,
    split_all_cold: bool,
    split_eh: bool,
}

impl Pass for ReorderBbs {
    fn name(&self) -> &'static str {
        "reorder-bbs"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        layout::run_reorder_bbs(
            ctx,
            self.layout,
            self.split,
            self.split_all_cold,
            self.split_eh,
        )
    }
    fn enabled(&self, _opts: &PassOptions) -> bool {
        true
    }
}

/// Table 1 #11: unreachable-code elimination.
struct Uce;

impl Pass for Uce {
    fn name(&self) -> &'static str {
        "uce"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        uce::run_uce(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.uce
    }
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        Some(self)
    }
}

impl FunctionPass for Uce {
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
        uce::uce_function(func)
    }
}

/// Table 1 #12: rewrite terminators to match CFG + layout. The first
/// instance always runs; the `after_sctc` instance re-runs right after
/// `sctc` (which rewires terminators) and is gated on it.
struct FixupBranches {
    after_sctc: bool,
}

impl Pass for FixupBranches {
    fn name(&self) -> &'static str {
        "fixup-branches"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        fixup::run_fixup_branches(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        !self.after_sctc || opts.sctc
    }
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        Some(self)
    }
}

impl FunctionPass for FixupBranches {
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
        fixup::fixup_function(func)
    }
}

/// Table 1 #13: HFSort function reordering. Always runs (the `none`
/// algorithm yields the identity order) and reports the number of
/// functions ordered, matching the pre-refactor pipeline.
struct ReorderFunctions {
    algorithm: bolt_hfsort::Algorithm,
    order: Option<Vec<usize>>,
}

impl Pass for ReorderFunctions {
    fn name(&self) -> &'static str {
        "reorder-functions"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        let order = reorder_functions::run_reorder_functions(ctx, self.algorithm);
        let n = order.len() as u64;
        self.order = Some(order);
        n
    }
    fn enabled(&self, _opts: &PassOptions) -> bool {
        true
    }
    fn validate_after(&self) -> bool {
        false
    }
    fn take_function_order(&mut self) -> Option<Vec<usize>> {
        self.order.take()
    }
}

/// Table 1 #14: simplify conditional tail calls. The branch fixup this
/// necessitates (sctc rewires terminators) is registered as its own
/// `fixup-branches` instance right after, so its time and change count
/// are attributed to fixup rather than silently folded into sctc.
struct Sctc;

impl Pass for Sctc {
    fn name(&self) -> &'static str {
        "sctc"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        sctc::run_sctc(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.sctc
    }
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        Some(self)
    }
}

impl FunctionPass for Sctc {
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
        sctc::sctc_function(func)
    }
}

/// Table 1 #15: remove unnecessary caller-saved spills.
struct FrameOpts;

impl Pass for FrameOpts {
    fn name(&self) -> &'static str {
        "frame-opts"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        frame::run_frame_opts(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.frame_opts
    }
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        Some(self)
    }
}

impl FunctionPass for FrameOpts {
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
        frame::frame_opts_function(func)
    }
}

/// Table 1 #16: move callee-saved spills toward their uses.
struct ShrinkWrapping;

impl Pass for ShrinkWrapping {
    fn name(&self) -> &'static str {
        "shrink-wrapping"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        frame::run_shrink_wrapping(ctx)
    }
    fn enabled(&self, opts: &PassOptions) -> bool {
        opts.shrink_wrapping
    }
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        Some(self)
    }
}

impl FunctionPass for ShrinkWrapping {
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
        frame::shrink_wrap_function(func)
    }
}

/// Deterministic fault injection (`FaultPlan::PoisonPass`): a kernel
/// that panics on one named function, exercising the per-function
/// firewall end to end. Targeting by *name* (resolved from the Nth
/// simple function by the driver) rather than a visit counter keeps it
/// deterministic under sharding. Gated on `is_simple` only — NOT on
/// [`may_transform`](BinaryFunction::may_transform) — so a function the
/// ladder demoted to layout-only is poisoned *again* on the retry,
/// driving it down the full `default -> layout-only -> quarantined`
/// ladder; only full quarantine (which clears `is_simple`) stops it.
pub struct PoisonPass {
    pub target: String,
}

impl Pass for PoisonPass {
    fn name(&self) -> &'static str {
        "poison"
    }
    fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
        let mut n = 0;
        for f in &mut ctx.functions {
            n += <PoisonPass as FunctionPass>::run_on_function(self, f);
        }
        n
    }
    fn enabled(&self, _opts: &PassOptions) -> bool {
        true
    }
    fn function_pass(&self) -> Option<&dyn FunctionPass> {
        Some(self)
    }
}

impl FunctionPass for PoisonPass {
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
        if func.is_simple && func.name == self.target {
            panic!("poison-pass: injected fault on {}", func.name);
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry must reproduce the Table-1 order exactly (names as
    /// listed in the crate-level doc table and [`crate::TABLE1`]), plus
    /// the post-sctc `fixup-branches` re-run registered as its own pass
    /// so `-time-passes` attribution stays honest.
    #[test]
    fn standard_registration_matches_table1() {
        let m = PassManager::standard(&PassOptions::default());
        assert_eq!(m.pass_names(), PassManager::standard_pass_names());
    }

    #[test]
    fn disabled_passes_are_skipped() {
        let mut m = PassManager::standard(&PassOptions::default());
        let mut ctx = BinaryContext::default();
        let opts = PassOptions::none();
        let result = m.run(&mut ctx, &opts);
        // Only the unconditional passes report: `none` is an identity
        // rewrite, so uce (and sctc's fixup re-run) must be off too.
        let names: Vec<&str> = result.reports.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["reorder-bbs", "fixup-branches", "reorder-functions"]
        );
    }

    /// The manager must produce identical results at any thread count
    /// (here on a synthetic many-function context; the TAO integration
    /// test covers the full driver).
    #[test]
    fn thread_count_does_not_change_results() {
        use bolt_ir::BasicBlock;
        use bolt_isa::Inst;
        let mut base = BinaryContext::default();
        for i in 0..40 {
            let mut f = bolt_ir::BinaryFunction::new(format!("f{i}"), 0x1000 + 0x100 * i as u64);
            let b = f.add_block(BasicBlock::new());
            f.block_mut(b).push(Inst::RepzRet);
            base.add_function(f);
        }
        let opts = PassOptions::default();
        let mut results = Vec::new();
        for threads in [1, 4] {
            let mut m = PassManager::standard(&opts);
            m.config.threads = threads;
            let mut ctx = base.clone();
            results.push((m.run(&mut ctx, &opts), ctx));
        }
        let (serial, parallel) = (&results[0], &results[1]);
        assert_eq!(serial.0.reports, parallel.0.reports);
        assert_eq!(serial.0.function_order, parallel.0.function_order);
        assert_eq!(serial.1.functions.len(), parallel.1.functions.len());
        assert_eq!(
            serial.0.reports[0].changes, 40,
            "strip-rep-ret fired once per function"
        );
    }

    /// `-skip-unchanged`: a repeated registration is skipped when the
    /// earlier instance of the same pass reported zero changes this run
    /// — and still reported, marked, so timing output stays honest.
    #[test]
    fn skip_unchanged_skips_zero_change_repeats() {
        // An empty context: every pass reports zero changes, so the
        // second icf and second peepholes are skippable.
        let opts = PassOptions::default();
        let run = |skip: bool| {
            let mut m = PassManager::standard(&opts);
            m.config.skip_unchanged = skip;
            let mut ctx = BinaryContext::default();
            m.run(&mut ctx, &opts)
        };
        let plain = run(false);
        assert!(
            plain.reports.iter().all(|r| !r.skipped),
            "nothing skipped without the flag"
        );
        let skipping = run(true);
        let skipped: Vec<&str> = skipping
            .reports
            .iter()
            .filter(|r| r.skipped)
            .map(|r| r.name)
            .collect();
        assert_eq!(
            skipped,
            ["icf", "peepholes", "fixup-branches"],
            "exactly the zero-change repeats are skipped"
        );
        // Reports stay semantically identical (same names, same change
        // counts): skipping is a pure wall-clock optimization here.
        assert_eq!(plain.reports, skipping.reports);
        assert_eq!(plain.function_order, skipping.function_order);
        for r in skipping.reports.iter().filter(|r| r.skipped) {
            assert_eq!(r.changes, 0);
            assert_eq!(r.duration, std::time::Duration::ZERO);
        }
    }

    /// A repeat whose earlier instance *did* change the program still
    /// runs under `-skip-unchanged`.
    #[test]
    fn skip_unchanged_keeps_active_repeats() {
        use bolt_ir::BasicBlock;
        use bolt_isa::Inst;
        // Two identical functions: the first icf folds one into the
        // other (1 change), so the second icf must still execute.
        let mut ctx = BinaryContext::default();
        for i in 0..2 {
            let mut f = bolt_ir::BinaryFunction::new(format!("f{i}"), 0x1000 + 0x100 * i as u64);
            let b = f.add_block(BasicBlock::new());
            f.block_mut(b).push(Inst::Ret);
            ctx.add_function(f);
        }
        let opts = PassOptions::default();
        let mut m = PassManager::standard(&opts);
        m.config.skip_unchanged = true;
        let result = m.run(&mut ctx, &opts);
        let icf: Vec<_> = result.reports.iter().filter(|r| r.name == "icf").collect();
        assert_eq!(icf.len(), 2);
        assert!(icf[0].changes > 0, "first icf folds");
        assert!(!icf[1].skipped, "a productive pass's repeat still runs");
    }

    /// `-verify-each` adds one timed `verify` row per executed pass and
    /// collects zero findings on a healthy pipeline; the default keeps
    /// the report list untouched.
    #[test]
    fn lint_each_reports_per_pass_and_stays_clean() {
        use bolt_ir::BasicBlock;
        use bolt_isa::Inst;
        let mut ctx = BinaryContext::default();
        let mut f = bolt_ir::BinaryFunction::new("f", 0x1000);
        let b = f.add_block(BasicBlock::new());
        f.block_mut(b).push(Inst::Ret);
        ctx.add_function(f);
        let opts = PassOptions::default();
        let mut m = PassManager::standard(&opts);
        m.config.lint = LintMode::Each;
        let result = m.run(&mut ctx, &opts);
        let executed = result.reports.iter().filter(|r| r.name != "verify").count();
        let verify_rows = result.reports.iter().filter(|r| r.name == "verify").count();
        assert_eq!(verify_rows, executed, "one verify row per executed pass");
        assert!(result.findings.is_empty(), "{:?}", result.findings);

        let mut m = PassManager::standard(&opts);
        m.config.lint = LintMode::Final;
        let mut ctx2 = BinaryContext::default();
        let result = m.run(&mut ctx2, &opts);
        assert_eq!(
            result.reports.iter().filter(|r| r.name == "verify").count(),
            1,
            "-verify runs exactly one sweep"
        );
    }

    /// The lint catches a broken layout the moment a (simulated) pass
    /// corrupts it.
    #[test]
    fn lint_reports_corrupted_layout() {
        use bolt_ir::{BasicBlock, BlockId};
        use bolt_isa::Inst;
        struct Corrupt;
        impl Pass for Corrupt {
            fn name(&self) -> &'static str {
                "corrupt"
            }
            fn run(&mut self, ctx: &mut BinaryContext) -> u64 {
                ctx.functions[0].layout.push(BlockId(7));
                1
            }
            fn enabled(&self, _opts: &PassOptions) -> bool {
                true
            }
            fn validate_after(&self) -> bool {
                false // the debug-build panic would fire before the lint
            }
        }
        let mut ctx = BinaryContext::default();
        let mut f = bolt_ir::BinaryFunction::new("f", 0x1000);
        let b = f.add_block(BasicBlock::new());
        f.block_mut(b).push(Inst::Ret);
        ctx.add_function(f);
        let mut m = PassManager::new();
        m.register(Box::new(Corrupt));
        m.config.lint = LintMode::Each;
        m.config.validate = false;
        let result = m.run(&mut ctx, &PassOptions::default());
        assert!(
            !result.findings.is_empty(),
            "lint must flag the out-of-range layout entry"
        );
        assert!(result.findings[0].detail.contains("after corrupt"));
    }

    /// A whole-context pass panic is caught, recorded with
    /// `function: None`, and aborts the remaining pipeline (the context
    /// is untrusted after it).
    #[test]
    fn whole_context_panic_aborts_pipeline() {
        struct Bomb;
        impl Pass for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn run(&mut self, _ctx: &mut BinaryContext) -> u64 {
                panic!("whole-context fault");
            }
            fn enabled(&self, _opts: &PassOptions) -> bool {
                true
            }
        }
        struct Never;
        impl Pass for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn run(&mut self, _ctx: &mut BinaryContext) -> u64 {
                panic!("must not run after an abort");
            }
            fn enabled(&self, _opts: &PassOptions) -> bool {
                true
            }
        }
        let mut m = PassManager::new();
        m.register(Box::new(Bomb)).register(Box::new(Never));
        m.config.lint = LintMode::Final;
        let mut ctx = BinaryContext::default();
        let result = m.run(&mut ctx, &PassOptions::default());
        assert_eq!(result.failures.len(), 1);
        let failure = result.aborted_by().expect("abort recorded");
        assert_eq!(failure.pass, "bomb");
        assert_eq!(failure.function, None);
        assert_eq!(failure.detail, "whole-context fault");
        let names: Vec<&str> = result.reports.iter().map(|r| r.name).collect();
        assert_eq!(names, ["bomb"], "no later pass, no final lint sweep");
    }

    /// `ManagerConfig::disabled` excludes a pass by name even though
    /// `enabled()` says yes — the ladder's retry-with-pass-disabled.
    #[test]
    fn disabled_list_excludes_pass_by_name() {
        let opts = PassOptions::default();
        let mut m = PassManager::standard(&opts);
        m.config.disabled = vec!["icf".to_string()];
        let mut ctx = BinaryContext::default();
        let result = m.run(&mut ctx, &opts);
        assert!(
            result.reports.iter().all(|r| r.name != "icf"),
            "both icf instances excluded"
        );
        assert!(result.failures.is_empty());
    }

    /// The poison pass panics on exactly its target and the kernel
    /// firewall turns that into one quarantined function, at any
    /// thread count.
    #[test]
    fn poison_pass_quarantines_target_only() {
        use bolt_ir::BasicBlock;
        use bolt_isa::Inst;
        for threads in [1, 4] {
            let mut ctx = BinaryContext::default();
            for i in 0..12 {
                let mut f =
                    bolt_ir::BinaryFunction::new(format!("f{i}"), 0x1000 + 0x100 * i as u64);
                let b = f.add_block(BasicBlock::new());
                f.block_mut(b).push(Inst::Ret);
                ctx.add_function(f);
            }
            let mut m = PassManager::new();
            m.register(Box::new(PoisonPass {
                target: "f5".to_string(),
            }));
            m.config.threads = threads;
            let result = m.run(&mut ctx, &PassOptions::default());
            assert_eq!(
                result.failures,
                vec![PassFailure {
                    pass: "poison".to_string(),
                    function: Some("f5".to_string()),
                    detail: "poison-pass: injected fault on f5".to_string(),
                }],
                "threads={threads}"
            );
            assert!(!ctx.functions[5].is_simple);
            assert_eq!(
                ctx.functions.iter().filter(|f| f.is_simple).count(),
                11,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn repeated_passes_report_under_one_name() {
        let mut m = PassManager::standard(&PassOptions::default());
        let mut ctx = BinaryContext::default();
        let result = m.run(&mut ctx, &PassOptions::default());
        let icf_runs = result.reports.iter().filter(|r| r.name == "icf").count();
        let peephole_runs = result
            .reports
            .iter()
            .filter(|r| r.name == "peepholes")
            .count();
        assert_eq!(icf_runs, 2, "icf registered and reported twice");
        assert_eq!(peephole_runs, 2, "peepholes registered and reported twice");
    }
}
