//! The [`PassManager`]: paper Table 1 as a table.
//!
//! The pipeline is a registry of plain [`PassRow`]s — a name, a gate on
//! [`PassOptions`], and a body that is either a per-function kernel or a
//! closure over the whole context — and [`PassManager::run`] is the
//! one loop over it: it gates every row, validates IR invariants between
//! passes (in debug builds), firewalls every body against panics, and
//! records a [`PassReport`](crate::PassReport) per executed row carrying
//! the change count, the wall-clock duration (`-time-passes`-style), and
//! — when [`ManagerConfig::collect_dyno`] is set — before/after
//! [`DynoStats`](crate::DynoStats) so per-pass dyno deltas can be
//! attributed.
//!
//! Extending the pipeline means adding one row to
//! [`PassManager::standard`] (or [`PassManager::register`]ing one);
//! nothing else in the crate needs editing. The same name may appear in
//! several rows (the Table-1 order runs `icf` and `peepholes` twice);
//! repeated instances are distinguished in validation messages and
//! failure reports as e.g. `icf(2)`.

use crate::function_pass::{panic_message, run_function_pass, Kernel};
use crate::{
    dyno, fixup, frame, icf, icp, inline_small, layout, peephole, plt, reorder_functions, ro_loads,
    sctc, uce, PassFailure, PassOptions, PassReport, PipelineResult,
};
use bolt_ir::{BinaryContext, BinaryFunction};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A whole-context body, handed the context and the effective thread
/// count for any part it shards: returns the change count
/// (pass-specific unit, matching Table 1's activity column) and, for a
/// pass that chooses the function emission order, that order (moved
/// into [`PipelineResult::function_order`]).
type ContextBody = dyn Fn(&mut BinaryContext, usize) -> (u64, Option<Vec<usize>>);

/// What a registry row runs. The per-function / whole-context
/// distinction is this enum and nothing else: it decides how the manager
/// shards the work and where the panic firewall sits (see the two
/// [`PassRow`] constructors).
enum PassBody {
    PerFunction(Box<Kernel>),
    WholeContext(Box<ContextBody>),
}

/// One pipeline transformation: a row of the registry.
///
/// Parameterized passes capture their parameters (ICP's threshold, the
/// layout modes) in the body's closure when the row is built, so the
/// body only sees the IR. `enabled` re-consults the options passed to
/// [`PassManager::run`], which gate the boolean on/off toggles only; to
/// change *parameterized* options, rebuild the manager with
/// [`PassManager::standard`] rather than passing a different option set
/// to `run`.
pub struct PassRow {
    /// The report/display name (Table 1 spelling, e.g. `"icf"`).
    name: &'static str,
    /// Whether this row should run under the given options.
    enabled: fn(&PassOptions) -> bool,
    body: PassBody,
}

impl PassRow {
    /// A row whose body is a pure per-function [`Kernel`]: sharded
    /// across [`ManagerConfig::threads`] workers and firewalled per
    /// function — a panic quarantines that one function.
    pub fn per_function(
        name: &'static str,
        enabled: fn(&PassOptions) -> bool,
        kernel: impl Fn(&mut BinaryFunction) -> u64 + Sync + 'static,
    ) -> PassRow {
        PassRow {
            name,
            enabled,
            body: PassBody::PerFunction(Box::new(kernel)),
        }
    }

    /// A row whose body works on the whole context and returns its
    /// change count: run serially and firewalled as a whole — a panic
    /// aborts the rest of the pipeline, because there is no per-function
    /// boundary to contain it.
    pub fn whole_context(
        name: &'static str,
        enabled: fn(&PassOptions) -> bool,
        body: impl Fn(&mut BinaryContext) -> u64 + 'static,
    ) -> PassRow {
        PassRow {
            name,
            enabled,
            body: PassBody::WholeContext(Box::new(move |ctx, _| (body(ctx), None))),
        }
    }

    /// A [`whole_context`](Self::whole_context) row whose body shards
    /// part of its work: it is also handed the effective thread count.
    fn whole_context_sharded(
        name: &'static str,
        enabled: fn(&PassOptions) -> bool,
        body: impl Fn(&mut BinaryContext, usize) -> u64 + 'static,
    ) -> PassRow {
        PassRow {
            name,
            enabled,
            body: PassBody::WholeContext(Box::new(move |ctx, n| (body(ctx, n), None))),
        }
    }

    /// Deterministic fault injection (`FaultPlan::PoisonPass`): a kernel
    /// that panics on one named function, exercising the per-function
    /// firewall end to end. Targeting by *name* (resolved from the Nth
    /// simple function by the driver) rather than a visit counter keeps
    /// it deterministic under sharding. Gated on `is_simple` only — NOT
    /// on [`may_transform`](BinaryFunction::may_transform) — so a
    /// function the ladder demoted to layout-only is poisoned *again* on
    /// the retry, driving it down the full
    /// `default -> layout-only -> quarantined` ladder; only full
    /// quarantine (which clears `is_simple`) stops it.
    pub fn poison(target: String) -> PassRow {
        PassRow::per_function("poison", always, move |func| {
            if func.is_simple && func.name == target {
                panic!("poison-pass: injected fault on {}", func.name);
            }
            0
        })
    }
}

/// The gate of a row that runs under every option set.
fn always(_: &PassOptions) -> bool {
    true
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
    /// Whether (and how often) to run the `bolt-verify` IR lint.
    pub lint: LintMode,
    /// Passes excluded this run regardless of [`PassOptions`]. Set by
    /// the quarantine ladder: after a whole-context pass panics (the
    /// context is untrusted and the pipeline aborts), the driver
    /// discards the round and retries with the offender's
    /// [`PassFailure::pass`] listed here. An entry disables every row of
    /// its base name, whether it is spelled `"icf"` or — as the manager
    /// reports a repeated row's failure — `"icf(2)"`.
    pub disabled: Vec<String>,
}

impl Default for ManagerConfig {
    fn default() -> ManagerConfig {
        ManagerConfig {
            validate: true,
            collect_dyno: false,
            threads: 0,
            lint: LintMode::Off,
            disabled: Vec::new(),
        }
    }
}

/// Owns the ordered pass registry and runs it over a context.
#[derive(Default)]
pub struct PassManager {
    rows: Vec<PassRow>,
    pub config: ManagerConfig,
}

impl PassManager {
    /// An empty manager; use [`register`](Self::register) to populate.
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// The Table-1 pipeline in paper order (the crate-level doc table),
    /// with pass parameters drawn from `opts`.
    pub fn standard(opts: &PassOptions) -> PassManager {
        use PassRow as Row;
        let &PassOptions {
            icp_threshold,
            reorder_blocks,
            split_functions,
            split_all_cold,
            split_eh,
            reorder_functions: algorithm,
            ..
        } = opts;
        let rows = vec![
            // #1: strip `repz` from `repz retq` (legacy AMD workaround).
            Row::per_function(
                "strip-rep-ret",
                |o| o.strip_rep_ret,
                peephole::strip_rep_ret_function,
            ),
            // #2 and #7: identical code folding.
            Row::whole_context_sharded("icf", |o| o.icf, icf::run_icf_with_threads),
            // #3: indirect call promotion.
            Row::whole_context(
                "icp",
                |o| o.icp,
                move |ctx| icp::run_icp(ctx, icp_threshold),
            ),
            // #4 and #10: simple peepholes.
            Row::per_function("peepholes", |o| o.peepholes, peephole::peepholes_function),
            // #5: inline small functions.
            Row::whole_context(
                "inline-small",
                |o| o.inline_small,
                inline_small::run_inline_small,
            ),
            // #6: turn loads of statically known `.rodata` into movs.
            Row::whole_context(
                "simplify-ro-loads",
                |o| o.simplify_ro_loads,
                ro_loads::run_simplify_ro_loads,
            ),
            Row::whole_context_sharded("icf", |o| o.icf, icf::run_icf_with_threads),
            // #8: remove indirection from PLT calls.
            Row::whole_context("plt", |o| o.plt, plt::run_plt),
            // #9: block reordering + hot/cold splitting. Always runs and
            // always reports (with `-reorder-blocks=none`, zero changes).
            Row::whole_context("reorder-bbs", always, move |ctx| {
                layout::run_reorder_bbs(
                    ctx,
                    reorder_blocks,
                    split_functions,
                    split_all_cold,
                    split_eh,
                )
            }),
            Row::per_function("peepholes", |o| o.peepholes, peephole::peepholes_function),
            // #11: unreachable-code elimination.
            Row::per_function("uce", |o| o.uce, uce::uce_function),
            // #12: rewrite terminators to match CFG + layout.
            Row::per_function("fixup-branches", always, fixup::fixup_function),
            // #13: HFSort function reordering. Always runs (the `none`
            // algorithm yields the identity order), reports the number
            // of functions ordered, and returns the order itself.
            Row {
                name: "reorder-functions",
                enabled: always,
                body: PassBody::WholeContext(Box::new(move |ctx, _| {
                    let order = reorder_functions::run_reorder_functions(ctx, algorithm);
                    (order.len() as u64, Some(order))
                })),
            },
            // #14: simplify conditional tail calls. sctc rewires
            // terminators, so branch fixup re-runs right after it — as
            // its own row, so `-time-passes` attributes the re-run's
            // wall clock and change count to fixup, not to sctc.
            Row::per_function("sctc", |o| o.sctc, sctc::sctc_function),
            Row::per_function("fixup-branches", |o| o.sctc, fixup::fixup_function),
            // #15: remove unnecessary caller-saved spills.
            Row::per_function("frame-opts", |o| o.frame_opts, frame::frame_opts_function),
            // #16: move callee-saved spills toward their uses.
            Row::per_function(
                "shrink-wrapping",
                |o| o.shrink_wrapping,
                frame::shrink_wrap_function,
            ),
        ];
        PassManager {
            rows,
            config: ManagerConfig::default(),
        }
    }

    /// Appends a row to the registry (runs after everything already
    /// registered). The same pass name may appear more than once.
    pub fn register(&mut self, row: PassRow) -> &mut PassManager {
        self.rows.push(row);
        self
    }

    /// The registered pass names in execution order (including disabled
    /// and repeated passes).
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.rows.iter().map(|r| r.name).collect()
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

    /// Runs every registered row enabled under `opts`, in order.
    ///
    /// Per-function kernels are sharded across
    /// [`ManagerConfig::threads`] workers (the sharder serializes itself
    /// at one thread, so a pass cannot behave differently between the
    /// two); whole-context bodies run on the calling thread, sharding only
    /// what they hand to the same chunking (ICF's body hashing). The
    /// [`PipelineResult`] is byte-identical at any thread count.
    pub fn run(&self, ctx: &mut BinaryContext, opts: &PassOptions) -> PipelineResult {
        let n_threads = bolt_emu::Knobs::get().threads(self.config.threads);
        let mut result = PipelineResult::default();
        let mut occurrences: HashMap<&'static str, u32> = HashMap::new();
        // Nothing mutates the context between one pass's after-sweep and
        // the next pass's before-sweep (validation is read-only), so each
        // boundary is swept once and shared.
        let mut carried_dyno: Option<dyno::DynoStats> = None;
        for row in &self.rows {
            let name = row.name;
            let disabled = |d: &String| d.split('(').next() == Some(name);
            if !(row.enabled)(opts) || self.config.disabled.iter().any(disabled) {
                continue;
            }
            let occurrence = occurrences.entry(name).and_modify(|n| *n += 1).or_insert(1);
            let instance = if *occurrence > 1 {
                format!("{name}({occurrence})")
            } else {
                name.to_string()
            };

            let dyno_before = self.config.collect_dyno.then(|| {
                carried_dyno
                    .take()
                    .unwrap_or_else(|| dyno::context_dyno_stats(ctx))
            });
            let started = Instant::now();
            // Set when a whole-context body panics: the context is
            // untrusted, so the remaining rows (and the final lint,
            // which indexes into possibly-inconsistent IR) are skipped.
            let mut aborted = false;
            let changes = match &row.body {
                PassBody::PerFunction(kernel) => {
                    let run = run_function_pass(kernel.as_ref(), ctx, n_threads);
                    for (function, detail) in run.failures {
                        result.failures.push(PassFailure {
                            pass: instance.clone(),
                            function: Some(function),
                            detail,
                        });
                    }
                    run.changes
                }
                PassBody::WholeContext(body) => {
                    match catch_unwind(AssertUnwindSafe(|| body(ctx, n_threads))) {
                        Ok((changes, order)) => {
                            if let Some(order) = order {
                                result.function_order = order;
                            }
                            changes
                        }
                        Err(payload) => {
                            result.failures.push(PassFailure {
                                pass: instance.clone(),
                                function: None,
                                detail: panic_message(payload.as_ref()),
                            });
                            aborted = true;
                            0
                        }
                    }
                }
            };
            let duration = started.elapsed();
            let dyno_after = self
                .config
                .collect_dyno
                .then(|| dyno::context_dyno_stats(ctx));
            carried_dyno = dyno_after;

            result.reports.push(PassReport {
                name,
                changes,
                duration,
                dyno_before,
                dyno_after,
            });
            if aborted {
                return result;
            }
            if self.config.validate {
                validate_all(ctx, &instance);
            }
            if self.config.lint == LintMode::Each {
                run_lint(ctx, &instance, &mut result);
            }
        }
        if self.config.lint == LintMode::Final {
            run_lint(ctx, "pipeline", &mut result);
        }
        result
    }
}

#[cfg(test)]
impl PassManager {
    /// Drops the first row named `name` and every row after it: the
    /// pipeline as far as the passes that run before that one.
    pub(crate) fn truncate_before(&mut self, name: &str) {
        let at = self.rows.iter().position(|r| r.name == name);
        self.rows.truncate(at.expect("a registered pass"));
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
        let m = PassManager::standard(&PassOptions::default());
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
        let mut ctx = BinaryContext::default();
        let mut f = bolt_ir::BinaryFunction::new("f", 0x1000);
        let b = f.add_block(BasicBlock::new());
        f.block_mut(b).push(Inst::Ret);
        ctx.add_function(f);
        let mut m = PassManager::new();
        m.register(PassRow::whole_context("corrupt", always, |ctx| {
            ctx.functions[0].layout.push(BlockId(7));
            1
        }));
        m.config.lint = LintMode::Each;
        m.config.validate = false; // the debug-build panic would fire before the lint
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
        let mut m = PassManager::new();
        m.register(PassRow::whole_context("bomb", always, |_| {
            panic!("whole-context fault")
        }))
        .register(PassRow::whole_context("never", always, |_| {
            panic!("must not run after an abort")
        }));
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

    /// The ladder's `disable-pass` rung: the driver pushes
    /// [`PassFailure::pass`] verbatim into `disabled`, and a repeated
    /// row fails under its instance spelling (`"twice(2)"`), which must
    /// disable the pass all the same — otherwise the same abort repeats
    /// every round.
    #[test]
    fn disabled_honours_the_instance_spelling_of_a_repeated_row() {
        let mut m = PassManager::new();
        m.register(PassRow::whole_context("twice", always, |_| 0))
            .register(PassRow::whole_context("twice", always, |_| {
                panic!("second instance fault")
            }));
        let mut rounds = 0;
        let result = loop {
            rounds += 1;
            assert!(rounds <= 16, "the same abort repeats every round");
            let result = m.run(&mut BinaryContext::default(), &PassOptions::default());
            let Some(abort) = result.aborted_by() else {
                break result;
            };
            m.config.disabled.push(abort.pass.clone());
        };
        assert_eq!(rounds, 2);
        assert_eq!(m.config.disabled, ["twice(2)"], "reported once");
        assert!(result.reports.is_empty(), "both rows of the name are off");
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
            m.register(PassRow::poison("f5".to_string()));
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
        let m = PassManager::standard(&PassOptions::default());
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
