//! The BOLT driver: the full rewriting pipeline of paper Figure 3.

use crate::disasm::disassemble_all_with_threads;
use crate::discover::discover;
use crate::emit::{rewrite_binary_with_threads, RewriteStats};
use crate::options::BoltOptions;
use crate::report::bad_layout_report;
use bolt_elf::Elf;
use bolt_ir::{BinaryContext, EmitError, NonSimpleReason, OptTier};
use bolt_passes::{dyno, DynoStats, LintMode, PassManager, PassRow, PipelineResult};
use bolt_profile::{
    attach_profile_opts, infer_callgraph_from_samples, AttachStats, Profile, ProfileMode,
};
use bolt_verify::{verify_rewrite, verify_semantics, VerifyReport};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Everything a BOLT run produces.
#[derive(Debug)]
pub struct BoltOutput {
    /// The rewritten binary.
    pub elf: Elf,
    /// Dyno stats before the pipeline (paper Table 2's baselines).
    pub dyno_before: DynoStats,
    /// Dyno stats after the pipeline.
    pub dyno_after: DynoStats,
    /// Per-pass reports and the chosen function order.
    pub pipeline: PipelineResult,
    /// The optimized context, for inspection (CFG dumps, heat analysis).
    pub ctx: BinaryContext,
    /// Profile-attachment statistics.
    pub attach_stats: AttachStats,
    /// Rewrite statistics.
    pub rewrite_stats: RewriteStats,
    /// Wall clock of the final round's [`prepare`] (`-time-passes`).
    pub prepare_timing: PrepareTiming,
    /// Wall clock of the before and after dyno-stats sweeps (`-time-passes`);
    /// `None` without `-dyno-stats`.
    pub dyno_time: Option<Duration>,
    /// Number of functions BOLT fully understood.
    pub simple_functions: usize,
    /// `-report-bad-layout` output, when requested.
    pub bad_layout: Option<String>,
    /// Static verification of the rewritten binary (`-verify` /
    /// `-verify-each`): the re-disassembly check's report. IR-lint
    /// findings from between passes are in
    /// [`PipelineResult::findings`](bolt_passes::PipelineResult).
    pub verify: Option<VerifyReport>,
    /// Symbolic translation validation of the rewritten binary
    /// (`-verify-sem`): every emitted function's bytes translated under
    /// each emulation tier and proven semantically equivalent to a
    /// fresh decode.
    pub verify_sem: Option<VerifyReport>,
    /// What the fault-tolerance ladder did: every per-function
    /// demotion (layout-only, quarantine) and disabled pass, with the
    /// failing stage and detail. Empty on a healthy run.
    pub quarantine: QuarantineReport,
}

impl BoltOutput {
    /// Every verifier finding — IR-lint findings from between passes,
    /// the re-disassembly findings on the rewritten binary, and the
    /// semantic translation-validation findings.
    pub fn all_findings(&self) -> Vec<&bolt_verify::Finding> {
        self.pipeline
            .findings
            .iter()
            .chain(self.verify.iter().flat_map(|v| v.findings.iter()))
            .chain(self.verify_sem.iter().flat_map(|v| v.findings.iter()))
            .collect()
    }
}

/// Driver errors: the structured taxonomy of everything that can stop a
/// BOLT run. Per-function problems (decode failures, pass panics,
/// verifier findings) normally degrade through the quarantine ladder
/// instead of erroring; these variants surface only when a failure
/// cannot be contained to a function.
#[derive(Debug)]
pub enum BoltError {
    /// The input binary could not be parsed as an ELF image.
    ElfParse { detail: String },
    /// The profile data could not be parsed.
    ProfileParse { detail: String },
    /// A function's bytes failed to decode.
    Decode {
        function: String,
        addr: u64,
        detail: String,
    },
    /// A function's control flow could not be reconstructed.
    CfgDiscovery {
        function: String,
        addr: u64,
        detail: String,
    },
    /// A pass failed beyond what the quarantine ladder could absorb.
    Pass {
        pass: String,
        function: Option<String>,
        detail: String,
    },
    /// Re-emission failed even after quarantine retries.
    Emit(EmitError),
}

impl fmt::Display for BoltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoltError::ElfParse { detail } => write!(f, "malformed ELF: {detail}"),
            BoltError::ProfileParse { detail } => write!(f, "malformed profile: {detail}"),
            BoltError::Decode {
                function,
                addr,
                detail,
            } => write!(f, "decode failed in {function} @ {addr:#x}: {detail}"),
            BoltError::CfgDiscovery {
                function,
                addr,
                detail,
            } => write!(
                f,
                "CFG discovery failed in {function} @ {addr:#x}: {detail}"
            ),
            BoltError::Pass {
                pass,
                function,
                detail,
            } => match function {
                Some(func) => write!(f, "pass {pass} failed on {func}: {detail}"),
                None => write!(f, "pass {pass} failed: {detail}"),
            },
            BoltError::Emit(e) => write!(f, "emission failed: {e}"),
        }
    }
}

impl std::error::Error for BoltError {}

impl From<EmitError> for BoltError {
    fn from(e: EmitError) -> BoltError {
        BoltError::Emit(e)
    }
}

impl From<bolt_elf::ElfError> for BoltError {
    fn from(e: bolt_elf::ElfError) -> BoltError {
        BoltError::ElfParse {
            detail: e.to_string(),
        }
    }
}

impl From<bolt_profile::FdataError> for BoltError {
    fn from(e: bolt_profile::FdataError) -> BoltError {
        BoltError::ProfileParse {
            detail: e.to_string(),
        }
    }
}

/// What the fault-tolerance ladder did to contain one failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QuarantineAction {
    /// The function was demoted to [`OptTier::LayoutOnly`]:
    /// instruction-mutating passes skip it, layout passes still run.
    DemoteLayoutOnly,
    /// The function was excluded from optimization entirely; the
    /// rewritten binary keeps its original bytes verbatim.
    Quarantine,
    /// A whole-context pass poisoned the shared context; it was
    /// disabled and the pipeline rebuilt from scratch.
    DisablePass,
}

impl QuarantineAction {
    /// Stable report name.
    pub fn as_str(self) -> &'static str {
        match self {
            QuarantineAction::DemoteLayoutOnly => "layout-only",
            QuarantineAction::Quarantine => "quarantine",
            QuarantineAction::DisablePass => "disable-pass",
        }
    }
}

impl fmt::Display for QuarantineAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One degradation taken by the ladder: which function (or pass), at
/// which stage of the pipeline, demoted how far, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// The affected function (empty for [`QuarantineAction::DisablePass`]).
    pub function: String,
    /// The failing stage: `pass:<name>`, `emit`, `lint`, `verify`, or
    /// `verify-sem`.
    pub stage: String,
    pub action: QuarantineAction,
    pub detail: String,
}

impl fmt::Display for QuarantineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.action)?;
        if !self.function.is_empty() {
            write!(f, " {}", self.function)?;
        }
        write!(f, " at {}: {}", self.stage, self.detail)
    }
}

/// Everything the quarantine ladder did during a run. A healthy run has
/// `rounds == 1` and no events.
#[derive(Debug, Clone, Default)]
pub struct QuarantineReport {
    /// Every degradation, in the order it was taken.
    pub events: Vec<QuarantineEvent>,
    /// How many times the pipeline ran (1 = no retries).
    pub rounds: usize,
    /// Functions running at [`OptTier::LayoutOnly`] in the final round.
    pub layout_only: usize,
    /// Functions fully excluded in the final round.
    pub quarantined: usize,
    /// Whole-context passes disabled for the final round.
    pub disabled_passes: Vec<String>,
}

impl QuarantineReport {
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// `-time-passes`-style text block, one line per degradation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "quarantine: {} round(s), {} layout-only, {} quarantined, {} pass(es) disabled\n",
            self.rounds,
            self.layout_only,
            self.quarantined,
            self.disabled_passes.len()
        ));
        for e in &self.events {
            out.push_str(&format!("  {e}\n"));
        }
        out
    }
}

/// Wall clock of [`prepare`]'s three stages (`-time-passes`): function
/// discovery, disassembly with CFG construction, profile attachment.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareTiming {
    pub discover: Duration,
    pub disasm: Duration,
    pub attach: Duration,
}

/// The driver's state right before the optimization pipeline runs:
/// stages 1–5 of paper Figure 3 (discovery through profile attachment).
#[derive(Debug)]
pub struct PreparedContext {
    /// The disassembled, profile-annotated context the pipeline consumes.
    pub ctx: BinaryContext,
    /// Profile-attachment statistics.
    pub attach_stats: AttachStats,
    /// Number of functions BOLT fully understood.
    pub simple_functions: usize,
    /// How long each stage took.
    pub timing: PrepareTiming,
}

/// Runs the pre-pipeline stages of [`optimize`] — function discovery,
/// disassembly + CFG construction, and profile attachment — and returns
/// the exact context the optimization pipeline would consume. Benches
/// and tests that drive `PassManager` directly use this so they cannot
/// drift from the real driver.
pub fn prepare(elf: &Elf, profile: &Profile, opts: &BoltOptions) -> PreparedContext {
    let started = Instant::now();
    // Figure 3: function discovery, read debug info, read profile data.
    let (mut ctx, raw_funcs) = discover(elf);
    let discovered = Instant::now();
    // Disassembly + CFG construction (planned on one worker when
    // opts.threads > 1, built on this thread).
    let simple_functions = disassemble_all_with_threads(&mut ctx, &raw_funcs, elf, opts.threads);
    drop(raw_funcs);
    let disassembled = Instant::now();
    // Profile attachment (+ non-LBR call-graph inference, section 5.3).
    let attach_stats = attach_profile_opts(&mut ctx, profile, opts.non_lbr_tuned);
    if profile.mode == ProfileMode::IpSamples {
        infer_callgraph_from_samples(&mut ctx);
    }
    PreparedContext {
        ctx,
        attach_stats,
        simple_functions,
        timing: PrepareTiming {
            discover: discovered - started,
            disasm: disassembled - discovered,
            attach: disassembled.elapsed(),
        },
    }
}

/// Retry-round backstop. Each retry records at least one new demotion
/// or disabled pass, so the ladder terminates on its own; the cap only
/// bounds pathological inputs.
const MAX_ROUNDS: usize = 16;

/// Runs BOLT over `elf` with `profile`.
///
/// Per-function failures — a panicking pass kernel, an emit error
/// attributable to one function, a `-verify`/`-verify-sem` finding —
/// degrade through a retry ladder instead of failing the run: the
/// function is demoted `default -> layout-only -> quarantined` and the
/// pipeline re-runs from a fresh [`prepare`]. A quarantined function
/// keeps its original bytes verbatim in the output. A panicking
/// whole-context pass poisons the shared IR, so it is disabled outright
/// and the pipeline rebuilt. Everything the ladder did is reported in
/// [`BoltOutput::quarantine`]; a healthy run takes one round and
/// reports nothing.
///
/// # Errors
///
/// Fails only when a failure cannot be contained to a function even
/// with every rung of the ladder exhausted (see [`BoltError`]).
pub fn optimize(elf: &Elf, profile: &Profile, opts: &BoltOptions) -> Result<BoltOutput, BoltError> {
    // Demotions accumulated across rounds, keyed by function name:
    // prepare() is deterministic, so names are stable round to round.
    let mut demotions: BTreeMap<String, QuarantineAction> = BTreeMap::new();
    let mut disabled_passes: Vec<String> = Vec::new();
    let mut events: Vec<QuarantineEvent> = Vec::new();
    let mut rounds = 0usize;
    // Fault-injection target, resolved once from the pristine round-1
    // context — resolving per round would shift the Nth-simple-function
    // index onto an innocent neighbor once the target is quarantined.
    let mut poison_target: Option<String> = None;

    'ladder: loop {
        rounds += 1;
        let PreparedContext {
            mut ctx,
            attach_stats,
            simple_functions: _,
            timing: prepare_timing,
        } = prepare(elf, profile, opts);

        for (name, action) in &demotions {
            let Some(&fi) = ctx.by_name.get(name.as_str()) else {
                continue;
            };
            match action {
                QuarantineAction::DemoteLayoutOnly => {
                    ctx.functions[fi].opt_tier = OptTier::LayoutOnly;
                }
                QuarantineAction::Quarantine => {
                    ctx.functions[fi].is_simple = false;
                    ctx.functions[fi].non_simple_reason = Some(NonSimpleReason::Quarantined);
                }
                QuarantineAction::DisablePass => unreachable!("demotions hold function actions"),
            }
        }
        // Recount after demotions: quarantined functions are no longer
        // simple (a clean run matches prepare()'s count exactly).
        let simple_functions = ctx.functions.iter().filter(|f| f.is_simple).count();

        let bad_layout = if opts.report_bad_layout {
            Some(bad_layout_report(&ctx, opts.print_debug_info))
        } else {
            None
        };

        let mut dyno_time = opts.dyno_stats.then_some(Duration::ZERO);
        let mut dyno_sweep = |ctx: &BinaryContext| match &mut dyno_time {
            Some(time) => {
                let started = Instant::now();
                let stats = dyno::context_dyno_stats(ctx);
                *time += started.elapsed();
                stats
            }
            None => DynoStats::default(),
        };
        let dyno_before = dyno_sweep(&ctx);

        // Optimization pipeline: the standard Table-1 registry, with
        // per-pass dyno attribution when both -time-passes and
        // -dyno-stats are requested.
        let mut manager = PassManager::standard(&opts.passes);
        manager.config.collect_dyno = opts.time_passes && opts.dyno_stats;
        manager.config.threads = opts.threads;
        manager.config.lint = if opts.verify_each {
            LintMode::Each
        } else if opts.verify {
            LintMode::Final
        } else {
            LintMode::Off
        };
        manager.config.disabled = disabled_passes.clone();
        if let Some(nth) = opts.poison_nth {
            // Fault injection: resolve the Nth simple function by index
            // (deterministic under any thread count) and register a
            // pass that panics on it.
            if rounds == 1 {
                poison_target = ctx
                    .functions
                    .iter()
                    .filter(|f| f.is_simple)
                    .nth(nth)
                    .map(|f| f.name.clone());
            }
            if let Some(target) = &poison_target {
                manager.register(PassRow::poison(target.clone()));
            }
        }
        let pipeline = manager.run(&mut ctx, &opts.passes);

        // Contain pipeline failures before trusting the IR any further.
        let mut retry = false;
        if let Some(abort) = pipeline.aborted_by() {
            // A whole-context pass panicked: the shared IR is
            // untrusted. Disable the pass and rebuild from scratch.
            if rounds >= MAX_ROUNDS {
                return Err(BoltError::Pass {
                    pass: abort.pass.clone(),
                    function: None,
                    detail: abort.detail.clone(),
                });
            }
            disabled_passes.push(abort.pass.clone());
            events.push(QuarantineEvent {
                function: String::new(),
                stage: format!("pass:{}", abort.pass),
                action: QuarantineAction::DisablePass,
                detail: abort.detail.clone(),
            });
            retry = true;
        }
        for failure in &pipeline.failures {
            let Some(func) = &failure.function else {
                continue; // the whole-context abort, handled above
            };
            let action = match demotions.get(func) {
                None => QuarantineAction::DemoteLayoutOnly,
                Some(QuarantineAction::DemoteLayoutOnly) => QuarantineAction::Quarantine,
                Some(_) => continue, // already fully excluded
            };
            if rounds >= MAX_ROUNDS {
                return Err(BoltError::Pass {
                    pass: failure.pass.clone(),
                    function: Some(func.clone()),
                    detail: failure.detail.clone(),
                });
            }
            demotions.insert(func.clone(), action);
            events.push(QuarantineEvent {
                function: func.clone(),
                stage: format!("pass:{}", failure.pass),
                action,
                detail: failure.detail.clone(),
            });
            retry = true;
        }
        if retry {
            continue 'ladder;
        }

        let dyno_after = dyno_sweep(&ctx);

        // Emit and rewrite. An emit error attributable to one function
        // quarantines it; anything else quarantines every still-emitted
        // function (last-resort graceful degradation: the output then
        // preserves the input bytes wholesale).
        let order = &pipeline.function_order;
        let (out, rewrite_stats) = match rewrite_binary_with_threads(elf, &ctx, order, opts.threads)
        {
            Ok(v) => v,
            Err(e) => {
                if rounds >= MAX_ROUNDS {
                    return Err(BoltError::Emit(e));
                }
                let mut progressed = false;
                let culprits: Vec<String> = match &e {
                    EmitError::TrailingFallthrough { function } => vec![function.clone()],
                    _ => ctx
                        .functions
                        .iter()
                        .filter(|f| f.is_simple)
                        .map(|f| f.name.clone())
                        .collect(),
                };
                for func in culprits {
                    if demotions.get(&func) == Some(&QuarantineAction::Quarantine) {
                        continue;
                    }
                    demotions.insert(func.clone(), QuarantineAction::Quarantine);
                    events.push(QuarantineEvent {
                        function: func,
                        stage: "emit".to_string(),
                        action: QuarantineAction::Quarantine,
                        detail: e.to_string(),
                    });
                    progressed = true;
                }
                if !progressed {
                    return Err(BoltError::Emit(e));
                }
                continue 'ladder;
            }
        };

        // Static verification of the rewritten binary: re-disassemble
        // it with nothing but the decoder and check it against the
        // optimized IR.
        let verify = (opts.verify || opts.verify_each).then(|| verify_rewrite(&out, &ctx));

        // Symbolic translation validation: prove the emulator's
        // translation tiers semantically faithful on exactly the code
        // this binary runs.
        let verify_sem = opts.verify_sem.then(|| verify_semantics(&out, &ctx));

        // A function the verifiers flag is excluded and the pipeline
        // re-run; whole-binary findings (no function attribution) are
        // reported but cannot be retried away.
        if rounds < MAX_ROUNDS {
            let lint_findings = pipeline.findings.iter().map(|f| ("lint", f));
            let verify_findings = verify
                .iter()
                .flat_map(|v| v.findings.iter())
                .map(|f| ("verify", f));
            let sem_findings = verify_sem
                .iter()
                .flat_map(|v| v.findings.iter())
                .map(|f| ("verify-sem", f));
            for (stage, finding) in lint_findings.chain(verify_findings).chain(sem_findings) {
                if finding.function.is_empty()
                    || demotions.get(&finding.function) == Some(&QuarantineAction::Quarantine)
                {
                    continue;
                }
                demotions.insert(finding.function.clone(), QuarantineAction::Quarantine);
                events.push(QuarantineEvent {
                    function: finding.function.clone(),
                    stage: stage.to_string(),
                    action: QuarantineAction::Quarantine,
                    detail: finding.to_string(),
                });
                retry = true;
            }
            if retry {
                continue 'ladder;
            }
        }

        let quarantine = QuarantineReport {
            rounds,
            layout_only: demotions
                .values()
                .filter(|&&a| a == QuarantineAction::DemoteLayoutOnly)
                .count(),
            quarantined: demotions
                .values()
                .filter(|&&a| a == QuarantineAction::Quarantine)
                .count(),
            disabled_passes: disabled_passes.clone(),
            events,
        };

        return Ok(BoltOutput {
            elf: out,
            dyno_before,
            dyno_after,
            pipeline,
            ctx,
            attach_stats,
            rewrite_stats,
            prepare_timing,
            dyno_time,
            simple_functions,
            bad_layout,
            verify,
            verify_sem,
            quarantine,
        });
    }
}
