//! # bolt-passes — the optimization pipeline
//!
//! The sixteen-pass pipeline of paper Table 1, kept as a table: a
//! registry of plain [`PassRow`]s (name, [`PassOptions`] gate, body) run
//! by the [`PassManager`]'s one loop, which gates each row, validates IR
//! invariants between passes (debug builds), firewalls every body
//! against panics, and records one [`PassReport`] per executed row —
//! change count, wall-clock duration, and (optionally) before/after
//! [`DynoStats`].
//!
//! The Table-1 order, as registered by [`PassManager::standard`]:
//!
//! | # | pass | module |
//! |---|------|--------|
//! | 1 | `strip-rep-ret` | [`peephole`] |
//! | 2 | `icf` | [`icf`] |
//! | 3 | `icp` | [`icp`] |
//! | 4 | `peepholes` | [`peephole`] |
//! | 5 | `inline-small` | [`inline_small`] |
//! | 6 | `simplify-ro-loads` | [`ro_loads`] |
//! | 7 | `icf` (2nd) | [`icf`] |
//! | 8 | `plt` | [`plt`] |
//! | 9 | `reorder-bbs` + splitting | [`layout`] |
//! | 10 | `peepholes` (2nd) | [`peephole`] |
//! | 11 | `uce` | [`uce`] |
//! | 12 | `fixup-branches` | [`fixup`] |
//! | 13 | `reorder-functions` | [`reorder_functions`] |
//! | 14 | `sctc` | [`sctc`] |
//! | 15 | `frame-opts` | [`frame`] |
//! | 16 | `shrink-wrapping` | [`frame`] |
//!
//! plus a second `fixup-branches` instance right after `sctc` (sctc
//! rewires terminators; the re-run reports its own time and change
//! count) and the `dyno-stats` reporting of paper Table 2 ([`dyno`]).
//!
//! ## Per-function and whole-context bodies
//!
//! A row's body is either a pure per-function kernel
//! (`strip-rep-ret`, `peepholes`, `uce`, `fixup-branches`, `sctc`,
//! `frame-opts`, `shrink-wrapping`) or a closure over the whole context
//! (`icf`, `icp`, `inline-small`, `simplify-ro-loads`, `plt`,
//! `reorder-bbs`, `reorder-functions`). The manager shards kernels over
//! `ctx.functions` across `std::thread::scope` workers when
//! [`ManagerConfig::threads`] resolves to more than one (the
//! `-threads=N` CLI knob; `0` = auto, `1` = serial) and catches a panic
//! per function; a whole-context body runs serially and is caught as a
//! whole. Results are byte-identical at any thread count — see
//! [`function_pass`].
//!
//! ## Running the pipeline
//!
//! [`PassManager::standard`] builds the Table 1 pipeline and
//! [`PassManager::run`] runs it; per-pass dyno attribution (the
//! `-time-passes` surface) and custom pass lists are configured on the
//! manager before the run:
//!
//! ```ignore
//! let mut manager = PassManager::standard(&opts);
//! manager.config.collect_dyno = true;
//! let result = manager.run(&mut ctx, &opts);
//! for r in &result.reports {
//!     println!("{:<20} {:>8} changes in {:?}", r.name, r.changes, r.duration);
//! }
//! ```
//!
//! ## Adding a pass
//!
//! Add one row to [`PassManager::standard`] at the right position —
//! [`PassRow::per_function`] if the transformation only ever touches
//! the function it is handed, [`PassRow::whole_context`] otherwise (the
//! distinction is the row's body, not a second interface); nothing else
//! in the crate needs editing. Parameters are captured by the body's
//! closure. One name may label several rows — the standard pipeline
//! lists `icf`, `peepholes` and `fixup-branches` twice.

pub mod dyno;
pub mod fixup;
pub mod frame;
pub mod function_pass;
pub mod icf;
pub mod icp;
pub mod inline_small;
pub mod layout;
pub mod manager;
pub mod peephole;
pub mod plt;
pub mod reorder_functions;
pub mod ro_loads;
pub mod sctc;
pub mod uce;

pub use dyno::DynoStats;
pub use function_pass::{panic_message, run_function_pass, sharded, Kernel, KernelRun};
pub use layout::{BlockLayout, SplitMode};
pub use manager::{LintMode, ManagerConfig, PassManager, PassRow};

use std::time::Duration;

/// Options for the optimization pipeline (mirrors the BOLT command line
/// used in the paper's evaluation, section 6.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PassOptions {
    pub strip_rep_ret: bool,
    pub icf: bool,
    pub icp: bool,
    /// Minimum fraction of an indirect call's targets a single callee must
    /// take to be promoted.
    pub icp_threshold: f64,
    pub peepholes: bool,
    pub inline_small: bool,
    pub simplify_ro_loads: bool,
    pub plt: bool,
    /// `-reorder-blocks=`
    pub reorder_blocks: BlockLayout,
    /// `-split-functions=` mode.
    pub split_functions: SplitMode,
    /// `-split-all-cold`
    pub split_all_cold: bool,
    /// `-split-eh`
    pub split_eh: bool,
    pub uce: bool,
    /// `-reorder-functions=`
    pub reorder_functions: bolt_hfsort::Algorithm,
    pub sctc: bool,
    pub frame_opts: bool,
    pub shrink_wrapping: bool,
}

impl Default for PassOptions {
    fn default() -> PassOptions {
        // The configuration used throughout the paper's evaluation:
        // -reorder-blocks=cache+ -reorder-functions=hfsort+
        // -split-functions=3 -split-all-cold -split-eh -icf=1
        PassOptions {
            strip_rep_ret: true,
            icf: true,
            icp: true,
            icp_threshold: 0.51,
            peepholes: true,
            inline_small: true,
            simplify_ro_loads: true,
            plt: true,
            reorder_blocks: BlockLayout::CachePlus,
            split_functions: SplitMode::Profiled,
            split_all_cold: true,
            split_eh: true,
            uce: true,
            reorder_functions: bolt_hfsort::Algorithm::HfsortPlus,
            sctc: true,
            frame_opts: true,
            shrink_wrapping: true,
        }
    }
}

impl PassOptions {
    /// Only layout passes (for ablations): block reorder + function
    /// reorder, nothing else.
    pub fn layout_only() -> PassOptions {
        PassOptions {
            strip_rep_ret: false,
            icf: false,
            icp: false,
            peepholes: false,
            inline_small: false,
            simplify_ro_loads: false,
            plt: false,
            sctc: false,
            frame_opts: false,
            shrink_wrapping: false,
            ..PassOptions::default()
        }
    }

    /// Function reordering only (paper Figure 11's "Functions" bars).
    pub fn functions_only() -> PassOptions {
        PassOptions {
            reorder_blocks: BlockLayout::None,
            split_functions: SplitMode::None,
            split_all_cold: false,
            split_eh: false,
            ..PassOptions::layout_only()
        }
    }

    /// Basic-block passes only (paper Figure 11's "BBs" bars).
    pub fn bbs_only() -> PassOptions {
        PassOptions {
            reorder_functions: bolt_hfsort::Algorithm::None,
            ..PassOptions::default()
        }
    }

    /// Everything disabled (identity rewrite). Unlike
    /// [`layout_only`](Self::layout_only), this turns `uce` off too —
    /// an identity rewrite must not delete blocks.
    pub fn none() -> PassOptions {
        PassOptions {
            reorder_blocks: BlockLayout::None,
            split_functions: SplitMode::None,
            split_all_cold: false,
            split_eh: false,
            reorder_functions: bolt_hfsort::Algorithm::None,
            uce: false,
            ..PassOptions::layout_only()
        }
    }

    /// Looks up a named preset (the CLI's `-preset=` values). Accepts
    /// both dash and underscore spellings; returns `None` for unknown
    /// names.
    pub fn preset(name: &str) -> Option<PassOptions> {
        match name.replace('_', "-").as_str() {
            "default" | "paper" => Some(PassOptions::default()),
            "layout-only" => Some(PassOptions::layout_only()),
            "functions-only" => Some(PassOptions::functions_only()),
            "bbs-only" => Some(PassOptions::bbs_only()),
            "none" => Some(PassOptions::none()),
            _ => None,
        }
    }

    /// The names [`preset`](Self::preset) accepts (canonical spellings).
    pub const PRESETS: &'static [&'static str] = &[
        "default",
        "layout-only",
        "functions-only",
        "bbs-only",
        "none",
    ];
}

/// Per-pass activity report.
///
/// Equality compares the semantic fields only — name and change count —
/// so reports from two runs of the same pipeline compare equal even
/// though their wall-clock [`duration`](Self::duration)s differ.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    pub name: &'static str,
    /// Number of program changes the pass made (pass-specific unit).
    pub changes: u64,
    /// Wall-clock time the pass took (`-time-passes`).
    pub duration: Duration,
    /// Dyno stats sampled before the pass, when the manager was asked to
    /// collect per-pass deltas ([`ManagerConfig::collect_dyno`]).
    pub dyno_before: Option<DynoStats>,
    /// Dyno stats sampled after the pass (same gating).
    pub dyno_after: Option<DynoStats>,
}

impl PartialEq for PassReport {
    fn eq(&self, other: &PassReport) -> bool {
        self.name == other.name && self.changes == other.changes
    }
}

impl Eq for PassReport {}

impl PassReport {
    /// The pass's effect on dynamically taken branches, when per-pass
    /// dyno collection was enabled and the baseline is nonzero.
    pub fn taken_branch_delta(&self) -> Option<f64> {
        let (before, after) = (self.dyno_before?, self.dyno_after?);
        if before.taken_branches == 0 {
            return None;
        }
        Some(after.taken_branch_delta(&before))
    }
}

/// One caught pass failure: a per-function kernel panic (carrying the
/// function name) or a whole-context pass panic (`function` is `None` —
/// the context can no longer be trusted and the pipeline stops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassFailure {
    /// Pass instance name, e.g. `"icf(2)"`.
    pub pass: String,
    /// The function whose kernel panicked; `None` for a whole-context
    /// pass failure.
    pub function: Option<String>,
    /// The rendered panic payload.
    pub detail: String,
}

/// The result of running the whole pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineResult {
    pub reports: Vec<PassReport>,
    /// Function emission order chosen by `reorder-functions` (indices into
    /// `ctx.functions`).
    pub function_order: Vec<usize>,
    /// IR-lint findings collected when [`ManagerConfig::lint`] is not
    /// [`LintMode::Off`]; empty on a healthy pipeline.
    pub findings: Vec<bolt_verify::Finding>,
    /// Pass panics caught by the manager's firewalls; empty on a
    /// healthy pipeline. Kernel failures quarantine one function each;
    /// a whole-context failure aborts the remaining pipeline (see
    /// [`aborted_by`](Self::aborted_by)).
    pub failures: Vec<PassFailure>,
}

impl PipelineResult {
    /// Total wall-clock time across all executed passes.
    pub fn total_duration(&self) -> Duration {
        self.reports.iter().map(|r| r.duration).sum()
    }

    /// The whole-context pass failure that aborted the pipeline early,
    /// if any. After such a failure the context is untrusted: the
    /// driver must discard it and retry with the pass disabled rather
    /// than emit from it.
    pub fn aborted_by(&self) -> Option<&PassFailure> {
        self.failures.iter().find(|f| f.function.is_none())
    }
}

/// The pass names and descriptions of paper Table 1 in pipeline order
/// (printed by the `table1_pipeline` bench target).
pub const TABLE1: &[(&str, &str)] = &[
    ("strip-rep-ret", "Strip repz from repz retq instructions used for legacy AMD processors"),
    ("icf", "Identical code folding"),
    ("icp", "Indirect call promotion"),
    ("peepholes", "Simple peephole optimizations"),
    ("inline-small", "Inline small functions"),
    ("simplify-ro-loads", "Fetch constant data in .rodata whose address is known statically and mutate a load into a mov"),
    ("icf", "Identical code folding (second run)"),
    ("plt", "Remove indirection from PLT calls"),
    ("reorder-bbs", "Reorder basic blocks and split hot/cold blocks into separate sections (layout optimization)"),
    ("peepholes", "Simple peephole optimizations (second run)"),
    ("uce", "Eliminate unreachable basic blocks"),
    ("fixup-branches", "Fix basic block terminator instructions to match the CFG and the current layout"),
    ("reorder-functions", "Apply HFSort to reorder functions (layout optimization)"),
    ("sctc", "Simplify conditional tail calls"),
    ("frame-opts", "Removes unnecessary caller-saved register spilling"),
    ("shrink-wrapping", "Moves callee-saved register spills closer to where they are needed"),
];
