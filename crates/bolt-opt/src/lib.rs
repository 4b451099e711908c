//! # bolt-opt — the BOLT binary optimizer
//!
//! The driver crate tying the reproduction together: the rewriting
//! pipeline of paper Figure 3 —
//!
//! ```text
//! function discovery -> read debug info -> read profile data ->
//! disassembly -> CFG construction -> optimization pipeline ->
//! emit and link functions -> rewrite binary file
//! ```
//!
//! The public entry point is [`optimize`]: give it an ELF image, a
//! [`bolt_profile::Profile`], and [`BoltOptions`]; get back the rewritten
//! binary plus the paper's observability artifacts (dyno stats, per-pass
//! reports, bad-layout report).
//!
//! ## Example
//!
//! ```no_run
//! use bolt_opt::{optimize, BoltOptions};
//! use bolt_profile::{Profile, ProfileMode};
//!
//! # fn get_elf() -> bolt_elf::Elf { unimplemented!() }
//! let elf = get_elf();
//! let profile = Profile::new(ProfileMode::Lbr); // from the LBR sampler
//! let out = optimize(&elf, &profile, &BoltOptions::paper_default())?;
//! println!("taken branches: {:+.1}%",
//!          out.dyno_after.taken_branch_delta(&out.dyno_before));
//! # Ok::<(), bolt_opt::BoltError>(())
//! ```

pub mod disasm;
pub mod discover;
pub mod driver;
pub mod emit;
pub mod options;
pub mod report;

pub use disasm::{disassemble_all, disassemble_all_with_threads};
pub use discover::discover;
pub use driver::{
    optimize, prepare, BoltError, BoltOutput, PrepareTiming, PreparedContext, QuarantineAction,
    QuarantineEvent, QuarantineReport,
};
pub use emit::{
    rewrite_binary, rewrite_binary_with_threads, RewriteStats, BOLT_COLD_BASE, BOLT_TEXT_BASE,
};
pub use options::BoltOptions;
pub use report::{
    bad_layout_report, find_bad_layout, prepare_timing_report, rewrite_timing_report,
    timing_report, BadLayoutCase,
};
