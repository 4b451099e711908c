//! BOLT driver options, mirroring the command line used in the paper
//! (section 6.2.1):
//!
//! ```text
//! -b profile.fdata -reorder-blocks=cache+ -reorder-functions=hfsort+
//! -split-functions=3 -split-all-cold -split-eh -dyno-stats -icf=1
//! ```

use bolt_passes::PassOptions;

/// Options controlling a BOLT run.
#[derive(Debug, Clone, Default)]
pub struct BoltOptions {
    /// The optimization pipeline configuration.
    pub passes: PassOptions,
    /// Collect and print per-pass wall-clock timing (`-time-passes`).
    /// Combined with `dyno_stats`, each pass also records before/after
    /// dyno stats so its taken-branch delta can be attributed.
    pub time_passes: bool,
    /// Compute dyno stats before and after (`-dyno-stats`).
    pub dyno_stats: bool,
    /// Collect a bad-layout report before optimizing
    /// (`-report-bad-layout`, paper section 6.3).
    pub report_bad_layout: bool,
    /// Annotate reports with source lines (`-print-debug-info`).
    pub print_debug_info: bool,
    /// Use the layout-trusting non-LBR edge inference (paper section 5.1
    /// compares the naive and tuned inference). No effect in LBR mode.
    pub non_lbr_tuned: bool,
    /// Worker threads for per-function work (`-threads=N`): the
    /// per-function pure passes use all of them; above one, disassembly
    /// plans on one worker beside the building caller. `0` (default)
    /// resolves through `bolt_emu::Knobs::threads` (the `BOLT_THREADS`
    /// environment override, else available parallelism); `1` forces
    /// the serial path. Output is byte-identical at any value.
    pub threads: usize,
    /// Run the static verifier (`-verify`): one IR lint sweep after the
    /// pipeline plus the re-disassembly check of the rewritten binary.
    /// Findings land in [`crate::BoltOutput::verify`] and the pipeline's
    /// `findings`; the sweeps are timed and show up in `-time-passes`
    /// output as `verify` rows.
    pub verify: bool,
    /// Like `verify`, but the IR lint runs after *every* executed pass
    /// (`-verify-each`), pinpointing the pass that broke an invariant.
    /// Implies `verify`.
    pub verify_each: bool,
    /// Run the symbolic translation validator (`-verify-sem`): every
    /// emitted function's bytes are translated under each emulation
    /// tier and each translation proven semantically equivalent to a
    /// fresh decode. Findings land in
    /// [`crate::BoltOutput::verify_sem`].
    pub verify_sem: bool,
    /// Fault injection (`-poison-pass=N`): register a pass whose
    /// per-function kernel panics on the Nth simple function (0-based,
    /// resolved by name for determinism under sharding), exercising the
    /// quarantine ladder end to end. The driver must degrade that
    /// function and keep going; see [`crate::BoltOutput::quarantine`].
    pub poison_nth: Option<usize>,
}

impl BoltOptions {
    /// The paper's evaluation configuration.
    pub fn paper_default() -> BoltOptions {
        BoltOptions {
            passes: PassOptions::default(),
            dyno_stats: true,
            non_lbr_tuned: true,
            ..BoltOptions::default()
        }
    }
}
