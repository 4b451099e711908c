//! Compilation options: the knobs the paper's evaluation varies
//! (section 6.2: baseline, PGO, LTO, and combinations).

use crate::pgo::SourceProfile;

/// Options controlling the compiler substrate.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// 0 = naive, 1 = hint-driven inlining, 2 = aggressive inlining +
    /// tail calls + better scratch allocation.
    pub opt_level: u8,
    /// Allow cross-module inlining (link-time optimization).
    pub lto: bool,
    /// Profile-guided optimization: source-level profile used for hot-call
    /// inlining and block layout (the AutoFDO-style path whose inline-copy
    /// aggregation loss is paper Figure 2).
    pub pgo: Option<SourceProfile>,
    /// Route external (runtime) calls through PLT stubs.
    pub plt: bool,
    /// Emit `repz ret` instead of `ret` (legacy-AMD workaround stripped by
    /// BOLT's `strip-rep-ret`, Table 1 pass 1).
    pub legacy_amd: bool,
    /// Align loop headers to 16 bytes with NOP padding (discarded by BOLT,
    /// paper section 4).
    pub align_blocks: bool,
    /// Explicit function order for the linker (e.g. produced by HFSort) —
    /// the link-time layout baseline of paper section 6.1.
    pub function_order: Option<Vec<String>>,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            opt_level: 2,
            lto: false,
            pgo: None,
            plt: true,
            legacy_amd: false,
            align_blocks: true,
            function_order: None,
        }
    }
}

impl CompileOptions {
    /// The paper's baseline configuration (plain `-O2` build).
    pub fn baseline() -> CompileOptions {
        CompileOptions::default()
    }

    /// `-O2` + PGO.
    pub fn pgo(profile: SourceProfile) -> CompileOptions {
        CompileOptions {
            pgo: Some(profile),
            ..CompileOptions::default()
        }
    }

    /// `-O2` + PGO + LTO.
    pub fn pgo_lto(profile: SourceProfile) -> CompileOptions {
        CompileOptions {
            pgo: Some(profile),
            lto: true,
            ..CompileOptions::default()
        }
    }
}
