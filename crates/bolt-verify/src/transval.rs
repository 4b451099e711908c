//! Semantic (symbolic) translation-validation sweep over a rewritten
//! binary.
//!
//! The core prover lives in `bolt-emu` (`bolt_emu::transval` /
//! `bolt_emu::symexec`), next to the private translation caches and
//! lazy-flags machinery it must model exactly. This module is the
//! verifier-facing entry point: it walks every emitted function of a
//! rewritten ELF, runs the code bytes through all three translation
//! tiers via [`bolt_emu::validate_code`], and folds each semantic
//! disagreement into the standard [`Finding`] stream under
//! [`FindingKind::SemanticMismatch`] — so `bolt -verify-sem` reports
//! through the same machinery (and the same JSON emitter) as the
//! re-disassembly verifier and the IR lint.

use crate::{Finding, FindingKind, VerifyReport};
use bolt_elf::{Elf, SymKind};
use bolt_ir::BinaryContext;
use std::time::Instant;

/// Symbolically validates every emitted function of `elf`: each
/// function's bytes are translated block by block under every
/// translation tier (superblock, uop) and each translation is
/// proven semantically equivalent to a fresh decode of its bytes. A
/// clean report means the emulator's translation layers preserve step
/// semantics on exactly the code this binary will run.
pub fn verify_semantics(elf: &Elf, ctx: &BinaryContext) -> VerifyReport {
    let start = Instant::now();
    let mut report = VerifyReport::default();
    for f in &ctx.functions {
        if !f.is_simple || f.folded_into.is_some() {
            continue;
        }
        let Some(sym) = elf
            .symbols
            .iter()
            .find(|s| s.kind == SymKind::Func && s.name == f.name && s.size > 0)
        else {
            continue;
        };
        let Some(bytes) = elf.read_vaddr(sym.value, sym.size as usize) else {
            continue;
        };
        report.functions_checked += 1;
        for sf in bolt_emu::validate_code(bytes, sym.value) {
            report.findings.push(Finding {
                kind: FindingKind::SemanticMismatch,
                function: f.name.clone(),
                addr: sf.entry,
                detail: format!("{} at inst {}: {}", sf.kind.as_str(), sf.inst, sf.detail),
            });
        }
    }
    report.duration = start.elapsed();
    report
}
