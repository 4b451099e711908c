//! Mutation testing for the static verifier (`bolt-verify`): the
//! re-disassembly check must (a) pass with zero findings on every clean
//! pipeline — each preset, each paper workload, with and without a
//! profile — and (b) catch every seeded binary defect with the finding
//! kind that defect is documented to produce. A verifier that misses a
//! seeded defect is worse than no verifier: it converts corruption into
//! false confidence.

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::elf::Elf;
use bolt::emu::Machine;
use bolt::opt::{optimize, BoltOptions, BoltOutput};
use bolt::passes::PassOptions;
use bolt::profile::{LbrSampler, Profile, SampleTrigger};
use bolt::verify::{apply_mutation, verify_rewrite, Mutation};
use bolt::workloads::{Scale, Workload};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Builds a workload and profiles one full run under the emulator (the
/// `perf record` step), so the layout passes have real edge counts.
fn build(workload: Workload) -> (Elf, Profile) {
    let elf = compile_and_link(&workload.build(Scale::Test), &CompileOptions::default())
        .expect("workload compiles")
        .elf;
    let mut machine = Machine::new();
    machine.load_elf(&elf);
    let mut sampler = LbrSampler::new(997, SampleTrigger::Instructions);
    machine.run(&mut sampler, u64::MAX).expect("workload runs");
    (elf, sampler.profile)
}

fn tao_fixture() -> &'static (Elf, Profile) {
    static FIXTURE: OnceLock<(Elf, Profile)> = OnceLock::new();
    FIXTURE.get_or_init(|| build(Workload::Tao))
}

fn clang_fixture() -> &'static (Elf, Profile) {
    static FIXTURE: OnceLock<(Elf, Profile)> = OnceLock::new();
    FIXTURE.get_or_init(|| build(Workload::ClangLike))
}

fn hhvm_fixture() -> &'static (Elf, Profile) {
    static FIXTURE: OnceLock<(Elf, Profile)> = OnceLock::new();
    FIXTURE.get_or_init(|| build(Workload::Hhvm))
}

fn interp_fixture() -> &'static (Elf, Profile) {
    static FIXTURE: OnceLock<(Elf, Profile)> = OnceLock::new();
    FIXTURE.get_or_init(|| build(Workload::Interp))
}

fn bolt_verified(elf: &Elf, profile: &Profile, preset: &str) -> BoltOutput {
    let mut opts = BoltOptions::paper_default();
    opts.passes = PassOptions::preset(preset).expect("known preset");
    opts.verify_each = true;
    optimize(elf, profile, &opts).expect("BOLT succeeds")
}

/// Every clean pipeline must verify with zero findings: the verifier's
/// model of the rewriter (fold-chain retargeting, split symbols, packed
/// blocks, patched jump tables, patched original entries, ICP guards
/// that compare original addresses) has to hold on every preset, not
/// just the default one, and on profile-less runs whose layouts stay
/// conservative. HHVM and the interpreter are the workloads with
/// function pointers, and HHVM the one where ICP fires.
#[test]
fn clean_pipelines_verify_with_zero_findings() {
    let unprofiled = Profile::default();
    for (name, fixture) in [
        ("tao", tao_fixture()),
        ("clang-like", clang_fixture()),
        ("hhvm", hhvm_fixture()),
        ("interp", interp_fixture()),
    ] {
        let (elf, profile) = fixture;
        for preset in PassOptions::PRESETS {
            for (label, prof) in [("profiled", profile), ("unprofiled", &unprofiled)] {
                let out = bolt_verified(elf, prof, preset);
                let report = out.verify.as_ref().expect("-verify-each ran");
                assert!(
                    report.functions_checked > 0,
                    "{name}/{preset}/{label}: verifier checked no functions"
                );
                let findings = out.all_findings();
                assert!(
                    findings.is_empty(),
                    "{name}/{preset}/{label}: clean pipeline produced findings:\n{}",
                    findings
                        .iter()
                        .map(|f| format!("  {f}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
    }
}

/// Every seeded defect must be caught with its documented finding kind.
/// Each mutation is applied to a fresh clone of an optimized binary; a
/// mutation is allowed to find no applicable site on one workload (e.g.
/// no jump table survived) but must apply on at least one of the two.
#[test]
fn seeded_mutations_are_caught_with_the_expected_kind() {
    let outputs: Vec<(&str, BoltOutput)> = vec![
        ("tao", {
            let (elf, profile) = tao_fixture();
            bolt_verified(elf, profile, "default")
        }),
        ("clang-like", {
            let (elf, profile) = clang_fixture();
            bolt_verified(elf, profile, "default")
        }),
    ];
    for (name, out) in &outputs {
        assert!(
            verify_rewrite(&out.elf, &out.ctx).is_clean(),
            "{name}: baseline must be clean before mutating"
        );
    }

    let mut kinds_caught = BTreeSet::new();
    for m in Mutation::ALL {
        let mut applied_somewhere = false;
        for (name, out) in &outputs {
            let mut mutated = out.elf.clone();
            let Some(site) = apply_mutation(m, &mut mutated, &out.ctx) else {
                continue;
            };
            applied_somewhere = true;
            let report = verify_rewrite(&mutated, &out.ctx);
            let kinds: BTreeSet<&str> = report.findings.iter().map(|f| f.kind.as_str()).collect();
            assert!(
                kinds.contains(m.expected_kind().as_str()),
                "{name}: mutation {} ({site}) expected a {} finding, verifier reported: {:?}",
                m.as_str(),
                m.expected_kind(),
                report
                    .findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
            );
            kinds_caught.insert(m.expected_kind().as_str());
        }
        assert!(
            applied_somewhere,
            "mutation {} found no applicable site in either optimized workload",
            m.as_str()
        );
    }
    // The acceptance bar: the harness must exercise at least six distinct
    // finding kinds, proving the verifier's checks are independent, not
    // one catch-all.
    assert!(
        kinds_caught.len() >= 6,
        "mutations exercised only {} finding kinds: {kinds_caught:?}",
        kinds_caught.len()
    );
}
