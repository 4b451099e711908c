//! Fast versions of the paper's key experimental claims, run at test
//! scale so `cargo test` exercises the full evaluation machinery.

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::emu::{Exit, Machine, Tee};
use bolt::opt::{optimize, BoltOptions};
use bolt::profile::{LbrSampler, Profile, SampleTrigger};
use bolt::sim::{Counters, CpuModel, SimConfig};
use bolt::workloads::{Scale, Workload};

fn profile_and_measure(elf: &bolt::elf::Elf, cfg: &SimConfig) -> (Profile, Counters, Vec<i64>) {
    let mut m = Machine::new();
    m.load_elf(elf);
    let mut sampler = LbrSampler::new(499, SampleTrigger::Instructions);
    let mut model = CpuModel::new(cfg.clone());
    let r = {
        let mut tee = Tee(&mut sampler, &mut model);
        m.run(&mut tee, u64::MAX).expect("runs")
    };
    assert!(matches!(r.exit, Exit::Exited(_)));
    (sampler.profile, model.counters(), m.output)
}

fn measure(elf: &bolt::elf::Elf, cfg: &SimConfig) -> (Counters, Vec<i64>) {
    let (_, c, out) = profile_and_measure(elf, cfg);
    (c, out)
}

/// Figure 5's claim at test scale: BOLT speeds up data-center workloads.
#[test]
fn bolt_speeds_up_datacenter_workloads() {
    let cfg = SimConfig::small();
    for wl in [Workload::Tao, Workload::Proxygen] {
        let program = wl.build(Scale::Test);
        let bin = compile_and_link(&program, &CompileOptions::default()).unwrap();
        let (profile, base, out0) = profile_and_measure(&bin.elf, &cfg);
        let bolted = optimize(&bin.elf, &profile, &BoltOptions::paper_default()).unwrap();
        let (new, out1) = measure(&bolted.elf, &cfg);
        assert_eq!(out0, out1, "{}", wl.name());
        assert!(
            new.cycles < base.cycles,
            "{}: {} -> {} cycles",
            wl.name(),
            base.cycles,
            new.cycles
        );
        assert!(new.l1i_misses < base.l1i_misses, "{}: L1I", wl.name());
    }
}

/// Figures 7/8's claim: BOLT on top of PGO+LTO still helps (the
/// approaches are complementary), and everything preserves semantics.
#[test]
fn bolt_complements_pgo_lto() {
    let cfg = SimConfig::small();
    let program = Workload::ClangLike.build(Scale::Test);

    let base = compile_and_link(&program, &CompileOptions::default()).unwrap();
    let (base_profile, base_c, out0) = profile_and_measure(&base.elf, &cfg);

    // PGO+LTO.
    let sp = bolt_bench::to_source_profile(&base_profile, &base.elf);
    let pgo = compile_and_link(&program, &CompileOptions::pgo_lto(sp)).unwrap();
    let (pgo_profile, pgo_c, out1) = profile_and_measure(&pgo.elf, &cfg);
    assert_eq!(out0, out1, "PGO preserves semantics");

    // BOLT on top of PGO+LTO.
    let both = optimize(&pgo.elf, &pgo_profile, &BoltOptions::paper_default()).unwrap();
    let (both_c, out2) = measure(&both.elf, &cfg);
    assert_eq!(out0, out2, "PGO+BOLT preserves semantics");

    assert!(
        both_c.cycles < pgo_c.cycles,
        "BOLT helps beyond PGO+LTO: {} -> {}",
        pgo_c.cycles,
        both_c.cycles
    );
    assert!(
        both_c.cycles < base_c.cycles,
        "the combination beats the baseline"
    );
}

/// Section 5.1's claim: LBR profiles beat naive non-LBR inference.
#[test]
fn lbr_beats_naive_non_lbr() {
    let cfg = SimConfig::small();
    let program = Workload::Proxygen.build(Scale::Test);
    let bin = compile_and_link(&program, &CompileOptions::default()).unwrap();
    let (lbr_profile, _, out0) = profile_and_measure(&bin.elf, &cfg);

    let mut m = Machine::new();
    m.load_elf(&bin.elf);
    let mut ip = bolt::profile::IpSampler::new(31);
    m.run(&mut ip, u64::MAX).unwrap();

    let with_lbr = optimize(&bin.elf, &lbr_profile, &BoltOptions::paper_default()).unwrap();
    let (lbr_c, out1) = measure(&with_lbr.elf, &cfg);
    assert_eq!(out0, out1);

    let mut naive = BoltOptions::paper_default();
    naive.non_lbr_tuned = false;
    let with_ip = optimize(&bin.elf, &ip.profile, &naive).unwrap();
    let (ip_c, out2) = measure(&with_ip.elf, &cfg);
    assert_eq!(out0, out2);

    assert!(
        lbr_c.cycles <= ip_c.cycles * 1.02,
        "LBR should not lose to naive non-LBR: {} vs {}",
        lbr_c.cycles,
        ip_c.cycles
    );
}

/// The ICF size claim: folding shrinks rewritten text without changing
/// behavior.
#[test]
fn icf_shrinks_rewritten_text() {
    let cfg = SimConfig::small();
    let program = Workload::Hhvm.build(Scale::Test);
    let bin = compile_and_link(&program, &CompileOptions::default()).unwrap();
    let (profile, _, out0) = profile_and_measure(&bin.elf, &cfg);

    let with = optimize(&bin.elf, &profile, &BoltOptions::paper_default()).unwrap();
    let mut no_icf_opts = BoltOptions::paper_default();
    no_icf_opts.passes.icf = false;
    let without = optimize(&bin.elf, &profile, &no_icf_opts).unwrap();

    let s_with = with.rewrite_stats.hot_text_size + with.rewrite_stats.cold_text_size;
    let s_without = without.rewrite_stats.hot_text_size + without.rewrite_stats.cold_text_size;
    assert!(
        s_with < s_without,
        "ICF shrinks text: {s_with} < {s_without}"
    );

    let (_, out1) = measure(&with.elf, &cfg);
    assert_eq!(out0, out1);
}
