//! Complementarity demo (the paper's contribution 3): compiler PGO+LTO
//! and BOLT each help, and stacking them is best — because they use the
//! same samples at different accuracy levels.
//!
//! ```sh
//! cargo run --release --example pgo_vs_bolt
//! ```

use bolt::compiler::CompileOptions;
use bolt::emu::{Machine, Tee};
use bolt::opt::{optimize, BoltOptions};
use bolt::profile::{LbrSampler, Profile, SampleTrigger};
use bolt::sim::{Counters, CpuModel, SimConfig};
use bolt::workloads::{Scale, Workload};

fn profile_and_measure(elf: &bolt::elf::Elf, cfg: &SimConfig) -> (Profile, Counters, Vec<i64>) {
    let mut m = Machine::new();
    m.load_elf(elf);
    let mut sampler = LbrSampler::new(997, SampleTrigger::Instructions);
    let mut model = CpuModel::new(cfg.clone());
    {
        let mut tee = Tee(&mut sampler, &mut model);
        m.run(&mut tee, u64::MAX).expect("runs");
    }
    (sampler.profile, model.counters(), m.output)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig::server();
    let program = Workload::ClangLike.build(Scale::Test);

    // Baseline -O2.
    let base = bolt::compiler::compile_and_link(&program, &CompileOptions::default())?;
    let (base_profile, base_c, base_out) = profile_and_measure(&base.elf, &cfg);

    // (a) BOLT only.
    let bolted = optimize(&base.elf, &base_profile, &BoltOptions::paper_default())?;
    let (_, bolt_c, out) = profile_and_measure(&bolted.elf, &cfg);
    assert_eq!(out, base_out);

    // (b) PGO+LTO only (samples retrofitted to source lines).
    let sp = bolt_bench::to_source_profile(&base_profile, &base.elf);
    let pgo = bolt::compiler::compile_and_link(&program, &CompileOptions::pgo_lto(sp))?;
    let (pgo_profile, pgo_c, out) = profile_and_measure(&pgo.elf, &cfg);
    assert_eq!(out, base_out);

    // (c) PGO+LTO+BOLT.
    let both = optimize(&pgo.elf, &pgo_profile, &BoltOptions::paper_default())?;
    let (_, both_c, out) = profile_and_measure(&both.elf, &cfg);
    assert_eq!(out, base_out);

    println!("{:<16} {:>10}", "configuration", "speedup");
    for (name, c) in [
        ("BOLT", &bolt_c),
        ("PGO+LTO", &pgo_c),
        ("PGO+LTO+BOLT", &both_c),
    ] {
        println!("{:<16} {:>9.2}%", name, base_c.speedup_over(c));
    }
    println!("\n(the combination should be best: the approaches are complementary)");
    Ok(())
}
