//! Inspection tooling: disassemble a binary, attach a profile, dump the
//! hottest function's CFG in the paper's Figure 4 format, and print the
//! `-report-bad-layout` analysis (Figure 10).
//!
//! ```sh
//! cargo run --release --example inspect_cfg
//! ```

use bolt::compiler::CompileOptions;
use bolt::emu::Machine;
use bolt::ir::{dump_function, DumpOptions};
use bolt::opt::bad_layout_report;
use bolt::profile::{attach_profile, LbrSampler, SampleTrigger};
use bolt::workloads::{Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Workload::ClangLike.build(Scale::Test);
    let binary = bolt::compiler::compile_and_link(&program, &CompileOptions::default())?;

    // Profile.
    let mut m = Machine::new();
    m.load_elf(&binary.elf);
    let mut sampler = LbrSampler::new(499, SampleTrigger::Instructions);
    m.run(&mut sampler, u64::MAX)?;

    // Reconstruct and annotate.
    let (mut ctx, raw) = bolt::opt::discover(&binary.elf);
    let simple = bolt::opt::disassemble_all(&mut ctx, &raw, &binary.elf);
    let stats = attach_profile(&mut ctx, &sampler.profile);
    println!(
        "{} functions discovered, {} simple; profile accuracy {:.1}%",
        ctx.functions.len(),
        simple,
        stats.accuracy() * 100.0
    );

    // Dump the hottest profiled function, Figure 4 style.
    let hottest = ctx
        .simple_functions_by_hotness()
        .into_iter()
        .next()
        .expect("at least one hot function");
    println!(
        "\n{}",
        dump_function(
            &ctx.functions[hottest],
            Some(&ctx.line_files),
            DumpOptions {
                print_debug_info: true
            }
        )
    );

    // Bad-layout report (Figure 10).
    println!("{}", bad_layout_report(&ctx, false));
    Ok(())
}
