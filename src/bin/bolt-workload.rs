//! The `bolt-workload` tool: builds one of the evaluation workload
//! binaries to disk so the `bolt-run` / `bolt` CLI pipeline can be driven
//! by hand.
//!
//! ```sh
//! bolt-workload hhvm -o hhvm.elf --scale bench [--lto]
//! bolt-run hhvm.elf --fdata hhvm.fdata
//! bolt hhvm.elf -o hhvm.bolt.elf -b hhvm.fdata -dyno-stats
//! bolt-run hhvm.bolt.elf --counters
//! ```

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::elf::write_elf;
use bolt::workloads::{Scale, Workload};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: bolt-workload <hhvm|tao|proxygen|multifeed1|multifeed2|clang|gcc|interp> \\\n\
         \t-o <out.elf> [--scale test|bench] [--lto] [--legacy-amd] [-O0|-O1|-O2]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = None;
    let mut output = None;
    let mut scale = Scale::Bench;
    let mut opts = CompileOptions::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => output = it.next().cloned(),
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("bench") => Scale::Bench,
                    _ => usage(),
                };
            }
            "--lto" => opts.lto = true,
            "--legacy-amd" => opts.legacy_amd = true,
            "-O0" => opts.opt_level = 0,
            "-O1" => opts.opt_level = 1,
            "-O2" => opts.opt_level = 2,
            s if s.starts_with('-') => usage(),
            _ if which.is_none() => which = Some(a.clone()),
            _ => usage(),
        }
    }
    let (Some(which), Some(output)) = (which, output) else {
        usage()
    };
    let wl = match which.as_str() {
        "hhvm" => Workload::Hhvm,
        "tao" => Workload::Tao,
        "proxygen" => Workload::Proxygen,
        "multifeed1" => Workload::Multifeed1,
        "multifeed2" => Workload::Multifeed2,
        "clang" => Workload::ClangLike,
        "gcc" => Workload::GccLike,
        "interp" => Workload::Interp,
        _ => usage(),
    };

    let program = wl.build(scale);
    let bin = match compile_and_link(&program, &opts) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bolt-workload: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes = match write_elf(&bin.elf) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bolt-workload: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&output, bytes) {
        eprintln!("bolt-workload: cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bolt-workload: wrote {output} ({} functions, {} bytes of text)",
        program.functions.len(),
        bin.elf.text_size()
    );
    ExitCode::SUCCESS
}
