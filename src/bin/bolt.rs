//! The `bolt` command-line tool: rewrites an ELF executable using a
//! profile, mirroring `llvm-bolt`'s interface.
//!
//! ```sh
//! bolt input.elf -o output.elf -b profile.fdata \
//!     -reorder-blocks=cache+ -reorder-functions=hfsort+ \
//!     -split-functions -icf -dyno-stats -report-bad-layout
//! ```

use bolt::elf::{read_elf, write_elf};
use bolt::hfsort::Algorithm;
use bolt::opt::{
    optimize, prepare_timing_report, rewrite_timing_report, timing_report, BoltOptions,
};
use bolt::passes::{BlockLayout, PassOptions, SplitMode};
use bolt::profile::Profile;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: bolt <input.elf> -o <output.elf> [-b <profile.fdata>] [options]\n\
         \n\
         options:\n\
           -preset=default|layout-only|functions-only|bbs-only|none\n\
           \x20   (applied first; individual pass flags override the preset)\n\
           -reorder-blocks=none|reverse|branch|cache|cache+\n\
           -reorder-functions=none|hfsort|hfsort+|pettis-hansen\n\
           -split-functions | -no-split-functions\n\
           -icf | -no-icf\n\
           -threads=N\n\
           \x20   (worker threads for per-function passes and disassembly;\n\
           \x20   0 = auto [the default, available parallelism capped at 8],\n\
           \x20   1 forces the serial path, values above 64 are clamped,\n\
           \x20   output is byte-identical at any value)\n\
           -verify\n\
           \x20   (static verification: IR lint after the pipeline plus an\n\
           \x20   independent re-disassembly of the rewritten binary checked\n\
           \x20   against the optimized CFG; any finding fails the run)\n\
           -verify-each\n\
           \x20   (like -verify, but the IR lint runs after every pass,\n\
           \x20   pinpointing the pass that broke an invariant)\n\
           -verify-sem\n\
           \x20   (symbolic translation validation: every emitted function's\n\
           \x20   bytes are translated under each translation tier —\n\
           \x20   superblock, uop — and each translation is proven\n\
           \x20   semantically equivalent to a fresh decode of its bytes;\n\
           \x20   any finding fails the run)\n\
           -verify-json\n\
           \x20   (emit every verifier finding — rewrite, lint, semantic —\n\
           \x20   and every quarantine event as one JSON object per line on\n\
           \x20   stdout)\n\
           -poison-pass=N\n\
           \x20   (fault-injection: register a pass whose kernel panics on\n\
           \x20   the Nth simple function, exercising the quarantine ladder\n\
           \x20   default -> layout-only -> quarantined; the run must still\n\
           \x20   succeed with exactly that function excluded)\n\
           -dyno-stats\n\
           -time-passes\n\
           -report-bad-layout\n\
           -print-debug-info\n\
           -v"
    );
    std::process::exit(2)
}

/// A `-flag=value` whose value is outside the flag's domain: one line
/// on stderr naming the flag and what it accepts, exit 2, before the
/// input is read.
fn bad_value(flag: &str, value: &str, valid: &str) -> ! {
    eprintln!("bolt: {flag}={value}: expected {valid}");
    std::process::exit(2)
}

/// Splits `-flag=value`; anything else is a flag (or path) with no value.
fn split_flag(arg: &str) -> (&str, Option<&str>) {
    match arg.split_once('=') {
        Some((flag, value)) if flag.starts_with('-') => (flag, Some(value)),
        _ => (arg, None),
    }
}

fn num(flag: &str, value: &str) -> usize {
    value
        .parse()
        .unwrap_or_else(|_| bad_value(flag, value, "a non-negative integer"))
}

/// Minimal JSON string escaping for the `-verify-json` finding stream.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut output = None;
    let mut fdata = None;
    let mut verify_json = false;
    let mut verbose = false;
    let mut opts = BoltOptions::paper_default();

    // Presets apply first, wherever they appear, so the fine-grained pass
    // flags always refine the preset instead of being silently overwritten
    // by a later `-preset=`.
    for a in &args {
        if let ("-preset", Some(name)) = split_flag(a) {
            opts.passes = PassOptions::preset(name).unwrap_or_else(|| {
                let valid = format!("one of {}", PassOptions::PRESETS.join("|"));
                bad_value("-preset", name, &valid)
            });
        }
    }

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, value) = split_flag(a);
        match (flag, value) {
            ("-o" | "-b", None) => {
                // A value-taking flag at the end of the line is a usage
                // error, not a silently absent output/profile.
                let Some(path) = it.next() else {
                    eprintln!("bolt: {flag} requires a value");
                    return ExitCode::from(2);
                };
                if flag == "-o" {
                    output = Some(path.clone());
                } else {
                    fdata = Some(path.clone());
                }
            }
            ("-dyno-stats", None) => opts.dyno_stats = true,
            ("-time-passes", None) => opts.time_passes = true,
            ("-verify", None) => opts.verify = true,
            ("-verify-each", None) => opts.verify_each = true,
            ("-verify-sem", None) => opts.verify_sem = true,
            ("-verify-json", None) => verify_json = true,
            ("-report-bad-layout", None) => opts.report_bad_layout = true,
            ("-print-debug-info", None) => opts.print_debug_info = true,
            ("-v", None) => verbose = true,
            ("-icf", None) => opts.passes.icf = true,
            ("-no-icf", None) => opts.passes.icf = false,
            ("-split-functions", None) => opts.passes.split_functions = SplitMode::Profiled,
            ("-no-split-functions", None) => {
                opts.passes.split_functions = SplitMode::None;
                opts.passes.split_all_cold = false;
                opts.passes.split_eh = false;
            }
            ("-preset", Some(_)) => {} // applied in the pre-scan above
            // 0 = auto (BOLT_THREADS env override or available
            // parallelism), matching BoltOptions::threads.
            ("-threads", Some(v)) => opts.threads = num(flag, v),
            ("-poison-pass", Some(v)) => opts.poison_nth = Some(num(flag, v)),
            ("-reorder-blocks", Some(v)) => {
                opts.passes.reorder_blocks = match v {
                    "none" => BlockLayout::None,
                    "reverse" => BlockLayout::Reverse,
                    "branch" => BlockLayout::Branch,
                    "cache" => BlockLayout::Cache,
                    "cache+" => BlockLayout::CachePlus,
                    _ => bad_value(flag, v, "one of none|reverse|branch|cache|cache+"),
                };
            }
            ("-reorder-functions", Some(v)) => {
                opts.passes.reorder_functions = match v {
                    "none" => Algorithm::None,
                    "hfsort" => Algorithm::Hfsort,
                    "hfsort+" => Algorithm::HfsortPlus,
                    "pettis-hansen" => Algorithm::PettisHansen,
                    _ => bad_value(flag, v, "one of none|hfsort|hfsort+|pettis-hansen"),
                };
            }
            (f, _) if f.starts_with('-') => usage(),
            _ if input.is_none() => input = Some(a.clone()),
            _ => usage(),
        }
    }
    let (Some(input), Some(output)) = (input, output) else {
        usage()
    };

    let bytes = match std::fs::read(&input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bolt: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elf = match read_elf(&bytes) {
        Ok(e) => e,
        Err(e) => {
            // Malformed input is a usage-class failure (exit 2), distinct
            // from a pipeline failure on well-formed input (exit 1).
            eprintln!("bolt: {input}: {e}");
            return ExitCode::from(2);
        }
    };
    let profile = match &fdata {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("bolt: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Profile::from_fdata(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("bolt: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => {
            eprintln!("bolt: warning: no profile given; layout passes will be conservative");
            Profile::default()
        }
    };

    let out = match optimize(&elf, &profile, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bolt: {e}");
            return ExitCode::FAILURE;
        }
    };

    if verbose {
        for r in &out.pipeline.reports {
            eprintln!("  {:<20} {:>10}  {:.3?}", r.name, r.changes, r.duration);
        }
        eprintln!(
            "  {} simple / {} total functions; profile accuracy {:.1}%",
            out.simple_functions,
            out.ctx.functions.len(),
            out.attach_stats.accuracy() * 100.0
        );
    }
    if opts.time_passes {
        let passes = out.pipeline.total_duration();
        eprint!(
            "{}",
            prepare_timing_report(&out.prepare_timing, out.dyno_time, passes)
        );
        eprint!("{}", timing_report(&out.pipeline));
        eprint!("{}", rewrite_timing_report(&out.rewrite_stats));
    }
    // Degraded runs always report what was demoted or quarantined;
    // -time-passes additionally confirms a clean run.
    if !out.quarantine.is_clean() || opts.time_passes {
        eprint!("{}", out.quarantine.render());
    }
    if verify_json {
        for ev in &out.quarantine.events {
            println!(
                "{{\"quarantine\":true,\"function\":\"{}\",\"stage\":\"{}\",\
                 \"action\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(&ev.function),
                json_escape(&ev.stage),
                ev.action.as_str(),
                json_escape(&ev.detail)
            );
        }
    }
    if let Some(report) = &out.bad_layout {
        println!("{report}");
    }
    if opts.verify || opts.verify_each || opts.verify_sem {
        let findings = out.all_findings();
        if let Some(v) = &out.verify {
            eprintln!(
                "bolt: verify: {} findings across {} functions in {:.3?}",
                findings.len(),
                v.functions_checked,
                v.duration
            );
        }
        if let Some(v) = &out.verify_sem {
            eprintln!(
                "bolt: verify-sem: {} findings across {} functions in {:.3?}",
                v.findings.len(),
                v.functions_checked,
                v.duration
            );
        }
        if verify_json {
            for f in &findings {
                println!(
                    "{{\"kind\":\"{}\",\"function\":\"{}\",\"addr\":{},\"detail\":\"{}\"}}",
                    f.kind,
                    json_escape(&f.function),
                    f.addr,
                    json_escape(&f.detail)
                );
            }
        }
        if !findings.is_empty() {
            for f in &findings {
                eprintln!("bolt: verify: {f}");
            }
            return ExitCode::FAILURE;
        }
    }
    if opts.dyno_stats {
        println!("BOLT dyno stats (this profile, new layout vs old):");
        print!("{}", out.dyno_after.delta_report(&out.dyno_before));
    }

    let bytes = match write_elf(&out.elf) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bolt: serializing output: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&output, bytes) {
        eprintln!("bolt: cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    let stats = &out.rewrite_stats;
    eprintln!(
        "bolt: wrote {output} ({} functions rewritten, {} entries patched, {} too short to patch, hot text {} bytes)",
        stats.emitted_functions, stats.patched_entries, stats.unpatched_entries, stats.hot_text_size
    );
    ExitCode::SUCCESS
}
