//! Thread-count invariance: `PassManager::run` (and the whole driver)
//! must produce byte-identical results whether disassembly and the
//! per-function passes run serially (`-threads=1`) or sharded across
//! workers, on the profiled TAO fixture: at `-threads=8`, at
//! `-threads=2` (the disassembly planner beside the building caller,
//! two pass workers) and at `-threads=3` (uneven pass chunks). A variant
//! of TAO whose non-simple functions sit on the planner's batch
//! boundaries and the passes' chunk boundaries holds the same at every
//! one of those thread counts. On the profiled Clang-like binary, whose
//! split functions and twelve-function ICF fold group straddle the
//! shards of emission and of ICF's body hashing, the rewritten ELF, the
//! pipeline result and the rewrite statistics are the same at 1, 2 and 3
//! threads.

use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::elf::{write_elf, Elf};
use bolt::emu::Machine;
use bolt::ir::emit::MIN_SHARD_BLOCKS;
use bolt::ir::{dump_function, BinaryContext, BinaryFunction, DumpOptions, NonSimpleReason};
use bolt::isa::{decode, encode_at, Cond, Inst, JumpWidth, Reg, Rm, Target};
use bolt::opt::{disasm::PLAN_BATCH, discover, optimize, BoltOptions, RewriteStats};
use bolt::passes::{PassManager, PassOptions, PipelineResult};
use bolt::profile::{LbrSampler, Profile, SampleTrigger};
use bolt::workloads::{Scale, Workload};
use bolt_bench::prepare_ctx;
use std::sync::OnceLock;

/// `workload`'s `Scale::Test` binary and an LBR profile of it.
fn profiled(workload: Workload) -> (Elf, Profile) {
    let program = workload.build(Scale::Test);
    let binary = compile_and_link(&program, &CompileOptions::default()).expect("compiles");
    let mut machine = Machine::new();
    machine.load_elf(&binary.elf);
    let mut sampler = LbrSampler::new(997, SampleTrigger::Instructions);
    machine.run(&mut sampler, 100_000_000).expect("runs");
    (binary.elf, sampler.profile)
}

/// The profiled TAO binary and its LBR profile (compiled and emulated
/// once; both tests read it immutably).
fn tao_fixture() -> &'static (Elf, Profile) {
    static FIXTURE: OnceLock<(Elf, Profile)> = OnceLock::new();
    FIXTURE.get_or_init(|| profiled(Workload::Tao))
}

/// Every function's printed IR — the pipeline's observable output,
/// normalized through the dumper so block order, terminators, and edges
/// are all covered — and why each non-simple function is.
fn dump_all(ctx: &BinaryContext) -> String {
    let mut out = String::new();
    for f in &ctx.functions {
        out.push_str(&format!("{}: {:?}\n", f.name, f.non_simple_reason));
        out.push_str(&dump_function(
            f,
            None,
            DumpOptions {
                print_debug_info: false,
            },
        ));
    }
    out
}

#[test]
fn pass_manager_output_identical_at_1_and_8_threads() {
    let (elf, profile) = tao_fixture();
    let baseline = prepare_ctx(elf, profile);
    for (label, opts) in [
        ("default", PassOptions::default()),
        ("layout-only", PassOptions::layout_only()),
        ("none", PassOptions::none()),
    ] {
        let mut runs = Vec::new();
        for threads in [1usize, 8] {
            let mut manager = PassManager::standard(&opts);
            manager.config.threads = threads;
            let mut ctx = baseline.clone();
            let result = manager.run(&mut ctx, &opts);
            runs.push((result, dump_all(&ctx)));
        }
        let (serial, parallel) = (&runs[0], &runs[1]);
        assert_eq!(
            serial.0.reports, parallel.0.reports,
            "{label}: reports (names + change counts) must not depend on thread count"
        );
        assert_eq!(
            serial.0.function_order, parallel.0.function_order,
            "{label}: function order must not depend on thread count"
        );
        assert_eq!(
            serial.1, parallel.1,
            "{label}: emitted IR must not depend on thread count"
        );
    }
}

/// One `optimize` run at `threads`: the rewritten ELF's bytes, the
/// optimized context's dump, the pipeline result and the rewrite's
/// counts (its statistics but the wall clocks).
fn driver_run(
    elf: &Elf,
    profile: &Profile,
    threads: usize,
) -> (Vec<u8>, String, PipelineResult, [u64; 7]) {
    let opts = BoltOptions {
        threads,
        ..BoltOptions::paper_default()
    };
    let out = optimize(elf, profile, &opts).expect("bolt succeeds");
    let bytes = write_elf(&out.elf).expect("serializes");
    let RewriteStats {
        emitted_functions,
        skipped_functions,
        hot_text_size,
        cold_text_size,
        patched_jump_table_entries,
        patched_entries,
        unpatched_entries,
        ..
    } = out.rewrite_stats;
    let counts = [
        emitted_functions as u64,
        skipped_functions as u64,
        hot_text_size,
        cold_text_size,
        patched_jump_table_entries as u64,
        patched_entries as u64,
        unpatched_entries as u64,
    ];
    (bytes, dump_all(&out.ctx), out.pipeline, counts)
}

/// Runs the driver serially and at each of `threads`; every run must
/// match the serial one byte for byte.
fn assert_driver_invariant(label: &str, elf: &Elf, profile: &Profile, threads: &[usize]) {
    let (bytes, dump, pipeline, counts) = driver_run(elf, profile, 1);
    for &n in threads {
        let (n_bytes, n_dump, n_pipeline, n_counts) = driver_run(elf, profile, n);
        assert_eq!(
            pipeline.reports, n_pipeline.reports,
            "{label}: reports at {n} threads"
        );
        assert_eq!(
            pipeline.function_order, n_pipeline.function_order,
            "{label}: function order at {n} threads"
        );
        assert_eq!(
            (&pipeline.findings, &pipeline.failures),
            (&n_pipeline.findings, &n_pipeline.failures),
            "{label}: findings and failures at {n} threads"
        );
        assert_eq!(
            counts, n_counts,
            "{label}: rewrite statistics at {n} threads"
        );
        assert_eq!(dump, n_dump, "{label}: optimized context at {n} threads");
        assert!(
            bytes == n_bytes,
            "{label}: rewritten binaries must be byte-identical at 1 vs {n} threads"
        );
    }
}

#[test]
fn full_driver_binary_identical_at_1_and_8_threads() {
    let (elf, profile) = tao_fixture();
    assert_driver_invariant("tao", elf, profile, &[8]);
}

/// `-threads=2` is the planner beside the building caller and two pass
/// workers (what the benchmark runs); `-threads=3` splits the passes
/// into uneven chunks.
#[test]
fn full_driver_binary_identical_at_2_and_3_threads() {
    let (elf, profile) = tao_fixture();
    assert_driver_invariant("tao", elf, profile, &[2, 3]);
}

/// The three ways disassembly gives a function up, each written over a
/// function's bytes (which must be at least 2 long).
const BREAKS: [NonSimpleReason; 3] = [
    NonSimpleReason::UndecodableBytes,
    NonSimpleReason::UnresolvedIndirectJump,
    NonSimpleReason::OutOfRangeControlFlow,
];

/// Bytes for a function at `addr` of `len` bytes that disassembles to
/// `reason`: an opcode the decoder rejects throughout; `jmp *%rax` that
/// matches no jump table; a branch into the middle of itself. The rest
/// is `ret`s.
fn broken_body(reason: NonSimpleReason, addr: u64, len: usize) -> Vec<u8> {
    let mut body = Vec::new();
    let mut put = |inst: Inst| {
        let at = addr + body.len() as u64;
        body.extend(encode_at(&inst, at).expect("encodes").bytes);
    };
    match reason {
        NonSimpleReason::UndecodableBytes => {
            let bad = (0..=u8::MAX).find(|&b| decode(&[b; 16], addr).is_err());
            return vec![bad.expect("some opcode does not decode"); len];
        }
        NonSimpleReason::UnresolvedIndirectJump => put(Inst::JmpInd {
            rm: Rm::Reg(Reg::Rax),
        }),
        NonSimpleReason::OutOfRangeControlFlow => put(Inst::Jcc {
            cond: Cond::E,
            target: Target::Addr(addr + 1),
            width: JumpWidth::Short,
        }),
        other => unreachable!("{other:?}"),
    }
    body.resize(len, 0xC3);
    body
}

/// TAO with a non-simple function of each kind, in turn, on the first
/// and last function and on both sides of every boundary between the
/// disassembly planner's batches and between the per-function passes'
/// chunks at 2, 3 and 8 threads; with the profile of TAO.
fn boundary_fixture() -> (Elf, Vec<(usize, NonSimpleReason)>) {
    let (tao, _) = tao_fixture();
    let mut elf = tao.clone();
    let (_, funcs) = discover(&elf);
    let n = funcs.len();
    assert!(n > PLAN_BATCH, "TAO spans more than one batch of plans");
    let mut at = vec![0, n - 1];
    for chunk in [PLAN_BATCH, n.div_ceil(2), n.div_ceil(3), n.div_ceil(8)] {
        for edge in (chunk..n).step_by(chunk) {
            at.extend([edge - 1, edge]);
        }
    }
    at.sort_unstable();
    at.dedup();
    let broken: Vec<_> = at.into_iter().zip(BREAKS.into_iter().cycle()).collect();
    for &(fi, reason) in &broken {
        let raw = &funcs[fi];
        assert!(raw.size >= 2, "{} is {} bytes", raw.name, raw.size);
        let (si, section) = elf.section_at(raw.address).expect("in a section");
        let off = (raw.address - section.addr) as usize;
        let body = broken_body(reason, raw.address, raw.size as usize);
        elf.sections[si].data[off..off + body.len()].copy_from_slice(&body);
    }
    (elf, broken)
}

#[test]
fn non_simple_functions_on_batch_and_chunk_boundaries_are_thread_invariant() {
    let (elf, broken) = boundary_fixture();
    let (_, profile) = tao_fixture();
    let opts = BoltOptions {
        threads: 1,
        ..BoltOptions::paper_default()
    };
    let out = optimize(&elf, profile, &opts).expect("bolt succeeds");
    for &(fi, reason) in &broken {
        let f = &out.ctx.functions[fi];
        assert_eq!(f.non_simple_reason, Some(reason), "{}", f.name);
    }
    assert_driver_invariant("tao with broken functions", &elf, profile, &[2, 3, 8]);
}

/// Emission, ICF's body hashing, the line-table rebuild and the
/// per-function passes at 1, 2 and 3 threads, on a binary where the
/// shard boundaries fall where sharding could go wrong. Emission places
/// every hot block before every cold one and cuts that order into
/// shards of equal block counts, so a split function whose hot fragment
/// ends within the first shard has its cold fragment in another. ICF
/// hashes the function list in contiguous chunks, one per thread, and at
/// three threads a chunk boundary falls inside the Clang-like binary's
/// fold group.
#[test]
fn sharded_emission_and_icf_hashing_are_thread_invariant() {
    let (elf, profile) = profiled(Workload::ClangLike);
    let opts = BoltOptions {
        threads: 1,
        ..BoltOptions::paper_default()
    };
    let out = optimize(&elf, &profile, &opts).expect("bolt succeeds");
    let ctx = &out.ctx;

    let chunk = ctx.functions.len().div_ceil(3);
    let folds = ctx.functions.iter().enumerate();
    let across = folds.filter(|(i, f)| f.folded_into.is_some_and(|k| k / chunk != i / chunk));
    assert!(across.count() > 0, "a fold group crosses a chunk boundary");

    let emitted: Vec<&BinaryFunction> = (out.pipeline.function_order.iter())
        .map(|&i| &ctx.functions[i])
        .filter(|f| f.is_simple && f.folded_into.is_none())
        .collect();
    let blocks: usize = emitted.iter().map(|f| f.layout.len()).sum();
    assert!(
        blocks >= 3 * MIN_SHARD_BLOCKS,
        "{blocks} blocks: three shards"
    );
    let hot = |f: &BinaryFunction| f.cold_start.unwrap_or(f.layout.len());
    let hot_blocks: usize = emitted.iter().map(|f| hot(f)).sum();
    let first_shard = blocks.div_ceil(3);
    let mut placed = 0;
    let straddles = emitted.iter().any(|f| {
        placed += hot(f);
        f.is_split() && placed <= first_shard
    });
    assert!(
        straddles && hot_blocks > blocks.div_ceil(2),
        "a split function's fragments fall on both sides of a shard boundary"
    );

    assert_driver_invariant("clang", &elf, &profile, &[2, 3]);
}
