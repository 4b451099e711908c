//! The memory ledger of the paper loop's build and optimize steps: live
//! heap bytes, counted by a global allocator that only this test binary
//! uses, phase by phase through `compile_and_link` and through
//! `hhvm_rewrite`'s op (read the ELF and `.fdata`, BOLT, write the ELF).
//!
//! BOLT pays off on binaries with hundreds of megabytes of text, so
//! bytes per text byte decide whether the design scales. The tier-1
//! test pins six facts at `Scale::Test`: the IR instruction is at most
//! 56 bytes, the disassembled block vectors carry no spare capacity, the
//! encoder makes no heap allocation (the allocator also counts calls),
//! the live peaks of `compile_and_link` and of `optimize` stay at or
//! below committed literals, and at threads = 2 the IR `optimize`
//! returns was not allocated by worker threads (the allocator tags
//! every block with the thread kind that made it). Memory a worker
//! allocates lands in that thread's
//! allocator arena; when the calling thread keeps and frees it, the
//! arena stays resident beside the calling thread's heap, which is
//! resident-set size that live bytes do not show. The benchmark-scale
//! ledger adds the compiler's phases, the same check at that scale, the
//! process's `VmHWM`, and the emulator's rows for the input and the
//! BOLTed binary, and bounds their text indexes.
//!
//! Counting is process-wide, so the file keeps one test that runs by
//! default; the benchmark-scale ledger is `#[ignore]`d (CI runs it as a
//! step of its own) and both hold one lock while they measure.
//!
//! After an *intended* change to the compiler's or the optimizer's
//! memory, regenerate the literals with `cargo test --release --test
//! mem_ledger -- --ignored --nocapture`: it prints the
//! `COMPILE_PEAK_TEST` and `OPTIMIZE_PEAK_TEST` lines to paste, then the
//! benchmark-scale phase tables.

use bolt::compiler::{compile_and_link, compile_and_link_phases, MirProgram};
use bolt::elf::{read_elf, write_elf};
use bolt::emu::{Engine, Exit, Machine, NullSink};
use bolt::ir::BinaryInst;
use bolt::isa::{encode_at, encoded_len};
use bolt::opt::{
    disassemble_all_with_threads, discover, optimize, prepare, rewrite_binary, BoltOptions,
};
use bolt::passes::PassManager;
use bolt::profile::{attach_profile_opts, LbrSampler, Profile, SampleTrigger};
use bolt::workloads::{Scale, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// Bytes requested and not yet freed, and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls that allocated or grew a block.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// The part of `LIVE` that threads other than the measuring one
/// allocated: the optimizer's workers (the disassembly planner, pass
/// kernels). Whatever of it outlives `optimize` sits
/// in those threads' allocator arenas while the calling thread owns it.
static WORKER_LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the thread that measures: it is "the caller", every other
    /// thread a worker.
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a worker (not the measuring caller).
fn on_worker() -> bool {
    !CALLER.try_with(Cell::get).unwrap_or(false)
}

struct Counting;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// Every block carries a header in front of the bytes it hands out,
/// whose last word says whether a worker allocated it. The header keeps
/// the block's alignment; the counters see only the requested sizes.
fn header(layout: Layout) -> usize {
    layout.align().max(16)
}

/// The layout `System` sees for a request of `layout`.
fn with_header(layout: Layout) -> Layout {
    let size = layout.size() + header(layout);
    Layout::from_size_align(size, header(layout)).expect("header layout")
}

/// Writes the tag into the header of the block at `base` and returns the
/// pointer handed out; counts the block as the current thread's.
///
/// # Safety
/// `base` is a live block of `with_header(layout)`.
unsafe fn tag(base: *mut u8, layout: Layout, size: usize) -> *mut u8 {
    let p = base.add(header(layout));
    let worker = on_worker();
    p.cast::<usize>().sub(1).write(usize::from(worker));
    if worker {
        WORKER_LIVE.fetch_add(size, Relaxed);
    }
    p
}

/// Takes the block handed out at `p` off the worker count if a worker
/// allocated it, and returns its base.
///
/// # Safety
/// `p` was returned by `tag` for a block of `layout`.
unsafe fn untag(p: *mut u8, layout: Layout) -> *mut u8 {
    if p.cast::<usize>().sub(1).read() == 1 {
        WORKER_LIVE.fetch_sub(layout.size(), Relaxed);
    }
    p.sub(header(layout))
}

// SAFETY: every call is forwarded to `System` with the header added in
// front (`with_header` keeps the alignment, and the header is a multiple
// of it); the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let base = System.alloc(with_header(layout));
        if base.is_null() {
            return base;
        }
        grew(layout.size());
        tag(base, layout, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let base = System.alloc_zeroed(with_header(layout));
        if base.is_null() {
            return base;
        }
        grew(layout.size());
        tag(base, layout, layout.size())
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(untag(p, layout), with_header(layout));
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let base = p.sub(header(layout));
        let q = System.realloc(base, with_header(layout), new_size + header(layout));
        if q.is_null() {
            return q;
        }
        match new_size.checked_sub(layout.size()) {
            Some(more) => grew(more),
            None => _ = LIVE.fetch_sub(layout.size() - new_size, Relaxed),
        }
        // The header moved with the block: retag it as the reallocating
        // thread's.
        untag(q.add(header(layout)), layout);
        tag(q, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Held while measuring, so an `--include-ignored` run stays serial.
static MEASURING: Mutex<()> = Mutex::new(());

/// Takes the measuring lock and makes the current thread the caller.
fn measure() -> MutexGuard<'static, ()> {
    let guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    CALLER.with(|c| c.set(true));
    guard
}

/// Live peak of `compile_and_link` on the `Scale::Test` HHVM-like
/// program with the default options, in bytes, counting the MIR program
/// it reads: 1 894 394 to 1 895 294 measured (it varies by a few
/// hundred bytes between processes), 2 780 933 when the linker kept its
/// emission units, its line table and a copy of the inlined program
/// alive to the end.
const COMPILE_PEAK_TEST: usize = 1_920_000;

/// [`COMPILE_PEAK_TEST`] for the benchmark-scale program, checked by the
/// benchmark-scale ledger (40.1 MB measured, 62.2 MB before).
const COMPILE_PEAK_BENCH: f64 = 42.0 * MB;

/// Live peak of `optimize` on the `Scale::Test` HHVM-like binary at
/// threads = 1, in bytes above the live bytes when it is called (the
/// parsed input ELF and profile).
const OPTIMIZE_PEAK_TEST: usize = 1360722;

/// `optimize`'s live peak on `hhvm_rewrite`'s input at benchmark scale,
/// threads = 2, input files included; checked by the benchmark-scale
/// ledger (41.9 MB measured; 49.6 MB with a line table beside the
/// section it was read from and an emission-unit copy of the IR).
const OPTIMIZE_PEAK_BENCH: f64 = 43.0 * MB;

/// How far `rewrite_binary`'s live peak on `hhvm_rewrite`'s input at
/// benchmark scale may rise above the bytes it leaves (the output ELF):
/// the emitter reads the IR in place, so no copy of the emitted code is
/// made (2.5 MB measured; 5.1 MB when it emitted from an `EmitUnit`
/// copy, and 4.8 MB with such a copy of the view it reads now).
const REWRITE_TRANSIENT_BENCH: f64 = 3.5 * MB;

/// Bytes a worker allocated that are still live once `optimize` returns,
/// on the `Scale::Test` HHVM-like binary at threads = 2: pass kernels'
/// reallocations on their workers (1200 bytes measured). When the
/// disassembly workers built the IR this was the whole IR, 865 331 of
/// the 1 474 089 bytes the output holds.
const WORKER_RESIDUE_TEST: usize = 4096;

/// [`WORKER_RESIDUE_TEST`] for `hhvm_rewrite`'s op at benchmark scale,
/// checked by the benchmark-scale ledger (8352 bytes measured).
const WORKER_RESIDUE_BENCH: usize = 65536;

/// Runs `f`; returns its value and the peak of live bytes while it ran.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let value = f();
    (value, PEAK.load(Relaxed))
}

/// `compile_and_link` on the HHVM-like program at `scale` with the
/// default options, phase by phase: each row is a phase's name, the
/// live bytes it leaves and the peak while it ran, above the live bytes
/// before the program was built; the first row (`MIR input`) is the
/// program itself.
fn compile_phases(scale: Scale) -> Vec<(&'static str, usize, usize)> {
    let base = LIVE.load(Relaxed);
    let above = |bytes: usize| bytes - base;
    let (program, peak): (MirProgram, _) = peak_of(|| Workload::Hhvm.build(scale));
    let mut rows = vec![("MIR input", above(LIVE.load(Relaxed)), above(peak))];
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let mut phase = |name| {
        let live = LIVE.load(Relaxed);
        rows.push((name, above(live), above(PEAK.load(Relaxed))));
        PEAK.store(live, Relaxed);
    };
    let binary = compile_and_link_phases(&program, &Default::default(), &mut phase);
    drop((binary.expect("workload compiles"), program));
    rows
}

/// The largest peak among `compile_phases`' compiler rows.
fn compile_peak(rows: &[(&str, usize, usize)]) -> usize {
    rows[1..].iter().map(|r| r.2).max().expect("compiler rows")
}

/// `hhvm_rewrite`'s input files at `scale`: the HHVM-like binary and the
/// `.fdata` of one LBR profiling run of it (period 997, instructions).
fn input_files(scale: Scale) -> (Vec<u8>, String) {
    let program = Workload::Hhvm.build(scale);
    let elf = compile_and_link(&program, &Default::default())
        .expect("workload compiles")
        .elf;
    let mut sampler = LbrSampler::new(997, SampleTrigger::Instructions);
    let mut machine = Machine::new();
    machine.load_elf(&elf);
    let run = machine
        .run_engine(&mut sampler, u64::MAX, Engine::Uop)
        .expect("the profiling run completes");
    assert!(matches!(run.exit, Exit::Exited(_)), "{run:?}");
    let bytes = write_elf(&elf).expect("input ELF serializes");
    (bytes, sampler.profile.to_fdata())
}

fn options(threads: usize) -> BoltOptions {
    BoltOptions {
        threads,
        ..BoltOptions::paper_default()
    }
}

/// Live peak of one `optimize` call, above the live bytes at its start.
fn optimize_peak(bytes: &[u8], fdata: &str, threads: usize) -> usize {
    let elf = read_elf(bytes).expect("input ELF parses");
    let profile = Profile::from_fdata(fdata).expect("profile parses");
    let opts = options(threads);
    let before = LIVE.load(Relaxed);
    let (out, peak) = peak_of(|| optimize(&elf, &profile, &opts).expect("BOLT succeeds"));
    drop(out);
    peak - before
}

/// Of one `optimize` call at `threads`, once it returns: the bytes
/// still live that a worker allocated, and all the live bytes its
/// output holds.
fn worker_residue(bytes: &[u8], fdata: &str, threads: usize) -> (usize, usize) {
    let elf = read_elf(bytes).expect("input ELF parses");
    let profile = Profile::from_fdata(fdata).expect("profile parses");
    let opts = options(threads);
    let (live, workers) = (LIVE.load(Relaxed), WORKER_LIVE.load(Relaxed));
    let out = optimize(&elf, &profile, &opts).expect("BOLT succeeds");
    let residue = WORKER_LIVE.load(Relaxed).saturating_sub(workers);
    let kept = LIVE.load(Relaxed) - live;
    drop(out);
    (residue, kept)
}

const MB: f64 = 1e6;

#[test]
fn optimizer_memory_stays_within_the_ledger() {
    let _measuring = measure();
    let inst = std::mem::size_of::<BinaryInst>();
    assert!(inst <= 56, "BinaryInst is {inst} bytes");

    let peak = compile_peak(&compile_phases(Scale::Test));
    assert!(
        peak <= COMPILE_PEAK_TEST,
        "compile_and_link's live peak grew: {peak} bytes > COMPILE_PEAK_TEST = {COMPILE_PEAK_TEST}"
    );

    let (bytes, fdata) = input_files(Scale::Test);
    let elf = read_elf(&bytes).expect("input ELF parses");
    let profile = Profile::from_fdata(&fdata).expect("profile parses");
    let ctx = prepare(&elf, &profile, &options(1)).ctx;
    let blocks = ctx.functions.iter().flat_map(|f| &f.blocks);
    let (len, cap) = blocks.fold((0, 0), |(len, cap), b| {
        (len + b.insts.len(), cap + b.insts.capacity())
    });
    assert_eq!(cap, len, "instruction slots allocated vs used");

    // The encoder works in an inline buffer: sizing and encoding every
    // instruction of the IR allocates nothing.
    let insts = ctx.functions.iter().flat_map(|f| &f.blocks);
    let insts = insts.flat_map(|b| &b.insts);
    let before = ALLOCS.load(Relaxed);
    let mut encoded = 0;
    for i in insts {
        encoded += encoded_len(&i.inst);
        encoded += encode_at(&i.inst, i.addr).map_or(0, |e| e.bytes.len());
    }
    let allocs = ALLOCS.load(Relaxed) - before;
    assert!(encoded > 0, "the IR has instructions");
    assert_eq!(allocs, 0, "heap allocations while encoding the IR");
    drop((ctx, profile, elf));

    let peak = optimize_peak(&bytes, &fdata, 1);
    assert!(
        peak <= OPTIMIZE_PEAK_TEST,
        "optimize's live peak grew: {peak} bytes > OPTIMIZE_PEAK_TEST = {OPTIMIZE_PEAK_TEST}"
    );

    // The calling thread builds the whole IR (the disassembly planner
    // only decodes), so of what `optimize`'s output holds, workers
    // allocated only what pass kernels reallocated on them.
    let (residue, kept) = worker_residue(&bytes, &fdata, 2);
    assert!(
        residue <= WORKER_RESIDUE_TEST,
        "workers allocated {residue} of the {kept} live bytes optimize's output holds \
         (WORKER_RESIDUE_TEST = {WORKER_RESIDUE_TEST})"
    );
}

/// Prints the `COMPILE_PEAK_TEST` and `OPTIMIZE_PEAK_TEST` literals,
/// then `compile_and_link`'s phases on the benchmark-scale HHVM-like
/// program (the live bytes each leaves and the peak while it ran, the
/// program included; the peak at most [`COMPILE_PEAK_BENCH`]), then
/// `hhvm_rewrite`'s op at benchmark scale and threads = 2, phase by
/// phase: the live bytes each phase leaves and the peak while it ran,
/// input files included. The phases are `optimize`'s own steps called
/// one by one; their output must be `optimize`'s byte for byte,
/// `optimize`'s live peak at most [`OPTIMIZE_PEAK_BENCH`], and the
/// rewrite's peak at most [`REWRITE_TRANSIENT_BENCH`] above the bytes it
/// leaves. Beside each row, the live bytes workers allocated; under the
/// table, those that `optimize`'s output holds (at most
/// `WORKER_RESIDUE_BENCH`) and the process's `VmHWM`, which counts the
/// allocator arenas those bytes pin. Then the emulator's rows for the
/// input and the BOLTed binary: live bytes after `load_elf` and the
/// live peak over one uop run. The two text indexes (decode cache and
/// block cache, 4 bytes per slot) must hold at most 8 bytes per
/// executable-section byte.
#[test]
#[ignore = "benchmark scale, seconds in release; run by a CI step of its own"]
fn bench_scale_phase_table() {
    let _measuring = measure();
    let peak = compile_peak(&compile_phases(Scale::Test));
    println!("const COMPILE_PEAK_TEST: usize = {peak};");
    let (bytes, fdata) = input_files(Scale::Test);
    let peak = optimize_peak(&bytes, &fdata, 1);
    println!("const OPTIMIZE_PEAK_TEST: usize = {peak};");
    drop((bytes, fdata));

    let compile = compile_phases(Scale::Bench);
    println!("\nBench hhvm compile_and_link  live MB   peak MB");
    for (name, live, peak) in &compile {
        let (live, peak) = (*live as f64 / MB, *peak as f64 / MB);
        println!("{name:<24} {live:>8.1} {peak:>9.1}");
    }
    let peak = compile_peak(&compile) as f64;
    println!(
        "{:<24} {:>8} {:>9.1}",
        "compile_and_link (whole)",
        "",
        peak / MB
    );
    assert!(
        peak <= COMPILE_PEAK_BENCH,
        "compile_and_link's live peak is {:.1} MB",
        peak / MB
    );

    let (bytes, fdata) = input_files(Scale::Bench);
    let opts = options(2);
    let live = || (LIVE.load(Relaxed), WORKER_LIVE.load(Relaxed));
    let mut rows = vec![("input files", live(), 0)];
    let mut row = |name, peak| rows.push((name, live(), peak));
    let ((elf, profile), peak) = peak_of(|| {
        let elf = read_elf(&bytes).expect("input ELF parses");
        (elf, Profile::from_fdata(&fdata).expect("profile parses"))
    });
    row("read", peak);
    let ((mut ctx, raw), peak) = peak_of(|| discover(&elf));
    row("discover", peak);
    let (_, peak) = peak_of(|| disassemble_all_with_threads(&mut ctx, &raw, &elf, opts.threads));
    drop(raw);
    row("disasm", peak);
    let (_, peak) = peak_of(|| attach_profile_opts(&mut ctx, &profile, opts.non_lbr_tuned));
    row("attach", peak);
    let (pipeline, peak) = peak_of(|| {
        let mut manager = PassManager::standard(&opts.passes);
        manager.config.threads = opts.threads;
        manager.run(&mut ctx, &opts.passes)
    });
    row("passes", peak);
    let ((out, _), peak) =
        peak_of(|| rewrite_binary(&elf, &ctx, &pipeline.function_order).expect("rewrite succeeds"));
    row("emit+assemble+tables", peak);
    let rewrite_transient = peak - LIVE.load(Relaxed);
    let (written, peak) = peak_of(|| write_elf(&out).expect("output ELF serializes"));
    row("write", peak);
    let decomposed = fnv64(&written);
    drop((written, out, pipeline, ctx, profile, elf));

    let elf = read_elf(&bytes).expect("input ELF parses");
    let profile = Profile::from_fdata(&fdata).expect("profile parses");
    let workers = WORKER_LIVE.load(Relaxed);
    let (bolted, peak) = peak_of(|| optimize(&elf, &profile, &opts).expect("BOLT succeeds"));
    let residue = WORKER_LIVE.load(Relaxed).saturating_sub(workers);
    row("optimize (whole)", peak);

    println!("\nBench hhvm, threads = 2   live MB   peak MB   worker MB");
    for (name, (live, worker), peak) in &rows {
        let (live, peak, worker) = (*live as f64 / MB, *peak as f64 / MB, *worker as f64 / MB);
        println!("{name:<24} {live:>8.1} {peak:>9.1} {worker:>11.3}");
    }
    println!("worker bytes optimize's output holds: {residue} (WORKER_RESIDUE_BENCH = {WORKER_RESIDUE_BENCH})");
    println!(
        "rewrite's peak above the bytes it leaves: {:.1} MB",
        rewrite_transient as f64 / MB
    );
    println!("VmHWM: {}", vm_hwm());
    assert!(
        residue <= WORKER_RESIDUE_BENCH,
        "workers allocated {residue} bytes that optimize's output holds"
    );
    assert!(
        rewrite_transient as f64 <= REWRITE_TRANSIENT_BENCH,
        "the rewrite peaked {:.1} MB above the bytes it leaves",
        rewrite_transient as f64 / MB
    );
    let written = write_elf(&bolted.elf).expect("output ELF serializes");
    assert_eq!(fnv64(&written), decomposed, "the phases must be optimize's");
    assert!(
        peak as f64 <= OPTIMIZE_PEAK_BENCH,
        "optimize's live peak is {:.1} MB",
        peak as f64 / MB
    );

    println!("\nBench hhvm emulator       live MB   peak MB   (above the bytes before load_elf)");
    for (name, elf) in [("input", &elf), ("BOLTed", &bolted.elf)] {
        let before = LIVE.load(Relaxed);
        let mut machine = Machine::new();
        machine.load_elf(elf);
        let loaded = LIVE.load(Relaxed) - before;
        let (run, peak) = peak_of(|| machine.run_engine(&mut NullSink, u64::MAX, Engine::Uop));
        assert!(matches!(run.expect("runs").exit, Exit::Exited(_)));
        let (loaded, peak) = (loaded as f64 / MB, (peak - before) as f64 / MB);
        println!("{:<24} {loaded:>8.1}", format!("{name}: load_elf"));
        println!("{:<24} {:>8} {peak:>9.1}", format!("{name}: uop run"), "");
        let text: usize = elf
            .sections
            .iter()
            .filter(|s| s.is_alloc() && s.is_exec())
            .map(|s| s.data.len())
            .sum();
        let index = machine.text_index_bytes();
        assert!(
            index <= 8 * text,
            "{name}: text indexes hold {index} bytes for {text} executable-section bytes"
        );
    }
}

/// This process's peak resident set, as `/proc/self/status` prints it.
fn vm_hwm() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    hwm.map_or("unavailable".into(), |v| v.trim().to_string())
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}
