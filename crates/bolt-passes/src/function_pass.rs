//! Parallel execution for per-function pure passes.
//!
//! BOLT processes functions concurrently (paper section 3) because most
//! Table-1 transformations only ever touch one [`BinaryFunction`] at a
//! time. A registry row whose body is a pure per-function [`Kernel`]
//! ([`PassRow::per_function`](crate::PassRow::per_function)) is run by
//! [`run_function_pass`], which shards `ctx.functions` across the
//! calling thread and `std::thread::scope` workers (`in_chunks`) when
//! the one sharding rule, [`sharded`], says so. ICF hashes function
//! bodies through the same `in_chunks`, and
//! `bolt-opt::disasm::disassemble_all` asks the same rule whether to
//! plan on a worker.
//!
//! Determinism: each kernel owns exactly one function and nothing else,
//! so the post-pass context is identical at any worker count, and the
//! change counts are reduced in function index order (each worker owns
//! one contiguous chunk; chunk subtotals are summed in chunk order).
//! `PassManager::run` therefore produces byte-identical
//! [`PipelineResult`](crate::PipelineResult)s for `threads = 1` and
//! `threads = N`.

use bolt_ir::{BinaryContext, BinaryFunction, NonSimpleReason};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Below this many functions a sweep stays serial: thread spawn/join
/// overhead dwarfs the per-function work on such small contexts. Kept
/// low enough that the Scale::Test workload fixtures (~20 functions)
/// still exercise sharding in the integration tests.
const PARALLEL_THRESHOLD: usize = 8;

/// The one sharding rule for sweeps over a binary's functions
/// (per-function passes, disassembly): whether a sweep over `len`
/// functions at `n_threads` threads (an effective count, see
/// `bolt_emu::Knobs::threads`) uses worker threads. It stays serial on
/// the calling thread at one thread or below `PARALLEL_THRESHOLD` (8)
/// functions.
pub fn sharded(len: usize, n_threads: usize) -> bool {
    n_threads > 1 && len >= PARALLEL_THRESHOLD
}

/// A pure per-function kernel: runs on one function and returns the
/// number of changes it made.
///
/// The kernel must read and write *only* the function it is handed —
/// no context tables, no other functions, no globals — and must not
/// depend on the order functions are visited in. `Sync` is required
/// because one kernel is shared by every worker. Applicability checks
/// (`is_simple`, folded functions, …) belong inside the kernel so serial
/// and sharded runs agree exactly. Naming and option gating live on the
/// registry row ([`PassRow`](crate::PassRow)).
pub type Kernel = dyn Fn(&mut BinaryFunction) -> u64 + Sync;

/// The outcome of one sharded kernel sweep: the total change count plus
/// every kernel panic caught at the per-function boundary, both reduced
/// in function index order.
#[derive(Debug, Default)]
pub struct KernelRun {
    /// Total changes across all functions the kernel completed on.
    pub changes: u64,
    /// `(function name, panic payload)` for each function whose kernel
    /// panicked. The function itself has already been marked
    /// non-simple ([`NonSimpleReason::Quarantined`]) so later passes,
    /// validation, and emission skip its half-mutated IR.
    pub failures: Vec<(String, String)>,
}

/// Renders a caught panic payload for failure reports. Panics raised by
/// `panic!("...")` carry a `String` (or `&str` for literal messages);
/// anything else gets a generic label rather than being re-thrown.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the kernel on one function with the panic firewall: a panicking
/// kernel quarantines exactly that function (marked non-simple so its
/// original bytes are emitted verbatim) instead of unwinding through
/// the worker and killing the whole pipeline.
fn run_one(kernel: &Kernel, func: &mut BinaryFunction, out: &mut KernelRun) {
    match catch_unwind(AssertUnwindSafe(|| kernel(func))) {
        Ok(n) => out.changes += n,
        Err(payload) => {
            // The kernel died mid-mutation; whatever state it left the
            // IR in is untrusted. Demote immediately so `validate_all`,
            // later kernels, and `rewrite_binary` all skip it.
            func.is_simple = false;
            func.non_simple_reason = Some(NonSimpleReason::Quarantined);
            out.failures
                .push((func.name.clone(), panic_message(payload.as_ref())));
        }
    }
}

/// Splits `items` into contiguous chunks, one per thread when a sweep
/// over `items.len()` functions at `n_threads` threads is [`sharded`]
/// and one in all otherwise, and runs `work` on each with the index of
/// its first item: the first chunk on the calling thread, each other on
/// a scoped worker. The results come back in chunk order, so whatever is
/// reduced from them is the same at any thread count.
pub(crate) fn in_chunks<T: Send, R: Send>(
    items: &mut [T],
    n_threads: usize,
    work: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    if !sharded(items.len(), n_threads) {
        return vec![work(0, items)];
    }
    let chunk = items.len().div_ceil(n_threads);
    let work = &work;
    std::thread::scope(|scope| {
        let mut chunks = items.chunks_mut(chunk).enumerate();
        let (_, first) = chunks.next().expect("a sharded sweep has items");
        let workers: Vec<_> = chunks
            .map(|(i, slice)| scope.spawn(move || work(i * chunk, slice)))
            .collect();
        let mut results = Vec::with_capacity(n_threads);
        results.push(work(0, first));
        for worker in workers {
            results.push(worker.join().expect("function sweep worker"));
        }
        results
    })
}

/// Runs `kernel` over every function in `ctx`, sharded by `in_chunks`
/// across `n_threads` threads (an effective count, see
/// `bolt_emu::Knobs::threads`). Each kernel invocation is isolated with
/// `catch_unwind`, so a panicking kernel poisons only its own function
/// (see [`KernelRun`]).
pub fn run_function_pass(kernel: &Kernel, ctx: &mut BinaryContext, n_threads: usize) -> KernelRun {
    let chunks = in_chunks(&mut ctx.functions, n_threads, |_, slice| {
        let mut out = KernelRun::default();
        for f in slice.iter_mut() {
            run_one(kernel, f, &mut out);
        }
        out
    });
    // Chunk subtotals, changes and failure lists alike, in chunk order.
    let mut total = KernelRun::default();
    for part in chunks {
        total.changes += part.changes;
        total.failures.extend(part.failures);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_isa::Inst;

    fn count_rets(func: &mut BinaryFunction) -> u64 {
        func.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| i.inst == Inst::Ret)
            .count() as u64
    }

    fn many_function_ctx(n: usize) -> BinaryContext {
        let mut ctx = BinaryContext::new();
        for i in 0..n {
            let mut f = BinaryFunction::new(format!("f{i}"), 0x1000 + 0x100 * i as u64);
            let b = f.add_block(bolt_ir::BasicBlock::new());
            f.block_mut(b).push(Inst::Ret);
            ctx.add_function(f);
        }
        ctx
    }

    #[test]
    fn sharded_run_matches_serial_at_every_thread_count() {
        for n in [1, 2, 3, 7, 8, 64] {
            let mut ctx = many_function_ctx(41);
            let run = run_function_pass(&count_rets, &mut ctx, n);
            assert_eq!(run.changes, 41, "threads={n}");
            assert!(run.failures.is_empty(), "threads={n}");
        }
    }

    #[test]
    fn one_sharding_rule() {
        assert!(!sharded(PARALLEL_THRESHOLD - 1, 8), "too few functions");
        assert!(!sharded(100, 1), "one thread");
        assert!(sharded(PARALLEL_THRESHOLD, 2));
    }

    /// A kernel that panics on chosen functions: a stand-in for any
    /// buggy pass, used to prove the per-function firewall.
    fn panic_on(name: &'static str) -> impl Fn(&mut BinaryFunction) -> u64 + Sync {
        move |func| {
            if func.name == name {
                panic!("injected kernel fault on {}", func.name);
            }
            1
        }
    }

    #[test]
    fn kernel_panic_quarantines_only_that_function() {
        for n in [1, 4] {
            let mut ctx = many_function_ctx(41);
            let run = run_function_pass(&panic_on("f17"), &mut ctx, n);
            assert_eq!(run.changes, 40, "threads={n}: every other kernel ran");
            assert_eq!(
                run.failures,
                vec![(
                    "f17".to_string(),
                    "injected kernel fault on f17".to_string()
                )],
                "threads={n}"
            );
            let poisoned = &ctx.functions[17];
            assert!(!poisoned.is_simple);
            assert_eq!(
                poisoned.non_simple_reason,
                Some(bolt_ir::NonSimpleReason::Quarantined)
            );
            assert!(
                ctx.functions
                    .iter()
                    .enumerate()
                    .all(|(i, f)| i == 17 || f.is_simple),
                "threads={n}: siblings untouched"
            );
        }
    }
}
