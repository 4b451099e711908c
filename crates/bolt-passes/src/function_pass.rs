//! The [`FunctionPass`] adapter: parallel execution for per-function
//! pure passes.
//!
//! BOLT processes functions concurrently (paper section 3) because most
//! Table-1 transformations only ever touch one [`BinaryFunction`] at a
//! time. A pass that can be expressed as a pure per-function kernel
//! implements [`FunctionPass`]; [`run_function_pass`] shards
//! `ctx.functions` across `std::thread::scope` workers the same way
//! `bolt-opt::disasm::disassemble_all` shards disassembly.
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

/// Below this many functions the sharded path stays serial: thread
/// spawn/join overhead dwarfs the kernel work on such small contexts
/// (disassembly uses the same kind of fallback). Kept low enough that
/// the Scale::Test workload fixtures (~20 functions) still exercise
/// sharding in the integration tests.
const PARALLEL_THRESHOLD: usize = 8;

/// A pass expressible as a pure per-function kernel.
///
/// The kernel must read and write *only* the function it is handed —
/// no context tables, no other functions, no globals — and must not
/// depend on the order functions are visited in. `Sync` is required
/// because one kernel instance is shared by every worker. Naming and
/// option gating stay on the [`Pass`](crate::Pass) side; this trait is
/// only the execution kernel.
pub trait FunctionPass: Sync {
    /// Runs the kernel on one function; returns the number of changes.
    /// Applicability checks (`is_simple`, folded functions, …) belong
    /// inside the kernel so serial and sharded runs agree exactly.
    fn run_on_function(&self, func: &mut BinaryFunction) -> u64;
}

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
fn run_one(
    pass: &dyn FunctionPass,
    func: &mut BinaryFunction,
    out: &mut KernelRun,
    firewall: bool,
) {
    if !firewall {
        out.changes += pass.run_on_function(func);
        return;
    }
    match catch_unwind(AssertUnwindSafe(|| pass.run_on_function(func))) {
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

/// Runs `pass` over every function in `ctx`, sharded across `n_threads`
/// scoped workers (an effective count, see `bolt_emu::Knobs::threads`).
/// Each kernel invocation is isolated with `catch_unwind`, so a
/// panicking kernel poisons only its own function (see [`KernelRun`]).
pub fn run_function_pass(
    pass: &dyn FunctionPass,
    ctx: &mut BinaryContext,
    n_threads: usize,
) -> KernelRun {
    run_function_pass_with(pass, ctx, n_threads, true)
}

/// [`run_function_pass`] with the panic firewall switchable. Turning the
/// firewall off removes the per-function `catch_unwind` (a panicking
/// kernel then unwinds through the worker and aborts the sweep) — meant
/// only for measuring the firewall's clean-run cost, e.g. the
/// `"quarantine"` section of `bench-snapshot`. Production callers go
/// through [`run_function_pass`] / [`ManagerConfig::firewall`]
/// (see [`crate::ManagerConfig`]), which default to firewalled.
pub fn run_function_pass_with(
    pass: &dyn FunctionPass,
    ctx: &mut BinaryContext,
    n_threads: usize,
    firewall: bool,
) -> KernelRun {
    if n_threads <= 1 || ctx.functions.len() < PARALLEL_THRESHOLD {
        let mut out = KernelRun::default();
        for f in ctx.functions.iter_mut() {
            run_one(pass, f, &mut out, firewall);
        }
        return out;
    }
    let chunk = ctx.functions.len().div_ceil(n_threads);
    // Each worker owns one contiguous chunk of functions (index order);
    // chunk subtotals (changes and failure lists alike) are reduced in
    // chunk order, so the result is deterministic regardless of worker
    // scheduling.
    std::thread::scope(|scope| {
        let handles: Vec<_> = ctx
            .functions
            .chunks_mut(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut out = KernelRun::default();
                    for f in slice.iter_mut() {
                        run_one(pass, f, &mut out, firewall);
                    }
                    out
                })
            })
            .collect();
        let mut total = KernelRun::default();
        for h in handles {
            let part = h.join().expect("function-pass worker");
            total.changes += part.changes;
            total.failures.extend(part.failures);
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_isa::Inst;

    struct CountRets;

    impl FunctionPass for CountRets {
        fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
            func.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| i.inst == Inst::Ret)
                .count() as u64
        }
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
            let run = run_function_pass(&CountRets, &mut ctx, n);
            assert_eq!(run.changes, 41, "threads={n}");
            assert!(run.failures.is_empty(), "threads={n}");
        }
    }

    /// A kernel that panics on chosen functions: a stand-in for any
    /// buggy pass, used to prove the per-function firewall.
    struct PanicOn(&'static str);

    impl FunctionPass for PanicOn {
        fn run_on_function(&self, func: &mut BinaryFunction) -> u64 {
            if func.name == self.0 {
                panic!("injected kernel fault on {}", func.name);
            }
            1
        }
    }

    #[test]
    fn kernel_panic_quarantines_only_that_function() {
        for n in [1, 4] {
            let mut ctx = many_function_ctx(41);
            let run = run_function_pass(&PanicOn("f17"), &mut ctx, n);
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
