//! Sharded batch emulation: N independent invocations of one workload
//! binary across scoped worker threads.
//!
//! Emulation is the dominant wall-clock cost of every measurement in the
//! reproduction (the paper's subjects are data-center-scale binaries;
//! ours are emulated instruction by instruction). A [`ShardPlan`]
//! describes a batch of independent runs — each shard gets its own
//! freshly-loaded [`Machine`] and its own sink — and [`run_batch`]
//! executes them across `std::thread::scope` workers, the same sharding
//! discipline `bolt-passes::run_function_pass` uses for the optimizer.
//!
//! Determinism: shards never share mutable state (one machine, one sink,
//! one output vector each), workers own contiguous shard ranges, and
//! results are returned in shard-index order, so a batch is byte-for-byte
//! identical at any worker count. Workers *reuse* one machine across
//! their shards; [`Machine::load_elf`] fully resets it between runs.

use crate::{EmuError, Engine, Knobs, Machine, RunResult, TraceSink};
use bolt_elf::Elf;

/// Describes a batch of independent emulation runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of independent invocations.
    pub shards: usize,
    /// Worker threads to spread the shards over. This is an *effective*
    /// count (resolve `BOLT_THREADS` before building the plan, via
    /// [`Knobs::threads`]); `0` or `1` runs the batch serially on the
    /// calling thread. The batch result is byte-identical at any value.
    pub threads: usize,
    /// Per-shard step budget.
    pub max_steps: u64,
    /// Execution engine for every shard. `None` (the default) resolves
    /// via [`Knobs::engine`] — the `BOLT_ENGINE` environment override
    /// or per-instruction stepping. All engines produce
    /// byte-identical batch results; this only changes the wall clock.
    pub engine: Option<Engine>,
}

impl ShardPlan {
    /// A serial plan of `shards` runs with the default step budget.
    pub fn new(shards: usize) -> ShardPlan {
        ShardPlan {
            shards: shards.max(1),
            threads: 1,
            max_steps: u64::MAX,
            engine: None,
        }
    }

    /// Sets the worker count.
    pub fn with_threads(mut self, threads: usize) -> ShardPlan {
        self.threads = threads;
        self
    }

    /// Sets the per-shard step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> ShardPlan {
        self.max_steps = max_steps;
        self
    }

    /// Pins the execution engine (overriding the `BOLT_ENGINE` default).
    pub fn with_engine(mut self, engine: Engine) -> ShardPlan {
        self.engine = Some(engine);
        self
    }

    /// Effective worker count: never more workers than shards.
    pub fn workers(&self) -> usize {
        self.threads.max(1).min(self.shards.max(1))
    }
}

/// One completed shard: its index, run result, observable output, and
/// the sink that consumed its trace.
#[derive(Debug)]
pub struct ShardRun<S> {
    pub shard: usize,
    pub result: RunResult,
    /// The program's emit-syscall output for this shard.
    pub output: Vec<i64>,
    pub sink: S,
}

/// Runs `plan.shards` independent invocations of `elf`, sharded across
/// `plan.workers()` scoped threads. For each shard index `i`,
/// `make_sink(i)` builds the shard's trace sink and `prepare(i, &mut m)`
/// runs after `load_elf` (patch a seed word, set registers, …) before
/// the shard executes. Results come back in shard-index order.
///
/// Each worker owns one contiguous range of shard indices and reuses a
/// single [`Machine`] across them ([`Machine::load_elf`] fully resets
/// it), so the batch output is byte-identical at any worker count.
///
/// # Errors
///
/// The first failing shard's [`EmuError`], by shard index.
pub fn run_batch<S, F, P>(
    elf: &Elf,
    plan: &ShardPlan,
    make_sink: F,
    prepare: P,
) -> Result<Vec<ShardRun<S>>, EmuError>
where
    S: TraceSink + Send,
    F: Fn(usize) -> S + Sync,
    P: Fn(usize, &mut Machine) + Sync,
{
    let shards = plan.shards.max(1);
    let workers = plan.workers();
    let engine = Knobs::get().engine(plan.engine);

    let run_range = |range: std::ops::Range<usize>| -> Result<Vec<ShardRun<S>>, EmuError> {
        let mut machine = Machine::new();
        let mut done = Vec::with_capacity(range.len());
        for shard in range {
            machine.load_elf(elf);
            prepare(shard, &mut machine);
            let mut sink = make_sink(shard);
            let result = machine.run_engine(&mut sink, plan.max_steps, engine)?;
            done.push(ShardRun {
                shard,
                result,
                output: std::mem::take(&mut machine.output),
                sink,
            });
        }
        Ok(done)
    };

    if workers <= 1 {
        return run_range(0..shards);
    }

    // Contiguous shard ranges per worker; joined in worker order, so
    // the flattened result is in shard-index order and the first error
    // (by shard index) wins deterministically.
    let chunk = shards.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(shards);
                let run_range = &run_range;
                scope.spawn(move || run_range(lo..hi))
            })
            .collect();
        let mut all = Vec::with_capacity(shards);
        let mut first_err = None;
        for h in handles {
            match h.join().expect("batch emulation worker") {
                Ok(done) => {
                    if first_err.is_none() {
                        all.extend(done);
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(all),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingSink, Exit, NullSink};
    use bolt_isa::{encode_at, Inst, Reg};

    /// A binary that emits the value stored at `0x500000` (the "seed
    /// word") and exits with it: shards are distinguishable only through
    /// `prepare`.
    fn seed_echo_elf() -> Elf {
        let insts = [
            Inst::MovRI {
                dst: Reg::R10,
                imm: 0x500000,
            },
            Inst::Load {
                dst: Reg::Rdi,
                mem: bolt_isa::Mem::BaseDisp {
                    base: Reg::R10,
                    disp: 0,
                },
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Syscall,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::Syscall,
        ];
        let mut code = Vec::new();
        let mut at = 0x400000u64;
        for i in &insts {
            let e = encode_at(i, at).unwrap();
            at += e.bytes.len() as u64;
            code.extend(e.bytes);
        }
        let mut elf = Elf::new(0x400000);
        elf.sections
            .push(bolt_elf::Section::code(".text", 0x400000, code));
        // The seed word lives in a writable data section.
        elf.sections
            .push(bolt_elf::Section::data(".data", 0x500000, vec![0; 8]));
        elf
    }

    fn seed_of(shard: usize) -> i64 {
        1000 + shard as i64
    }

    fn run_plan(plan: &ShardPlan) -> Vec<ShardRun<CountingSink>> {
        run_batch(
            &seed_echo_elf(),
            plan,
            |_| CountingSink::default(),
            |shard, m| m.mem.write_u64(0x500000, seed_of(shard) as u64),
        )
        .expect("batch runs")
    }

    #[test]
    fn shards_see_their_own_seed_and_keep_index_order() {
        let runs = run_plan(&ShardPlan::new(9).with_threads(4));
        assert_eq!(runs.len(), 9);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.shard, i, "results in shard-index order");
            assert_eq!(r.output, vec![seed_of(i)]);
            assert_eq!(r.result.exit, Exit::Exited(seed_of(i)));
        }
    }

    #[test]
    fn batch_identical_at_any_worker_count() {
        let baseline: Vec<_> = run_plan(&ShardPlan::new(8))
            .into_iter()
            .map(|r| (r.shard, r.result, r.output, r.sink.insts))
            .collect();
        for threads in [2, 3, 8, 64] {
            let got: Vec<_> = run_plan(&ShardPlan::new(8).with_threads(threads))
                .into_iter()
                .map(|r| (r.shard, r.result, r.output, r.sink.insts))
                .collect();
            assert_eq!(got, baseline, "threads={threads}");
        }
    }

    #[test]
    fn step_budget_is_per_shard() {
        let plan = ShardPlan::new(3).with_threads(2).with_max_steps(2);
        let runs = run_batch(&seed_echo_elf(), &plan, |_| NullSink, |_, _| ()).unwrap();
        for r in &runs {
            assert_eq!(r.result.exit, Exit::MaxSteps);
            assert_eq!(r.result.steps, 2);
        }
    }

    #[test]
    fn first_shard_error_by_index_wins() {
        // Poison shard 5 (and 6) by zeroing their code page: zeros fail
        // to decode. The reported rip must be shard 5's entry regardless
        // of worker scheduling.
        let plan = ShardPlan::new(8).with_threads(4);
        let err = run_batch(
            &seed_echo_elf(),
            &plan,
            |_| NullSink,
            |shard, m| {
                if shard >= 5 {
                    m.mem.write(0x400000, &[0u8; 64]);
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, EmuError::BadInstruction { rip: 0x400000 });
    }

    #[test]
    fn workers_never_exceed_shards() {
        assert_eq!(ShardPlan::new(3).with_threads(16).workers(), 3);
        assert_eq!(ShardPlan::new(16).with_threads(4).workers(), 4);
        assert_eq!(ShardPlan::new(5).with_threads(0).workers(), 1);
    }
}
