//! The per-layer ledger of a traced run: timed legs around each layer's
//! entry points, the engine-exactness check, and the decomposed optimizer
//! path. Host time unless a metric is a count or a simulated statistic.

use crate::spec::PASSES;
use crate::stats::median;
use crate::trace::span;
use crate::workloads::{
    bolt_options, emulate, Prepared, Reference, Run, Workload, ENGINE, LBR_PERIOD, OPT_THREADS,
};
use bolt_elf::{read_elf, write_elf, Elf};
use bolt_emu::{run_batch, Engine, NullSink, ShardPlan, Tee};
use bolt_opt::{disassemble_all_with_threads, discover, rewrite_binary, BoltOutput};
use bolt_passes::PassManager;
use bolt_profile::{attach_profile, LbrSampler, Profile, SampleTrigger};
use bolt_sim::{Counters, CpuModel, SimConfig};
use std::collections::BTreeMap;
use std::time::Instant;

pub type Metrics = BTreeMap<String, f64>;

fn set(metrics: &mut Metrics, name: &str, value: f64) {
    metrics.insert(name.to_string(), value);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Sink {
    Null,
    Model,
    Sampler,
    Tee,
}

struct LegRun {
    run: Run,
    counters: Option<Counters>,
    profile: Option<Profile>,
}

fn leg(elf: &Elf, engine: Engine, sink: Sink, reference: &Reference) -> Result<LegRun, String> {
    let mut sampler = LbrSampler::new(LBR_PERIOD, SampleTrigger::Instructions);
    let mut model = CpuModel::new(SimConfig::server());
    let run = match sink {
        Sink::Null => emulate(elf, &mut NullSink, engine),
        Sink::Model => emulate(elf, &mut model, engine),
        Sink::Sampler => emulate(elf, &mut sampler, engine),
        Sink::Tee => emulate(elf, &mut Tee(&mut sampler, &mut model), engine),
    }?;
    reference.check(&format!("{engine} leg"), &run)?;
    Ok(LegRun {
        run,
        counters: matches!(sink, Sink::Model | Sink::Tee).then(|| model.counters()),
        profile: matches!(sink, Sink::Sampler | Sink::Tee).then_some(sampler.profile),
    })
}

/// Times the emulator under each engine and sink on `elf`, and checks that
/// the step, superblock and uop tiers agree exactly on counters, profile,
/// exit code and output (the step tier is the reference for simulated
/// statistics, as the MIR interpreter is for output).
///
/// Repetitions go leg by leg within a round, so slow host drift hits every
/// leg alike; `step` legs run once.
pub fn emulator_ledger(
    elf: &Elf,
    reference: &Reference,
    reps: usize,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let timed = [
        (Engine::Uop, Sink::Null),
        (Engine::Superblock, Sink::Null),
        (Engine::Uop, Sink::Model),
        (Engine::Superblock, Sink::Model),
        (Engine::Uop, Sink::Sampler),
        (Engine::Uop, Sink::Tee),
    ];
    let mut ms = vec![Vec::new(); timed.len()];
    let mut uop_null = None;
    let mut uop_tee = None;
    for _ in 0..reps {
        for (i, (engine, sink)) in timed.into_iter().enumerate() {
            let done = leg(elf, engine, sink, reference)?;
            ms[i].push(done.run.ms);
            match (engine, sink) {
                (Engine::Uop, Sink::Null) => uop_null = Some(done),
                (Engine::Uop, Sink::Tee) => uop_tee = Some(done),
                _ => {}
            }
        }
    }
    let med = |engine: Engine, sink: Sink| {
        let i = timed.iter().position(|l| *l == (engine, sink));
        median(&ms[i.expect("a timed leg")])
    };
    let uop_null = uop_null.ok_or("no repetitions")?;
    let uop_tee = uop_tee.ok_or("no repetitions")?;
    let step_null = leg(elf, Engine::Step, Sink::Null, reference)?;
    let step_tee = leg(elf, Engine::Step, Sink::Tee, reference)?;
    let superblock_tee = leg(elf, Engine::Superblock, Sink::Tee, reference)?;

    // Engine exactness.
    for (name, other) in [("superblock", &superblock_tee), ("uop", &uop_tee)] {
        if other.counters != step_tee.counters {
            return Err(format!("{name} counters differ from the step tier's"));
        }
        if other.profile != step_tee.profile {
            return Err(format!("{name} profile differs from the step tier's"));
        }
        if (other.run.exit, &other.run.output, other.run.steps)
            != (step_tee.run.exit, &step_tee.run.output, step_tee.run.steps)
        {
            return Err(format!("{name} run differs from the step tier's"));
        }
    }

    let steps = uop_null.run.steps as f64;
    let mips = |ms: f64| steps / (ms * 1e3);
    set(metrics, "emu.step.null_mips", mips(step_null.run.ms));
    set(
        metrics,
        "emu.superblock.null_mips",
        mips(med(Engine::Superblock, Sink::Null)),
    );
    set(
        metrics,
        "emu.uop.null_mips",
        mips(med(Engine::Uop, Sink::Null)),
    );
    set(metrics, "emu.tier_full", uop_null.run.tiers.full as f64);
    set(
        metrics,
        "emu.tier_degraded",
        uop_null.run.tiers.degraded() as f64,
    );
    set(metrics, "emu.retired", steps);

    let null = med(Engine::Uop, Sink::Null);
    let model = med(Engine::Uop, Sink::Model);
    let sampler = med(Engine::Uop, Sink::Sampler);
    let tee = med(Engine::Uop, Sink::Tee);
    set(metrics, "sim.charge_ms", model - null);
    set(
        metrics,
        "sim.charge_ns_per_inst",
        (model - null) * 1e6 / steps,
    );
    set(
        metrics,
        "sim.superblock.charge_ms",
        med(Engine::Superblock, Sink::Model) - med(Engine::Superblock, Sink::Null),
    );
    set(metrics, "sim.uop.model_mips", mips(model));
    set(metrics, "profile.sampler_ms", sampler - null);
    set(
        metrics,
        "profile.tee_extra_ms",
        tee - model - sampler + null,
    );

    let profile = uop_tee.profile.ok_or("the tee leg keeps its profile")?;
    set(metrics, "profile.samples", profile.num_samples as f64);
    for _ in 0..reps {
        let fdata = span("profile.fdata_write", || profile.to_fdata());
        set(metrics, "profile.fdata_bytes", fdata.len() as f64);
        span("profile.fdata_parse", || Profile::from_fdata(&fdata))
            .map_err(|e| format!("fdata: {e:?}"))?;
    }
    Ok(())
}

/// `emu.batch_efficiency`: two shards on two threads against the same two
/// shards on one, through `run_batch`; 1.0 is a perfect split.
pub fn batch_efficiency(elf: &Elf, reps: usize, metrics: &mut Metrics) -> Result<(), String> {
    let timed = |threads: usize| -> Result<f64, String> {
        let plan = ShardPlan::new(2).with_threads(threads).with_engine(ENGINE);
        let started = Instant::now();
        let shards = run_batch(
            elf,
            &plan,
            |_| CpuModel::new(SimConfig::server()),
            |_, _| (),
        )
        .map_err(|e| format!("batch: {e}"))?;
        std::hint::black_box(&shards);
        Ok(started.elapsed().as_secs_f64())
    };
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        serial.push(timed(1)?);
        parallel.push(timed(2)?);
    }
    set(
        metrics,
        "emu.batch_efficiency",
        median(&serial) / (2.0 * median(&parallel)),
    );
    Ok(())
}

/// The optimizer, entry point by entry point, on `hhvm_rewrite`'s files.
/// The decomposed path must emit an ELF byte-identical to `optimize()`'s.
pub fn optimizer_ledger(
    elf_bytes: &[u8],
    fdata: &str,
    whole: &BoltOutput,
    reps: usize,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let elf = read_elf(elf_bytes).map_err(|e| format!("{e:?}"))?;
    let profile = Profile::from_fdata(fdata).map_err(|e| format!("fdata: {e:?}"))?;
    let expected = write_elf(&whole.elf).map_err(|e| format!("{e:?}"))?;
    let opts = bolt_options();
    let mut total = Vec::new();
    let mut per_pass: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..reps {
        let (mut ctx, raw) = span("opt.discover", || discover(&elf));
        span("opt.disasm", || {
            disassemble_all_with_threads(&mut ctx, &raw, &elf, OPT_THREADS)
        });
        let attached = span("profile.attach", || attach_profile(&mut ctx, &profile));
        let mut manager = PassManager::standard(&opts.passes);
        manager.config.threads = OPT_THREADS;
        let pipeline = span("passes.run", || manager.run(&mut ctx, &opts.passes));
        let (out, _) = span("opt.rewrite", || {
            rewrite_binary(&elf, &ctx, &pipeline.function_order)
        })
        .map_err(|e| format!("rewrite: {e}"))?;
        if write_elf(&out).map_err(|e| format!("{e:?}"))? != expected {
            return Err("the decomposed path's ELF differs from optimize()'s".into());
        }

        total.push(pipeline.total_duration().as_secs_f64() * 1e3);
        set(metrics, "profile.attach_accuracy", attached.accuracy());
        for pass in PASSES {
            let reports = pipeline.reports.iter().filter(|r| r.name == pass);
            let ms: f64 = reports
                .clone()
                .map(|r| r.duration.as_secs_f64() * 1e3)
                .sum();
            per_pass.entry(pass).or_default().push(ms);
            let changes: u64 = reports.map(|r| r.changes).sum();
            set(metrics, &format!("passes.{pass}_changes"), changes as f64);
        }
    }
    set(metrics, "passes.total_ms", median(&total));
    for (pass, ms) in per_pass {
        set(metrics, &format!("passes.{pass}_ms"), median(&ms));
    }

    set(metrics, "elf.bytes_in", elf_bytes.len() as f64);
    set(metrics, "elf.bytes_out", expected.len() as f64);
    set(
        metrics,
        "opt.simple_functions",
        whole.simple_functions as f64,
    );
    let stats = &whole.rewrite_stats;
    set(
        metrics,
        "opt.emitted_functions",
        stats.emitted_functions as f64,
    );
    set(metrics, "opt.hot_text_bytes", stats.hot_text_size as f64);
    set(metrics, "opt.cold_text_bytes", stats.cold_text_size as f64);
    set(
        metrics,
        "opt.quarantine_events",
        whole.quarantine.events.len() as f64,
    );
    set(
        metrics,
        "passes.taken_branch_delta_pct",
        whole.dyno_after.taken_branch_delta(&whole.dyno_before),
    );
    let (before, after) = (
        whole.dyno_before.executed_instructions as f64,
        whole.dyno_after.executed_instructions as f64,
    );
    set(
        metrics,
        "passes.executed_insts_delta_pct",
        100.0 * (after - before) / before,
    );
    Ok(())
}

/// Simulated statistics of the unoptimized and the BOLTed binary. Exact:
/// a simulator speed-up must leave every one of them bit-identical.
pub fn simulated(base: &Counters, bolt: Option<&Counters>, metrics: &mut Metrics) {
    set(metrics, "sim.base_cycles", base.cycles);
    set(metrics, "sim.base_ipc", base.ipc());
    set(metrics, "sim.base_l1i_misses", base.l1i_misses as f64);
    set(metrics, "sim.base_itlb_misses", base.itlb_misses as f64);
    set(
        metrics,
        "sim.base_branch_mispredicts",
        base.branch_mispredicts as f64,
    );
    set(metrics, "sim.base_l1d_misses", base.l1d_misses as f64);
    set(metrics, "sim.base_llc_misses", base.llc_misses as f64);
    if let Some(bolt) = bolt {
        set(metrics, "sim.bolt_cycles", bolt.cycles);
        set(metrics, "sim.bolt_ipc", bolt.ipc());
        set(metrics, "sim.bolt_l1i_misses", bolt.l1i_misses as f64);
        set(metrics, "sim.bolt_itlb_misses", bolt.itlb_misses as f64);
        set(
            metrics,
            "sim.bolt_branch_mispredicts",
            bolt.branch_mispredicts as f64,
        );
        set(
            metrics,
            "sim.cycles_reduction_pct",
            100.0 * (base.cycles - bolt.cycles) / base.cycles,
        );
    }
}

/// Which legs a workload's traced run adds to its traced ops. The
/// emulator legs run on each of the four emulated programs; the optimizer
/// legs on the one input large enough to time them.
pub fn run_legs(
    workload: Workload,
    prepared: &Prepared,
    whole: Option<&BoltOutput>,
    reps: usize,
    metrics: &mut Metrics,
) -> Result<(), String> {
    if let Some(elf) = prepared.program_elf()? {
        emulator_ledger(&elf, &prepared.reference, reps, metrics)?;
        if workload == Workload::InterpMeasure {
            batch_efficiency(&elf, reps, metrics)?;
        }
    }
    if let (Some((elf_bytes, fdata)), Some(whole)) = (prepared.rewrite_files(), whole) {
        optimizer_ledger(elf_bytes, fdata, whole, reps, metrics)?;
    }
    Ok(())
}

/// Fills the metrics that are medians of spans recorded around the calls
/// into a layer, whichever part of the run made them.
pub fn from_spans(spans: &[crate::trace::Span], metrics: &mut Metrics) {
    for (metric, name) in [
        ("compiler.compile_link_ms", "compiler.compile_link"),
        ("elf.read_ms", "elf.read"),
        ("elf.write_ms", "elf.write"),
        ("emu.load_ms", "emu.load"),
        ("profile.fdata_write_ms", "profile.fdata_write"),
        ("profile.fdata_parse_ms", "profile.fdata_parse"),
        ("profile.attach_ms", "profile.attach"),
        ("opt.discover_ms", "opt.discover"),
        ("opt.disasm_ms", "opt.disasm"),
        ("opt.rewrite_ms", "opt.rewrite"),
        ("opt.optimize_ms", "opt.optimize"),
        ("verify.rewrite_ms", "verify.rewrite"),
        ("verify.sem_ms", "verify.sem"),
    ] {
        let ms = crate::trace::durations_ms(spans, name);
        if !ms.is_empty() {
            set(metrics, metric, median(&ms));
        }
    }
    // Ladder plumbing and dyno sweeps: what `optimize()` spends outside
    // the entry points the decomposed path calls one by one.
    if metrics.contains_key("opt.rewrite_ms") {
        let part = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
        let rest = part("opt.optimize_ms")
            - part("opt.discover_ms")
            - part("opt.disasm_ms")
            - part("profile.attach_ms")
            - median(&crate::trace::durations_ms(spans, "passes.run"))
            - part("opt.rewrite_ms");
        set(metrics, "opt.driver_rest_ms", rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    #[test]
    fn span_medians_become_layer_metrics() {
        let s = |name: &'static str, start_ns, end_ns| Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op: 1,
        };
        let spans = [
            s("elf.read", 0, 1_000_000),
            s("elf.read", 0, 3_000_000),
            s("elf.read", 0, 2_000_000),
            s("opt.optimize", 0, 100_000_000),
            s("opt.discover", 0, 10_000_000),
            s("opt.disasm", 0, 20_000_000),
            s("profile.attach", 0, 5_000_000),
            s("passes.run", 0, 30_000_000),
            s("opt.rewrite", 0, 25_000_000),
        ];
        let mut metrics = Metrics::new();
        from_spans(&spans, &mut metrics);
        assert_eq!(metrics["elf.read_ms"], 2.0);
        assert_eq!(metrics["opt.driver_rest_ms"], 10.0);
        assert!(!metrics.contains_key("verify.sem_ms"));
    }
}
