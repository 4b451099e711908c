//! The `bolt-run` tool: executes an ELF binary under the emulator,
//! optionally collecting a profile (the `perf record` + `perf2bolt` step)
//! and reporting microarchitectural counters.
//!
//! ```sh
//! bolt-run app.elf --fdata app.fdata          # LBR profiling
//! bolt-run app.elf --fdata app.fdata --ip     # plain IP samples
//! bolt-run app.elf --counters                 # perf-stat style output
//! bolt-run app.elf --fdata app.fdata --shards 8 --threads 4
//! #   sharded profiling: 8 independent invocations across 4 workers,
//! #   per-shard profiles merged in shard order, counters summed
//! bolt-run app.elf --fdata app.fdata --shards 8 --shard-config 4000
//! #   seed-partitioned: shard i runs with the `config` input-selection
//! #   global set to 4000+i, splitting the input space instead of
//! #   repeating the same invocation 8 times
//! bolt-run app.elf --fdata app.fdata --shards 8 --supervise
//! #   crash-safe process-level sharding: each shard is its own OS
//! #   process writing a durable artifact; hung workers are killed at a
//! #   deadline, crashed workers retried with deterministic backoff,
//! #   persistent failures quarantined, and an interrupted run resumes
//! #   by re-executing only the missing shards. The merged result is
//! #   byte-identical to the in-process path.
//! ```

use bolt::elf::read_elf;
use bolt::emu::{
    resolve_engine, resolve_max_steps, resolve_shards, run_batch, run_supervised, BranchEvent,
    Engine, Exit, ShardPlan, SupervisePlan, TraceSink,
};
use bolt::passes::resolve_threads;
use bolt::profile::{IpSampler, LbrSampler, Profile, ProfileMode, SampleTrigger};
use bolt::shard_artifact::ShardArtifact;
use bolt::sim::{Counters, CpuModel, SimConfig};
use bolt::verify::{ArtifactMutation, CrashMode, CrashSpec, XorShift64};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: bolt-run <app.elf> [--fdata <out.fdata>] [--ip] [--period N] \
         [--counters] [--max-steps N] [--shards N] [--threads N] \
         [--engine step|superblock|uop] [--validate-semantics] \
         [--supervise] [--state-dir DIR] [--deadline-ms N] [--retries N] \
         [--backoff-ms N] [--seed N]\n\
         \n\
         --shards N   run N independent invocations (sharded batch\n\
         \x20            emulation; 0 = auto [BOLT_SHARDS env or 1]); the\n\
         \x20            merged profile and summed counters are byte-identical\n\
         \x20            at any worker count. Without --shard-config the N\n\
         \x20            invocations are identical (N x the work, N x the\n\
         \x20            samples)\n\
         --threads N  workers for the shard batch (0 = auto [BOLT_THREADS\n\
         \x20            env or available parallelism]); with --supervise,\n\
         \x20            the maximum concurrently-running worker processes\n\
         --max-steps N\n\
         \x20            per-shard step budget (0/absent = auto: the\n\
         \x20            BOLT_MAX_STEPS env override, else unlimited)\n\
         --shard-config BASE\n\
         \x20            seed-partition the batch: write BASE+i into the\n\
         \x20            binary's `config` input-selection global for shard i,\n\
         \x20            so the shards split the input space\n\
         --engine step|superblock|uop\n\
         \x20            emulation engine (default: the BOLT_ENGINE env\n\
         \x20            override, else per-instruction stepping).\n\
         \x20            `superblock` executes through a translation cache\n\
         \x20            of chained blocks spanning memory-touching\n\
         \x20            instructions; `uop` further lowers each block to\n\
         \x20            pre-resolved micro-ops with lazily-materialized\n\
         \x20            flags — byte-identical profiles/counters/output,\n\
         \x20            just faster\n\
         --supervise  run each shard as its own supervised OS process\n\
         \x20            writing a durable, checksummed artifact; crashes and\n\
         \x20            hangs are retried with deterministic backoff and\n\
         \x20            persistent failures quarantined (exit 3 when a\n\
         \x20            partial merge was produced). Interrupted runs resume\n\
         \x20            from the state directory, re-executing only missing\n\
         \x20            or invalid shards\n\
         --state-dir DIR\n\
         \x20            supervision state (artifacts + run manifest);\n\
         \x20            default <app.elf>.supervise\n\
         --deadline-ms N   per-attempt wall-clock deadline (default 300000)\n\
         --retries N       retries per shard after the first failure\n\
         \x20            (default 2)\n\
         --backoff-ms N    base retry backoff; delays are capped exponential\n\
         \x20            plus seeded jitter (default 100)\n\
         --seed N          seed for the deterministic backoff jitter\n\
         --validate-semantics\n\
         \x20            (translation engines) symbolically prove every\n\
         \x20            translated block semantically equivalent to the step\n\
         \x20            semantics of a fresh decode of its bytes — final\n\
         \x20            registers, observable flags (incl. lazy-flags\n\
         \x20            materialization), ordered memory effects, and the\n\
         \x20            terminator; a disagreeing block degrades to a\n\
         \x20            lower execution tier instead of aborting the run.\n\
         \x20            Also enabled by BOLT_SEM_VALIDATE=1"
    );
    std::process::exit(2)
}

/// The per-invocation sink: any combination of an LBR sampler, an IP
/// sampler, and the counter model (owned, so one instance per shard can
/// cross the batch's thread boundary).
#[derive(Default)]
struct RunSink {
    lbr: Option<LbrSampler>,
    ip: Option<IpSampler>,
    model: Option<CpuModel>,
}

impl TraceSink for RunSink {
    #[inline]
    fn on_inst(&mut self, addr: u64, len: u8) {
        if let Some(s) = &mut self.lbr {
            s.on_inst(addr, len);
        }
        if let Some(s) = &mut self.ip {
            s.on_inst(addr, len);
        }
        if let Some(m) = &mut self.model {
            m.on_inst(addr, len);
        }
    }

    #[inline]
    fn on_block(&mut self, ev: bolt::emu::BlockEvent<'_>) {
        if let Some(s) = &mut self.lbr {
            s.on_block(ev);
        }
        if let Some(s) = &mut self.ip {
            s.on_block(ev);
        }
        if let Some(m) = &mut self.model {
            m.on_block(ev);
        }
    }

    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        if let Some(s) = &mut self.lbr {
            s.on_branch(ev);
        }
        if let Some(s) = &mut self.ip {
            s.on_branch(ev);
        }
        if let Some(m) = &mut self.model {
            m.on_branch(ev);
        }
    }

    #[inline]
    fn on_mem(&mut self, addr: u64, len: u8, write: bool) {
        if let Some(s) = &mut self.lbr {
            s.on_mem(addr, len, write);
        }
        if let Some(s) = &mut self.ip {
            s.on_mem(addr, len, write);
        }
        if let Some(m) = &mut self.model {
            m.on_mem(addr, len, write);
        }
    }
}

/// Everything parsed from the command line.
struct Cli {
    input: String,
    fdata: Option<String>,
    use_ip: bool,
    period: u64,
    counters: bool,
    max_steps: Option<u64>,
    shards: usize,
    threads: usize,
    shard_config: Option<i64>,
    engine: Option<Engine>,
    supervise: bool,
    state_dir: Option<String>,
    deadline_ms: u64,
    retries: u32,
    backoff_ms: u64,
    seed: u64,
    validate_semantics: bool,
    /// Hidden: run as the supervised worker for this shard index.
    shard_worker: Option<usize>,
    /// Hidden: where the worker writes its shard artifact.
    artifact_out: Option<String>,
    /// Hidden: what the worker samples ("lbr" | "ip" | "none").
    worker_profile: Option<String>,
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        input: String::new(),
        fdata: None,
        use_ip: false,
        period: 997,
        counters: false,
        max_steps: None,
        shards: 0,
        threads: 0,
        shard_config: None,
        engine: None,
        supervise: false,
        state_dir: None,
        deadline_ms: 300_000,
        retries: 2,
        backoff_ms: 100,
        seed: 0,
        validate_semantics: false,
        shard_worker: None,
        artifact_out: None,
        worker_profile: None,
    };
    let mut input = None;

    fn num<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>) -> T {
        it.next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage())
    }

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fdata" => cli.fdata = it.next().cloned(),
            "--ip" => cli.use_ip = true,
            "--counters" => cli.counters = true,
            "--validate-semantics" => cli.validate_semantics = true,
            "--period" => cli.period = num(&mut it),
            "--max-steps" => cli.max_steps = Some(num(&mut it)),
            "--shards" => cli.shards = num(&mut it),
            "--threads" => cli.threads = num(&mut it),
            "--shard-config" => cli.shard_config = Some(num(&mut it)),
            "--supervise" => cli.supervise = true,
            "--state-dir" => cli.state_dir = it.next().cloned(),
            "--deadline-ms" => cli.deadline_ms = num(&mut it),
            "--retries" => cli.retries = num(&mut it),
            "--backoff-ms" => cli.backoff_ms = num(&mut it),
            "--seed" => cli.seed = num(&mut it),
            "--shard-worker" => cli.shard_worker = Some(num(&mut it)),
            "--artifact-out" => cli.artifact_out = it.next().cloned(),
            "--worker-profile" => cli.worker_profile = it.next().cloned(),
            "--engine" => {
                let Some(arg) = it.next() else { usage() };
                cli.engine = match arg.parse() {
                    Ok(e) => Some(e),
                    Err(msg) => {
                        eprintln!("bolt-run: --engine: {msg}");
                        std::process::exit(2);
                    }
                };
            }
            s if s.starts_with('-') => usage(),
            _ if input.is_none() => input = Some(a.clone()),
            _ => usage(),
        }
    }
    let Some(input) = input else { usage() };
    cli.input = input;
    cli
}

fn main() -> ExitCode {
    let cli = parse_cli();
    if cli.validate_semantics {
        bolt::emu::enable_sem_validation();
    }

    let bytes = match std::fs::read(&cli.input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bolt-run: cannot read {}: {e}", cli.input);
            return ExitCode::FAILURE;
        }
    };
    let elf = match read_elf(&bytes) {
        Ok(e) => e,
        Err(e) => {
            // Malformed input is a usage-class failure (exit 2), distinct
            // from a failed execution of a well-formed binary (exit 1).
            eprintln!("bolt-run: {}: {e}", cli.input);
            return ExitCode::from(2);
        }
    };

    if let Some(shard) = cli.shard_worker {
        return run_worker(&cli, &elf, shard);
    }
    if cli.supervise {
        return run_supervise_mode(&cli, &bytes, &elf);
    }
    run_in_process(&cli, &elf)
}

/// Resolves the address of the `config` input-selection global when
/// `--shard-config` is in play.
fn config_addr(cli: &Cli, elf: &bolt::elf::Elf) -> Result<Option<u64>, ()> {
    match cli.shard_config {
        Some(_) => match elf.symbol("config") {
            Some(s) => Ok(Some(s.value)),
            None => {
                eprintln!(
                    "bolt-run: --shard-config given but {} has no `config` global",
                    cli.input
                );
                Err(())
            }
        },
        None => Ok(None),
    }
}

/// The original single-process path: shards across threads in this
/// process, merged in shard-index order.
fn run_in_process(cli: &Cli, elf: &bolt::elf::Elf) -> ExitCode {
    let profiling = cli.fdata.is_some();
    let mut plan = ShardPlan::new(resolve_shards(cli.shards))
        .with_threads(resolve_threads(cli.threads))
        .with_max_steps(resolve_max_steps(cli.max_steps, u64::MAX));
    plan.engine = cli.engine;
    let make_sink = |_: usize| RunSink {
        lbr: (profiling && !cli.use_ip)
            .then(|| LbrSampler::new(cli.period, SampleTrigger::Instructions)),
        ip: (profiling && cli.use_ip).then(|| IpSampler::new(cli.period)),
        model: cli.counters.then(|| CpuModel::new(SimConfig::server())),
    };

    // Seed partitioning: shard i gets `config = BASE + i`.
    let Ok(addr) = config_addr(cli, elf) else {
        return ExitCode::FAILURE;
    };
    let prepare = |shard: usize, m: &mut bolt::emu::Machine| {
        if let (Some(addr), Some(base)) = (addr, cli.shard_config) {
            m.mem.write_u64(addr, (base + shard as i64) as u64);
        }
    };

    let runs = match run_batch(elf, &plan, make_sink, prepare) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bolt-run: execution failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Merge per-shard observations in shard-index order.
    let mut merge = Merge::new(cli);
    for r in &runs {
        let profile = r.sink.lbr.as_ref().map(|s| &s.profile);
        let ip_profile = r.sink.ip.as_ref().map(|s| &s.profile);
        let counters = r.sink.model.as_ref().map(|m| m.counters());
        merge.shard(
            r.shard,
            plan.shards,
            plan.max_steps,
            &r.output,
            r.result.exit,
            r.result.steps,
            profile.or(ip_profile),
            counters.as_ref(),
        );
    }
    if plan.shards > 1 {
        eprintln!(
            "bolt-run: {} instructions over {} shards ({} workers), exit {:?}",
            merge.total_steps,
            plan.shards,
            plan.workers(),
            merge.worst_exit
        );
    } else {
        eprintln!(
            "bolt-run: {} instructions, exit {:?}",
            merge.total_steps, merge.worst_exit
        );
    }
    merge.finish(0)
}

/// The merge state shared by the in-process and supervised paths. Both
/// feed shards in index order, so the printed output words, the merged
/// profile (and therefore the fdata bytes), and the summed counters are
/// byte-identical between the two paths.
struct Merge<'a> {
    cli: &'a Cli,
    profile: Profile,
    total: Counters,
    total_steps: u64,
    worst_exit: Exit,
}

impl<'a> Merge<'a> {
    fn new(cli: &'a Cli) -> Merge<'a> {
        let mode = if cli.use_ip {
            ProfileMode::IpSamples
        } else {
            ProfileMode::Lbr
        };
        Merge {
            cli,
            profile: Profile::new(mode),
            total: Counters::default(),
            total_steps: 0,
            worst_exit: Exit::Exited(0),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn shard(
        &mut self,
        shard: usize,
        shards: usize,
        budget: u64,
        output: &[i64],
        exit: Exit,
        steps: u64,
        profile: Option<&Profile>,
        counters: Option<&Counters>,
    ) {
        for v in output {
            println!("{v}");
        }
        if let Some(p) = profile {
            self.profile.merge(p);
        }
        if let Some(c) = counters {
            self.total.merge(c);
        }
        self.total_steps += steps;
        // A shard that never reached the exit syscall gets its own
        // diagnostic line — the batch still reports the other shards.
        if !matches!(exit, Exit::Exited(_)) {
            eprintln!(
                "bolt-run: shard {shard}/{shards} did not exit: {exit:?} after {steps} steps \
                 (budget {budget}; raise with --max-steps or BOLT_MAX_STEPS)"
            );
        }
        // The batch fails if any shard does: the first non-clean exit
        // (by shard index) decides the process status.
        if self.worst_exit == Exit::Exited(0) && exit != Exit::Exited(0) {
            self.worst_exit = exit;
        }
    }

    /// Prints the counter block, writes the fdata file, and maps the
    /// outcome to the exit-code taxonomy: 0 = full clean merge, 3 =
    /// merged but `quarantined` shards are missing from it, else the
    /// worst shard exit decides (1 for a nonzero program exit,
    /// FAILURE for a shard that never exited).
    fn finish(self, quarantined: usize) -> ExitCode {
        if self.cli.counters {
            let total = &self.total;
            eprintln!("  cycles            {:>14.0}", total.cycles);
            eprintln!("  ipc               {:>14.2}", total.ipc());
            eprintln!("  branch-misses     {:>14}", total.branch_mispredicts);
            eprintln!("  L1-icache-misses  {:>14}", total.l1i_misses);
            eprintln!("  L1-dcache-misses  {:>14}", total.l1d_misses);
            eprintln!("  iTLB-misses       {:>14}", total.itlb_misses);
            eprintln!("  LLC-misses        {:>14}", total.llc_misses);
        }
        if let Some(path) = &self.cli.fdata {
            if let Err(e) = std::fs::write(path, self.profile.to_fdata()) {
                eprintln!("bolt-run: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "bolt-run: wrote {path} ({} samples)",
                self.profile.num_samples
            );
        }

        if quarantined > 0 {
            return ExitCode::from(3);
        }
        match self.worst_exit {
            Exit::Exited(0) => ExitCode::SUCCESS,
            Exit::Exited(_) => ExitCode::from(1),
            _ => ExitCode::FAILURE,
        }
    }
}

/// Supervised mode: one OS process per shard, durable artifacts,
/// deadline/retry/quarantine, resume from the state directory.
fn run_supervise_mode(cli: &Cli, elf_bytes: &[u8], elf: &bolt::elf::Elf) -> ExitCode {
    // Resolve every knob *here*, in the supervisor, and forward the
    // results as explicit worker flags — workers must not re-resolve
    // environment overrides (the fingerprint below must describe what
    // the workers will actually do).
    let shards = resolve_shards(cli.shards);
    let procs = resolve_threads(cli.threads);
    let engine = resolve_engine(cli.engine);
    let max_steps = resolve_max_steps(cli.max_steps, u64::MAX);
    let profile_kind = match (&cli.fdata, cli.use_ip) {
        (None, _) => "none",
        (Some(_), false) => "lbr",
        (Some(_), true) => "ip",
    };
    if config_addr(cli, elf).is_err() {
        return ExitCode::FAILURE;
    }

    // Run identity: any knob that changes worker output is part of the
    // fingerprint, so artifacts from a different configuration are
    // never resumed into this run.
    let basename = Path::new(&cli.input)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| cli.input.clone());
    let fingerprint = format!(
        "{basename} elf-crc {:08x} shards {shards} profile {profile_kind} period {} \
         counters {} engine {engine} shard-config {} max-steps {max_steps}",
        bolt::emu::artifact::crc32(elf_bytes),
        cli.period,
        cli.counters,
        cli.shard_config
            .map_or_else(|| "off".into(), |b| b.to_string()),
    );

    let state_dir = cli
        .state_dir
        .clone()
        .unwrap_or_else(|| format!("{}.supervise", cli.input));
    let mut plan = SupervisePlan::new(shards, PathBuf::from(&state_dir), fingerprint);
    plan.procs = procs;
    plan.deadline = Duration::from_millis(cli.deadline_ms);
    plan.max_attempts = cli.retries.saturating_add(1);
    plan.backoff_base = Duration::from_millis(cli.backoff_ms);
    plan.seed = cli.seed;

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bolt-run: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = run_supervised(&plan, |shard, attempt, artifact| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg(&cli.input)
            .arg("--shard-worker")
            .arg(shard.to_string())
            .arg("--artifact-out")
            .arg(artifact)
            .arg("--worker-profile")
            .arg(profile_kind)
            .arg("--period")
            .arg(cli.period.to_string())
            .arg("--max-steps")
            .arg(max_steps.to_string())
            .arg("--engine")
            .arg(engine.to_string())
            // The fault injector keys off shard *and* attempt; the
            // attempt number only exists here.
            .env("BOLT_SHARD_ATTEMPT", attempt.to_string());
        if cli.counters {
            cmd.arg("--counters");
        }
        if let Some(base) = cli.shard_config {
            cmd.arg("--shard-config").arg(base.to_string());
        }
        if cli.validate_semantics {
            cmd.arg("--validate-semantics");
        }
        cmd
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bolt-run: supervision failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", outcome.report.render());

    // Merge surviving artifacts in shard-index order — the same order
    // the in-process path merges in, so the result is byte-identical.
    let mut merge = Merge::new(cli);
    let mut quarantined = outcome.report.quarantined.len();
    let mut usable = 0usize;
    for (shard, path) in outcome.artifacts.iter().enumerate() {
        let Some(path) = path else { continue };
        // Framing was already validated by the supervisor; decoding
        // the payload can still fail (e.g. a version-compatible but
        // semantically bad payload) — such a shard is as lost as a
        // quarantined one.
        let art = match ShardArtifact::read(path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("bolt-run: shard {shard} artifact rejected at merge: {e}");
                quarantined += 1;
                continue;
            }
        };
        if art.shard as usize != shard {
            eprintln!(
                "bolt-run: shard {shard} artifact claims to be shard {}; rejected",
                art.shard
            );
            quarantined += 1;
            continue;
        }
        usable += 1;
        merge.shard(
            shard,
            shards,
            max_steps,
            &art.output,
            art.exit,
            art.steps,
            art.profile.as_ref(),
            art.counters.as_ref(),
        );
    }
    if usable == 0 {
        eprintln!("bolt-run: no usable shard artifacts; nothing merged");
        return ExitCode::from(1);
    }
    if shards > 1 {
        eprintln!(
            "bolt-run: {} instructions over {} shards ({} workers), exit {:?}",
            merge.total_steps, shards, procs, merge.worst_exit
        );
    } else {
        eprintln!(
            "bolt-run: {} instructions, exit {:?}",
            merge.total_steps, merge.worst_exit
        );
    }
    merge.finish(quarantined)
}

/// Hidden worker mode: runs exactly one shard and writes its durable
/// artifact atomically. Exits 0 iff a valid artifact was written; the
/// emulated program's own exit status travels *inside* the artifact.
fn run_worker(cli: &Cli, elf: &bolt::elf::Elf, shard: usize) -> ExitCode {
    let Some(out) = &cli.artifact_out else {
        eprintln!("bolt-run: --shard-worker requires --artifact-out");
        return ExitCode::from(2);
    };
    let out = PathBuf::from(out);
    let attempt: u32 = std::env::var("BOLT_SHARD_ATTEMPT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let injected = CrashSpec::from_env().action_for(shard as u32, attempt);

    // Faults that manifest before any work: the supervisor must cope
    // with workers that die, stall, or emit junk without ever running
    // the emulator.
    let mut rng = XorShift64::new(
        (shard as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt)),
    );
    match injected {
        Some(CrashMode::Abort) => std::process::abort(),
        Some(CrashMode::ExitNoArtifact) => return ExitCode::from(21),
        Some(CrashMode::Hang) => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        Some(CrashMode::GarbageArtifact) => {
            // Deliberately *not* the atomic path: a buggy worker that
            // writes junk straight to the final name.
            let junk: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
            if std::fs::write(&out, junk).is_err() {
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let max_steps = resolve_max_steps(cli.max_steps, u64::MAX);
    let mut plan = ShardPlan::new(1).with_threads(1).with_max_steps(max_steps);
    plan.engine = cli.engine;
    let profile_kind = cli.worker_profile.as_deref().unwrap_or("none");
    let make_sink = |_: usize| RunSink {
        lbr: (profile_kind == "lbr")
            .then(|| LbrSampler::new(cli.period, SampleTrigger::Instructions)),
        ip: (profile_kind == "ip").then(|| IpSampler::new(cli.period)),
        model: cli.counters.then(|| CpuModel::new(SimConfig::server())),
    };
    let Ok(addr) = config_addr(cli, elf) else {
        return ExitCode::FAILURE;
    };
    // This worker *is* global shard `shard` of the run: the config
    // global gets BASE + shard even though the local batch has 1 shard.
    let prepare = |_: usize, m: &mut bolt::emu::Machine| {
        if let (Some(addr), Some(base)) = (addr, cli.shard_config) {
            m.mem.write_u64(addr, (base + shard as i64) as u64);
        }
    };
    let runs = match run_batch(elf, &plan, make_sink, prepare) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bolt-run: shard {shard}: execution failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = &runs[0];
    let art = ShardArtifact {
        shard: shard as u32,
        exit: run.result.exit,
        steps: run.result.steps,
        output: run.output.clone(),
        profile: run
            .sink
            .lbr
            .as_ref()
            .map(|s| s.profile.clone())
            .or_else(|| run.sink.ip.as_ref().map(|s| s.profile.clone())),
        counters: run.sink.model.as_ref().map(|m| m.counters()),
    };

    // Faults that manifest in the artifact bytes after a real run: a
    // clean exit with a torn or corrupted file. Written directly (not
    // atomically) — these model exactly the writers that skip the
    // temp-file protocol.
    match injected {
        Some(CrashMode::TruncatedArtifact) => {
            let bytes = art.to_artifact();
            let keep = bytes.len() / 2;
            if std::fs::write(&out, &bytes[..keep]).is_err() {
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        Some(CrashMode::CorruptArtifact) => {
            let mut bytes = art.to_artifact();
            let seed = rng.next_u64();
            if !ArtifactMutation::FlipPayloadBit.apply(&mut bytes, seed) {
                ArtifactMutation::FlipCrc.apply(&mut bytes, seed);
            }
            if std::fs::write(&out, bytes).is_err() {
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    match art.write(&out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bolt-run: shard {shard}: cannot write artifact: {e}");
            ExitCode::FAILURE
        }
    }
}
