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

use bolt::elf::{read_elf, Elf};
use bolt::emu::{run_supervised, Engine, Exit, Knobs, Machine, ShardPlan, SupervisePlan};
use bolt::profile::ProfileMode;
use bolt::shard_artifact::{merge_shards, run_shards, seed_partition, Attach, ShardArtifact};
use bolt::sim::SimConfig;
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

/// Everything parsed from the command line.
struct Cli {
    input: String,
    fdata: Option<String>,
    use_ip: bool,
    period: u64,
    counters: bool,
    /// 0 = auto, like `shards` and `threads`.
    max_steps: u64,
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
    /// Hidden: which attempt at its shard the worker is (the fault
    /// injector keys off shard *and* attempt).
    attempt: u32,
}

impl Cli {
    /// What this process samples, in the `--worker-profile` spelling.
    fn profile_kind(&self) -> &str {
        match (&self.worker_profile, &self.fdata, self.use_ip) {
            (Some(kind), ..) => kind,
            (None, None, _) => "none",
            (None, Some(_), false) => "lbr",
            (None, Some(_), true) => "ip",
        }
    }
}

/// A malformed command line: one line on stderr, exit 2, before the
/// input is read.
fn bad_flag(flag: &str, problem: &str) -> ! {
    eprintln!("bolt-run: {flag} {problem}");
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        input: String::new(),
        fdata: None,
        use_ip: false,
        period: 997,
        counters: false,
        max_steps: 0,
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
        attempt: 0,
    };
    let mut input = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        // A value-taking flag at the end of the line is a usage error,
        // never a silently dropped option.
        let mut value = || {
            it.next()
                .unwrap_or_else(|| bad_flag(a, "requires a value"))
                .as_str()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
            v.parse()
                .unwrap_or_else(|_| bad_flag(flag, &format!("expects a number, got {v:?}")))
        }
        match a.as_str() {
            "--fdata" => cli.fdata = Some(value().into()),
            "--ip" => cli.use_ip = true,
            "--counters" => cli.counters = true,
            "--validate-semantics" => cli.validate_semantics = true,
            "--period" => cli.period = num(a, value()),
            "--max-steps" => cli.max_steps = num(a, value()),
            "--shards" => cli.shards = num(a, value()),
            "--threads" => cli.threads = num(a, value()),
            "--shard-config" => cli.shard_config = Some(num(a, value())),
            "--supervise" => cli.supervise = true,
            "--state-dir" => cli.state_dir = Some(value().into()),
            "--deadline-ms" => cli.deadline_ms = num(a, value()),
            "--retries" => cli.retries = num(a, value()),
            "--backoff-ms" => cli.backoff_ms = num(a, value()),
            "--seed" => cli.seed = num(a, value()),
            "--shard-worker" => cli.shard_worker = Some(num(a, value())),
            "--artifact-out" => cli.artifact_out = Some(value().into()),
            "--worker-profile" => cli.worker_profile = Some(value().into()),
            "--attempt" => cli.attempt = num(a, value()),
            "--engine" => {
                cli.engine = Some(value().parse().unwrap_or_else(|e: String| bad_flag(a, &e)));
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

    // Every knob resolves *here*, once. The supervisor forwards the
    // results to its workers as explicit flags, so a worker re-resolving
    // them gets the same plan (and the run fingerprint describes what
    // the workers will actually do).
    let knobs = Knobs::get();
    let plan = ShardPlan::new(knobs.shards(cli.shards))
        .with_threads(knobs.threads(cli.threads))
        .with_max_steps(knobs.max_steps(cli.max_steps, u64::MAX))
        .with_engine(knobs.engine(cli.engine));

    if let Some(shard) = cli.shard_worker {
        return run_worker(&cli, &elf, &plan, shard);
    }
    let outcome = if cli.supervise {
        run_supervise_mode(&cli, &bytes, &elf, &plan)
    } else {
        // The original single-process path: shards across threads in
        // this process.
        run(&cli, &elf, &plan, 0).map(|shards| (shards, 0))
    };
    match outcome {
        Ok((shards, quarantined)) => report(&cli, &plan, &shards, quarantined),
        Err(code) => code,
    }
}

/// The one measurement call: shards `first_shard..first_shard +
/// plan.shards` of this run through the shared runner, with whatever the
/// command line attaches. In-process runs all of them; a supervised
/// worker runs its one.
fn run(
    cli: &Cli,
    elf: &Elf,
    plan: &ShardPlan,
    first_shard: usize,
) -> Result<Vec<ShardArtifact>, ExitCode> {
    let attach = Attach {
        sampler: match cli.profile_kind() {
            "lbr" => Some((ProfileMode::Lbr, cli.period)),
            "ip" => Some((ProfileMode::IpSamples, cli.period)),
            _ => None,
        },
        model: cli.counters.then(SimConfig::server),
    };
    let seed = shard_seed(cli, elf)?;
    let prepare = |shard: usize, m: &mut Machine| {
        if cli.validate_semantics {
            m.set_sem_validation(true);
        }
        if let Some(seed) = &seed {
            seed(shard, m);
        }
    };
    run_shards(elf, plan, &attach, first_shard, prepare).map_err(|e| {
        eprintln!("bolt-run: execution failed: {e}");
        ExitCode::FAILURE
    })
}

/// `--shard-config BASE` seed partitioning (shard i runs with `config =
/// BASE + i`); an error if the binary has no `config` global to seed.
fn shard_seed(
    cli: &Cli,
    elf: &Elf,
) -> Result<Option<impl Fn(usize, &mut Machine) + Sync>, ExitCode> {
    let seed = cli.shard_config.map(|base| seed_partition(elf, base));
    if let Some(None) = seed {
        eprintln!(
            "bolt-run: --shard-config given but {} has no `config` global",
            cli.input
        );
        return Err(ExitCode::FAILURE);
    }
    Ok(seed.flatten())
}

/// Prints a merged run — the same function for in-process and
/// supervised shards, fed in index order, so the printed output words,
/// the fdata bytes and the summed counters are byte-identical between
/// the two paths — and maps the outcome to the exit-code taxonomy: 0 =
/// full clean merge, 3 = merged but `quarantined` shards are missing
/// from it, else the first non-clean shard exit decides (1 for a
/// nonzero program exit, FAILURE for a shard that never exited).
fn report(cli: &Cli, plan: &ShardPlan, shards: &[ShardArtifact], quarantined: usize) -> ExitCode {
    for s in shards {
        for v in &s.output {
            println!("{v}");
        }
        // A shard that never reached the exit syscall gets its own
        // diagnostic line — the batch still reports the other shards.
        if !matches!(s.exit, Exit::Exited(_)) {
            eprintln!(
                "bolt-run: shard {}/{} did not exit: {:?} after {} steps \
                 (budget {}; raise with --max-steps or BOLT_MAX_STEPS)",
                s.shard, plan.shards, s.exit, s.steps, plan.max_steps
            );
        }
    }
    let merged = merge_shards(shards);
    let over = match plan.shards {
        1 => String::new(),
        n => format!(" over {n} shards ({} workers)", plan.workers()),
    };
    eprintln!(
        "bolt-run: {} instructions{over}, exit {:?}",
        merged.steps, merged.exit
    );
    if cli.counters {
        let total = &merged.counters;
        eprintln!("  cycles            {:>14.0}", total.cycles);
        eprintln!("  ipc               {:>14.2}", total.ipc());
        eprintln!("  branch-misses     {:>14}", total.branch_mispredicts);
        eprintln!("  L1-icache-misses  {:>14}", total.l1i_misses);
        eprintln!("  L1-dcache-misses  {:>14}", total.l1d_misses);
        eprintln!("  iTLB-misses       {:>14}", total.itlb_misses);
        eprintln!("  LLC-misses        {:>14}", total.llc_misses);
    }
    if let Some(path) = &cli.fdata {
        if let Err(e) = std::fs::write(path, merged.profile.to_fdata()) {
            eprintln!("bolt-run: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "bolt-run: wrote {path} ({} samples)",
            merged.profile.num_samples
        );
    }

    if quarantined > 0 {
        return ExitCode::from(3);
    }
    match merged.exit {
        Exit::Exited(0) => ExitCode::SUCCESS,
        Exit::Exited(_) => ExitCode::from(1),
        _ => ExitCode::FAILURE,
    }
}

/// Supervised mode: one OS process per shard, durable artifacts,
/// deadline/retry/quarantine, resume from the state directory. Returns
/// the usable shards in index order plus how many are missing.
fn run_supervise_mode(
    cli: &Cli,
    elf_bytes: &[u8],
    elf: &Elf,
    plan: &ShardPlan,
) -> Result<(Vec<ShardArtifact>, usize), ExitCode> {
    let (shards, max_steps) = (plan.shards, plan.max_steps);
    let engine = Knobs::get().engine(plan.engine);
    let profile_kind = cli.profile_kind();
    shard_seed(cli, elf)?;

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
    let mut supervise = SupervisePlan::new(shards, PathBuf::from(&state_dir), fingerprint);
    supervise.procs = plan.threads;
    supervise.deadline = Duration::from_millis(cli.deadline_ms);
    supervise.max_attempts = cli.retries.saturating_add(1);
    supervise.backoff_base = Duration::from_millis(cli.backoff_ms);
    supervise.seed = cli.seed;

    let exe = std::env::current_exe().map_err(|e| {
        eprintln!("bolt-run: cannot locate own executable: {e}");
        ExitCode::FAILURE
    })?;
    let outcome = run_supervised(&supervise, |shard, attempt, artifact| {
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
            .arg("--attempt")
            .arg(attempt.to_string());
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
    let outcome = outcome.map_err(|e| {
        eprintln!("bolt-run: supervision failed: {e}");
        ExitCode::FAILURE
    })?;
    eprint!("{}", outcome.report.render());

    // Surviving artifacts in shard-index order — the order the
    // in-process path produces them in.
    let mut usable = Vec::new();
    let mut quarantined = outcome.report.quarantined.len();
    for (shard, path) in outcome.artifacts.iter().enumerate() {
        let Some(path) = path else { continue };
        // Framing was already validated by the supervisor; decoding
        // the payload can still fail (e.g. a version-compatible but
        // semantically bad payload) — such a shard is as lost as a
        // quarantined one.
        match ShardArtifact::read(path) {
            Ok(art) if art.shard as usize == shard => usable.push(art),
            Ok(art) => {
                eprintln!(
                    "bolt-run: shard {shard} artifact claims to be shard {}; rejected",
                    art.shard
                );
                quarantined += 1;
            }
            Err(e) => {
                eprintln!("bolt-run: shard {shard} artifact rejected at merge: {e}");
                quarantined += 1;
            }
        }
    }
    if usable.is_empty() {
        eprintln!("bolt-run: no usable shard artifacts; nothing merged");
        return Err(ExitCode::from(1));
    }
    Ok((usable, quarantined))
}

/// Hidden worker mode: runs exactly one shard and writes its durable
/// artifact atomically. Exits 0 iff a valid artifact was written; the
/// emulated program's own exit status travels *inside* the artifact.
fn run_worker(cli: &Cli, elf: &Elf, plan: &ShardPlan, shard: usize) -> ExitCode {
    let Some(out) = &cli.artifact_out else {
        eprintln!("bolt-run: --shard-worker requires --artifact-out");
        return ExitCode::from(2);
    };
    let out = PathBuf::from(out);
    let injected = CrashSpec::from_env().action_for(shard as u32, cli.attempt);

    // Faults that manifest before any work: the supervisor must cope
    // with workers that die, stall, or emit junk without ever running
    // the emulator.
    let mut rng = XorShift64::new(
        (shard as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(cli.attempt)),
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

    // This worker *is* global shard `shard` of the run: a one-shard
    // batch at that index (so the config global gets BASE + shard).
    let plan = ShardPlan {
        shards: 1,
        threads: 1,
        ..plan.clone()
    };
    let art = match run(cli, elf, &plan, shard) {
        Ok(mut arts) => arts.remove(0),
        Err(code) => return code,
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
