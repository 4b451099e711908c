//! The one measurement path: run an ELF under a sampler and/or the
//! counter model, sharded, and merge the shards in index order.
//!
//! [`run_shards`] is the only place samplers and [`CpuModel`]s are
//! attached to a [`run_batch`]; every caller — `bolt-run` in-process,
//! its supervised workers (one shard each, at their global index), and
//! the experiment harness — gets back [`ShardArtifact`]s and reduces
//! them with [`merge_shards`], so the three cannot drift.
//!
//! A [`ShardArtifact`] is everything one shard produced, framed as a
//! single durable [`KIND_SHARD_RUN`] file.
//!
//! A shard run has four outputs the reducer must merge *in shard-index
//! order* to stay byte-identical with the in-process path: the
//! emulated program's output words, the exit status, the step count,
//! and (depending on flags) a sampled [`Profile`] and/or simulated
//! [`Counters`]. Bundling them in one artifact means a shard is either
//! completely durable or not durable at all — there is no window where
//! a crash leaves the profile on disk but not the counters.
//!
//! Payload layout (little-endian, after the standard frame header):
//!
//! ```text
//! u32            shard index
//! u8 tag, i64    exit (0 = Exited(code), 1 = MaxSteps, 2 = Returned)
//! u64            steps retired
//! u32, i64×n     emulated program output words
//! u8 [, u64, b]  optional Profile payload (Profile::to_bytes)
//! u8 [, u64, b]  optional Counters payload (Counters::to_bytes)
//! ```

use crate::{IpSampler, LbrSampler, Profile, ProfileMode, SampleTrigger};
use bolt_elf::Elf;
use bolt_emu::artifact::{self, ArtifactError, ByteReader, KIND_SHARD_RUN};
use bolt_emu::{run_batch, EmuError, Exit, Machine, ShardPlan, Tee};
use bolt_sim::{Counters, CpuModel, SimConfig};
use std::path::Path;

/// One shard's complete, mergeable result.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArtifact {
    /// Which shard of the run this is (0-based).
    pub shard: u32,
    /// How the emulated program stopped.
    pub exit: Exit,
    /// Instructions retired.
    pub steps: u64,
    /// The emulated program's output words, in emission order.
    pub output: Vec<i64>,
    /// LBR/IP samples, when the worker ran with a sampler attached.
    pub profile: Option<Profile>,
    /// Simulated hardware counters, when the worker ran the model.
    pub counters: Option<Counters>,
}

fn exit_tag(exit: &Exit) -> (u8, i64) {
    match exit {
        Exit::Exited(code) => (0, *code),
        Exit::MaxSteps => (1, 0),
        Exit::Returned => (2, 0),
    }
}

fn exit_from_tag(tag: u8, code: i64) -> Result<Exit, ArtifactError> {
    match tag {
        0 => Ok(Exit::Exited(code)),
        1 => Ok(Exit::MaxSteps),
        2 => Ok(Exit::Returned),
        _ => Err(ArtifactError::Malformed("shard exit tag")),
    }
}

impl ShardArtifact {
    /// Canonical payload encoding (stable across runs for identical
    /// inputs — the resume test depends on byte-identity).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.shard.to_le_bytes());
        let (tag, code) = exit_tag(&self.exit);
        out.push(tag);
        out.extend_from_slice(&code.to_le_bytes());
        out.extend_from_slice(&self.steps.to_le_bytes());
        out.extend_from_slice(&(self.output.len() as u32).to_le_bytes());
        for w in &self.output {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for (present, bytes) in [
            (
                self.profile.is_some(),
                self.profile.as_ref().map(Profile::to_bytes),
            ),
            (
                self.counters.is_some(),
                self.counters.as_ref().map(Counters::to_bytes),
            ),
        ] {
            out.push(u8::from(present));
            if let Some(b) = bytes {
                out.extend_from_slice(&(b.len() as u64).to_le_bytes());
                out.extend_from_slice(&b);
            }
        }
        out
    }

    /// Decodes a [`ShardArtifact::to_bytes`] payload; the payload must
    /// be consumed exactly.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardArtifact, ArtifactError> {
        let mut r = ByteReader::new(bytes);
        let shard = r.u32("shard index")?;
        let tag = r.u8("exit tag")?;
        let code = r.i64("exit code")?;
        let exit = exit_from_tag(tag, code)?;
        let steps = r.u64("steps")?;
        let n_out = r.count(8, "output count")?;
        let mut output = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            output.push(r.i64("output word")?);
        }
        let profile = match r.u8("profile presence")? {
            0 => None,
            1 => {
                let len = r.u64("profile length")? as usize;
                Some(Profile::from_bytes(r.bytes(len, "profile payload")?)?)
            }
            _ => return Err(ArtifactError::Malformed("profile presence flag")),
        };
        let counters = match r.u8("counters presence")? {
            0 => None,
            1 => {
                let len = r.u64("counters length")? as usize;
                Some(Counters::from_bytes(r.bytes(len, "counters payload")?)?)
            }
            _ => return Err(ArtifactError::Malformed("counters presence flag")),
        };
        r.finish("shard artifact slack")?;
        Ok(ShardArtifact {
            shard,
            exit,
            steps,
            output,
            profile,
            counters,
        })
    }

    /// Frames the payload as a [`KIND_SHARD_RUN`] artifact.
    pub fn to_artifact(&self) -> Vec<u8> {
        artifact::frame(KIND_SHARD_RUN, &self.to_bytes())
    }

    /// Validates framing and decodes a [`ShardArtifact::to_artifact`]
    /// byte string.
    pub fn from_artifact(bytes: &[u8]) -> Result<ShardArtifact, ArtifactError> {
        ShardArtifact::from_bytes(artifact::unframe(bytes, KIND_SHARD_RUN)?)
    }

    /// Writes the framed artifact atomically (temp file + rename).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        artifact::write_atomic(path, &self.to_artifact())
    }

    /// Reads, validates, and decodes a shard artifact file.
    pub fn read(path: &Path) -> Result<ShardArtifact, ArtifactError> {
        ShardArtifact::from_artifact(
            &std::fs::read(path).map_err(|e| ArtifactError::Io(e.to_string()))?,
        )
    }
}

/// What each shard's trace feeds.
#[derive(Debug, Clone, Default)]
pub struct Attach {
    /// Sampler kind and period (instructions per sample); `None` runs
    /// unprofiled.
    pub sampler: Option<(ProfileMode, u64)>,
    /// Counter-model configuration; `None` runs unmodelled.
    pub model: Option<SimConfig>,
}

/// Runs `plan.shards` independent invocations of `elf` as shards
/// `first_shard..first_shard + plan.shards` of a larger run, each with a
/// fresh sampler/model per `attach`. `prepare(shard, &mut machine)` sees
/// the *global* shard index after each load (seed the input partition,
/// turn on validation, …). Results come back in shard order and are
/// byte-identical at any worker count; running `[0, n)` in one call
/// equals `n` one-shard calls at `first_shard = i`.
///
/// # Errors
///
/// The first faulting shard's [`EmuError`], by shard index. A shard
/// that merely never exits is not an error: its artifact carries the
/// [`Exit`].
pub fn run_shards(
    elf: &Elf,
    plan: &ShardPlan,
    attach: &Attach,
    first_shard: usize,
    prepare: impl Fn(usize, &mut Machine) + Sync,
) -> Result<Vec<ShardArtifact>, EmuError> {
    let make_sink = |_| {
        let (lbr, ip) = match attach.sampler {
            Some((ProfileMode::Lbr, period)) => (
                Some(LbrSampler::new(period, SampleTrigger::Instructions)),
                None,
            ),
            Some((ProfileMode::IpSamples, period)) => (None, Some(IpSampler::new(period))),
            None => (None, None),
        };
        Tee(Tee(lbr, ip), attach.model.clone().map(CpuModel::new))
    };
    let runs = run_batch(elf, plan, make_sink, |i, m| prepare(first_shard + i, m))?;
    Ok(runs
        .into_iter()
        .map(|run| {
            let Tee(Tee(lbr, ip), model) = run.sink;
            ShardArtifact {
                shard: (first_shard + run.shard) as u32,
                exit: run.result.exit,
                steps: run.result.steps,
                output: run.output,
                profile: lbr.map(|s| s.profile).or(ip.map(|s| s.profile)),
                counters: model.map(|m| m.counters()),
            }
        })
        .collect())
}

/// The seed-partitioning `prepare` for [`run_shards`]: shard `i` gets
/// `base + i` written into the workload's `config` input-selection
/// global, so the batch splits the input space instead of running N
/// identical invocations. `None` if the binary has no `config` symbol.
pub fn seed_partition(elf: &Elf, base: i64) -> Option<impl Fn(usize, &mut Machine) + Sync> {
    let addr = elf.symbol("config")?.value;
    Some(move |shard: usize, m: &mut Machine| m.mem.write_u64(addr, (base + shard as i64) as u64))
}

/// A batch reduced in shard order.
#[derive(Debug, Clone, PartialEq)]
pub struct Merged {
    /// The shards' profiles merged ([`Profile::merge`]); empty when none
    /// was sampled.
    pub profile: Profile,
    /// The shards' counters summed.
    pub counters: Counters,
    /// Instructions retired across all shards.
    pub steps: u64,
    /// The first exit (by position) that is not `Exited(0)` — the batch
    /// fails if any shard does.
    pub exit: Exit,
}

/// Reduces shards in slice order: the one merge behind the in-process,
/// supervised and harness paths.
pub fn merge_shards(shards: &[ShardArtifact]) -> Merged {
    let mut profiles = shards.iter().filter_map(|s| s.profile.as_ref()).peekable();
    let mode = profiles.peek().map_or(ProfileMode::default(), |p| p.mode);
    Merged {
        profile: Profile::merged(mode, profiles),
        counters: shards.iter().filter_map(|s| s.counters.as_ref()).sum(),
        steps: shards.iter().map(|s| s.steps).sum(),
        exit: shards
            .iter()
            .map(|s| s.exit)
            .find(|&e| e != Exit::Exited(0))
            .unwrap_or(Exit::Exited(0)),
    }
}
