//! The one knob table: every `BOLT_*` behaviour override, parsed here
//! and nowhere else.
//!
//! | variable            | flag                              | default                          |
//! |---------------------|-----------------------------------|----------------------------------|
//! | `BOLT_THREADS`      | `-threads=N` / `--threads N`      | available parallelism, capped 8  |
//! | `BOLT_SHARDS`       | `--shards N`                      | 1                                |
//! | `BOLT_ENGINE`       | `--engine E`                      | `step`                           |
//! | `BOLT_MAX_STEPS`    | `--max-steps N`                   | the caller's budget              |
//! | `BOLT_SEM_VALIDATE` | `--validate-semantics`            | off                              |
//!
//! One rule for all of them: an explicit value beats the environment,
//! which beats the default; for the numeric knobs `0` means "auto"
//! (fall through to the next source). Worker counts clamp to 64 and
//! shard counts to 4096 — the results are byte-identical at any value,
//! so an oversized request only ever costs wall clock. A set-but-garbled
//! value fails loudly, naming the variable: silently falling back would
//! let a CI typo turn the serial leg parallel or de-fang an engine leg.
//!
//! [`Knobs::parse`] is pure (it sees the environment only through the
//! lookup it is handed); [`Knobs::get`] snapshots the process
//! environment once, so no run path ever re-reads it.

use crate::Engine;
use std::sync::OnceLock;

/// Hard ceiling on worker threads (explicit, env, and auto alike): a
/// pathological request must degrade to a bounded pool, never one OS
/// thread per function or shard.
const MAX_THREADS: u64 = 64;

/// Hard ceiling on the shard count.
const MAX_SHARDS: u64 = 4096;

/// What the environment says about each knob (`0` / `None` = unset).
/// Resolve against an explicit request with the accessor methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Knobs {
    threads: u64,
    shards: u64,
    engine: Option<Engine>,
    max_steps: u64,
    sem_validate: bool,
}

/// `explicit` if positive, else `env` if positive, else `default`.
fn first_positive(explicit: u64, env: u64, default: impl FnOnce() -> u64) -> u64 {
    if explicit > 0 {
        explicit
    } else if env > 0 {
        env
    } else {
        default()
    }
}

impl Knobs {
    /// Parses the five variables out of `lookup` (variable name →
    /// value, `None` when unset).
    ///
    /// # Errors
    ///
    /// A one-line message naming the offending variable (and, for
    /// `BOLT_ENGINE`, quoting [`Engine::VALID`]).
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
        let number = |name: &str| match lookup(name) {
            None => Ok(0),
            Some(v) => v
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("{name} must be a non-negative integer, got {v:?}")),
        };
        Ok(Knobs {
            threads: number("BOLT_THREADS")?.min(MAX_THREADS),
            shards: number("BOLT_SHARDS")?.min(MAX_SHARDS),
            engine: match lookup("BOLT_ENGINE") {
                None => None,
                Some(v) => Some(v.trim().parse().map_err(|e| format!("BOLT_ENGINE: {e}"))?),
            },
            max_steps: number("BOLT_MAX_STEPS")?,
            sem_validate: lookup("BOLT_SEM_VALIDATE").is_some_and(|v| v != "0" && !v.is_empty()),
        })
    }

    /// The process-wide snapshot, parsed from the environment on first
    /// use. Panics (with [`parse`](Knobs::parse)'s message) when a
    /// variable is set but garbled.
    pub fn get() -> &'static Knobs {
        static SNAPSHOT: OnceLock<Knobs> = OnceLock::new();
        SNAPSHOT.get_or_init(|| {
            Knobs::parse(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
                .unwrap_or_else(|e| panic!("{e}"))
        })
    }

    /// Worker threads: `explicit`, else `BOLT_THREADS`, else
    /// [`std::thread::available_parallelism`] capped at 8; `1` forces
    /// the serial path.
    pub fn threads(&self, explicit: usize) -> usize {
        first_positive(explicit as u64, self.threads, || {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(8) as u64)
        })
        .min(MAX_THREADS) as usize
    }

    /// Measurement shards: `explicit`, else `BOLT_SHARDS`, else 1 —
    /// unlike worker threads the shard count changes *what* is measured
    /// (how the workload is partitioned), so it never silently follows
    /// machine parallelism.
    pub fn shards(&self, explicit: usize) -> usize {
        first_positive(explicit as u64, self.shards, || 1).min(MAX_SHARDS) as usize
    }

    /// Emulation engine: `explicit`, else `BOLT_ENGINE`, else
    /// per-instruction stepping.
    pub fn engine(&self, explicit: Option<Engine>) -> Engine {
        explicit.or(self.engine).unwrap_or_default()
    }

    /// Per-shard step budget: `explicit`, else `BOLT_MAX_STEPS`, else
    /// `default`. The env knob exists so a hung workload can be
    /// diagnosed without a rebuild: cap the budget, let the run die with
    /// a "did not exit" line that names it, and bisect from there.
    pub fn max_steps(&self, explicit: u64, default: u64) -> u64 {
        first_positive(explicit, self.max_steps, || default)
    }

    /// Whether machines validate every translation symbolically by
    /// default (`BOLT_SEM_VALIDATE` set to anything but `""` / `"0"`);
    /// [`Machine::set_sem_validation`](crate::Machine::set_sem_validation)
    /// overrides it per machine.
    pub fn sem_validate(&self) -> bool {
        self.sem_validate
    }
}
