//! # bolt-emu — functional emulator for the x86-64 subset
//!
//! Executes the ELF binaries produced by the compiler substrate and emits a
//! trace of retired instructions, control transfers, and memory accesses.
//! This stream is the reproduction's substitute for running on real
//! hardware: the LBR sampler (`bolt-profile`) and the microarchitecture
//! model (`bolt-sim`) both consume it through the [`TraceSink`] trait.
//!
//! Because the emulator is *functional* (registers, flags, memory, and
//! syscalls all behave architecturally), it doubles as the correctness
//! oracle for the whole project: a binary must produce byte-identical
//! output before and after BOLT rewrites it.

pub mod artifact;
mod batch;
mod block;
mod events;
mod exec;
mod knobs;
mod memory;
pub mod supervise;
pub mod symexec;
mod text;
pub mod transval;
mod uop;

/// Longest encodable instruction; text-write invalidation (decode and
/// block caches alike) treats any store within this many bytes past a
/// cached region as overlapping, since an instruction starting inside
/// the region can extend this far past it.
pub(crate) const MAX_INST_LEN: u64 = 16;

pub use artifact::ArtifactError;
pub use batch::{run_batch, ShardPlan, ShardRun};
pub use block::{translation_shapes, BlockTier, InjectedFault, MemShape, TierCounts};
pub use events::{
    BlockEvent, BranchEvent, BranchKind, CountingSink, MemRecord, NullSink, Tee, TraceSink,
};
pub use exec::{EmuError, Engine, Exit, Flags, Machine, RunResult, RETURN_SENTINEL, STACK_TOP};
pub use knobs::Knobs;
pub use memory::Memory;
pub use supervise::{
    run_supervised, ShardEvent, ShardEventKind, SuperviseOutcome, SupervisePlan, SuperviseReport,
};
pub use transval::{validate_code, validate_translation, SemFinding, SemFindingKind};
pub use uop::{lower_into, MicroOp, UopKind};
