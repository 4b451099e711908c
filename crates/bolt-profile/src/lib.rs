//! # bolt-profile — sample-based profiling
//!
//! The profiling half of the reproduction (paper section 5):
//!
//! * [`LbrSampler`] simulates Intel's Last Branch Records: a ring of the
//!   last 32 *taken* branches flushed on each sample, with fall-through
//!   ranges between consecutive records and shadow-predictor mispredict
//!   bits;
//! * [`IpSampler`] is the plain non-LBR histogram;
//! * [`Profile`] aggregates either into the `.fdata`-style format
//!   (`perf2bolt`'s role);
//! * [`attach_profile`] maps the profile onto reconstructed CFGs, builds
//!   the call graph, and repairs flow-equation violations by attributing
//!   surplus flow to the never-recorded fall-through path (section 5.2);
//! * [`infer_edges_from_counts`] / [`infer_callgraph_from_samples`] are the
//!   non-LBR inference paths compared in section 6.5 / Figure 11;
//! * [`shard_artifact`] is the one measurement path over all of it:
//!   [`run_shards`] attaches samplers and the counter model to a
//!   sharded batch, [`merge_shards`] reduces the resulting
//!   [`ShardArtifact`]s in shard order.

mod attach;
mod profile;
mod sampler;
pub mod shard_artifact;

pub use attach::{
    attach_profile, attach_profile_opts, infer_callgraph_from_samples, infer_edges_from_counts,
    repair_flow, AttachStats,
};
pub use profile::{
    BranchRecord, FallthroughRecord, FdataError, Profile, ProfileHasher, ProfileMode,
};
pub use sampler::{IpSampler, LbrSampler, SampleTrigger, LBR_DEPTH};
pub use shard_artifact::{merge_shards, run_shards, seed_partition, Attach, Merged, ShardArtifact};
