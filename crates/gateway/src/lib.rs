//! `flexpipe-gateway`: sim-to-service — the sharded live-serving
//! gateway over the FlexPipe reproduction's deterministic engine.
//!
//! The rest of the workspace runs the engine *offline*: a pre-generated
//! workload, one event loop, one report. This crate turns that into a
//! live service shape without touching engine semantics:
//!
//! - [`record`] — the [`ServeSpec`] (static run description) and the
//!   [`Recording`] (every arrival's final shard + virtual stamp): the
//!   two halves that make any live run a deterministic spec;
//! - [`router`] — consistent-hash request routing over shards plus the
//!   [`SpilloverPolicy`] hook (default: [`NoSpillover`]);
//! - [`pacer`] — the wall-clock → virtual-time bridge, the only real
//!   clock in the system;
//! - [`serve`](mod@serve) — the orchestration: an open-loop generator
//!   pacing the
//!   stream onto `N` shard threads, each an independent engine
//!   partition injected through `flexpipe_serving::Driver`, the
//!   engine driver offline runs use too;
//!   [`serve()`](serve::serve) records, [`replay()`](serve::replay)
//!   re-executes a recording byte-for-byte;
//! - [`bench`](mod@bench) — the shard-scaling benchmark behind
//!   `fleet bench --live`: byte-stable per-shard-count artifact plus
//!   wall-clock QPS rows for the CI scaling gate.
//!
//! # Determinism contract
//!
//! Everything nondeterministic about a live run — wall-derived stamps,
//! spillover placements — is recorded; everything else is a pure
//! function of spec + recording. Replaying a recording reproduces every
//! per-shard report byte for byte, and virtual-paced runs (no wall
//! clock at all) are byte-stable outright. Wall-clock measurements
//! never enter a byte-compared artifact.

#![warn(missing_docs)]

pub mod bench;
pub mod pacer;
pub mod record;
pub mod router;
pub mod serve;
mod shard;

pub use bench::{
    pinned_live_spec, run_live_bench, LiveBenchArtifact, LiveBenchOutcome, LiveBenchRow,
    LiveBenchTiming, LIVE_BENCH_VERSION,
};
pub use pacer::Pacer;
pub use record::{
    cross_shard_check_spec, RecordedArrival, Recording, ServeSpec, ShardPolicy, RECORDING_VERSION,
};
pub use router::{mix64, HashRing, LeastLoadedSpillover, NoSpillover, SpilloverPolicy};
pub use serve::{
    replay, replay_with, serve, serve_virtual, serve_with, Pacing, ServeOutcome, ShardReport,
};

pub use flexpipe_bench::PaperSetup;
pub use flexpipe_serving::{TraceMode, TraceRecorder};

/// A failed gateway operation.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayError(pub String);

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for GatewayError {}
