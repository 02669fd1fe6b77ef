//! `flexpipe-fleet`: parallel scenario-fleet orchestration for the
//! FlexPipe reproduction.
//!
//! The paper's claims — inflight refactoring beating static and
//! restart-based serving across *dynamic* workloads and *fragmented*
//! clusters — only hold up when validated over a grid of scenarios, not a
//! single run. This crate turns the one-shot simulator into an experiment
//! orchestration subsystem:
//!
//! - [`spec`] — the declarative sweep DSL ([`SweepSpec`], JSON): arrival
//!   CV × request rate × cluster shape × policy, expanded
//!   deterministically with per-cell seed derivation that gives every
//!   policy in a cell group byte-identical traffic;
//! - [`runner`] — the one engine builder (sweep and bench cells alike)
//!   over `flexpipe_serving::Engine` with the step-budget watchdog, the
//!   worker pool, and `run_sweep`;
//! - [`report`] — steady-state aggregation (TTFT/TPOT percentiles, SLO
//!   attainment, goodput, refactor pauses) into per-cell and per-policy
//!   tables plus a byte-stable JSON artifact;
//! - [`mod@gate`] — regression detection against a committed baseline
//!   report (quality metrics plus chaos recovery: mean TTR, replay
//!   counts);
//! - [`mod@bench`] — engine-tunable sweeps (`fleet bench`): ubatch size ×
//!   prefill caps × admission batch × rates up to 10× the paper's 20 QPS,
//!   with wall-clock throughput columns and indexed-vs-naive admission
//!   A/B timing;
//! - [`campaign`] — the [`CampaignPlan`] and its cell loop, the only way
//!   a cell is executed (progress, per-cell panic containment, cache
//!   lookups): `fleet run` and `fleet bench` run a one-entry plan
//!   uncached, `fleet campaign` runs multi-spec campaigns resumably over
//!   the content-addressed cache, `fleet worker` drains one by claims;
//! - [`cache`] — the per-cell artifact cache: keys hash each cell's
//!   canonicalized semantics under the engine-fingerprint salt, entries
//!   write atomically, truncated cells never persist (the resume
//!   mechanism), `stats`/`gc` bound the directory;
//! - [`store`] — the storage engine under the cache ([`LocalDiskStore`]):
//!   one atomically written file per entry in a sharded, NFS-shareable
//!   layout, plus the atomic worker-claim protocol;
//! - [`worker`] — the distributed campaign worker (`fleet worker`):
//!   drain one campaign's cell list from N processes/machines against a
//!   shared cache dir by claim-file coordination, with heartbeats and
//!   stale-claim reaping;
//! - [`trace`] — structured engine traces as fleet artifacts
//!   (`fleet trace`): record a cell's virtual-time JSONL trace,
//!   summarize trace files, and profile the engine's own dispatch
//!   self-time at fleet scale (`fleet check equiv` compares traces).
//!
//! The `flexpipe-fleet` binary wraps it all into `init` / `run` /
//! `bench` / `campaign` / `worker` / `cache` / `trace` /
//! `fingerprint` / `compare` / `gate` subcommands.
//!
//! # Determinism contract
//!
//! Running the same spec twice — at any thread count — produces
//! byte-identical JSON reports: cells derive their seeds from spec
//! coordinates (never from execution order), workers write into
//! pre-assigned slots, map serialization is order-stable, and wall-clock
//! measurements go to stderr only, never into the artifact.

#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod campaign;
pub mod gate;
pub mod report;
pub mod runner;
pub mod spec;
pub mod store;
pub mod trace;
pub mod worker;

pub use bench::{
    derive_bench_seed, hot_path_speedups, hot_path_table, run_bench, BenchCell, BenchCellResult,
    BenchReport, BenchSpec, BenchTiming, HotPathRow,
};
pub use cache::{cache_salt, canonical_json, canonicalize, cell_key, CacheStats, CellCache};
pub use campaign::{
    assemble_campaign, load_entries, run_campaign, AssembleOutcome, CampaignEntry,
    CampaignManifest, CampaignOptions, CampaignPlan, CampaignResult, CampaignSpec, CampaignStats,
    CampaignTiming, CellTiming, EntryKind, MissingCell, SpecReport,
};
pub use gate::{
    gate, GateConfig, GateOutcome, Regression, SpeedupGate, SpeedupGateReport, SPEEDUP_GATE_VERSION,
};
pub use report::{summarize_cell, CellMetrics, CellResult, FleetReport, PolicySummary};
pub use runner::{
    realize_disruptions, run_cell, run_cell_in_mode, run_cell_observed, run_sweep, FleetError,
    RunOptions,
};
pub use spec::{
    derive_cell_seed, replica_seed, BackgroundShape, Cell, ClusterShape, DisruptionShape,
    PolicySpec, SweepSpec,
};
pub use store::{
    ClaimInfo, ClaimOutcome, GcOutcome, LocalDiskStore, StoredObject, DEFAULT_CLAIM_TTL,
};
pub use trace::{
    find_cell, profile_on_tick, profile_on_tick_calm, profile_on_tick_flexpipe, profile_spec,
    profile_spec_calm, profile_spec_flexpipe, record_cell_trace,
};
pub use worker::{run_worker, WorkerOptions, WorkerOutcome};

use serde::Deserialize;

/// Loads a [`SweepSpec`] from JSON text. `path` only names the file in
/// errors; a `.toml` path is refused (specs are JSON only).
pub fn parse_spec(path: &str, text: &str) -> Result<SweepSpec, FleetError> {
    parse_json(path, text, "spec")
}

/// Loads a [`BenchSpec`] from JSON text (see [`parse_spec`]).
pub fn parse_bench(path: &str, text: &str) -> Result<BenchSpec, FleetError> {
    parse_json(path, text, "bench spec")
}

/// Loads a [`CampaignSpec`] from JSON text (see [`parse_spec`]).
pub fn parse_campaign(path: &str, text: &str) -> Result<CampaignSpec, FleetError> {
    parse_json(path, text, "campaign spec")
}

fn parse_json<T: Deserialize>(path: &str, text: &str, what: &str) -> Result<T, FleetError> {
    if path.ends_with(".toml") {
        return Err(FleetError(format!(
            "{path}: TOML specs are not supported; write the {what} as JSON"
        )));
    }
    serde_json::from_str(text).map_err(|e| FleetError(format!("{what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_specs_error_cleanly() {
        assert!(parse_spec("x.json", "{").is_err());
        assert!(parse_spec("x.json", "{}").is_err());
        assert!(parse_bench("x.json", "{}").is_err());
        assert!(parse_campaign("x.json", "{}").is_err());
        // A well-formed JSON body under a `.toml` name is still refused.
        let json = serde_json::to_string_pretty(&SweepSpec::template()).unwrap();
        assert_eq!(
            parse_spec("sweep.json", &json).unwrap(),
            SweepSpec::template()
        );
        let err = parse_spec("sweep.toml", &json).unwrap_err();
        assert!(err.0.contains("TOML"), "{err}");
    }
}
