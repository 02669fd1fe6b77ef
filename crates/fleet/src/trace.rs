//! `fleet trace`: structured engine traces as a first-class fleet
//! artifact — record a cell's trace, summarize a trace file, and profile
//! the engine's own dispatch self-time.
//!
//! Traces are virtual-time-stamped JSONL (see [`flexpipe_obs`]): byte
//! stable for a given (spec, cell) at any thread count, so `cmp` decides
//! byte equality and `fleet check equiv` decides semantic equivalence.
//! Profiling is the one deliberately wall-clock piece and stays outside
//! every artifact, like bench timings.

use flexpipe_bench::PaperSetup;
use flexpipe_model::ModelId;
use flexpipe_serving::{AdmissionMode, ObservedRun, TraceMode};
use flexpipe_workload::LengthProfile;

use crate::report::CellMetrics;
use crate::runner::run_cell_observed;
use crate::spec::{BackgroundShape, Cell, ClusterShape, DisruptionShape, PolicySpec, SweepSpec};

/// Finds the cell of `spec` with the given [`Cell::id`], if any.
pub fn find_cell(spec: &SweepSpec, id: &str) -> Option<Cell> {
    spec.expand().into_iter().find(|c| c.id() == id)
}

/// Runs one cell with the trace recorder armed in `mode`. Metrics are
/// identical to the untraced run — recording is observation-only.
pub fn record_cell_trace(
    spec: &SweepSpec,
    cell: &Cell,
    admission: AdmissionMode,
    mode: TraceMode,
) -> (CellMetrics, ObservedRun) {
    let setup = PaperSetup::for_model(spec.model);
    run_cell_observed(spec, cell, &setup, admission, mode, false)
}

/// The dispatch-profile scenario: `instances` single-stage Llama2-7B
/// replicas (the model's lattice has a 1-stage level, so one GPU each)
/// on a cluster sized with headroom, under light traffic so control
/// ticks and admission dominate the event mix. This is the fleet-scale
/// configuration the `policy.on_tick` self-time numbers are quoted at.
pub fn profile_spec(instances: u32) -> SweepSpec {
    let total_gpus = instances + 64;
    SweepSpec {
        name: format!("ontick-profile-{instances}"),
        model: ModelId::Llama2_7B,
        seed: 7,
        horizon_secs: 10.0,
        warmup_secs: 2.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::Idle,
        lengths: LengthProfile::fixed(64, 4),
        max_events: 200_000_000,
        cvs: vec![2.0],
        rates: vec![20.0],
        clusters: vec![ClusterShape::Custom {
            nodes: total_gpus.div_ceil(8),
            total_gpus,
            servers_per_rack: 8,
        }],
        policies: vec![PolicySpec::Static {
            stages: 1,
            replicas: instances,
        }],
        disruptions: vec![DisruptionShape::None],
        replicas: 1,
    }
}

/// Runs the dispatch-profile scenario with the self-time profiler
/// enabled (trace recorder off: this measures, it doesn't record).
pub fn profile_on_tick(instances: u32) -> (CellMetrics, ObservedRun) {
    let spec = profile_spec(instances);
    let cell = spec.expand().remove(0);
    let setup = PaperSetup::for_model(spec.model);
    run_cell_observed(
        &spec,
        &cell,
        &setup,
        AdmissionMode::default(),
        TraceMode::Off,
        true,
    )
}

/// The control-plane profile scenario: FlexPipe's real Algorithm-1 loop
/// pinned at a standing fleet of `instances` replicas (see
/// [`PolicySpec::FlexPipeFleet`]) under light traffic, so `on_tick`'s
/// own fleet walk dominates its self-time. Cluster sized for 4-stage
/// replicas plus headroom.
pub fn profile_spec_flexpipe(instances: u32) -> SweepSpec {
    let total_gpus = instances * 4 + 64;
    SweepSpec {
        name: format!("flexpipe-ontick-profile-{instances}"),
        policies: vec![PolicySpec::FlexPipeFleet {
            replicas: instances,
        }],
        clusters: vec![ClusterShape::Custom {
            nodes: total_gpus.div_ceil(8),
            total_gpus,
            servers_per_rack: 8,
        }],
        // Long horizon: the measurement is steady-state tick cost, so the
        // one unavoidable O(fleet) tick right after the initial deployment
        // must amortize away.
        horizon_secs: 120.0,
        ..profile_spec(instances)
    }
}

/// Profiles FlexPipe's `on_tick` at fleet scale under an explicit
/// admission mode — the measurement behind the incremental-solver claim:
/// `Indexed` applies the engine's dirty-set deltas to a warm mirror,
/// `NaiveScan` re-snapshots the whole fleet every tick.
pub fn profile_on_tick_flexpipe(
    instances: u32,
    admission: AdmissionMode,
) -> (CellMetrics, ObservedRun) {
    let spec = profile_spec_flexpipe(instances);
    let cell = spec.expand().remove(0);
    let setup = PaperSetup::for_model(spec.model);
    run_cell_observed(&spec, &cell, &setup, admission, TraceMode::Off, true)
}

/// The calm-tick plan-cache profile scenario
/// ([`PolicySpec::FlexPipeCalm`]): `instances` replicas deployed 8-stage
/// deep while near-zero traffic keeps the Eq. (4) target at the coarse
/// end, so the entire fleet is off-target on every calm tick and the
/// refactor pass walks it end to end without ever acting. Under
/// `NaiveScan` that walk is paid every tick; under `Indexed` the plan
/// cache re-proves it a no-op in O(#levels) — the speedup this scenario
/// exists to measure.
pub fn profile_spec_calm(instances: u32) -> SweepSpec {
    let total_gpus = instances * 8 + 64;
    SweepSpec {
        name: format!("flexpipe-calm-profile-{instances}"),
        policies: vec![PolicySpec::FlexPipeCalm {
            replicas: instances,
            stages: 8,
        }],
        clusters: vec![ClusterShape::Custom {
            nodes: total_gpus.div_ceil(8),
            total_gpus,
            servers_per_rack: 8,
        }],
        horizon_secs: 120.0,
        // Near-zero (validation requires positive): the ~1 expected
        // arrival leaves all but a couple of ticks delta-free.
        rates: vec![0.01],
        ..profile_spec(instances)
    }
}

/// Profiles the calm-tick refactor pass at fleet scale under an explicit
/// admission mode — the measurement behind the plan-cache claim.
pub fn profile_on_tick_calm(
    instances: u32,
    admission: AdmissionMode,
) -> (CellMetrics, ObservedRun) {
    let spec = profile_spec_calm(instances);
    let cell = spec.expand().remove(0);
    let setup = PaperSetup::for_model(spec.model);
    run_cell_observed(&spec, &cell, &setup, admission, TraceMode::Off, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_spec_validates_and_has_one_cell() {
        let spec = profile_spec(8);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.expand().len(), 1);
    }

    #[test]
    fn find_cell_matches_ids_exactly() {
        let spec = profile_spec(8);
        let cells = spec.expand();
        let id = cells[0].id();
        assert_eq!(find_cell(&spec, &id), Some(cells[0].clone()));
        assert_eq!(find_cell(&spec, "no-such-cell"), None);
    }

    #[test]
    fn flexpipe_profile_pins_the_fleet_and_profiles_on_tick() {
        let spec = profile_spec_flexpipe(6);
        assert!(spec.validate().is_ok());
        for mode in [AdmissionMode::Indexed, AdmissionMode::NaiveScan] {
            let (metrics, observed) = profile_on_tick_flexpipe(6, mode);
            assert!(!metrics.truncated);
            // The FlexPipeFleet policy holds the standing fleet at exactly
            // the pinned replica count: nothing retires, nothing re-spawns.
            assert_eq!(metrics.spawns, 6, "fleet must pin at 6 replicas");
            assert!(metrics.completed > 0, "profile scenario must serve");
            assert!(observed.profiler.calls("policy.on_tick") > 0);
        }
    }

    #[test]
    fn calm_profile_pins_an_off_target_fleet_that_never_acts() {
        let spec = profile_spec_calm(4);
        assert!(spec.validate().is_ok());
        let mut per_mode = Vec::new();
        for mode in [AdmissionMode::Indexed, AdmissionMode::NaiveScan] {
            let (metrics, observed) = profile_on_tick_calm(4, mode);
            assert!(!metrics.truncated);
            assert_eq!(metrics.spawns, 4, "fleet must pin at 4 replicas");
            assert_eq!(
                metrics.refactors, 0,
                "unwinnable hysteresis must keep the walk action-free"
            );
            assert!(observed.profiler.calls("policy.on_tick") > 0);
            per_mode.push(metrics);
        }
        // The plan cache is a pure optimization: skipping the walk must
        // leave every metric identical to the naive reference's.
        assert_eq!(per_mode[0], per_mode[1]);
    }

    #[test]
    fn small_profile_run_reports_on_tick_self_time() {
        let (metrics, observed) = profile_on_tick(4);
        assert!(!metrics.truncated);
        assert!(metrics.completed > 0, "profile scenario must serve traffic");
        assert!(
            observed.profiler.calls("policy.on_tick") > 0,
            "every control tick must hit the profiled policy scope"
        );
        assert!(observed.profiler.calls("control_tick") > 0);
        // The recorder stayed off: measurement, not recording.
        assert!(observed.trace.is_empty());
    }
}
