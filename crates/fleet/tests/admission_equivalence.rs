//! Engine-level proof that the indexed admission fast path is a *pure*
//! optimization: byte-identical fleet reports in both admission modes, at
//! any thread count, on the repo's committed specs; semantically
//! equivalent full traces of a committed cell in both modes (with a
//! seeded mutation proving the checker would notice); and
//! metric-identical cells under proptest-randomized arrival/disruption
//! interleavings (preemptions with and without grace, capacity returns,
//! inflight FlexPipe recovery), which is where a stale index entry would
//! first diverge. The naive scan is reachable only from tests and the
//! `fleet bench` A/B axis: it is the oracle, not a user-facing mode.

use std::sync::OnceLock;

use flexpipe_bench::{PaperSetup, SystemId};
use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
use flexpipe_check::{check_equiv, Entity};
use flexpipe_fleet::{
    parse_spec, record_cell_trace, run_cell_in_mode, run_sweep, BackgroundShape, CellResult,
    ClusterShape, DisruptionShape, FleetReport, PolicySpec, RunOptions, SweepSpec,
};
use flexpipe_model::ModelId;
use flexpipe_obs::parse_jsonl;
use flexpipe_serving::{AdmissionMode, TraceMode};
use flexpipe_workload::LengthProfile;
use proptest::prelude::*;

/// The committed chaos spec, loaded from the repo's `specs/` directory
/// (tests run with the crate as CWD).
fn disruption_recovery_spec() -> SweepSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/disruption-recovery.json"
    );
    let text = std::fs::read_to_string(path).expect("committed spec readable");
    parse_spec(path, &text).expect("committed spec parses")
}

#[test]
fn committed_spec_reports_are_byte_identical_across_modes_and_threads() {
    let spec = disruption_recovery_spec();
    let opts = |threads| RunOptions {
        threads,
        quiet: true,
        ..Default::default()
    };
    let indexed_1 = run_sweep(&spec, &opts(1)).unwrap().to_json();
    let indexed_4 = run_sweep(&spec, &opts(4)).unwrap().to_json();
    // The naive reference report, assembled cell by cell the way
    // `run_sweep` does.
    let setup = PaperSetup::for_model(spec.model);
    let naive: Vec<CellResult> = spec
        .expand()
        .into_iter()
        .map(|cell| {
            let metrics = run_cell_in_mode(&spec, &cell, &setup, AdmissionMode::NaiveScan);
            CellResult { cell, metrics }
        })
        .collect();
    let naive_1 = FleetReport::assemble(spec.clone(), naive).to_json();
    assert_eq!(indexed_1, indexed_4, "thread count leaked into the report");
    assert_eq!(
        indexed_1, naive_1,
        "the admission index is not a pure optimization"
    );
}

/// The committed spec's default cell (the grid's first, as `fleet trace
/// record` picks it) traced in full under both engine modes: the traces
/// must be semantically equivalent, and a seeded payload mutation — one
/// request admitted to a different instance — must be caught as a
/// divergence anchored on that request.
#[test]
fn committed_spec_traces_are_semantically_equivalent_across_modes() {
    let spec = disruption_recovery_spec();
    let cell = spec.expand().remove(0);
    let record = |mode| {
        record_cell_trace(&spec, &cell, mode, TraceMode::Full)
            .1
            .trace
            .to_jsonl()
    };
    let indexed = record(AdmissionMode::Indexed);
    let naive = record(AdmissionMode::NaiveScan);
    let parse = |text: &str| parse_jsonl(text).expect("recorded trace parses");
    let report = check_equiv(&parse(&indexed), &parse(&naive));
    assert!(report.equivalent(), "{}", report.render("indexed", "naive"));
    assert!(
        report.entities > 1 && report.left_records > 100,
        "vacuous trace"
    );

    let original = r#""RequestAdmit":{"req":7,"instance":1}"#;
    assert_eq!(
        naive.matches(original).count(),
        1,
        "the seeded mutation must hit exactly one record"
    );
    let mutated = naive.replace(original, r#""RequestAdmit":{"req":7,"instance":2}"#);
    let report = check_equiv(&parse(&indexed), &parse(&mutated));
    let divergence = report.divergence.expect("seeded mutation went unnoticed");
    assert_eq!(divergence.entity, Entity::Request(7));
}

fn llama_setup() -> &'static PaperSetup {
    static SETUP: OnceLock<PaperSetup> = OnceLock::new();
    SETUP.get_or_init(|| PaperSetup::for_model(ModelId::Llama2_7B))
}

/// A tiny disrupted sweep around one randomized coordinate.
fn random_spec(cv: f64, rate: f64, at_secs: f64, grace_secs: f64, fail_gpu: u32) -> SweepSpec {
    SweepSpec {
        name: "admission-equivalence".into(),
        model: ModelId::Llama2_7B,
        seed: 23,
        horizon_secs: 12.0,
        warmup_secs: 3.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::Idle,
        lengths: LengthProfile::fixed(96, 6),
        max_events: 20_000_000,
        cvs: vec![cv],
        rates: vec![rate],
        clusters: vec![ClusterShape::Custom {
            nodes: 8,
            total_gpus: 12,
            servers_per_rack: 4,
        }],
        policies: vec![
            PolicySpec::Paper(SystemId::FlexPipe),
            PolicySpec::Static {
                stages: 2,
                replicas: 1,
            },
        ],
        disruptions: vec![DisruptionShape::Script(DisruptionScript {
            name: "random-interleaving".into(),
            events: vec![
                DisruptionEvent {
                    at_secs,
                    kind: Disruption::HotServerPreempt {
                        rank: 0,
                        grace_secs,
                    },
                },
                DisruptionEvent {
                    at_secs: at_secs + 1.0,
                    kind: Disruption::GpuFail { gpu: fail_gpu },
                },
                DisruptionEvent {
                    at_secs: at_secs + 4.0,
                    kind: Disruption::CapacityReturn {
                        gpus: vec![fail_gpu],
                        servers: Vec::new(),
                    },
                },
            ],
        })],
        replicas: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every (request → instance) assignment the indexed path makes under
    /// a random arrival/disruption interleaving matches the naive scan's:
    /// asserted through full metric equality (events, completions, TTFT
    /// percentiles, replay counts — any assignment divergence shifts
    /// them).
    #[test]
    fn random_interleavings_yield_identical_metrics(
        cv in 0.5f64..6.0,
        rate in 2.0f64..8.0,
        at_secs in 3.0f64..8.0,
        grace_secs in 0.0f64..3.0,
    ) {
        let fail_gpu = (at_secs * 1e3) as u32 % 12;
        let spec = random_spec(cv, rate, at_secs, grace_secs, fail_gpu);
        prop_assert!(spec.validate().is_ok());
        let setup = llama_setup();
        let mut completed = 0usize;
        for cell in spec.expand() {
            let indexed = run_cell_in_mode(&spec, &cell, setup, AdmissionMode::Indexed);
            let naive = run_cell_in_mode(&spec, &cell, setup, AdmissionMode::NaiveScan);
            prop_assert_eq!(
                &indexed, &naive,
                "cell {} diverged (cv={}, rate={}, at={}, grace={})",
                cell.id(), cv, rate, at_secs, grace_secs
            );
            completed += indexed.completed;
        }
        // The runs did real work (otherwise equality is vacuous). A
        // single cell may legitimately complete nothing in-window — a
        // preempted static replica takes longer than the horizon to cold
        // respawn — but the case as a whole must serve traffic.
        prop_assert!(completed > 0, "no cell served anything");
    }
}
