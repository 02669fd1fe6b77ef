//! The two sweep-cell workloads, `paper-burst` and `fleet-scale`: one
//! fleet cell each, built by hand from the fleet crate's public parts so
//! every set-up phase can be timed, then checked against
//! [`flexpipe_fleet::run_cell`].

use std::time::{Duration, Instant};

use flexpipe_bench::{PaperSetup, SystemId};
use flexpipe_chaos::{
    virtual_horizon, warp_arrivals, Disruption, DisruptionEvent, DisruptionScript,
};
use flexpipe_fleet::{
    profile_spec_flexpipe, realize_disruptions, run_cell, summarize_cell, BackgroundShape, Cell,
    ClusterShape, DisruptionShape, PolicySpec, SweepSpec,
};
use flexpipe_model::ModelId;
use flexpipe_serving::{Engine, EngineConfig, RunReport, Scenario, SteppedEngine};
use flexpipe_sim::{SimDuration, SimRng, SimTime};
use flexpipe_workload::{ArrivalSpec, LengthProfile, Workload, WorkloadSpec};

use crate::probe::Probe;
use crate::report::{repeat, unfinished, Layers, Rep, Run};

/// OPT-66B under FlexPipe on the paper testbed with its fragmentation,
/// bursty arrivals, two hot-server preemptions and a 2x rate surge.
pub fn paper_burst_spec(seed: u64) -> SweepSpec {
    let preempt = |at_secs: f64, rank: u32| DisruptionEvent {
        at_secs,
        kind: Disruption::HotServerPreempt {
            rank,
            grace_secs: 30.0,
        },
    };
    SweepSpec {
        name: "paper-burst".into(),
        model: ModelId::Opt66B,
        seed,
        horizon_secs: 540.0,
        warmup_secs: 60.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::TestbedLike,
        lengths: LengthProfile::splitwise_like(),
        max_events: 50_000_000,
        cvs: vec![4.0],
        rates: vec![60.0],
        clusters: vec![ClusterShape::PaperTestbed],
        policies: vec![PolicySpec::Paper(SystemId::FlexPipe)],
        disruptions: vec![DisruptionShape::Script(DisruptionScript {
            name: "burst".into(),
            events: vec![
                preempt(200.0, 0),
                DisruptionEvent {
                    at_secs: 300.0,
                    kind: Disruption::RateSurge {
                        factor: 2.0,
                        duration_secs: 60.0,
                    },
                },
                preempt(450.0, 1),
            ],
        })],
        replicas: 24,
    }
}

/// FlexPipe pinned at 1,000 Llama2-7B replicas: placement-bound set-up.
pub fn fleet_scale_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        name: "fleet-scale".into(),
        seed,
        ..profile_spec_flexpipe(1000)
    }
}

/// The engine for one cell plus what the run needs to summarise it —
/// the same construction as the fleet runner's, phase by phase.
struct Built {
    engine: Engine,
    offered: usize,
    requests: usize,
}

/// The cell's disruption script and arrivals, as the fleet runner
/// realises them: rate surges generate over a stretched virtual horizon
/// that is then warped back onto the real one.
fn realize(spec: &SweepSpec, cell: &Cell, layers: &mut Layers) -> (DisruptionScript, Workload) {
    let span = spec.warmup_secs + spec.horizon_secs;
    let script = layers.span("chaos.realize_s", || realize_disruptions(spec, cell));
    let mut workload = layers.span("workload.generate_s", || {
        WorkloadSpec {
            arrivals: ArrivalSpec::GammaRenewal {
                rate: cell.rate,
                cv: cell.cv,
            },
            lengths: spec.lengths,
            slo: SimDuration::from_secs_f64(spec.slo_secs),
            slo_per_output_token: SimDuration::from_secs_f64(spec.slo_per_output_token_ms / 1e3),
            horizon_secs: virtual_horizon(span, &script),
        }
        .generate(&mut SimRng::seed(cell.seed))
    });
    layers.span("chaos.realize_s", || {
        warp_arrivals(&mut workload, &script, span)
    });
    (script, workload)
}

/// The engine's horizon: the arrival span plus the fleet runner's 30 s
/// drain grace.
fn end_of(spec: &SweepSpec) -> SimTime {
    SimTime::from_secs_f64(spec.warmup_secs + spec.horizon_secs + 30.0)
}

fn build(
    spec: &SweepSpec,
    cell: &Cell,
    setup: &PaperSetup,
    probe: &Probe,
    callbacks: bool,
    layers: &mut Layers,
) -> Built {
    let warmup = spec.warmup_secs;
    let (script, workload) = realize(spec, cell, layers);
    let cut = SimTime::from_secs_f64(warmup);
    let offered = workload
        .requests
        .iter()
        .filter(|r| r.arrival >= cut)
        .count();
    let requests = workload.requests.len();
    let engine = layers.span("serving.new_s", || {
        let scenario = Scenario {
            config: EngineConfig {
                max_events: spec.max_events,
                ..EngineConfig::default()
            },
            cluster: cell.cluster.cluster(),
            background: spec.background.profile(),
            tier: Default::default(),
            cost: setup.cost,
            workload,
            disruptions: script,
            horizon: end_of(spec),
            seed: cell.seed,
        };
        let policy = probe.wrap(cell.policy.build(cell.rate), callbacks);
        Engine::new(scenario, setup.graph.clone(), setup.lattice.clone(), policy)
    });
    Built {
        engine,
        offered,
        requests,
    }
}

/// One untraced run through `Engine::run`, timed from outside.
fn plain_rep(spec: &SweepSpec, cell: &Cell, replica: usize) -> Rep {
    let started = Instant::now();
    let probe = Probe::default();
    let mut scratch = Layers::default();
    let setup = PaperSetup::for_model(spec.model);
    let built = build(spec, cell, &setup, &probe, false, &mut scratch);
    let report = built.engine.run();
    let ran = Instant::now();
    let metrics = summarize_cell(&report, spec.warmup_secs, spec.horizon_secs, built.offered);
    let wall = started.elapsed();
    let unfinished = unfinished(&report);
    let init_done = probe
        .stats()
        .init_done
        .expect("Engine::run calls init first");
    let loop_s = (ran - init_done).as_secs_f64();
    Rep {
        replica,
        wall_s: wall.as_secs_f64(),
        setup_s: (init_done - started).as_secs_f64(),
        loop_s,
        events: report.events,
        served_secs: wall.as_secs_f64(),
        metrics,
        unfinished,
    }
}

/// Event kinds, in [`flexpipe_serving::Event::kind`]'s order.
pub const KINDS: [&str; 12] = [
    "arrival",
    "control_tick",
    "churn",
    "instance_ready",
    "stage_arrive",
    "stage_done",
    "prepare_done",
    "pause_done",
    "disruption",
    "revoke",
    "restore",
    "policy_action",
];

fn kind_index(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or_else(|| panic!("unknown event kind `{kind}`"))
}

/// One traced run: the engine is stepped one event at a time (canonical
/// order, so the result equals `Engine::run`'s) and every phase and
/// event kind is timed.
fn traced_rep(spec: &SweepSpec, cell: &Cell, replica: usize) -> (Rep, Layers) {
    let started = Instant::now();
    let probe = Probe::default();
    let mut layers = Layers::default();
    let setup = layers.span("partition.setup_s", || PaperSetup::for_model(spec.model));
    let built = build(spec, cell, &setup, &probe, true, &mut layers);
    let mut stepped = layers.span("serving.prime_s", || SteppedEngine::new(built.engine));
    let init_done = probe.stats().init_done.expect("priming calls init");

    let mut count = [0u64; 12];
    let mut self_time = [Duration::ZERO; 12];
    probe.take_step_policy();
    let loop_started = Instant::now();
    loop {
        let t = Instant::now();
        let Some(kind) = stepped.step(0) else { break };
        let took = t.elapsed();
        let policy = probe.take_step_policy();
        let k = kind_index(kind);
        count[k] += 1;
        self_time[k] += took.saturating_sub(policy);
    }
    let loop_s = loop_started.elapsed().as_secs_f64();
    layers.add("serving.loop_s", loop_s, true);
    let observed = layers.span("serving.finish_s", || stepped.finish());
    let report = observed.report;
    let metrics = layers.span("bench.summarize_s", || {
        summarize_cell(&report, spec.warmup_secs, spec.horizon_secs, built.offered)
    });
    let wall = started.elapsed();

    layers.count("workload.requests", built.requests as f64);
    for (k, kind) in KINDS.iter().enumerate() {
        layers.count(&format!("serving.{kind}.count"), count[k] as f64);
        layers.add(
            &format!("serving.{kind}.self_s"),
            self_time[k].as_secs_f64(),
            false,
        );
    }
    layers.policy(&probe);
    layers.report_counters(&report, spec.warmup_secs);
    let rep = Rep {
        replica,
        wall_s: wall.as_secs_f64(),
        setup_s: (init_done - started).as_secs_f64(),
        loop_s,
        events: report.events,
        served_secs: wall.as_secs_f64(),
        metrics,
        unfinished: unfinished(&report),
    };
    layers.finish_coverage(rep.wall_s);
    (rep, layers)
}

/// Runs a sweep workload for `budget` and checks its outputs. Each of
/// the spec's replica cells is one seed replica.
pub fn run(spec: &SweepSpec, budget: Duration, traced: bool) -> Run {
    let cells = spec.expand();
    let replicas = cells.len();
    assert_eq!(
        replicas, spec.replicas as usize,
        "a benchmark workload is one cell coordinate"
    );
    let mut run = Run::default();
    let plain_budget = if traced { budget / 2 } else { budget };
    run.measure(plain_budget, replicas, replicas.max(3), |i| {
        plain_rep(spec, &cells[i], i)
    });
    if traced {
        run.set_traced(repeat(budget / 2, replicas, 1, |i| {
            traced_rep(spec, &cells[i], i)
        }));
    }

    for (i, cell) in cells.iter().enumerate() {
        let (_, workload) = realize(spec, cell, &mut Layers::default());
        run.judge(
            i,
            &workload.requests,
            SimTime::from_secs_f64(spec.warmup_secs),
            end_of(spec),
        );
    }
    run.check_repeats();
    let reference = run_cell(spec, &cells[0], &PaperSetup::for_model(spec.model));
    run.check(
        "hand-built cell equals flexpipe_fleet::run_cell",
        run.first_of(0).metrics == reference,
    );
    run
}

/// Queue-wait quantiles over the measured window (post-warmup arrivals).
pub fn queue_waits(report: &RunReport, warmup_secs: f64) -> (f64, f64) {
    let cut = SimTime::from_secs_f64(warmup_secs);
    let mut waits: Vec<f64> = report
        .outcomes
        .outcomes()
        .iter()
        .filter(|o| o.arrival >= cut)
        .map(|o| o.queue.as_secs_f64())
        .collect();
    waits.sort_by(f64::total_cmp);
    (quantile(&waits, 0.5), quantile(&waits, 0.99))
}

/// Nearest-rank quantile of sorted values (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
