//! Engine-level integration tests: a minimal static policy exercising the
//! full spawn → serve → refactor → retire lifecycle on the simulated
//! cluster.

use std::sync::Arc;

use flexpipe_cluster::{BackgroundProfile, ClusterSpec, TierConfig};
use flexpipe_model::{zoo, CostModel};
use flexpipe_obs::{TraceEvent, TraceMode, TraceRecord};
use flexpipe_partition::{GranularityLattice, PartitionParams, Partitioner};
use flexpipe_serving::{
    ControlPolicy, Ctx, Driver, Engine, EngineConfig, Placement, RefactorPlan, RunReport, Scenario,
    StageAssign,
};
use flexpipe_sim::{SimDuration, SimTime};
use flexpipe_workload::{ArrivalSpec, LengthProfile, Request, RequestId, Workload, WorkloadSpec};

/// Deploys `replicas` instances at a fixed granularity and never adapts.
struct StaticPolicy {
    stages: u32,
    replicas: u32,
}

impl ControlPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static-test"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let all: Vec<_> = ctx
            .state
            .cluster()
            .topology()
            .gpus()
            .iter()
            .map(|g| g.id)
            .collect();
        ctx.set_always_on(all);
        for _ in 0..self.replicas {
            ctx.spawn(self.stages, Placement::FirstFit)
                .expect("spawn must succeed on an empty cluster");
        }
    }
}

/// Refactors the single instance once at a fixed time.
struct RefactorOnce {
    to_stages: u32,
    at: SimTime,
    fired: bool,
}

impl ControlPolicy for RefactorOnce {
    fn name(&self) -> &'static str {
        "refactor-once"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let all: Vec<_> = ctx
            .state
            .cluster()
            .topology()
            .gpus()
            .iter()
            .map(|g| g.id)
            .collect();
        ctx.set_always_on(all);
        ctx.spawn(2, Placement::FirstFit).expect("initial spawn");
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.fired || ctx.now() < self.at {
            return;
        }
        let insts = ctx.instances();
        let Some(inst) = insts.iter().find(|i| {
            i.state == flexpipe_serving::InstanceState::Serving && i.stages != self.to_stages
        }) else {
            return;
        };
        // Build a plan: keep old devices for the first `old` stages, take
        // fresh first-fit GPUs for the rest.
        let lattice = ctx.state.lattice();
        let new_ranges = lattice
            .level(self.to_stages)
            .expect("level exists")
            .ranges
            .clone();
        let mut assignments = Vec::new();
        let in_use = ctx.state.gpus_in_use().clone();
        let mut fresh_pool: Vec<_> = ctx
            .state
            .cluster()
            .topology()
            .gpus()
            .iter()
            .map(|g| g.id)
            .filter(|g| !in_use.contains(g))
            .collect();
        for i in 0..new_ranges.len() {
            if i < inst.stages as usize {
                assignments.push(StageAssign::Reuse {
                    old_index: i as u32,
                });
            } else {
                assignments.push(StageAssign::Fresh {
                    gpu: fresh_pool.remove(0),
                });
            }
        }
        let plan = RefactorPlan {
            new_ranges,
            assignments,
            prepare: SimDuration::from_secs(3),
            pause: SimDuration::from_millis(9),
        };
        ctx.refactor(inst.id, plan).expect("refactor accepted");
        self.fired = true;
    }
}

fn scenario(cv: f64, rate: f64, horizon_secs: f64, seed: u64) -> Scenario {
    let spec = WorkloadSpec {
        arrivals: ArrivalSpec::GammaRenewal { rate, cv },
        lengths: LengthProfile::fixed(256, 16),
        slo: SimDuration::from_secs(5),
        slo_per_output_token: SimDuration::ZERO,
        horizon_secs,
    };
    let workload = spec.generate(&mut flexpipe_sim::SimRng::seed(seed));
    Scenario {
        config: EngineConfig::default(),
        cluster: ClusterSpec::paper_testbed(),
        background: BackgroundProfile::none(),
        tier: TierConfig::default(),
        cost: CostModel::default(),
        workload,
        disruptions: Default::default(),
        horizon: SimTime::from_secs_f64(horizon_secs + 30.0),
        seed,
    }
}

fn llama_artifacts() -> (Arc<flexpipe_model::ModelGraph>, Arc<GranularityLattice>) {
    let graph = zoo::llama2_7b();
    let cm = CostModel::default();
    let p = Partitioner::new(PartitionParams::default(), cm);
    let lattice = GranularityLattice::build(&p, &graph, 8, &[1, 2, 4, 8], &cm).unwrap();
    (Arc::new(graph), Arc::new(lattice))
}

#[test]
fn static_policy_serves_all_requests() {
    let (graph, lattice) = llama_artifacts();
    let sc = scenario(1.0, 4.0, 60.0, 1);
    let engine = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(StaticPolicy {
            stages: 2,
            replicas: 1,
        }),
    );
    let report = engine.run();
    assert!(report.arrived > 150, "arrived {}", report.arrived);
    assert!(
        report.completion_rate() > 0.98,
        "completion {} of {}",
        report.completed(),
        report.arrived
    );
    // Low-load latency: a handful of decode passes, well under a second.
    assert!(
        report.summary.p50_latency < 1.0,
        "p50 {}",
        report.summary.p50_latency
    );
    // Cold start: the instance loads ~13 GiB from storage (~10 s), so the
    // earliest requests violate the SLO — exactly the §7 motivation. The
    // steady-state window must be clean.
    assert!(report.summary.goodput_rate > 0.75);
    let mut steady = report
        .outcomes
        .latency_digest_in(SimTime::from_secs(30), SimTime::from_secs(90));
    assert!(steady.count() > 50);
    assert!(
        steady.quantile(0.99) < 2.0,
        "steady p99 {}",
        steady.quantile(0.99)
    );
    assert!(report.events > 1000);
}

#[test]
fn deeper_pipelines_cost_latency_at_low_load() {
    let (graph, lattice) = llama_artifacts();
    let mut p50 = Vec::new();
    for stages in [1, 8] {
        let sc = scenario(1.0, 2.0, 60.0, 2);
        let report = Engine::new(
            sc,
            graph.clone(),
            lattice.clone(),
            Box::new(StaticPolicy {
                stages,
                replicas: 1,
            }),
        )
        .run();
        assert!(report.completion_rate() > 0.95, "stages {stages}");
        p50.push(report.summary.p50_latency);
    }
    // 8 stages add ~7 hop+overhead units per decode token: latency must
    // rise measurably (the Fig. 4 low-CV effect). The margin is modest for
    // LLAMA2-7B because the single-stage weight-read floor (13.5 GB/pass)
    // already dominates its decode time.
    assert!(
        p50[1] > p50[0] * 1.15,
        "1-stage p50 {} vs 8-stage p50 {}",
        p50[0],
        p50[1]
    );
}

#[test]
fn inflight_refactor_preserves_service() {
    let (graph, lattice) = llama_artifacts();
    let sc = scenario(1.0, 4.0, 90.0, 3);
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(RefactorOnce {
            to_stages: 4,
            at: SimTime::from_secs(30),
            fired: false,
        }),
    )
    .run();
    assert_eq!(report.refactors, 1, "exactly one refactor");
    assert!(
        report.completion_rate() > 0.97,
        "rate {}",
        report.completion_rate()
    );
    // The pause was 9 ms — total pause accounting must reflect it.
    assert!((report.refactor_pause_secs - 0.009).abs() < 1e-9);
}

#[test]
fn retire_then_respawn_hits_host_cache() {
    let (graph, lattice) = llama_artifacts();

    struct CyclePolicy {
        phase: u32,
    }
    impl ControlPolicy for CyclePolicy {
        fn name(&self) -> &'static str {
            "cycle"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            let all: Vec<_> = ctx
                .state
                .cluster()
                .topology()
                .gpus()
                .iter()
                .map(|g| g.id)
                .collect();
            ctx.set_always_on(all);
            ctx.spawn(2, Placement::FirstFit).unwrap();
        }
        fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
            let now = ctx.now();
            if self.phase == 0 && now >= SimTime::from_secs(20) {
                let id = ctx.instances()[0].id;
                ctx.retire(id);
                self.phase = 1;
            } else if self.phase == 1 && now >= SimTime::from_secs(25) {
                ctx.spawn(2, Placement::FirstFit).unwrap();
                self.phase = 2;
            }
        }
    }

    let sc = scenario(1.0, 1.0, 60.0, 4);
    let report = Engine::new(sc, graph, lattice, Box::new(CyclePolicy { phase: 0 })).run();
    assert_eq!(report.spawns, 2);
    // The second spawn's two stages find parameters in host memory.
    assert!(report.warm_loads >= 2, "warm {}", report.warm_loads);
    assert!(report.warm_load_fraction() > 0.0);
}

#[test]
fn runs_are_deterministic() {
    let (graph, lattice) = llama_artifacts();
    let run = |seed| {
        Engine::new(
            scenario(2.0, 4.0, 45.0, seed),
            graph.clone(),
            lattice.clone(),
            Box::new(StaticPolicy {
                stages: 2,
                replicas: 1,
            }),
        )
        .run()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.completed(), b.completed());
    assert_eq!(a.events, b.events);
    assert!((a.summary.mean_latency - b.summary.mean_latency).abs() < 1e-12);
    let c = run(8);
    assert_ne!(a.events, c.events);
}

#[test]
fn overload_builds_queue_and_violates_slo() {
    let (graph, lattice) = llama_artifacts();
    // One 1-stage replica at high request rate with a tight SLO.
    let mut sc = scenario(1.0, 60.0, 40.0, 5);
    for r in &mut sc.workload.requests {
        r.slo = SimDuration::from_millis(800);
    }
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(StaticPolicy {
            stages: 1,
            replicas: 1,
        }),
    )
    .run();
    // Queue time should dominate and goodput degrade.
    assert!(
        report.summary.mean_queue > report.summary.mean_execution,
        "queue {} exec {}",
        report.summary.mean_queue,
        report.summary.mean_execution
    );
    assert!(
        report.summary.goodput_rate < 0.9,
        "goodput {}",
        report.summary.goodput_rate
    );
}

#[test]
fn utilization_ledger_tracks_gpus() {
    let (graph, lattice) = llama_artifacts();
    let sc = scenario(1.0, 4.0, 60.0, 6);
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(StaticPolicy {
            stages: 4,
            replicas: 1,
        }),
    )
    .run();
    assert_eq!(report.peak_gpus_held(), 4);
    assert!(report.held_utilization() > 0.0);
    assert!(report.held_utilization() <= 1.0);
}

#[test]
fn prewarmed_spawns_are_ready_instantly() {
    struct Prewarmed;
    impl ControlPolicy for Prewarmed {
        fn name(&self) -> &'static str {
            "prewarmed"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            let all: Vec<_> = ctx
                .state
                .cluster()
                .topology()
                .gpus()
                .iter()
                .map(|g| g.id)
                .collect();
            ctx.set_always_on(all);
            ctx.spawn_prewarmed(2, Placement::FirstFit).unwrap();
        }
    }
    let (graph, lattice) = llama_artifacts();
    let sc = scenario(1.0, 4.0, 30.0, 41);
    let report = Engine::new(sc, graph, lattice, Box::new(Prewarmed)).run();
    // No elastic init latency was recorded, and the very first requests
    // complete promptly (no cold-load backlog).
    assert_eq!(report.mean_init_secs, 0.0);
    let first = report.outcomes.outcomes().first().expect("completions");
    assert!(
        first.latency().as_secs_f64() < 2.0,
        "first completion latency {}",
        first.latency()
    );
    assert!(report.completion_rate() > 0.98);
}

#[test]
fn admission_hold_blocks_and_releases() {
    struct Holder {
        phase: u8,
    }
    impl ControlPolicy for Holder {
        fn name(&self) -> &'static str {
            "holder"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            let all: Vec<_> = ctx
                .state
                .cluster()
                .topology()
                .gpus()
                .iter()
                .map(|g| g.id)
                .collect();
            ctx.set_always_on(all);
            ctx.spawn_prewarmed(2, Placement::FirstFit).unwrap();
        }
        fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
            let now = ctx.now().as_secs_f64();
            let id = ctx.instances()[0].id;
            if self.phase == 0 && now >= 10.0 {
                ctx.set_admit_hold(id, true);
                self.phase = 1;
            } else if self.phase == 1 && now >= 25.0 {
                ctx.set_admit_hold(id, false);
                self.phase = 2;
            }
        }
    }
    let (graph, lattice) = llama_artifacts();
    let sc = scenario(1.0, 6.0, 60.0, 43);
    let report = Engine::new(sc, graph, lattice, Box::new(Holder { phase: 0 })).run();
    // During the hold the gateway queue must have built up...
    let held_max = report
        .queue_timeline
        .max_in(SimTime::from_secs(12), SimTime::from_secs(25));
    assert!(held_max > 10.0, "queue never built during hold: {held_max}");
    // ...and everything still completes after release.
    assert!(
        report.completion_rate() > 0.97,
        "{}",
        report.completion_rate()
    );
}

#[test]
fn long_prompts_are_chunked_and_complete() {
    let (graph, lattice) = llama_artifacts();
    let mut sc = scenario(1.0, 2.0, 60.0, 44);
    for r in &mut sc.workload.requests {
        r.prompt_tokens = 7000; // ~7 chunks at the 1024-token cap
        r.slo = SimDuration::from_secs(30);
    }
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(StaticPolicy {
            stages: 2,
            replicas: 1,
        }),
    )
    .run();
    assert!(
        report.completion_rate() > 0.95,
        "{}",
        report.completion_rate()
    );
    // Prefill covers every chunk: it must be several times one chunk pass.
    let mean_prefill = report.summary.mean_prefill;
    assert!(
        mean_prefill > 0.02,
        "prefill {mean_prefill}s too small for 7 chunks"
    );
}

#[test]
fn draining_instance_finishes_active_work_before_release() {
    struct RetireEarly {
        done: bool,
    }
    impl ControlPolicy for RetireEarly {
        fn name(&self) -> &'static str {
            "retire-early"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            let all: Vec<_> = ctx
                .state
                .cluster()
                .topology()
                .gpus()
                .iter()
                .map(|g| g.id)
                .collect();
            ctx.set_always_on(all);
            ctx.spawn_prewarmed(2, Placement::FirstFit).unwrap();
            ctx.spawn_prewarmed(2, Placement::FirstFit).unwrap();
        }
        fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
            if !self.done && ctx.now() >= SimTime::from_secs(20) {
                let id = ctx.instances()[0].id;
                ctx.retire(id);
                self.done = true;
            }
        }
    }
    let (graph, lattice) = llama_artifacts();
    let sc = scenario(1.0, 6.0, 80.0, 45);
    let report = Engine::new(sc, graph, lattice, Box::new(RetireEarly { done: false })).run();
    // Nothing is dropped by the retirement.
    assert!(
        report.completion_rate() > 0.97,
        "{}",
        report.completion_rate()
    );
    // The retired instance's GPUs were released (ledger balances out).
    assert!(report.ledger.mean_allocated(SimTime::from_secs(110)) < 4.0);
}

#[test]
fn hot_server_preempt_cripples_then_default_policy_cold_respawns() {
    use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
    let (graph, lattice) = llama_artifacts();
    let mut sc = scenario(1.0, 6.0, 60.0, 9);
    sc.disruptions = DisruptionScript {
        name: "preempt".into(),
        events: vec![DisruptionEvent {
            at_secs: 30.0,
            kind: Disruption::HotServerPreempt {
                rank: 0,
                grace_secs: 0.0,
            },
        }],
    };
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(StaticPolicy {
            stages: 2,
            replicas: 1,
        }),
    )
    .run();
    let d = &report.disruptions;
    assert_eq!(d.revocation_events, 1);
    assert!(d.gpus_revoked >= 1);
    // The busiest server hosted a stage: in-flight work died and replayed.
    assert!(d.requests_aborted > 0, "nothing was in flight at t=30");
    assert_eq!(d.requests_aborted, d.requests_replayed);
    assert!(d.tokens_lost > 0);
    // Default recovery is a cold respawn: a second (elastic) spawn.
    assert_eq!(report.spawns, 2);
    // Recovery took real time (provisioning + parameter load).
    assert!(
        d.mean_time_to_recover() > 0.5,
        "{}",
        d.mean_time_to_recover()
    );
    assert_eq!(d.unrecovered, 0, "replacement never came up");
    // Replayed requests complete after the recovery.
    assert!(
        report.completion_rate() > 0.95,
        "completion {}",
        report.completion_rate()
    );
}

#[test]
fn revoked_capacity_returns_on_capacity_return() {
    use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
    let (graph, lattice) = llama_artifacts();
    let mut sc = scenario(1.0, 2.0, 60.0, 10);
    sc.disruptions = DisruptionScript {
        name: "fail-restore".into(),
        events: vec![
            DisruptionEvent {
                at_secs: 20.0,
                kind: Disruption::GpuFail { gpu: 70 },
            },
            DisruptionEvent {
                at_secs: 21.0,
                kind: Disruption::GpuFail { gpu: 71 },
            },
            DisruptionEvent {
                at_secs: 40.0,
                kind: Disruption::CapacityReturn {
                    gpus: vec![70, 71],
                    servers: Vec::new(),
                },
            },
        ],
    };
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(StaticPolicy {
            stages: 2,
            replicas: 1,
        }),
    )
    .run();
    let d = &report.disruptions;
    // GPUs 70/71 are idle corners of the 82-GPU testbed: no instance is
    // wounded, so the fleet recovers instantly, and both devices return.
    assert_eq!(d.revocation_events, 2);
    assert_eq!(d.gpus_revoked, 2);
    assert_eq!(d.gpus_restored, 2);
    assert_eq!(d.requests_aborted, 0);
    assert!(report.completion_rate() > 0.97);
}

/// Rebuilds any crippled instance inflight: reuse survivors, land the
/// dead stages on fresh devices, with a visible multi-second prepare.
struct RebuildOnWound {
    prepare_secs: u64,
}

impl ControlPolicy for RebuildOnWound {
    fn name(&self) -> &'static str {
        "rebuild-on-wound"
    }
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let all: Vec<_> = ctx
            .state
            .cluster()
            .topology()
            .gpus()
            .iter()
            .map(|g| g.id)
            .collect();
        ctx.set_always_on(all);
        ctx.spawn_prewarmed(2, Placement::FirstFit).unwrap();
    }
    fn on_disruption(&mut self, ctx: &mut Ctx<'_>, notice: &flexpipe_serving::DisruptionNotice) {
        for c in &notice.crippled {
            let survivors = ctx.state.stage_placement(c.id).unwrap_or_default();
            let new_ranges = ctx
                .state
                .lattice()
                .level(c.original_stages)
                .expect("level exists")
                .ranges
                .clone();
            let in_use = ctx.state.gpus_in_use().clone();
            let revoked = ctx.revoked_gpus();
            let mut pool: Vec<_> = ctx
                .state
                .cluster()
                .topology()
                .gpus()
                .iter()
                .map(|g| g.id)
                .filter(|g| !in_use.contains(g) && !revoked.contains(g))
                .collect();
            let assignments = new_ranges
                .iter()
                .map(|&r| match survivors.iter().position(|&(sr, _)| sr == r) {
                    Some(i) => StageAssign::Reuse {
                        old_index: i as u32,
                    },
                    None => StageAssign::Fresh {
                        gpu: pool.remove(0),
                    },
                })
                .collect();
            ctx.refactor(
                c.id,
                RefactorPlan {
                    new_ranges,
                    assignments,
                    prepare: SimDuration::from_secs(self.prepare_secs),
                    pause: SimDuration::from_millis(10),
                },
            )
            .expect("rebuild accepted");
        }
    }
}

#[test]
fn crippled_rebuild_blocks_admission_until_commit() {
    use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
    let (graph, lattice) = llama_artifacts();
    let mut sc = scenario(1.0, 4.0, 60.0, 15);
    // GPU 0 hosts stage 0 of the only instance; it fails at t=20 with no
    // grace, and the rebuild takes 5 s of preparation.
    sc.disruptions = DisruptionScript {
        name: "fail-then-rebuild".into(),
        events: vec![DisruptionEvent {
            at_secs: 20.0,
            kind: Disruption::GpuFail { gpu: 0 },
        }],
    };
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(RebuildOnWound { prepare_secs: 5 }),
    )
    .run();
    assert_eq!(report.disruptions.revocation_events, 1);
    assert_eq!(report.refactors, 1);
    assert_eq!(report.spawns, 1, "rebuild must not respawn");
    // A half-pipeline must not serve: nothing completes between the
    // revocation and the rebuild's commit (~t=25).
    let premature = report
        .outcomes
        .outcomes()
        .iter()
        .filter(|o| {
            let t = o.completion.as_secs_f64();
            t > 20.0 && t < 24.9
        })
        .count();
    assert_eq!(
        premature, 0,
        "{premature} requests served by an incomplete pipeline"
    );
    // Afterwards service resumes and the backlog drains.
    assert!(
        report.completion_rate() > 0.97,
        "{}",
        report.completion_rate()
    );
    // Time-to-recover is the rebuild duration.
    let ttr = report.disruptions.mean_time_to_recover();
    assert!((4.5..6.0).contains(&ttr), "ttr {ttr}");
}

#[test]
fn failed_crippled_rebuild_never_resurrects_a_partial_pipeline() {
    use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
    let (graph, lattice) = llama_artifacts();
    let mut sc = scenario(1.0, 2.0, 50.0, 16);
    // GPU 0 dies at t=20, crippling the instance; the rebuild targets the
    // first free device (GPU 2), which dies mid-prepare at t=22. That
    // voids the rebuild's plan, so the engine cancels it and releases the
    // instance (this policy never retries) — under no circumstance may a
    // pipeline with missing layers come back as Serving.
    sc.disruptions = DisruptionScript {
        name: "double-fail".into(),
        events: vec![
            DisruptionEvent {
                at_secs: 20.0,
                kind: Disruption::GpuFail { gpu: 0 },
            },
            DisruptionEvent {
                at_secs: 22.0,
                kind: Disruption::GpuFail { gpu: 2 },
            },
        ],
    };
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(RebuildOnWound { prepare_secs: 5 }),
    )
    .run();
    assert_eq!(report.disruptions.revocation_events, 2);
    // No complete pipeline ever returns: nothing may complete after the
    // first revocation.
    let resurrected = report
        .outcomes
        .outcomes()
        .iter()
        .filter(|o| o.completion.as_secs_f64() > 20.5)
        .count();
    assert_eq!(
        resurrected, 0,
        "{resurrected} requests served by a resurrected partial pipeline"
    );
    // Both recovery windows stay open to the horizon.
    assert_eq!(report.disruptions.unrecovered, 2);
}

#[test]
fn wounding_a_loading_instance_releases_it_instead_of_crippling() {
    use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
    let (graph, lattice) = llama_artifacts();
    let mut sc = scenario(1.0, 2.0, 40.0, 13);
    // StaticPolicy spawns elastically at t=0: parameters stream from
    // storage for several seconds, so the instance is still Loading when
    // one of its devices (best-fit picks GPU 0 first) fails at t=2.
    sc.disruptions = DisruptionScript {
        name: "fail-during-load".into(),
        events: vec![DisruptionEvent {
            at_secs: 2.0,
            kind: Disruption::GpuFail { gpu: 0 },
        }],
    };
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(StaticPolicy {
            stages: 2,
            replicas: 1,
        }),
    )
    .run();
    let d = &report.disruptions;
    assert_eq!(d.revocation_events, 1);
    // Nothing was admitted yet, so nothing aborts; and a half-loaded
    // instance must not be "rebuilt" into existence — it is a total loss
    // (the default policy never respawns, so no second spawn appears).
    assert_eq!(d.requests_aborted, 0);
    assert_eq!(report.spawns, 1);
    // The surviving device was released: by the end nothing is held.
    assert!(
        report.ledger.mean_allocated(SimTime::from_secs(70)) < 1.0,
        "held {}",
        report.ledger.mean_allocated(SimTime::from_secs(70))
    );
}

#[test]
fn wounding_a_draining_instance_finishes_the_retirement() {
    use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};

    struct RetireThenWatch {
        done: bool,
    }
    impl ControlPolicy for RetireThenWatch {
        fn name(&self) -> &'static str {
            "retire-then-watch"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            let all: Vec<_> = ctx
                .state
                .cluster()
                .topology()
                .gpus()
                .iter()
                .map(|g| g.id)
                .collect();
            ctx.set_always_on(all);
            ctx.spawn_prewarmed(2, Placement::FirstFit).unwrap();
            ctx.spawn_prewarmed(2, Placement::FirstFit).unwrap();
        }
        fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
            if !self.done && ctx.now() >= SimTime::from_secs(20) {
                let id = ctx.instances()[0].id;
                ctx.retire(id);
                self.done = true;
            }
        }
    }

    let (graph, lattice) = llama_artifacts();
    let mut sc = scenario(1.0, 6.0, 60.0, 14);
    // GPU 0 hosts a stage of the first (retired-at-20s) instance; it
    // fails a moment into the drain. The revocation must *finish* the
    // retirement — not resurrect capacity the policy just shed via the
    // default cold-respawn path.
    sc.disruptions = DisruptionScript {
        name: "fail-during-drain".into(),
        events: vec![DisruptionEvent {
            at_secs: 20.2,
            kind: Disruption::GpuFail { gpu: 0 },
        }],
    };
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(RetireThenWatch { done: false }),
    )
    .run();
    assert_eq!(report.disruptions.revocation_events, 1);
    assert_eq!(
        report.spawns, 2,
        "a draining instance must not be respawned"
    );
    // Requests caught mid-drain replay on the surviving instance.
    assert!(
        report.completion_rate() > 0.97,
        "{}",
        report.completion_rate()
    );
}

#[test]
fn graced_preemption_gives_policies_a_migration_window() {
    use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
    use flexpipe_cluster::GpuId;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc as StdArc;

    // A policy that migrates off doomed devices during the grace window
    // by refactoring to the same depth on fresh GPUs.
    struct Migrator {
        noticed: StdArc<AtomicBool>,
    }
    impl ControlPolicy for Migrator {
        fn name(&self) -> &'static str {
            "migrator"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            let all: Vec<_> = ctx
                .state
                .cluster()
                .topology()
                .gpus()
                .iter()
                .map(|g| g.id)
                .collect();
            ctx.set_always_on(all);
            ctx.spawn_prewarmed(2, Placement::FirstFit).unwrap();
        }
        fn on_revoke_notice(&mut self, ctx: &mut Ctx<'_>, gpus: &[GpuId], _deadline: SimTime) {
            self.noticed.store(true, Ordering::SeqCst);
            let doomed: Vec<GpuId> = gpus.to_vec();
            let insts = ctx.instances();
            for inst in insts {
                let Some(placement) = ctx.state.stage_placement(inst.id) else {
                    continue;
                };
                if !placement.iter().any(|(_, g)| doomed.contains(g)) {
                    continue;
                }
                let in_use = ctx.state.gpus_in_use().clone();
                let mut fresh: Vec<GpuId> = ctx
                    .state
                    .cluster()
                    .topology()
                    .gpus()
                    .iter()
                    .map(|g| g.id)
                    .filter(|g| !in_use.contains(g) && !doomed.contains(g))
                    .collect();
                let mut assignments = Vec::new();
                let mut new_ranges = Vec::new();
                for (i, &(range, gpu)) in placement.iter().enumerate() {
                    new_ranges.push(range);
                    if doomed.contains(&gpu) {
                        assignments.push(StageAssign::Fresh {
                            gpu: fresh.remove(0),
                        });
                    } else {
                        assignments.push(StageAssign::Reuse {
                            old_index: i as u32,
                        });
                    }
                }
                let plan = RefactorPlan {
                    new_ranges,
                    assignments,
                    prepare: SimDuration::from_secs(3),
                    pause: SimDuration::from_millis(20),
                };
                ctx.refactor(inst.id, plan).expect("rescue refactor");
            }
        }
    }

    let (graph, lattice) = llama_artifacts();
    let mut sc = scenario(1.0, 4.0, 60.0, 12);
    sc.disruptions = DisruptionScript {
        name: "graced".into(),
        events: vec![DisruptionEvent {
            at_secs: 25.0,
            kind: Disruption::HotServerPreempt {
                rank: 0,
                grace_secs: 10.0,
            },
        }],
    };
    let noticed = StdArc::new(AtomicBool::new(false));
    let report = Engine::new(
        sc,
        graph,
        lattice,
        Box::new(Migrator {
            noticed: noticed.clone(),
        }),
    )
    .run();
    assert!(noticed.load(Ordering::SeqCst), "notice never delivered");
    let d = &report.disruptions;
    assert_eq!(d.revocation_events, 1);
    // The migration finished inside the grace window: nothing was in
    // flight on the dead server, so no request was aborted and recovery
    // is instantaneous.
    assert_eq!(d.requests_aborted, 0, "migration failed to beat the grace");
    assert!(d.mean_time_to_recover() < 1e-9);
    assert_eq!(report.refactors, 1);
    assert_eq!(report.spawns, 1, "no respawn needed");
    assert!(report.completion_rate() > 0.97);
}

#[test]
fn batch_scaling_compresses_hop_traffic() {
    // Eq. (3) opt-in: sub-linear activation growth must reduce the
    // communication share without changing completions.
    let (graph, lattice) = llama_artifacts();
    let run = |scaling| {
        let mut sc = scenario(1.0, 6.0, 60.0, 47);
        sc.config.batch_scaling = scaling;
        Engine::new(
            sc,
            graph.clone(),
            lattice.clone(),
            Box::new(StaticPolicy {
                stages: 4,
                replicas: 1,
            }),
        )
        .run()
    };
    let linear = run(None);
    let scaled = run(Some(flexpipe_model::BatchScaling {
        alpha: 0.85,
        b_base: 8.0,
    }));
    assert_eq!(linear.completed(), scaled.completed());
    assert!(
        scaled.summary.mean_communication < linear.summary.mean_communication,
        "scaled comm {} !< linear comm {}",
        scaled.summary.mean_communication,
        linear.summary.mean_communication
    );
}

/// A 1×1 static engine over `sc`, armed with full tracing.
fn one_static(sc: Scenario) -> Engine {
    let (graph, lattice) = llama_artifacts();
    let policy = Box::new(StaticPolicy {
        stages: 1,
        replicas: 1,
    });
    let mut engine = Engine::new(sc, graph, lattice, policy);
    engine.set_trace(TraceMode::Full);
    engine
}

/// `sc` run through the live path: an empty workload, with every request
/// of `sc.workload` injected by `advance_before` + `push_arrival`.
fn run_live(mut sc: Scenario) -> (RunReport, Vec<TraceRecord>) {
    let requests = std::mem::take(&mut sc.workload).requests;
    let mut driver = Driver::new(one_static(sc));
    for req in requests {
        driver.advance_before(req.arrival);
        driver.push_arrival(req);
    }
    let run = driver.finish();
    (run.report, run.trace.records().cloned().collect())
}

fn budgeted(max_events: u64) -> Scenario {
    let mut sc = scenario(1.0, 2.0, 30.0, 7);
    sc.config.max_events = max_events;
    sc
}

/// `truncated` holds iff the run fired exactly `max_events` events — on
/// the offline, stepped and live paths alike, including a budget that
/// the run meets exactly with nothing left to fire.
#[test]
fn truncated_iff_the_run_fired_max_events_on_every_path() {
    let offline = |budget| one_static(budgeted(budget)).run();
    let stepped = |budget| {
        let mut driver = Driver::new(one_static(budgeted(budget)));
        while driver.step(0).is_some() {}
        driver.finish().report
    };
    let live = |budget| run_live(budgeted(budget)).0;
    let paths: [(&str, &dyn Fn(u64) -> RunReport); 3] = [
        ("offline", &offline),
        ("stepped", &stepped),
        ("live", &live),
    ];
    for (name, run) in paths {
        let full = run(u64::MAX);
        assert!(!full.truncated, "{name}: unbounded run truncated");
        let events = full.events;
        assert!(events > 100, "{name}: only {events} events");
        let exact = run(events);
        assert_eq!(exact.events, events, "{name}");
        assert!(exact.truncated, "{name}: a run at its budget is truncated");
        let spare = run(events + 1);
        assert_eq!(spare.events, events, "{name}");
        assert!(!spare.truncated, "{name}: a budget left unspent is not");
    }
}

/// No event due after the horizon fires, not even an arrival pushed past it.
#[test]
fn driver_never_fires_past_the_horizon() {
    let mut sc = scenario(1.0, 2.0, 5.0, 7);
    let horizon = sc.horizon;
    let last = sc.workload.len() as u64;
    sc.workload.requests.push(Request {
        id: RequestId(last),
        arrival: horizon + SimDuration::from_secs(1),
        prompt_tokens: 256,
        output_tokens: 16,
        slo: SimDuration::from_secs(5),
    });
    let (report, trace) = run_live(sc);
    assert_eq!(
        report.arrived as u64,
        last + 1,
        "the late arrival is accepted"
    );
    assert!(!report.truncated);
    let horizon = horizon.as_secs_f64();
    assert!(
        trace.iter().all(|r| r.at <= horizon),
        "an event fired past the horizon"
    );
    assert!(!trace
        .iter()
        .any(|r| r.event == TraceEvent::RequestArrival { req: last }));
}

/// `advance_before(t)` leaves an event due exactly at `t` queued, so an
/// arrival stamped `t` fires after it; equal-stamp pushes then schedule
/// each arrival exactly once (the arrival chain does the rest).
#[test]
fn advance_before_is_strict_and_equal_stamps_arrive_once() {
    let mut sc = scenario(1.0, 2.0, 5.0, 7);
    sc.workload = Workload::default();
    // Churn and a control tick are both due at `tick`.
    let tick = SimTime::ZERO + sc.config.churn_step;
    let mut driver = Driver::new(one_static(sc));
    driver.advance_before(tick);
    let due: Vec<&str> = driver.batch().iter().map(|e| e.kind()).collect();
    assert!(
        due.contains(&"churn") && due.contains(&"control_tick"),
        "the events due at t must still be queued: {due:?}"
    );
    for id in 0..5 {
        driver.advance_before(tick);
        driver.push_arrival(Request {
            id: RequestId(id),
            arrival: tick,
            prompt_tokens: 256,
            output_tokens: 16,
            slo: SimDuration::from_secs(5),
        });
    }
    assert_eq!(driver.arrivals(), 5);
    let trace: Vec<TraceRecord> = driver.finish().trace.records().cloned().collect();
    let at_tick: Vec<&TraceEvent> = trace
        .iter()
        .filter(|r| r.at == tick.as_secs_f64())
        .map(|r| &r.event)
        .collect();
    assert!(
        matches!(at_tick.first(), Some(TraceEvent::ControlTick { .. })),
        "the tick due at t must fire before arrivals stamped t: {at_tick:?}"
    );
    let arrivals: Vec<u64> = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::RequestArrival { req } => Some(req),
            _ => None,
        })
        .collect();
    assert_eq!(
        arrivals,
        vec![0, 1, 2, 3, 4],
        "each arrival fires exactly once"
    );
}

/// Once `step` returns `None` the batch is empty, whether the run ended
/// at its budget or at its horizon.
#[test]
fn batch_is_empty_once_step_returns_none() {
    for budget in [25, u64::MAX] {
        let mut driver = Driver::new(one_static(budgeted(budget)));
        let mut steps = 0u64;
        while driver.step(0).is_some() {
            steps += 1;
        }
        assert!(driver.batch().is_empty(), "budget {budget}");
        assert_eq!(driver.step(0), None);
        let report = driver.finish().report;
        assert_eq!(report.events, steps);
        assert_eq!(report.truncated, budget == 25);
    }
}
