//! Committed checker scenarios: small, fully deterministic fleets whose
//! same-tick interleavings the explorer enumerates, plus the probe run
//! the semantic fingerprint is pinned against.

use std::sync::Arc;

use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
use flexpipe_cluster::{BackgroundProfile, ClusterSpec, TierConfig};
use flexpipe_model::{zoo, CostModel, ModelGraph};
use flexpipe_obs::{TraceEvent, TraceMode};
use flexpipe_partition::{GranularityLattice, PartitionParams, Partitioner};
use flexpipe_serving::{
    ControlPolicy, Ctx, Driver, Engine, EngineConfig, InstanceId, InstanceState, Placement,
    RefactorPlan, Scenario, StageAssign,
};
use flexpipe_sim::{SimDuration, SimTime};
use flexpipe_workload::{ArrivalSpec, LengthProfile, Request, RequestId, Workload, WorkloadSpec};

/// A deterministic named scenario the checker can replay at will.
pub struct CheckScenario {
    /// Stable name (CLI `--scenario`, counterexample specs).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Whether the scenario is a *characterization* of a known
    /// non-commuting race (the explorer is expected to find a divergence)
    /// rather than a confluence assertion.
    pub expect_divergence: bool,
    graph: Arc<ModelGraph>,
    lattice: Arc<GranularityLattice>,
    scenario: Scenario,
    policy: fn() -> Box<dyn ControlPolicy>,
}

impl CheckScenario {
    /// A fresh engine for this scenario with full tracing on. Every call
    /// returns bit-identical state (shared model artifacts, cloned
    /// scenario, freshly built policy), which is what makes schedule
    /// exploration sound.
    pub fn engine(&self) -> Engine {
        let mut e = Engine::new(
            self.scenario.clone(),
            self.graph.clone(),
            self.lattice.clone(),
            (self.policy)(),
        );
        e.set_trace(TraceMode::Full);
        e
    }

    /// A primed step-controllable driver for this scenario.
    pub fn stepped(&self) -> Driver {
        Driver::new(self.engine())
    }

    /// All committed scenarios.
    pub fn all() -> Vec<CheckScenario> {
        vec![
            CheckScenario::probe(),
            CheckScenario::three_instance_disruption(),
            CheckScenario::independent_stages(),
            CheckScenario::abort_revoke_overlap(),
            CheckScenario::deferred_policy_decisions(),
        ]
    }

    /// Looks a committed scenario up by name.
    pub fn named(name: &str) -> Option<CheckScenario> {
        CheckScenario::all().into_iter().find(|s| s.name == name)
    }

    /// The scenarios the explorer enumerates: everything but the probe,
    /// which exists to be fingerprinted, not permuted — it is far too
    /// large to explore, and its 1s control grid deliberately collides
    /// with the t=30 preemption (a sampling ambiguity the small scenarios
    /// engineer away).
    pub fn exploration_targets() -> Vec<CheckScenario> {
        CheckScenario::all()
            .into_iter()
            .filter(|s| s.name != "probe")
            .collect()
    }

    /// The fingerprint probe: a broad-vocabulary run (spawns, admission,
    /// refactor commit, graced preemption, crippled recovery, capacity
    /// return) whose canonical trace the pinned semantic fingerprint
    /// hashes. Not an exploration target — it exists to make semantics
    /// drift loud.
    pub fn probe() -> CheckScenario {
        let (graph, lattice) = llama_artifacts();
        let spec = WorkloadSpec {
            arrivals: ArrivalSpec::GammaRenewal { rate: 3.0, cv: 1.0 },
            lengths: LengthProfile::fixed(256, 16),
            slo: SimDuration::from_secs(5),
            slo_per_output_token: SimDuration::ZERO,
            horizon_secs: 55.0,
        };
        let workload = spec.generate(&mut flexpipe_sim::SimRng::seed(7));
        CheckScenario {
            name: "probe",
            about: "broad-vocabulary fingerprint probe (refactor + graced preempt + restore)",
            expect_divergence: false,
            graph,
            lattice,
            scenario: Scenario {
                config: EngineConfig::default(),
                cluster: ClusterSpec::paper_testbed(),
                background: BackgroundProfile::none(),
                tier: TierConfig::default(),
                cost: CostModel::default(),
                workload,
                disruptions: DisruptionScript {
                    name: "probe-chaos".into(),
                    events: vec![
                        DisruptionEvent {
                            at_secs: 30.0,
                            kind: Disruption::ServerPreempt {
                                server: 0,
                                grace_secs: 5.0,
                            },
                        },
                        DisruptionEvent {
                            at_secs: 45.0,
                            kind: Disruption::CapacityReturn {
                                gpus: vec![],
                                servers: vec![0],
                            },
                        },
                    ],
                },
                horizon: SimTime::from_secs(60),
                seed: 7,
            },
            policy: || {
                Box::new(ScriptedPolicy {
                    name: "check-probe",
                    replicas: 2,
                    stages: 2,
                    prewarmed: false,
                    refactor: Some(RefactorStep {
                        instance: 1,
                        to_stages: 4,
                        not_before: 20.0,
                        commit_at: 24.0,
                        prepare: 3.0,
                        fired: false,
                    }),
                })
            },
        }
    }

    /// The exhaustive confluence target: three single-stage instances; at
    /// t=16 an admission (`Arrival`), a refactor commit (`PauseDone` on
    /// instance 2) and a scripted revocation of an *unused* device
    /// (`Disruption`) all fire at the same virtual instant. Every
    /// interleaving must converge to an equivalent trace and a
    /// byte-identical report.
    ///
    /// The control interval is 7s so no tick lands on t=16: a `ControlTick`
    /// *samples* in-system counts, and sampling an instant whose population
    /// changes at that very instant is legitimately order-dependent —
    /// measurement ambiguity, not a semantics violation worth asserting on.
    pub fn three_instance_disruption() -> CheckScenario {
        let (graph, lattice) = llama_artifacts();
        CheckScenario {
            name: "three-instance-disruption",
            about: "admission vs refactor-commit vs revocation at one instant, 3 instances",
            expect_divergence: false,
            graph,
            lattice,
            scenario: Scenario {
                config: EngineConfig {
                    control_interval: SimDuration::from_secs(7),
                    ..EngineConfig::default()
                },
                cluster: ClusterSpec::paper_testbed(),
                background: BackgroundProfile::none(),
                tier: TierConfig::default(),
                cost: CostModel::default(),
                workload: Workload {
                    requests: vec![Request {
                        id: RequestId(0),
                        arrival: SimTime::from_secs(16),
                        prompt_tokens: 64,
                        output_tokens: 4,
                        slo: SimDuration::from_secs(10),
                    }],
                },
                disruptions: DisruptionScript {
                    name: "unused-gpu-fail".into(),
                    // GPU 81 is the last device of the testbed; FirstFit
                    // placement never reaches it in this scenario, so the
                    // revocation is pure capacity noise that must commute
                    // with the same-instant admission and commit.
                    events: vec![DisruptionEvent {
                        at_secs: 16.0,
                        kind: Disruption::GpuFail { gpu: 81 },
                    }],
                },
                horizon: SimTime::from_secs(30),
                seed: 3,
            },
            policy: || {
                Box::new(ScriptedPolicy {
                    name: "check-three-instance",
                    replicas: 3,
                    stages: 1,
                    prewarmed: true,
                    // Fires at the t=7 tick (never t=0, where spawn-order
                    // vs first-tick interleavings would make the firing
                    // tick itself schedule-dependent): prepare lands at 12,
                    // the pause commit at exactly 16.
                    refactor: Some(RefactorStep {
                        instance: 2,
                        to_stages: 2,
                        not_before: 1.0,
                        commit_at: 16.0,
                        prepare: 5.0,
                        fired: false,
                    }),
                })
            },
        }
    }

    /// Two instances each prefilling a same-instant request: the
    /// `StageArrive` pair is instance-scoped and independent, so
    /// persistent-set pruning may skip its permutations while an
    /// unpruned exploration must still converge.
    pub fn independent_stages() -> CheckScenario {
        let (graph, lattice) = llama_artifacts();
        CheckScenario {
            name: "independent-stages",
            about: "same-instant stage work on two instances (pruning demo)",
            expect_divergence: false,
            graph,
            lattice,
            scenario: Scenario {
                config: EngineConfig::default(),
                cluster: ClusterSpec::paper_testbed(),
                background: BackgroundProfile::none(),
                tier: TierConfig::default(),
                cost: CostModel::default(),
                workload: Workload {
                    requests: vec![
                        Request {
                            id: RequestId(0),
                            // Off the control-tick grid: the same-instant
                            // pair under test is the per-instance stage
                            // work, not a sampling tick.
                            arrival: SimTime::from_secs_f64(2.35),
                            prompt_tokens: 64,
                            output_tokens: 1,
                            slo: SimDuration::from_secs(10),
                        },
                        Request {
                            id: RequestId(1),
                            // Off the control-tick grid: the same-instant
                            // pair under test is the per-instance stage
                            // work, not a sampling tick.
                            arrival: SimTime::from_secs_f64(2.35),
                            prompt_tokens: 64,
                            output_tokens: 1,
                            slo: SimDuration::from_secs(10),
                        },
                    ],
                },
                disruptions: DisruptionScript::default(),
                horizon: SimTime::from_secs(10),
                seed: 5,
            },
            policy: || {
                Box::new(ScriptedPolicy {
                    name: "check-independent-stages",
                    replicas: 2,
                    stages: 1,
                    prewarmed: true,
                    refactor: None,
                })
            },
        }
    }

    /// The trickiest commutation case: a 1→2 refactor's commit point
    /// (`PauseDone`) lands at the same instant a revocation kills the
    /// refactor's **fresh** device. This used to be the committed
    /// characterization of a real non-commuting race — `PauseDone` first
    /// committed onto the doomed device and crippled the instance, while
    /// revocation first cancelled the plan cleanly. The engine now aborts
    /// deterministically in both orders (`on_pause_done` refuses to commit
    /// a `Fresh` stage onto a device that is revoked, past its preemption
    /// deadline, or named by a zero-grace revocation firing at the same
    /// instant), so the scenario is a confluence assertion: every
    /// interleaving must record `RefactorAbort` and resume the old
    /// single-stage topology unharmed.
    pub fn abort_revoke_overlap() -> CheckScenario {
        let (graph, lattice) = llama_artifacts();
        // A little early traffic exercises the serving path; fractional
        // arrivals and small outputs keep every request finished well
        // before the race so t=16 stays a two-event batch.
        let requests = (0..3)
            .map(|i| Request {
                id: RequestId(i),
                arrival: SimTime::from_secs_f64(0.65 + 0.4 * i as f64),
                prompt_tokens: 256,
                output_tokens: 16,
                slo: SimDuration::from_secs(30),
            })
            .collect();
        CheckScenario {
            name: "abort-revoke-overlap",
            about: "refactor abort racing a revocation of the fresh device, same instance",
            expect_divergence: false,
            graph,
            lattice,
            scenario: Scenario {
                // 7s control interval for the same reason as the
                // three-instance scenario: keep the sampling tick off the
                // t=16 batch so the divergence found is the abort race.
                config: EngineConfig {
                    control_interval: SimDuration::from_secs(7),
                    ..EngineConfig::default()
                },
                cluster: ClusterSpec::paper_testbed(),
                background: BackgroundProfile::none(),
                tier: TierConfig::default(),
                cost: CostModel::default(),
                workload: Workload { requests },
                disruptions: DisruptionScript {
                    name: "fresh-gpu-fail".into(),
                    // GPU 1 is the first device FirstFit hands the
                    // refactor's `Fresh` stage (gpu 0 holds the serving
                    // stage); killing it at exactly the commit instant is
                    // the race.
                    events: vec![DisruptionEvent {
                        at_secs: 16.0,
                        kind: Disruption::GpuFail { gpu: 1 },
                    }],
                },
                horizon: SimTime::from_secs(30),
                seed: 11,
            },
            policy: || {
                Box::new(ScriptedPolicy {
                    name: "check-abort-revoke",
                    replicas: 1,
                    stages: 1,
                    prewarmed: true,
                    // Fires at the t=7 tick; prepare ends at 12, the pause
                    // commit lands at 16 — exactly the revocation instant.
                    refactor: Some(RefactorStep {
                        instance: 1,
                        to_stages: 2,
                        not_before: 1.0,
                        commit_at: 16.0,
                        prepare: 5.0,
                        fired: false,
                    }),
                })
            },
        }
    }

    /// Policy decisions as choice points: at the t=14 tick the control
    /// plane defers three same-instant decisions through
    /// [`Ctx::defer_action`] — retire instance 1, admit-hold instance 2,
    /// and a trace marker on instance 0. Each pops as its own
    /// `PolicyAction` queue event, which the independence relation treats
    /// conservatively, so the explorer permutes the *decisions* (3! = 6
    /// orders), not just the engine mechanisms underneath them. The
    /// decisions touch disjoint instances and the gateway is empty at the
    /// batch, so every order must converge.
    pub fn deferred_policy_decisions() -> CheckScenario {
        let (graph, lattice) = llama_artifacts();
        // Early traffic exercises serving and drains long before t=14, so
        // the deferred-decision batch is exactly the three actions.
        let requests = (0..3)
            .map(|i| Request {
                id: RequestId(i),
                arrival: SimTime::from_secs_f64(0.65 + 0.4 * i as f64),
                prompt_tokens: 64,
                output_tokens: 8,
                slo: SimDuration::from_secs(30),
            })
            .collect();
        CheckScenario {
            name: "deferred-policy-decisions",
            about: "three same-instant deferred control decisions permuted as choice points",
            expect_divergence: false,
            graph,
            lattice,
            scenario: Scenario {
                config: EngineConfig {
                    control_interval: SimDuration::from_secs(7),
                    ..EngineConfig::default()
                },
                cluster: ClusterSpec::paper_testbed(),
                background: BackgroundProfile::none(),
                tier: TierConfig::default(),
                cost: CostModel::default(),
                workload: Workload { requests },
                disruptions: DisruptionScript::default(),
                horizon: SimTime::from_secs(30),
                seed: 13,
            },
            policy: || {
                Box::new(DeferredDecisionPolicy {
                    replicas: 3,
                    not_before: 13.0,
                    fired: false,
                })
            },
        }
    }
}

fn llama_artifacts() -> (Arc<ModelGraph>, Arc<GranularityLattice>) {
    let graph = zoo::llama2_7b();
    let cm = CostModel::default();
    let p = Partitioner::new(PartitionParams::default(), cm);
    let lattice = GranularityLattice::build(&p, &graph, 8, &[1, 2, 4, 8], &cm)
        .expect("llama2-7b lattice builds");
    (Arc::new(graph), Arc::new(lattice))
}

/// One scheduled refactor: fires at the first control tick at or after
/// `not_before` where the target instance is serving, with the pause
/// length solved so `PauseDone` lands exactly at `commit_at`.
struct RefactorStep {
    instance: u64,
    to_stages: u32,
    not_before: f64,
    commit_at: f64,
    prepare: f64,
    fired: bool,
}

/// The deterministic scripted policy all checker scenarios share: spawn
/// a fixed fleet at init, optionally fire one precisely-timed refactor,
/// cold-respawn on disruptions (the trait default).
struct ScriptedPolicy {
    name: &'static str,
    replicas: u32,
    stages: u32,
    prewarmed: bool,
    refactor: Option<RefactorStep>,
}

impl ControlPolicy for ScriptedPolicy {
    fn name(&self) -> &'static str {
        self.name
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
            let spawned = if self.prewarmed {
                ctx.spawn_prewarmed(self.stages, Placement::FirstFit)
            } else {
                ctx.spawn(self.stages, Placement::FirstFit)
            };
            spawned.expect("spawn must succeed on an empty cluster");
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_secs_f64();
        let Some(step) = self.refactor.as_mut() else {
            return;
        };
        if step.fired || now < step.not_before {
            return;
        }
        let insts = ctx.instances();
        let Some(inst) = insts.iter().find(|i| {
            i.id.0 == step.instance
                && i.state == InstanceState::Serving
                && i.stages != step.to_stages
        }) else {
            return;
        };
        let pause = step.commit_at - now - step.prepare;
        assert!(
            pause > 0.0,
            "scenario timing broke: tick {now} too late for commit at {}",
            step.commit_at
        );
        let lattice = ctx.state.lattice();
        let new_ranges = lattice
            .level(step.to_stages)
            .expect("lattice level exists")
            .ranges
            .clone();
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
        let mut assignments = Vec::new();
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
        let target = inst.id;
        ctx.refactor(
            target,
            RefactorPlan {
                new_ranges,
                assignments,
                prepare: SimDuration::from_secs_f64(step.prepare),
                pause: SimDuration::from_secs_f64(pause),
            },
        )
        .expect("scenario refactor accepted");
        ctx.trace(TraceEvent::PolicyAction {
            action: "check-refactor".into(),
            instance: target.0,
        });
        step.fired = true;
    }
}

/// A control plane whose decisions are themselves queue events: one tick
/// defers three actions through [`Ctx::defer_action`]; each pops back via
/// `on_action` at the same virtual instant, where the explorer can
/// permute them against each other.
struct DeferredDecisionPolicy {
    replicas: u32,
    not_before: f64,
    fired: bool,
}

impl ControlPolicy for DeferredDecisionPolicy {
    fn name(&self) -> &'static str {
        "check-deferred-decisions"
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
            ctx.spawn_prewarmed(1, Placement::FirstFit)
                .expect("spawn must succeed on an empty cluster");
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.fired || ctx.now().as_secs_f64() < self.not_before {
            return;
        }
        self.fired = true;
        ctx.defer_action(0);
        ctx.defer_action(1);
        ctx.defer_action(2);
    }

    fn on_action(&mut self, ctx: &mut Ctx<'_>, tag: u32) {
        match tag {
            0 => ctx.retire(InstanceId(1)),
            1 => ctx.set_admit_hold(InstanceId(2), true),
            _ => ctx.trace(TraceEvent::PolicyAction {
                action: "deferred-mark".into(),
                instance: 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_resolve_by_name() {
        for sc in CheckScenario::all() {
            let again = CheckScenario::named(sc.name).expect("resolvable");
            assert_eq!(again.name, sc.name);
            assert!(!sc.about.is_empty());
        }
        assert!(CheckScenario::named("nope").is_none());
    }

    #[test]
    fn scenario_runs_are_reproducible() {
        let sc = CheckScenario::three_instance_disruption();
        let a = sc.engine().run_observed();
        let b = sc.engine().run_observed();
        assert_eq!(a.trace.to_jsonl(), b.trace.to_jsonl());
        assert!(!a.trace.is_empty());
    }
}
