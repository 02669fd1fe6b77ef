//! The `live-gateway` workload: a pinned standing fleet served through
//! the gateway's live driver (`serve_with`, one shard, virtual pacing)
//! at a load where every request meets its SLO.

use std::time::{Duration, Instant};

use flexpipe_chaos::DisruptionScript;
use flexpipe_cluster::BackgroundProfile;
use flexpipe_fleet::{replica_seed, summarize_cell, CellMetrics};
use flexpipe_gateway::{
    mix64, pinned_live_spec, replay_with, serve_with, HashRing, NoSpillover, Pacing, PaperSetup,
    ServeOutcome, ServeSpec, ShardReport, TraceMode,
};
use flexpipe_metrics::Digest;
use flexpipe_serving::{Engine, EngineConfig, LiveEngine, RunReport, Scenario};
use flexpipe_sim::SimTime;
use flexpipe_workload::{Request, RequestId, Workload};

use crate::probe::Probe;
use crate::report::{repeat, unfinished, Layers, Rep, Run};
use crate::sweep::{quantile, KINDS};

/// Seed replicas: the simulated metrics are their mean.
const REPLICAS: u32 = 4;

/// Virtual seconds per wall second of the wall-paced pacer pass.
const WALL_TIME_SCALE: f64 = 600.0;

/// Four single-stage Llama2-7B replicas at 40 req/s for an hour of
/// arrivals: below the SLO cliff, so the gateway serves rather than
/// queues.
pub fn live_gateway_spec(seed: u64) -> ServeSpec {
    ServeSpec {
        name: "live-gateway".into(),
        seed,
        rate: 40.0,
        horizon_secs: 3600.0,
        ..pinned_live_spec()
    }
}

/// The fleet-style steady-state summary of a one-shard outcome.
fn summarize(spec: &ServeSpec, out: &ServeOutcome) -> CellMetrics {
    assert_eq!(out.reports.len(), 1, "the live workload runs one shard");
    let cut = SimTime::from_secs_f64(spec.warmup_secs);
    let offered = out
        .recording
        .arrivals
        .iter()
        .filter(|a| a.stamp >= cut)
        .count();
    summarize_cell(
        &out.reports[0].report,
        spec.warmup_secs,
        spec.horizon_secs,
        offered,
    )
}

/// One untraced run of `serve_with`.
fn plain_rep(spec: &ServeSpec, replica: usize) -> Rep {
    let started = Instant::now();
    let setup = PaperSetup::for_model(spec.model);
    let called = Instant::now();
    let out = serve_with(spec, Pacing::Virtual, &NoSpillover, &setup, TraceMode::Off)
        .expect("the live workload's spec is valid");
    let served = called.elapsed().as_secs_f64();
    let metrics = summarize(spec, &out);
    Rep {
        replica,
        wall_s: started.elapsed().as_secs_f64(),
        setup_s: (called - started).as_secs_f64(),
        loop_s: served,
        events: out.reports.iter().map(|r| r.report.events).sum(),
        served_secs: served,
        metrics,
        unfinished: unfinished(&out.reports[0].report),
    }
}

/// A one-thread gateway driver built from the gateway's public parts:
/// the same schedule, routing and injection rule as `serve_with` with
/// virtual pacing, every call timed. Returns the repetition, its layers
/// and its shard report, which must equal `serve_with`'s.
fn traced_rep(spec: &ServeSpec, replica: usize) -> (Rep, Layers, ShardReport) {
    let started = Instant::now();
    let mut layers = Layers::default();
    let probe = Probe::default();
    let setup = layers.span("partition.setup_s", || PaperSetup::for_model(spec.model));
    let schedule = layers.span("workload.generate_s", || spec.schedule());
    let ring = HashRing::new(spec.shards, spec.vnodes);
    let cluster = spec.shard_clusters().remove(0);
    let engine = layers.span("serving.new_s", || {
        let scenario = Scenario {
            config: EngineConfig {
                max_events: spec.max_events,
                ubatch_size: spec.ubatch_size,
                ..EngineConfig::default()
            },
            cluster,
            background: BackgroundProfile::none(),
            tier: Default::default(),
            cost: setup.cost,
            workload: Workload::default(),
            disruptions: DisruptionScript::default(),
            horizon: SimTime::from_secs_f64(spec.span_secs() + 30.0),
            seed: mix64(spec.seed),
        };
        let policy = probe.wrap(spec.shard_policy(), true);
        let mut engine = Engine::new(scenario, setup.graph.clone(), setup.lattice.clone(), policy);
        engine.set_profiler(true);
        engine
    });
    let mut live = layers.span("serving.prime_s", || LiveEngine::new(engine));
    let init_done = probe.stats().init_done.expect("priming calls init");

    let (mut route, mut advance, mut push) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut last = SimTime::ZERO;
    let loop_started = Instant::now();
    for req in &schedule.requests {
        let t = Instant::now();
        let shard = ring.route(req.id.0);
        route += t.elapsed();
        assert_eq!(shard, 0, "one shard takes every request");
        let stamp = req.arrival.max(last);
        last = stamp;
        let t = Instant::now();
        live.advance_before(stamp);
        advance += t.elapsed();
        let t = Instant::now();
        let local = live.arrivals() as u64;
        live.push_arrival(Request {
            id: RequestId(local),
            arrival: stamp,
            prompt_tokens: req.prompt_tokens,
            output_tokens: req.output_tokens,
            slo: req.slo,
        });
        push += t.elapsed();
    }
    let loop_s = loop_started.elapsed().as_secs_f64();
    layers.add("serving.loop_s", loop_s, true);
    let observed = layers.span("serving.finish_s", || live.finish());
    let report = observed.report;
    let arrivals = schedule.requests.len() as u64;
    let (shard, metrics) = layers.span("bench.summarize_s", || {
        let cut = SimTime::from_secs_f64(spec.warmup_secs);
        let offered = schedule
            .requests
            .iter()
            .filter(|r| r.arrival >= cut)
            .count();
        let metrics = summarize_cell(&report, spec.warmup_secs, spec.horizon_secs, offered);
        (shard_report(spec, arrivals, report), metrics)
    });
    let wall = started.elapsed().as_secs_f64();

    let n = schedule.requests.len() as f64;
    layers.count("workload.requests", n);
    let generate = layers.get("workload.generate_s").unwrap_or(0.0);
    layers.add("gateway.schedule_s", generate, false);
    let finish = layers.get("serving.finish_s").unwrap_or(0.0);
    layers.add("gateway.finish_s", finish, false);
    layers.count("gateway.route.calls", n);
    layers.add("gateway.route.total_s", route.as_secs_f64(), false);
    layers.count("gateway.advance.calls", n);
    layers.add("gateway.advance.total_s", advance.as_secs_f64(), false);
    layers.count("gateway.push.calls", n);
    layers.add("gateway.push.total_s", push.as_secs_f64(), false);
    // The engine's own dispatch profiler times each event including the
    // policy callback it makes; take the callback out for self time.
    let policy_of = |kind: &str| {
        let st = probe.stats();
        let cb = match kind {
            "control_tick" => 0,
            "arrival" => 1,
            "instance_ready" => 2,
            "policy_action" => 3,
            "disruption" => 4,
            "revoke" => 5,
            _ => return 0.0,
        };
        st.total[cb].as_secs_f64()
    };
    for kind in KINDS {
        let calls = observed.profiler.calls(kind) as f64;
        let total = observed.profiler.total_secs(kind);
        layers.count(&format!("serving.{kind}.count"), calls);
        layers.add(
            &format!("serving.{kind}.self_s"),
            (total - policy_of(kind)).max(0.0),
            false,
        );
    }
    layers.policy(&probe);
    layers.report_counters(&shard.report, spec.warmup_secs);
    let rep = Rep {
        replica,
        wall_s: wall,
        setup_s: (init_done - started).as_secs_f64(),
        loop_s,
        events: shard.report.events,
        served_secs: wall,
        metrics,
        unfinished: unfinished(&shard.report),
    };
    layers.finish_coverage(wall);
    (rep, layers, shard)
}

/// `serve_with`'s per-shard summary, recomputed from public parts.
fn shard_report(spec: &ServeSpec, arrivals: u64, report: RunReport) -> ShardReport {
    let cut = SimTime::from_secs_f64(spec.warmup_secs);
    let mut ttft = Digest::new();
    let (mut completed, mut within_slo) = (0, 0);
    for o in report.outcomes.outcomes() {
        if o.arrival < cut {
            continue;
        }
        completed += 1;
        within_slo += usize::from(o.within_slo());
        ttft.record(o.queue.as_secs_f64() + o.prefill.as_secs_f64());
    }
    ShardReport {
        shard: 0,
        cluster: format!("{}-cluster-shard0of{}", spec.name, spec.shards),
        arrivals,
        completed,
        within_slo,
        p50_ttft: ttft.quantile(0.5),
        p99_ttft: ttft.quantile(0.99),
        report,
    }
}

/// One wall-paced pass: how late the pacer released each request, and
/// the SLO attainment when arrivals are stamped by the wall clock.
fn pacer_pass(spec: &ServeSpec, layers: &mut Layers) {
    let setup = PaperSetup::for_model(spec.model);
    let schedule = spec.schedule();
    let pacing = Pacing::Wall {
        time_scale: WALL_TIME_SCALE,
    };
    let out = serve_with(spec, pacing, &NoSpillover, &setup, TraceMode::Off)
        .expect("the live workload's spec is valid");
    let mut lag_ms: Vec<f64> = out
        .recording
        .arrivals
        .iter()
        .zip(&schedule.requests)
        .map(|(a, r)| (a.stamp.as_secs_f64() - r.arrival.as_secs_f64()) / WALL_TIME_SCALE * 1e3)
        .collect();
    lag_ms.sort_by(f64::total_cmp);
    layers.value("gateway.pacer.lag_p50_ms", quantile(&lag_ms, 0.5), "ms");
    layers.value("gateway.pacer.lag_p99_ms", quantile(&lag_ms, 0.99), "ms");
    layers.value("gateway.pacer.lag_max_ms", quantile(&lag_ms, 1.0), "ms");
    layers.value(
        "gateway.wall.sim_slo_attainment",
        summarize(spec, &out).slo_attainment,
        "frac",
    );
}

/// Runs the live workload for `budget` and checks its outputs.
pub fn run(base: &ServeSpec, budget: Duration, traced: bool) -> Run {
    let specs: Vec<ServeSpec> = (0..REPLICAS)
        .map(|i| ServeSpec {
            seed: replica_seed(base.seed, i),
            ..base.clone()
        })
        .collect();
    let replicas = specs.len();
    let mut run = Run::default();
    let plain_budget = if traced { budget / 2 } else { budget };
    run.measure(plain_budget, replicas, replicas.max(3), |i| {
        plain_rep(&specs[i], i)
    });
    let mut shards = Vec::new();
    if traced {
        let reps = repeat(budget / 2, replicas, 1, |i| {
            let (rep, layers, shard) = traced_rep(&specs[i], i);
            if i == 0 {
                shards.push(shard);
            }
            (rep, layers)
        });
        run.set_traced(reps);
    }

    for (i, spec) in specs.iter().enumerate() {
        run.judge(
            i,
            &spec.schedule().requests,
            SimTime::from_secs_f64(spec.warmup_secs),
            SimTime::from_secs_f64(spec.span_secs() + 30.0),
        );
    }
    run.check_repeats();
    let setup = PaperSetup::for_model(base.model);
    let reference = serve_with(
        &specs[0],
        Pacing::Virtual,
        &NoSpillover,
        &setup,
        TraceMode::Off,
    )
    .expect("the live workload's spec is valid");
    let reference_json = reference.reports[0].to_json();
    if traced {
        run.check(
            "one-thread gateway driver's shard report equals serve_with's",
            shards.iter().all(|s| s.to_json() == reference_json),
        );
    }
    let replayed = replay_with(&reference.recording, &setup, TraceMode::Off)
        .expect("a recording of this build replays");
    run.check(
        "recording replays byte-identically",
        replayed.recording.to_json() == reference.recording.to_json()
            && replayed.reports.len() == 1
            && replayed.reports[0].to_json() == reference_json,
    );
    if traced {
        pacer_pass(&specs[0], &mut run.layers);
    }
    run
}
