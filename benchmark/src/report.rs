//! Measurement records, medians, per-layer spans and the result line.

use std::time::{Duration, Instant};

use flexpipe_fleet::CellMetrics;
use flexpipe_serving::RunReport;
use flexpipe_sim::SimTime;
use flexpipe_workload::Request;

use crate::probe::{Probe, CALLBACKS};

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Which of the workload's seed replicas it ran.
    pub replica: usize,
    /// Wall time of the repetition.
    pub wall_s: f64,
    /// Wall time before the first engine event.
    pub setup_s: f64,
    /// Wall time of the event loop.
    pub loop_s: f64,
    /// Engine events fired.
    pub events: u64,
    /// Denominator of `served_qps`: the whole repetition for the sweep
    /// workloads, the `serve_with` call for the gateway.
    pub served_secs: f64,
    /// Simulated steady-state metrics.
    pub metrics: CellMetrics,
    /// Ids of the requests the run never completed.
    pub unfinished: Vec<u64>,
}

/// Ids of the requests a run never completed (request ids are dense).
pub fn unfinished(report: &RunReport) -> Vec<u64> {
    let mut done = vec![false; report.arrived];
    for o in report.outcomes.outcomes() {
        if let Some(d) = done.get_mut(o.id as usize) {
            *d = true;
        }
    }
    (0..report.arrived as u64)
        .filter(|&i| !done[i as usize])
        .collect()
}

/// Runs `rep(replica)` with the replica cycling through
/// `0..replicas`, until `budget` has passed and at least `min_reps`
/// times.
pub fn repeat<T>(
    budget: Duration,
    replicas: usize,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> T,
) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || started.elapsed() < budget {
        out.push(rep(out.len() % replicas));
    }
    out
}

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One per-layer value.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// A top-level span: top-level spans partition a traced
    /// repetition's wall time, and what they miss is unattributed.
    pub top_level: bool,
}

/// The per-layer values of one traced repetition, in recording order.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub Vec<Layer>);

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, top_level: bool) {
        match self.0.iter_mut().find(|l| l.name == name) {
            Some(l) => l.value += value,
            None => self.0.push(Layer {
                name: name.to_string(),
                value,
                unit,
                top_level,
            }),
        }
    }

    /// Times `f` as the top-level span `name` (repeated spans add up).
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.put(name, started.elapsed().as_secs_f64(), "s", true);
        out
    }

    /// Adds `secs` of wall time to the timing `name`.
    pub fn add(&mut self, name: &str, secs: f64, top_level: bool) {
        self.put(name, secs, "s", top_level);
    }

    /// Records simulated (virtual) seconds, which repeat exactly for a
    /// seed and so are kept apart from wall time by their unit.
    pub fn sim_secs(&mut self, name: &str, secs: f64) {
        self.put(name, secs, "sim_s", false);
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, n: f64) {
        self.put(name, n, "count", false);
    }

    /// Records a value in an explicit unit.
    pub fn value(&mut self, name: &str, v: f64, unit: &'static str) {
        self.put(name, v, unit, false);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|l| l.name == name).map(|l| l.value)
    }

    /// The policy layer as the probe saw it.
    pub fn policy(&mut self, probe: &Probe) {
        let st = probe.stats();
        self.add("core.init_s", st.init.as_secs_f64(), false);
        for (i, cb) in CALLBACKS.iter().enumerate() {
            self.count(&format!("core.{cb}.calls"), st.calls[i] as f64);
            self.add(
                &format!("core.{cb}.total_s"),
                st.total[i].as_secs_f64(),
                false,
            );
        }
        let mut ticks: Vec<f64> = st.tick_samples.iter().map(Duration::as_secs_f64).collect();
        ticks.sort_by(f64::total_cmp);
        self.value(
            "core.on_tick.p99_us",
            crate::sweep::quantile(&ticks, 0.99) * 1e6,
            "us",
        );
    }

    /// Simulated counters of one engine report.
    pub fn report_counters(&mut self, r: &RunReport, warmup_secs: f64) {
        self.count("serving.spawns", f64::from(r.spawns));
        self.count("serving.refactors", f64::from(r.refactors));
        self.sim_secs("serving.refactor_pause_s", r.refactor_pause_secs);
        self.value("serving.warm_load_frac", r.warm_load_fraction(), "frac");
        self.count("serving.cold_loads", f64::from(r.cold_loads));
        self.sim_secs("serving.mean_init_s", r.mean_init_secs);
        self.sim_secs("serving.mean_alloc_wait_s", r.mean_alloc_wait_secs);
        self.count(
            "serving.revocations",
            f64::from(r.disruptions.revocation_events),
        );
        self.count(
            "serving.requests_replayed",
            f64::from(r.disruptions.requests_replayed),
        );
        self.count("serving.tokens_lost", r.disruptions.tokens_lost as f64);
        let (p50, p99) = crate::sweep::queue_waits(r, warmup_secs);
        self.sim_secs("serving.queue_wait_p50_s", p50);
        self.sim_secs("serving.queue_wait_p99_s", p99);
    }

    /// Closes a traced repetition of `wall_s`: the wall time no
    /// top-level span covers, and the share they do.
    pub fn finish_coverage(&mut self, wall_s: f64) {
        let covered: f64 = self.0.iter().filter(|l| l.top_level).map(|l| l.value).sum();
        self.add("bench.unattributed_s", wall_s - covered, false);
        self.value("bench.span_coverage", covered / wall_s, "frac");
    }

    /// Per-name median across repetitions (names of the first one).
    pub fn median_of(reps: &[Layers]) -> Layers {
        let Some(first) = reps.first() else {
            return Layers::default();
        };
        Layers(
            first
                .0
                .iter()
                .map(|l| {
                    let values: Vec<f64> = reps.iter().filter_map(|r| r.get(&l.name)).collect();
                    Layer {
                        value: median(&values),
                        ..l.clone()
                    }
                })
                .collect(),
        )
    }
}

/// Everything one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Untraced repetitions (the end-to-end measurement).
    pub plain: Vec<Rep>,
    /// Traced repetitions (traced runs only).
    pub traced: Vec<Rep>,
    /// Per-layer medians over the traced repetitions.
    pub layers: Layers,
    /// Correctness checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    /// Peak resident set after the first untraced repetition, MiB.
    pub peak_rss_mb: f64,
    /// Per replica: requests judged and judged requests that failed in
    /// one repetition (see [`Run::judge`]).
    pub judged: Vec<(u64, u64)>,
}

impl Run {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// The first untraced repetition of `replica`.
    pub fn first_of(&self, replica: usize) -> &Rep {
        self.plain
            .iter()
            .find(|r| r.replica == replica)
            .expect("every replica runs untraced at least once")
    }

    /// Every repetition of a replica, traced or not, simulated the same
    /// outcome, and none was truncated or failed.
    pub fn check_repeats(&mut self) {
        let ok = self
            .plain
            .iter()
            .chain(&self.traced)
            .all(|r| r.metrics == self.first_of(r.replica).metrics);
        self.check(
            "every repetition of a replica simulates the same outcome",
            ok,
        );
        let whole = self
            .plain
            .iter()
            .chain(&self.traced)
            .all(|r| !r.metrics.truncated && !r.metrics.failed);
        self.check("no repetition truncated or failed", whole);
    }

    /// Runs the untraced repetitions (see [`repeat`]). The peak
    /// resident set is read after the first: one run of the workload in
    /// a fresh process. Later repetitions reuse memory the allocator
    /// kept, by an amount that depends on how many fit the budget.
    pub fn measure(
        &mut self,
        budget: Duration,
        replicas: usize,
        min_reps: usize,
        mut rep: impl FnMut(usize) -> Rep,
    ) {
        let mut first_rss = None;
        self.plain = repeat(budget, replicas, min_reps, |i| {
            let r = rep(i);
            first_rss.get_or_insert_with(peak_rss_kib);
            r
        });
        self.peak_rss_mb = first_rss.unwrap_or(0.0) / 1024.0;
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Judges the requests of `replica` (indexed by id). A request
    /// offered after warmup fails when it never completes although its
    /// SLO deadline falls inside the simulated run, which ends at `end`.
    /// One still in flight at the end with its deadline past it is
    /// neither: the run cannot judge it.
    pub fn judge(&mut self, replica: usize, requests: &[Request], warmup: SimTime, end: SimTime) {
        let offered = requests.iter().filter(|r| r.arrival >= warmup).count() as u64;
        let (mut failed, mut unjudged) = (0, 0);
        for &id in &self.first_of(replica).unfinished {
            let r = &requests[id as usize];
            if r.arrival < warmup {
                continue;
            }
            if r.arrival + r.slo <= end {
                failed += 1;
            } else {
                unjudged += 1;
            }
        }
        if self.judged.len() <= replica {
            self.judged.resize(replica + 1, (0, 0));
        }
        self.judged[replica] = (offered - unjudged, failed);
    }

    fn tally(&self, pick: fn((u64, u64)) -> u64) -> u64 {
        self.plain
            .iter()
            .chain(&self.traced)
            .map(|r| pick(self.judged[r.replica]))
            .sum()
    }

    /// Requests judged across every measured repetition.
    pub fn attempted(&self) -> u64 {
        self.tally(|(judged, _)| judged)
    }

    /// Judged requests that failed across every measured repetition.
    pub fn failed(&self) -> u64 {
        self.tally(|(_, failed)| failed)
    }

    /// The end-to-end metrics, by name: host
    /// times are medians over the untraced repetitions, simulated
    /// metrics medians over the replicas (a replica that stalls shows in
    /// `failed`, not as a jump in every simulated metric).
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let col = |f: fn(&Rep) -> f64| median(&self.plain.iter().map(f).collect::<Vec<_>>());
        let replicas = self.judged.len().max(1);
        let sim = |f: fn(&CellMetrics) -> f64| {
            median(
                &(0..replicas)
                    .map(|i| f(&self.first_of(i).metrics))
                    .collect::<Vec<_>>(),
            )
        };
        vec![
            ("wall_s", col(|r| r.wall_s)),
            ("setup_s", col(|r| r.setup_s)),
            ("events_per_s", col(|r| r.events as f64 / r.loop_s)),
            (
                "served_qps",
                col(|r| r.metrics.completed as f64 / r.served_secs),
            ),
            ("peak_rss_mb", self.peak_rss_mb),
            ("sim_slo_attainment", sim(|m| m.slo_attainment)),
            ("sim_ttft_p50_s", sim(|m| m.p50_ttft)),
            ("sim_ttft_p99_s", sim(|m| m.p99_ttft)),
            ("sim_tpot_p99_s", sim(|m| m.p99_tpot)),
            ("sim_gpus_held", sim(|m| m.mean_gpus_held)),
        ]
    }

    /// Stores the traced repetitions: per-layer medians, the tracing
    /// overhead against the untraced median, and the span-coverage
    /// self-test on every traced repetition.
    pub fn set_traced(&mut self, reps: Vec<(Rep, Layers)>) {
        let (reps, layers): (Vec<Rep>, Vec<Layers>) = reps.into_iter().unzip();
        let worst = layers
            .iter()
            .map(|l| l.get("bench.span_coverage").unwrap_or(0.0))
            .fold(f64::INFINITY, f64::min);
        self.check(
            "traced top-level spans cover at least 95% of wall time",
            worst >= 0.95,
        );
        self.traced = reps;
        self.layers = Layers::median_of(&layers);
        let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let plain = wall(&self.plain);
        self.layers.value(
            "bench.trace_overhead_frac",
            (wall(&self.traced) - plain) / plain,
            "frac",
        );
    }
}

/// `VmHWM` of this process, KiB.
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}
