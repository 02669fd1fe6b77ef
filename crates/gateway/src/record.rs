//! The serve specification and the arrival recording — the two halves
//! of the record/replay contract.
//!
//! A [`ServeSpec`] describes everything *static* about a live run: the
//! model, the sharded cluster, the per-shard policy, the open-loop
//! generator and the horizon. A [`Recording`] adds everything *dynamic*
//! a live run discovered at wall-clock time: for each request, its
//! final (post-spillover) shard and the virtual stamp its shard
//! assigned at dequeue. Spec + recording together make any live run a
//! deterministic artifact: replaying a recording re-executes the exact
//! event sequence and produces byte-identical per-shard reports.

use flexpipe_cluster::ClusterSpec;
use flexpipe_model::ModelId;
use flexpipe_serving::ControlPolicy;
use flexpipe_sim::{SimDuration, SimRng, SimTime};
use flexpipe_workload::{check_arrival_budget, ArrivalSpec, LengthProfile, Workload, WorkloadSpec};

use serde::{Deserialize, Serialize};

use crate::GatewayError;

/// Per-shard control policy, by construction recipe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShardPolicy {
    /// A fixed fleet of `replicas` pipelines (fleet-wide total; split
    /// evenly across shards) at `stages` stages each. The pinned
    /// configuration of the live scaling gate.
    Static {
        /// Pipeline depth.
        stages: u32,
        /// Fleet-wide replica count; must divide by the shard count.
        replicas: u32,
    },
    /// FlexPipe's full Algorithm-1 control loop, sized for this shard's
    /// slice of the offered rate.
    FlexPipe,
}

/// Complete static description of a live-serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSpec {
    /// Run name, used in artifact headers and shard cluster names.
    pub name: String,
    /// Model being served.
    pub model: ModelId,
    /// Root seed of the open-loop generator.
    pub seed: u64,
    /// Engine shard count.
    pub shards: u32,
    /// Consistent-hash virtual nodes per shard.
    pub vnodes: u32,
    /// Serving horizon (virtual seconds of arrivals past warmup).
    pub horizon_secs: f64,
    /// Warmup window excluded from steady-state summaries.
    pub warmup_secs: f64,
    /// Open-loop arrival rate, requests/second across all shards.
    pub rate: f64,
    /// Coefficient of variation of inter-arrival gaps.
    pub cv: f64,
    /// Request length profile.
    pub lengths: LengthProfile,
    /// Base latency SLO, seconds.
    pub slo_secs: f64,
    /// Additional SLO budget per generated token, milliseconds.
    pub slo_per_output_token_ms: f64,
    /// Per-shard control policy.
    pub policy: ShardPolicy,
    /// Cluster servers (split across shards via [`ClusterSpec::partition`]).
    pub nodes: u32,
    /// Cluster GPU total.
    pub total_gpus: u32,
    /// Servers per rack.
    pub servers_per_rack: u32,
    /// Per-shard engine step budget.
    pub max_events: u64,
    /// Decode micro-batch size (smaller batches mean more engine passes
    /// per token — the knob the scaling bench uses to keep engine
    /// execution dominant over orchestration overhead).
    pub ubatch_size: u32,
}

impl ServeSpec {
    /// A small template spec: 2 shards over a 4-replica single-stage
    /// Llama2-7B fleet under light traffic — the shape `fleet serve`
    /// writes with `init` and CI smokes.
    pub fn template() -> ServeSpec {
        ServeSpec {
            name: "live-smoke".into(),
            model: ModelId::Llama2_7B,
            seed: 7,
            shards: 2,
            vnodes: 64,
            horizon_secs: 8.0,
            warmup_secs: 2.0,
            rate: 10.0,
            cv: 2.0,
            lengths: LengthProfile::fixed(64, 4),
            slo_secs: 2.0,
            slo_per_output_token_ms: 100.0,
            policy: ShardPolicy::Static {
                stages: 1,
                replicas: 4,
            },
            nodes: 9,
            total_gpus: 16,
            servers_per_rack: 8,
            max_events: 200_000_000,
            ubatch_size: 128,
        }
    }

    /// Validates the spec: positive counts and rates, a cluster that
    /// splits into the requested shards, a policy that divides evenly.
    pub fn validate(&self) -> Result<(), GatewayError> {
        let err = |m: String| Err(GatewayError(m));
        if self.shards == 0 {
            return err("shards must be positive".into());
        }
        if self.vnodes == 0 {
            return err("vnodes must be positive".into());
        }
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return err(format!(
                "rate must be finite and positive, got {}",
                self.rate
            ));
        }
        if !(self.cv.is_finite() && self.cv > 0.0) {
            return err(format!("cv must be finite and positive, got {}", self.cv));
        }
        if !(self.horizon_secs.is_finite() && self.horizon_secs > 0.0) {
            return err("horizon must be finite and positive".into());
        }
        if !(self.warmup_secs.is_finite() && self.warmup_secs >= 0.0) {
            return err("warmup must be finite and non-negative".into());
        }
        if self.nodes < self.shards {
            return err(format!(
                "{} servers cannot split into {} shards",
                self.nodes, self.shards
            ));
        }
        if self.total_gpus < self.nodes {
            return err("need at least one GPU per node".into());
        }
        if let ShardPolicy::Static { stages, replicas } = self.policy {
            if stages == 0 || replicas == 0 {
                return err("static policy needs positive stages and replicas".into());
            }
            if replicas % self.shards != 0 {
                return err(format!(
                    "{replicas} replicas do not divide across {} shards",
                    self.shards
                ));
            }
        }
        if self.max_events == 0 {
            return err("max_events must be positive".into());
        }
        if self.ubatch_size == 0 {
            return err("ubatch_size must be positive".into());
        }
        check_arrival_budget(self.rate, self.span_secs()).map_err(GatewayError)
    }

    /// The arrival span (warmup + horizon), virtual seconds.
    pub fn span_secs(&self) -> f64 {
        self.warmup_secs + self.horizon_secs
    }

    /// Generates the open-loop arrival schedule deterministically from
    /// the seed: the stream the generator paces out, with fleet-global
    /// dense request ids.
    pub fn schedule(&self) -> Workload {
        WorkloadSpec {
            arrivals: ArrivalSpec::GammaRenewal {
                rate: self.rate,
                cv: self.cv,
            },
            lengths: self.lengths,
            slo: SimDuration::from_secs_f64(self.slo_secs),
            slo_per_output_token: SimDuration::from_secs_f64(self.slo_per_output_token_ms / 1e3),
            horizon_secs: self.span_secs(),
        }
        .generate(&mut SimRng::seed(self.seed))
    }

    /// The shard cluster partitions (one [`ClusterSpec`] per shard).
    pub fn shard_clusters(&self) -> Vec<ClusterSpec> {
        ClusterSpec::heterogeneous(
            &format!("{}-cluster", self.name),
            self.nodes,
            self.total_gpus,
            self.servers_per_rack,
        )
        .partition(self.shards)
    }

    /// Builds shard `i`'s control policy.
    pub fn shard_policy(&self) -> Box<dyn ControlPolicy> {
        match self.policy {
            ShardPolicy::Static { stages, replicas } => {
                flexpipe_bench::systems::static_pipeline(stages, replicas / self.shards)
            }
            ShardPolicy::FlexPipe => {
                flexpipe_bench::SystemId::FlexPipe.policy(self.rate / f64::from(self.shards))
            }
        }
    }
}

/// The cross-shard checker workload: the template fleet under traffic
/// light enough that requests essentially never contend for a replica —
/// the regime where sharding must be invisible to request lifecycles
/// (`flexpipe-check`'s `check_cross_shard` compares the `shards`-way run
/// against the 1-shard canonical trace). `shards` must divide the
/// template's 4 replicas (1, 2 or 4).
pub fn cross_shard_check_spec(shards: u32) -> ServeSpec {
    ServeSpec {
        name: "cross-shard-check".into(),
        shards,
        rate: 2.0,
        // Near-regular gaps (gamma with cv 0.25): ~500ms between
        // arrivals against ~10ms of service keeps every request alone on
        // its replica, so its lifecycle timing is shard-independent.
        cv: 0.25,
        horizon_secs: 10.0,
        warmup_secs: 0.0,
        ..ServeSpec::template()
    }
}

/// Current [`Recording::version`].
pub const RECORDING_VERSION: u32 = 1;

/// One recorded arrival: the dynamic facts replay needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecordedArrival {
    /// Fleet-global request id, dense in send order.
    pub id: u64,
    /// Final (post-spillover) shard assignment.
    pub shard: u32,
    /// Virtual stamp the shard assigned at dequeue.
    pub stamp: SimTime,
    /// Prompt length, tokens.
    pub prompt_tokens: u32,
    /// Generation length, tokens.
    pub output_tokens: u32,
    /// Latency SLO.
    pub slo: SimDuration,
}

/// A live run's replayable trace: the spec plus every recorded arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recording {
    /// Format version ([`RECORDING_VERSION`]).
    pub version: u32,
    /// The static run description.
    pub spec: ServeSpec,
    /// Recorded arrivals, in fleet-global id order.
    pub arrivals: Vec<RecordedArrival>,
}

impl Recording {
    /// Serializes to pretty JSON with a trailing newline (the repo's
    /// byte-stable artifact convention).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("recording serializes");
        s.push('\n');
        s
    }

    /// Parses and version-checks a recording.
    pub fn from_json(text: &str) -> Result<Recording, GatewayError> {
        let rec: Recording =
            serde_json::from_str(text).map_err(|e| GatewayError(format!("recording: {e}")))?;
        if rec.version != RECORDING_VERSION {
            return Err(GatewayError(format!(
                "recording is format version {} (this build expects {})",
                rec.version, RECORDING_VERSION
            )));
        }
        rec.spec.validate()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_validates_and_schedules_deterministically() {
        let spec = ServeSpec::template();
        spec.validate().unwrap();
        let a = spec.schedule();
        let b = spec.schedule();
        assert_eq!(a, b, "schedule must be a pure function of the spec");
        assert!(!a.is_empty());
        assert_eq!(spec.shard_clusters().len(), 2);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = ServeSpec::template();
        spec.shards = 0;
        assert!(spec.validate().is_err());
        let mut spec = ServeSpec::template();
        spec.rate = 0.0;
        assert!(spec.validate().is_err());
        let mut spec = ServeSpec::template();
        spec.shards = 3; // 4 replicas don't divide by 3
        assert!(spec.validate().is_err());
        let mut spec = ServeSpec::template();
        spec.nodes = 1;
        assert!(spec.validate().is_err(), "1 server cannot host 2 shards");
    }

    #[test]
    fn recording_round_trips_and_rejects_foreign_versions() {
        let rec = Recording {
            version: RECORDING_VERSION,
            spec: ServeSpec::template(),
            arrivals: vec![RecordedArrival {
                id: 0,
                shard: 1,
                stamp: SimTime::from_secs_f64(0.25),
                prompt_tokens: 64,
                output_tokens: 4,
                slo: SimDuration::from_secs_f64(2.0),
            }],
        };
        let json = rec.to_json();
        assert!(json.ends_with('\n'));
        assert_eq!(Recording::from_json(&json).unwrap(), rec);

        let mut foreign = rec.clone();
        foreign.version = RECORDING_VERSION + 1;
        let err = Recording::from_json(&foreign.to_json()).unwrap_err();
        assert!(err.0.contains("format version"));
    }
}
