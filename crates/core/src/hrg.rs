//! The Hierarchical Resource Graph (§7): topology-aware resource
//! coordination across server / rack / cluster levels.
//!
//! The HRG annotates the physical hierarchy with *scaling-event markers*:
//! when a scaling operation lands on a server, concurrent operations should
//! route elsewhere — contending for the same PCIe links, NIC and storage
//! path is exactly what makes parallel scale-outs slow. Markers decay
//! exponentially, so the penalty is transient.
//!
//! It also implements the Eq. (13) affinity scheduler: servers that
//! recently hosted this model score higher (their host caches are warm),
//! weighted by temporal decay and currently-available GPUs — the mechanism
//! that turns cold starts into warm starts.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use flexpipe_cluster::{Cluster, GpuId, RackId, ServerId};
use flexpipe_model::{CostModel, ModelGraph};
use flexpipe_sim::SimTime;

use crate::allocation::{AllocationOptimizer, Assignment, StageNeed};

/// HRG parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HrgParams {
    /// Scaling-event decay time constant, seconds.
    pub event_decay_secs: f64,
    /// Score penalty per (decayed) scaling event on the same server.
    pub server_event_penalty: f64,
    /// Score penalty per (decayed) scaling event in the same rack.
    pub rack_event_penalty: f64,
    /// Eq. (13) temporal affinity weight `w_t`.
    pub w_temporal: f64,
    /// Eq. (13) GPU-availability weight `w_g`.
    pub w_gpus: f64,
    /// Eq. (13) temporal decay rate λ, 1/second.
    pub affinity_decay: f64,
}

impl Default for HrgParams {
    fn default() -> Self {
        HrgParams {
            event_decay_secs: 30.0,
            server_event_penalty: 0.8,
            rack_event_penalty: 0.2,
            w_temporal: 1.0,
            w_gpus: 0.05,
            affinity_decay: 1.0 / 120.0,
        }
    }
}

/// The HRG state: event markers and model-hosting history.
#[derive(Debug, Clone)]
pub struct Hrg {
    params: HrgParams,
    /// Decayed-event accumulators: (last update, value).
    server_events: HashMap<ServerId, (SimTime, f64)>,
    rack_events: HashMap<RackId, (SimTime, f64)>,
    /// Last time each server hosted this model (`H_i` of Eq. 13).
    hosted: HashMap<ServerId, SimTime>,
}

impl Hrg {
    /// Creates an empty HRG.
    pub fn new(params: HrgParams) -> Self {
        Hrg {
            params,
            server_events: HashMap::new(),
            rack_events: HashMap::new(),
            hosted: HashMap::new(),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &HrgParams {
        &self.params
    }

    fn decayed(&self, entry: Option<&(SimTime, f64)>, now: SimTime) -> f64 {
        match entry {
            Some(&(at, v)) => {
                let dt = now.saturating_since(at).as_secs_f64();
                v * (-dt / self.params.event_decay_secs).exp()
            }
            None => 0.0,
        }
    }

    /// Marks a scaling event on `server` (and its rack) at `now`.
    pub fn record_scaling(&mut self, cluster: &Cluster, server: ServerId, now: SimTime) {
        let rack = cluster.topology().spec().servers[server.0 as usize].rack;
        let s = self.decayed(self.server_events.get(&server), now) + 1.0;
        self.server_events.insert(server, (now, s));
        let r = self.decayed(self.rack_events.get(&rack), now) + 1.0;
        self.rack_events.insert(rack, (now, r));
    }

    /// Records that `server` hosts (or hosted) this model at `now`.
    pub fn record_hosting(&mut self, server: ServerId, now: SimTime) {
        self.hosted.insert(server, now);
    }

    /// Current contention level of `server` (decayed event mass, server +
    /// rack shares).
    pub fn contention(&self, cluster: &Cluster, server: ServerId, now: SimTime) -> f64 {
        let rack = cluster.topology().spec().servers[server.0 as usize].rack;
        self.params.server_event_penalty * self.decayed(self.server_events.get(&server), now)
            + self.params.rack_event_penalty * self.decayed(self.rack_events.get(&rack), now)
    }

    /// Eq. (13) affinity score of `server`.
    pub fn affinity(&self, cluster: &Cluster, server: ServerId, now: SimTime) -> f64 {
        let temporal = match self.hosted.get(&server) {
            Some(&t) => {
                let dt = now.saturating_since(t).as_secs_f64();
                self.params.w_temporal * (-self.params.affinity_decay * dt).exp()
            }
            None => 0.0,
        };
        // |g_s ∩ G_avail|: available (≥ 25% free) GPUs on the server.
        let cap = cluster.gpu_mem_capacity();
        let avail = cluster
            .topology()
            .gpus_on(server)
            .iter()
            .filter(|&&g| cluster.free_mem(g) >= cap / 4)
            .count() as f64;
        temporal + self.params.w_gpus * avail
    }

    /// Net placement bias of `server`: affinity bonus minus contention
    /// penalty. The one definition behind both [`Hrg::bias`] and the
    /// per-server table of [`Hrg::place`], so their scores agree bit for
    /// bit.
    pub(crate) fn server_bias(&self, cluster: &Cluster, server: ServerId, now: SimTime) -> f64 {
        self.affinity(cluster, server, now) - self.contention(cluster, server, now)
    }

    /// Net per-GPU placement bias: affinity bonus minus contention penalty
    /// of the hosting server.
    pub fn bias(&self, cluster: &Cluster, gpu: GpuId, now: SimTime) -> f64 {
        self.server_bias(cluster, cluster.topology().gpu(gpu).server, now)
    }

    /// Topology-aware placement: runs the Eq. (6)–(9) optimizer with the
    /// HRG bias, then records scaling events on the chosen servers.
    ///
    /// The bias is evaluated once per server up front (O(G) in total) and
    /// looked up per candidate GPU, so scoring never rescans a server.
    #[allow(clippy::too_many_arguments)]
    pub fn place(
        &mut self,
        cluster: &Cluster,
        graph: &ModelGraph,
        cost: &CostModel,
        optimizer: &AllocationOptimizer,
        interference_coeff: f64,
        needs: &[StageNeed],
        forbidden: &[GpuId],
        cv: f64,
        now: SimTime,
    ) -> Option<Assignment> {
        let topo = cluster.topology();
        let candidates: Vec<GpuId> = topo.gpus().iter().map(|g| g.id).collect();
        let server_bias: Vec<f64> = (0..topo.server_count() as u32)
            .map(|s| self.server_bias(cluster, ServerId(s), now))
            .collect();
        let assignment = optimizer.assign_biased(
            cluster,
            graph,
            cost,
            interference_coeff,
            needs,
            &candidates,
            forbidden,
            cv,
            &|g| server_bias[topo.gpu(g).server.0 as usize],
        )?;
        for &g in &assignment.gpus {
            let server = cluster.topology().gpu(g).server;
            self.record_scaling(cluster, server, now);
            self.record_hosting(server, now);
        }
        Some(assignment)
    }
}

#[cfg(test)]
mod placement_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationParams;
    use flexpipe_cluster::ClusterSpec;
    use flexpipe_model::{even_layer_ranges, zoo};

    fn setup() -> (Cluster, ModelGraph, CostModel, AllocationOptimizer, Hrg) {
        (
            Cluster::new(ClusterSpec::paper_testbed()),
            zoo::llama2_7b(),
            CostModel::default(),
            AllocationOptimizer::new(AllocationParams::default()),
            Hrg::new(HrgParams::default()),
        )
    }

    fn needs(graph: &ModelGraph, cost: &CostModel, stages: u32) -> Vec<StageNeed> {
        even_layer_ranges(graph, stages)
            .into_iter()
            .map(|r| StageNeed {
                range: r,
                mem_bytes: cost.stage_mem_bytes(graph, r, 8),
            })
            .collect()
    }

    #[test]
    fn scaling_events_decay() {
        let (cluster, _, _, _, mut hrg) = setup();
        let s = ServerId(3);
        hrg.record_scaling(&cluster, s, SimTime::from_secs(0));
        let fresh = hrg.contention(&cluster, s, SimTime::from_secs(0));
        let later = hrg.contention(&cluster, s, SimTime::from_secs(60));
        assert!(fresh > 0.5);
        assert!(later < fresh / 4.0, "fresh {fresh} later {later}");
    }

    #[test]
    fn rack_contention_spills_to_neighbors() {
        let (cluster, _, _, _, mut hrg) = setup();
        // Servers 0..6 share rack 0.
        hrg.record_scaling(&cluster, ServerId(0), SimTime::from_secs(0));
        let neighbor = hrg.contention(&cluster, ServerId(1), SimTime::from_secs(0));
        let far = hrg.contention(&cluster, ServerId(40), SimTime::from_secs(0));
        assert!(neighbor > 0.0);
        assert_eq!(far, 0.0);
    }

    #[test]
    fn affinity_prefers_recent_hosts() {
        let (cluster, _, _, _, mut hrg) = setup();
        hrg.record_hosting(ServerId(5), SimTime::from_secs(100));
        let warm = hrg.affinity(&cluster, ServerId(5), SimTime::from_secs(110));
        let cold = hrg.affinity(&cluster, ServerId(6), SimTime::from_secs(110));
        assert!(warm > cold);
        // Decay: much later the advantage shrinks.
        let later = hrg.affinity(&cluster, ServerId(5), SimTime::from_secs(1100));
        assert!(later < warm);
    }

    #[test]
    fn concurrent_scaleouts_spread_across_servers() {
        let (cluster, graph, cost, opt, mut hrg) = setup();
        let n = needs(&graph, &cost, 2);
        let now = SimTime::from_secs(10);
        let first = hrg
            .place(&cluster, &graph, &cost, &opt, 0.6, &n, &[], 1.0, now)
            .unwrap();
        let mut forbidden = first.gpus.clone();
        let second = hrg
            .place(&cluster, &graph, &cost, &opt, 0.6, &n, &forbidden, 1.0, now)
            .unwrap();
        forbidden.extend(second.gpus.clone());
        // The event markers must push the second scale-out off the first's
        // servers.
        let servers_of = |gpus: &[GpuId]| -> Vec<ServerId> {
            gpus.iter()
                .map(|&g| cluster.topology().gpu(g).server)
                .collect()
        };
        let s1 = servers_of(&first.gpus);
        let s2 = servers_of(&second.gpus);
        assert!(
            s1.iter().all(|s| !s2.contains(s)),
            "overlap between {s1:?} and {s2:?}"
        );
    }

    #[test]
    fn warm_server_attracts_respawn() {
        let (cluster, graph, cost, opt, mut hrg) = setup();
        let n = needs(&graph, &cost, 1);
        // Mark server 20 as a recent host.
        hrg.record_hosting(ServerId(20), SimTime::from_secs(50));
        let a = hrg
            .place(
                &cluster,
                &graph,
                &cost,
                &opt,
                0.6,
                &n,
                &[],
                1.0,
                SimTime::from_secs(55),
            )
            .unwrap();
        let server = cluster.topology().gpu(a.gpus[0]).server;
        assert_eq!(server, ServerId(20), "placed on {server:?}");
    }
}
