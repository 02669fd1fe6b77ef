//! Dual-tier serverless GPU provisioning (paper §2.2, §3.1, §9.6).
//!
//! Serverless platforms split capacity into an *always-on* tier (60–75% of
//! historical peak in production, which FlexPipe cuts to 30%) and an
//! *elastic* tier where GPUs must be provisioned on demand — paying a
//! multi-second scheduler/container delay — and are reclaimed by competing
//! workloads shortly after release. [`Provisioner`] models exactly that
//! lifecycle and records the allocation wait times the §9.6 case study
//! reports on.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use flexpipe_sim::{SimDuration, SimTime};

use crate::state::Cluster;
use crate::topology::GpuId;

/// Dual-tier provisioning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Provisioning delay for a cold elastic GPU (scheduler + container +
    /// runtime init; parameter loading is modelled separately).
    pub elastic_delay: SimDuration,
    /// How long a released elastic GPU stays reserved to us ("warm")
    /// before the platform reclaims it. The paper cites 5-minute windows.
    pub reclaim_window: SimDuration,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            elastic_delay: SimDuration::from_secs(4),
            reclaim_window: SimDuration::from_secs(300),
        }
    }
}

/// How an acquisition was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcquireKind {
    /// From the pinned always-on tier: usable immediately.
    AlwaysOn,
    /// A still-warm elastic GPU from a recent release: usable immediately.
    WarmElastic,
    /// A cold elastic GPU: usable after the provisioning delay.
    ColdElastic,
}

/// Result of acquiring one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Acquisition {
    /// The GPU granted.
    pub gpu: GpuId,
    /// When it becomes usable.
    pub ready_at: SimTime,
    /// Which tier satisfied the request.
    pub kind: AcquireKind,
}

/// Tracks tier membership and provisioning state for one deployment.
#[derive(Debug, Clone)]
pub struct Provisioner {
    cfg: TierConfig,
    always_on: Vec<GpuId>,
    in_use: HashMap<GpuId, AcquireKind>,
    warm: HashMap<GpuId, SimTime>, // expiry of the reclaim window
    waits: Vec<SimDuration>,
}

impl Provisioner {
    /// Creates a provisioner whose always-on tier is the given GPU set.
    pub fn new(cfg: TierConfig, always_on: Vec<GpuId>) -> Self {
        Provisioner {
            cfg,
            always_on,
            in_use: HashMap::new(),
            warm: HashMap::new(),
            waits: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TierConfig {
        &self.cfg
    }

    /// GPUs pinned in the always-on tier.
    pub fn always_on(&self) -> &[GpuId] {
        &self.always_on
    }

    /// Whether `gpu` is currently acquired by us.
    pub fn is_in_use(&self, gpu: GpuId) -> bool {
        self.in_use.contains_key(&gpu)
    }

    /// Acquires `gpu` at time `now`, classifying the tier it comes from and
    /// computing when it will be usable.
    ///
    /// The caller is responsible for having checked device memory via
    /// [`Cluster::free_mem`]; the provisioner only models control-plane
    /// readiness.
    pub fn acquire(&mut self, gpu: GpuId, now: SimTime) -> Acquisition {
        self.expire_warm(now);
        let kind = if self.always_on.contains(&gpu) {
            AcquireKind::AlwaysOn
        } else if self.warm.remove(&gpu).is_some() {
            AcquireKind::WarmElastic
        } else {
            AcquireKind::ColdElastic
        };
        let ready_at = match kind {
            AcquireKind::AlwaysOn | AcquireKind::WarmElastic => now,
            AcquireKind::ColdElastic => now + self.cfg.elastic_delay,
        };
        self.in_use.insert(gpu, kind);
        self.waits.push(ready_at.saturating_since(now));
        Acquisition {
            gpu,
            ready_at,
            kind,
        }
    }

    /// Releases `gpu` at time `now`. Elastic GPUs enter the warm window;
    /// always-on GPUs simply return to the pinned pool.
    pub fn release(&mut self, gpu: GpuId, now: SimTime) {
        if let Some(kind) = self.in_use.remove(&gpu) {
            if kind != AcquireKind::AlwaysOn {
                self.warm.insert(gpu, now + self.cfg.reclaim_window);
            }
        }
    }

    /// Forcibly removes `gpu` from every tier: in-use, warm, and the
    /// always-on pin list. Used when the platform *revokes* the device
    /// (spot preemption, hardware failure) — unlike [`Provisioner::release`]
    /// the GPU does not enter the warm window, because it is no longer
    /// ours to re-acquire. A later restore re-enters it as cold elastic.
    pub fn evict(&mut self, gpu: GpuId) {
        self.in_use.remove(&gpu);
        self.warm.remove(&gpu);
        self.always_on.retain(|&g| g != gpu);
    }

    /// Drops warm reservations whose reclaim window has passed.
    pub fn expire_warm(&mut self, now: SimTime) {
        self.warm.retain(|_, &mut expiry| expiry > now);
    }

    /// GPUs currently inside their warm reclaim window.
    pub fn warm_gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        self.warm.keys().copied()
    }

    /// Whether acquiring `gpu` at `now` would be instant (pinned always-on
    /// or still inside its warm reclaim window).
    pub fn is_instant(&self, gpu: GpuId, now: SimTime) -> bool {
        self.always_on.contains(&gpu) || self.warm.get(&gpu).is_some_and(|&expiry| expiry > now)
    }

    /// Mean allocation wait across all acquisitions so far, seconds.
    pub fn mean_wait_secs(&self) -> f64 {
        if self.waits.is_empty() {
            return 0.0;
        }
        self.waits.iter().map(|d| d.as_secs_f64()).sum::<f64>() / self.waits.len() as f64
    }

    /// All recorded waits.
    pub fn waits(&self) -> &[SimDuration] {
        &self.waits
    }
}

/// First-fit search for `count` GPUs with at least `min_free` bytes free,
/// optionally on pairwise-distinct servers, skipping `exclude`.
///
/// This is the naive allocator the baselines use; FlexPipe replaces it with
/// the Hierarchical Resource Graph in `flexpipe-core`.
pub fn first_fit(
    cluster: &Cluster,
    count: usize,
    min_free: u64,
    distinct_servers: bool,
    exclude: &[GpuId],
) -> Option<Vec<GpuId>> {
    let mut chosen = Vec::with_capacity(count);
    let mut used_servers = Vec::new();
    for info in cluster.topology().gpus() {
        if chosen.len() == count {
            break;
        }
        if exclude.contains(&info.id) {
            continue;
        }
        if cluster.free_mem(info.id) < min_free {
            continue;
        }
        if distinct_servers && used_servers.contains(&info.server) {
            continue;
        }
        chosen.push(info.id);
        used_servers.push(info.server);
    }
    (chosen.len() == count).then_some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterSpec;

    fn provisioner() -> Provisioner {
        Provisioner::new(TierConfig::default(), vec![GpuId(0), GpuId(1), GpuId(2)])
    }

    #[test]
    fn always_on_is_instant() {
        let mut p = provisioner();
        let now = SimTime::from_secs(10);
        let a = p.acquire(GpuId(0), now);
        assert_eq!(a.kind, AcquireKind::AlwaysOn);
        assert_eq!(a.ready_at, now);
    }

    #[test]
    fn cold_elastic_pays_delay() {
        let mut p = provisioner();
        let now = SimTime::from_secs(10);
        let a = p.acquire(GpuId(9), now);
        assert_eq!(a.kind, AcquireKind::ColdElastic);
        assert_eq!(a.ready_at, now + TierConfig::default().elastic_delay);
        assert!(p.mean_wait_secs() > 0.0);
    }

    #[test]
    fn release_then_reacquire_within_window_is_warm() {
        let mut p = provisioner();
        let t0 = SimTime::from_secs(0);
        p.acquire(GpuId(9), t0);
        p.release(GpuId(9), SimTime::from_secs(5));
        let a = p.acquire(GpuId(9), SimTime::from_secs(100));
        assert_eq!(a.kind, AcquireKind::WarmElastic);
        assert_eq!(a.ready_at, SimTime::from_secs(100));
    }

    #[test]
    fn warm_window_expires() {
        let mut p = provisioner();
        p.acquire(GpuId(9), SimTime::from_secs(0));
        p.release(GpuId(9), SimTime::from_secs(5));
        // 5 + 300 = 305; at 306 the window has passed.
        let a = p.acquire(GpuId(9), SimTime::from_secs(306));
        assert_eq!(a.kind, AcquireKind::ColdElastic);
    }

    #[test]
    fn always_on_release_does_not_enter_warm() {
        let mut p = provisioner();
        p.acquire(GpuId(0), SimTime::from_secs(0));
        p.release(GpuId(0), SimTime::from_secs(1));
        assert_eq!(p.warm_gpus().count(), 0);
        // Re-acquiring is still instant because it is pinned.
        let a = p.acquire(GpuId(0), SimTime::from_secs(2));
        assert_eq!(a.kind, AcquireKind::AlwaysOn);
    }

    #[test]
    fn evict_removes_every_tier_membership() {
        let mut p = provisioner();
        // Pinned GPU: eviction un-pins it.
        p.acquire(GpuId(0), SimTime::from_secs(0));
        p.evict(GpuId(0));
        assert!(!p.is_in_use(GpuId(0)));
        let a = p.acquire(GpuId(0), SimTime::from_secs(1));
        assert_eq!(a.kind, AcquireKind::ColdElastic);
        // Warm elastic GPU: eviction forfeits the warm window.
        p.acquire(GpuId(9), SimTime::from_secs(2));
        p.release(GpuId(9), SimTime::from_secs(3));
        p.evict(GpuId(9));
        let a = p.acquire(GpuId(9), SimTime::from_secs(4));
        assert_eq!(a.kind, AcquireKind::ColdElastic);
    }

    #[test]
    fn first_fit_respects_constraints() {
        let mut cluster = Cluster::new(ClusterSpec::paper_testbed());
        let cap = cluster.gpu_mem_capacity();
        // Server 0 hosts GPUs 0 and 1. Fill GPU 0 completely.
        cluster.set_background(GpuId(0), cap, 0.9, 3);
        let got = first_fit(&cluster, 3, cap / 2, true, &[GpuId(1)]).unwrap();
        assert_eq!(got.len(), 3);
        assert!(!got.contains(&GpuId(0)), "full GPU chosen");
        assert!(!got.contains(&GpuId(1)), "excluded GPU chosen");
        // Distinct servers.
        let topo = cluster.topology();
        let mut servers: Vec<_> = got.iter().map(|&g| topo.gpu(g).server).collect();
        servers.dedup();
        assert_eq!(servers.len(), 3);
    }

    #[test]
    fn first_fit_returns_none_when_infeasible() {
        let mut cluster = Cluster::new(ClusterSpec::paper_testbed());
        let cap = cluster.gpu_mem_capacity();
        for info in cluster.topology().gpus().to_vec() {
            cluster.set_background(info.id, cap, 0.9, 3);
        }
        assert!(first_fit(&cluster, 1, 1, false, &[]).is_none());
    }
}
