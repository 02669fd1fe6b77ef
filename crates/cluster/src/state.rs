//! Dynamic cluster state: per-GPU memory commitments and leases.
//!
//! Two kinds of occupants compete for each GPU: *background tenants* (other
//! services in the multi-tenant cluster, driven by
//! [`crate::fragmentation::BackgroundTenants`]) and *serving leases* taken
//! out by the LLM serving system under test. The cluster enforces that the
//! sum never exceeds capacity — the central invariant the property tests
//! pin down.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::load_index::ServerLoadIndex;
use crate::topology::{ClusterSpec, GpuId, ServerId, Topology};

/// Identifier of a memory lease on a GPU or host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LeaseId(pub u64);

/// Why an allocation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough free memory on the target device.
    InsufficientMemory {
        /// Requested bytes.
        requested: u64,
        /// Bytes actually free.
        free: u64,
    },
    /// The lease id is unknown (double release or corruption).
    UnknownLease(LeaseId),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::InsufficientMemory { requested, free } => write!(
                f,
                "insufficient memory: requested {requested} bytes, {free} free"
            ),
            AllocError::UnknownLease(id) => write!(f, "unknown lease {id:?}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Dynamic state of one GPU.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct GpuLoad {
    /// Bytes committed by background tenants.
    pub bg_mem: u64,
    /// Bytes committed by serving leases.
    pub serving_mem: u64,
    /// Background streaming-multiprocessor utilisation fraction `[0, 1]`.
    pub bg_sm: f64,
    /// Number of background services subscribed to this GPU.
    pub bg_services: u32,
}

/// A memory lease record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Device holding the memory.
    pub target: LeaseTarget,
    /// Leased bytes.
    pub bytes: u64,
}

/// What a lease is held against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseTarget {
    /// GPU device memory.
    Gpu(GpuId),
    /// Server host DRAM (used by the parameter cache tier).
    Host(ServerId),
}

/// The live cluster: topology plus all dynamic occupancy state.
#[derive(Debug, Clone)]
pub struct Cluster {
    topo: Topology,
    loads: Vec<GpuLoad>,
    host_used: Vec<u64>,
    leases: HashMap<LeaseId, Lease>,
    next_lease: u64,
    /// Revoked devices (spot preemption / hardware failure): excluded from
    /// every capacity query until restored.
    revoked: Vec<bool>,
    /// Servers whose host memory tier is revoked (whole-server preemption).
    revoked_hosts: Vec<bool>,
    /// Busiest-first server ranking by serving-leased bytes, maintained on
    /// every serving-lease change and GPU revoke/restore (the load-change
    /// hook behind the serving engine's indexed `hottest_server`).
    server_index: ServerLoadIndex,
}

impl Cluster {
    /// Builds an idle cluster from a spec.
    pub fn new(spec: ClusterSpec) -> Self {
        let topo = Topology::new(spec);
        let n = topo.gpu_count();
        let s = topo.server_count();
        let gpus_per_server: Vec<u32> = (0..s as u32)
            .map(|i| topo.gpus_on(ServerId(i)).len() as u32)
            .collect();
        Cluster {
            topo,
            loads: vec![GpuLoad::default(); n],
            host_used: vec![0; s],
            leases: HashMap::new(),
            next_lease: 0,
            revoked: vec![false; n],
            revoked_hosts: vec![false; s],
            server_index: ServerLoadIndex::new(&gpus_per_server),
        }
    }

    /// The materialised topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// GPU memory capacity in bytes (uniform across the cluster).
    pub fn gpu_mem_capacity(&self) -> u64 {
        self.topo.spec().gpu.mem_bytes
    }

    /// Current load of `gpu`.
    pub fn load(&self, gpu: GpuId) -> GpuLoad {
        self.loads[gpu.0 as usize]
    }

    /// Free device memory on `gpu` in bytes (0 while revoked).
    pub fn free_mem(&self, gpu: GpuId) -> u64 {
        if self.revoked[gpu.0 as usize] {
            return 0;
        }
        let l = self.loads[gpu.0 as usize];
        self.gpu_mem_capacity()
            .saturating_sub(l.bg_mem + l.serving_mem)
    }

    /// Free fraction of device memory on `gpu`.
    pub fn free_frac(&self, gpu: GpuId) -> f64 {
        self.free_mem(gpu) as f64 / self.gpu_mem_capacity() as f64
    }

    /// Free host DRAM on `server` in bytes (0 while the host is revoked).
    pub fn free_host_mem(&self, server: ServerId) -> u64 {
        if self.revoked_hosts[server.0 as usize] {
            return 0;
        }
        self.topo
            .host_mem(server)
            .saturating_sub(self.host_used[server.0 as usize])
    }

    /// Overwrites the background occupancy of `gpu` (fragmentation driver).
    ///
    /// Background demand is clamped so `bg_mem + serving_mem ≤ capacity`:
    /// in a real cluster the scheduler would simply not have admitted the
    /// tenant, and serving leases must never be invalidated retroactively.
    pub fn set_background(&mut self, gpu: GpuId, mem: u64, sm: f64, services: u32) {
        if self.revoked[gpu.0 as usize] {
            // A revoked device hosts nobody; churn resumes after restore.
            return;
        }
        let cap = self.gpu_mem_capacity();
        let l = &mut self.loads[gpu.0 as usize];
        l.bg_mem = mem.min(cap.saturating_sub(l.serving_mem));
        l.bg_sm = sm.clamp(0.0, 1.0);
        l.bg_services = services;
    }

    /// Takes a serving lease of `bytes` on `gpu`. Revoked devices refuse
    /// every reservation (their free memory reads 0).
    pub fn reserve_gpu(&mut self, gpu: GpuId, bytes: u64) -> Result<LeaseId, AllocError> {
        let free = self.free_mem(gpu);
        if bytes > free || self.revoked[gpu.0 as usize] {
            return Err(AllocError::InsufficientMemory {
                requested: bytes,
                free,
            });
        }
        self.loads[gpu.0 as usize].serving_mem += bytes;
        self.server_index
            .on_reserve(self.topo.gpu(gpu).server, bytes);
        Ok(self.record(Lease {
            target: LeaseTarget::Gpu(gpu),
            bytes,
        }))
    }

    /// Takes a host-memory lease of `bytes` on `server`. Revoked hosts
    /// refuse every reservation.
    pub fn reserve_host(&mut self, server: ServerId, bytes: u64) -> Result<LeaseId, AllocError> {
        let free = self.free_host_mem(server);
        if bytes > free || self.revoked_hosts[server.0 as usize] {
            return Err(AllocError::InsufficientMemory {
                requested: bytes,
                free,
            });
        }
        self.host_used[server.0 as usize] += bytes;
        Ok(self.record(Lease {
            target: LeaseTarget::Host(server),
            bytes,
        }))
    }

    fn record(&mut self, lease: Lease) -> LeaseId {
        let id = LeaseId(self.next_lease);
        self.next_lease += 1;
        self.leases.insert(id, lease);
        id
    }

    /// Releases a lease, returning its record.
    pub fn release(&mut self, id: LeaseId) -> Result<Lease, AllocError> {
        let lease = self
            .leases
            .remove(&id)
            .ok_or(AllocError::UnknownLease(id))?;
        match lease.target {
            LeaseTarget::Gpu(gpu) => {
                let l = &mut self.loads[gpu.0 as usize];
                debug_assert!(l.serving_mem >= lease.bytes);
                l.serving_mem = l.serving_mem.saturating_sub(lease.bytes);
                self.server_index
                    .on_release(self.topo.gpu(gpu).server, lease.bytes);
            }
            LeaseTarget::Host(server) => {
                let used = &mut self.host_used[server.0 as usize];
                debug_assert!(*used >= lease.bytes);
                *used = used.saturating_sub(lease.bytes);
            }
        }
        Ok(lease)
    }

    /// Looks up a live lease.
    pub fn lease(&self, id: LeaseId) -> Option<Lease> {
        self.leases.get(&id).copied()
    }

    /// Iterates over GPU ids whose free memory is at least `min_free`
    /// bytes; revoked devices are never yielded.
    pub fn gpus_with_free(&self, min_free: u64) -> impl Iterator<Item = GpuId> + '_ {
        self.topo
            .gpus()
            .iter()
            .map(|g| g.id)
            .filter(move |&g| !self.is_revoked(g) && self.free_mem(g) >= min_free)
    }

    /// Whether `gpu` is currently revoked.
    pub fn is_revoked(&self, gpu: GpuId) -> bool {
        self.revoked[gpu.0 as usize]
    }

    /// Whether `server`'s host memory tier is currently revoked.
    pub fn is_host_revoked(&self, server: ServerId) -> bool {
        self.revoked_hosts[server.0 as usize]
    }

    /// Currently revoked GPUs, in id order.
    pub fn revoked_gpus(&self) -> Vec<GpuId> {
        self.revoked
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| GpuId(i as u32))
            .collect()
    }

    /// Revokes `gpu`: the device leaves the cluster's usable pool, its
    /// background occupancy vanishes with it, and every serving lease it
    /// backs is invalidated. Returns the invalidated lease ids (in id
    /// order) so the serving layer can reconcile its stage bookkeeping.
    /// Idempotent: revoking a revoked device returns an empty list.
    pub fn revoke_gpu(&mut self, gpu: GpuId) -> Vec<LeaseId> {
        let i = gpu.0 as usize;
        if self.revoked[i] {
            return Vec::new();
        }
        self.revoked[i] = true;
        let mut dead: Vec<LeaseId> = self
            .leases
            .iter()
            .filter(|(_, l)| l.target == LeaseTarget::Gpu(gpu))
            .map(|(&id, _)| id)
            .collect();
        dead.sort_unstable();
        for id in &dead {
            self.leases.remove(id);
        }
        // The GPU's invalidated serving bytes leave the server ranking with
        // it; the last GPU of a server takes the server out entirely.
        self.server_index
            .on_gpu_revoked(self.topo.gpu(gpu).server, self.loads[i].serving_mem);
        self.loads[i] = GpuLoad::default();
        dead
    }

    /// Revokes `server`'s host memory tier, invalidating every host lease
    /// on it. Returns the invalidated lease ids in id order. The server's
    /// GPUs are revoked separately (callers decide the blast radius).
    pub fn revoke_host(&mut self, server: ServerId) -> Vec<LeaseId> {
        let i = server.0 as usize;
        if self.revoked_hosts[i] {
            return Vec::new();
        }
        self.revoked_hosts[i] = true;
        let mut dead: Vec<LeaseId> = self
            .leases
            .iter()
            .filter(|(_, l)| l.target == LeaseTarget::Host(server))
            .map(|(&id, _)| id)
            .collect();
        dead.sort_unstable();
        for id in &dead {
            self.leases.remove(id);
        }
        self.host_used[i] = 0;
        dead
    }

    /// Restores a revoked GPU to the usable pool (empty: background
    /// tenants re-populate on the next churn step). Restoring any GPU of a
    /// host-revoked server brings the host memory tier back with it.
    pub fn restore_gpu(&mut self, gpu: GpuId) {
        let i = gpu.0 as usize;
        if !self.revoked[i] {
            return;
        }
        self.revoked[i] = false;
        let server = self.topo.gpu(gpu).server;
        self.revoked_hosts[server.0 as usize] = false;
        self.server_index.on_gpu_restored(server);
    }

    /// Serving-leased bytes currently held across `server`'s GPUs
    /// (incrementally maintained; equals summing `load(g).serving_mem`).
    pub fn server_serving_bytes(&self, server: ServerId) -> u64 {
        self.server_index.server_bytes(server)
    }

    /// The `rank`-th busiest server by serving-leased bytes (0 = busiest,
    /// ties toward the lowest id), skipping fully revoked servers — the
    /// indexed equivalent of rebuilding and sorting the server list, in
    /// O(rank + log servers) per query.
    pub fn nth_hottest_server(&self, rank: u32) -> Option<ServerId> {
        self.server_index.nth_hottest(rank)
    }

    /// Verifies the capacity invariant on every device; used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let cap = self.gpu_mem_capacity();
        for (i, l) in self.loads.iter().enumerate() {
            if self.revoked[i] && (l.bg_mem != 0 || l.serving_mem != 0) {
                return Err(format!("revoked gpu {i} still carries occupancy"));
            }
            if l.bg_mem + l.serving_mem > cap {
                return Err(format!(
                    "gpu {i}: bg {} + serving {} exceeds capacity {cap}",
                    l.bg_mem, l.serving_mem
                ));
            }
        }
        for (s, &used) in self.host_used.iter().enumerate() {
            let cap = self.topo.host_mem(ServerId(s as u32));
            if used > cap {
                return Err(format!("server {s}: host used {used} exceeds {cap}"));
            }
        }
        // Lease ledger must reconcile with per-device sums.
        let mut per_gpu = vec![0u64; self.loads.len()];
        let mut per_host = vec![0u64; self.host_used.len()];
        for lease in self.leases.values() {
            match lease.target {
                LeaseTarget::Gpu(g) => {
                    if self.revoked[g.0 as usize] {
                        return Err(format!("lease survives on revoked gpu {}", g.0));
                    }
                    per_gpu[g.0 as usize] += lease.bytes;
                }
                LeaseTarget::Host(s) => {
                    if self.revoked_hosts[s.0 as usize] {
                        return Err(format!("lease survives on revoked host {}", s.0));
                    }
                    per_host[s.0 as usize] += lease.bytes;
                }
            }
        }
        for (i, l) in self.loads.iter().enumerate() {
            if per_gpu[i] != l.serving_mem {
                return Err(format!(
                    "gpu {i}: lease ledger {} != serving_mem {}",
                    per_gpu[i], l.serving_mem
                ));
            }
        }
        for (s, &used) in self.host_used.iter().enumerate() {
            if per_host[s] != used {
                return Err(format!("server {s}: ledger {} != used {used}", per_host[s]));
            }
        }
        // The server-load index must mirror a fresh rebuild: per-server
        // byte totals, membership (≥1 non-revoked GPU) and the
        // busiest-first order itself.
        let mut want: Vec<(ServerId, u64)> = Vec::new();
        for s in 0..self.topo.server_count() as u32 {
            let server = ServerId(s);
            let gpus = self.topo.gpus_on(server);
            let bytes: u64 = gpus
                .iter()
                .map(|&g| self.loads[g.0 as usize].serving_mem)
                .sum();
            if self.server_index.server_bytes(server) != bytes {
                return Err(format!(
                    "server {s}: load index holds {} bytes, GPUs sum to {bytes}",
                    self.server_index.server_bytes(server)
                ));
            }
            if gpus.iter().any(|&g| !self.revoked[g.0 as usize]) {
                want.push((server, bytes));
            }
        }
        want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let got: Vec<(ServerId, u64)> = self.server_index.ranking().collect();
        if got != want {
            return Err(format!("server ranking diverged: {got:?} vs {want:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cluster {
        Cluster::new(ClusterSpec::paper_testbed())
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let mut c = small();
        let g = GpuId(0);
        let cap = c.gpu_mem_capacity();
        let lease = c.reserve_gpu(g, cap / 2).unwrap();
        assert_eq!(c.free_mem(g), cap - cap / 2);
        c.release(lease).unwrap();
        assert_eq!(c.free_mem(g), cap);
        c.check_invariants().unwrap();
    }

    #[test]
    fn over_reservation_is_refused() {
        let mut c = small();
        let g = GpuId(3);
        let cap = c.gpu_mem_capacity();
        c.reserve_gpu(g, cap - 100).unwrap();
        let err = c.reserve_gpu(g, 200).unwrap_err();
        assert!(matches!(
            err,
            AllocError::InsufficientMemory { free: 100, .. }
        ));
        c.check_invariants().unwrap();
    }

    #[test]
    fn double_release_fails() {
        let mut c = small();
        let lease = c.reserve_gpu(GpuId(1), 1024).unwrap();
        c.release(lease).unwrap();
        assert!(matches!(c.release(lease), Err(AllocError::UnknownLease(_))));
    }

    #[test]
    fn background_never_displaces_serving() {
        let mut c = small();
        let g = GpuId(2);
        let cap = c.gpu_mem_capacity();
        c.reserve_gpu(g, cap / 2).unwrap();
        // Background demand exceeding remaining capacity is clamped.
        c.set_background(g, cap, 0.5, 3);
        assert_eq!(c.load(g).bg_mem, cap / 2);
        assert_eq!(c.free_mem(g), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn host_memory_is_per_server() {
        let mut c = small();
        let s = ServerId(0);
        let cap = c.topology().host_mem(s);
        let l = c.reserve_host(s, cap).unwrap();
        assert_eq!(c.free_host_mem(s), 0);
        assert!(c.reserve_host(s, 1).is_err());
        // Other servers unaffected.
        assert_eq!(c.free_host_mem(ServerId(1)), cap);
        c.release(l).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn revoke_invalidates_leases_and_blocks_reservation() {
        let mut c = small();
        let g = GpuId(1);
        let l1 = c.reserve_gpu(g, 1024).unwrap();
        let l2 = c.reserve_gpu(g, 2048).unwrap();
        c.set_background(g, 4096, 0.4, 2);
        let dead = c.revoke_gpu(g);
        assert_eq!(dead, vec![l1, l2]);
        assert!(c.is_revoked(g));
        assert_eq!(c.free_mem(g), 0);
        assert_eq!(c.load(g).bg_mem, 0);
        assert!(c.reserve_gpu(g, 1).is_err());
        assert!(c.lease(l1).is_none(), "revoked lease must disappear");
        assert!(matches!(c.release(l1), Err(AllocError::UnknownLease(_))));
        // Background churn cannot repopulate a revoked device.
        c.set_background(g, 4096, 0.4, 2);
        assert_eq!(c.load(g).bg_mem, 0);
        c.check_invariants().unwrap();
        // Idempotent.
        assert!(c.revoke_gpu(g).is_empty());
        assert_eq!(c.revoked_gpus(), vec![g]);
    }

    #[test]
    fn restore_returns_capacity() {
        let mut c = small();
        let g = GpuId(2);
        c.revoke_gpu(g);
        c.restore_gpu(g);
        assert!(!c.is_revoked(g));
        assert_eq!(c.free_mem(g), c.gpu_mem_capacity());
        let l = c.reserve_gpu(g, 1024).unwrap();
        c.release(l).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn host_revocation_drops_cache_leases() {
        let mut c = small();
        let s = ServerId(0);
        let l = c.reserve_host(s, 1 << 30).unwrap();
        let dead = c.revoke_host(s);
        assert_eq!(dead, vec![l]);
        assert!(c.is_host_revoked(s));
        assert_eq!(c.free_host_mem(s), 0);
        assert!(c.reserve_host(s, 1).is_err());
        c.check_invariants().unwrap();
        // Restoring any GPU of the server brings the host tier back.
        let g = c.topology().gpus_on(s)[0];
        c.revoke_gpu(g);
        c.restore_gpu(g);
        assert!(!c.is_host_revoked(s));
        assert!(c.reserve_host(s, 1).is_ok());
    }

    #[test]
    fn hottest_server_ranking_tracks_leases_and_revocations() {
        let mut c = small();
        // Server 1 busiest, then server 0; ties (2 vs 3 at zero) break low.
        let g0 = c.topology().gpus_on(ServerId(0))[0];
        let g1 = c.topology().gpus_on(ServerId(1))[0];
        let l0 = c.reserve_gpu(g0, 1 << 20).unwrap();
        c.reserve_gpu(g1, 4 << 20).unwrap();
        assert_eq!(c.nth_hottest_server(0), Some(ServerId(1)));
        assert_eq!(c.nth_hottest_server(1), Some(ServerId(0)));
        assert_eq!(c.nth_hottest_server(2), Some(ServerId(2)));
        assert_eq!(c.server_serving_bytes(ServerId(1)), 4 << 20);
        c.check_invariants().unwrap();
        // Releasing server 0's lease drops it into the zero-load tie.
        c.release(l0).unwrap();
        assert_eq!(c.nth_hottest_server(1), Some(ServerId(0)));
        c.check_invariants().unwrap();
        // Fully revoking the busiest server removes it from the ranking.
        for g in c.topology().gpus_on(ServerId(1)).to_vec() {
            c.revoke_gpu(g);
        }
        assert_eq!(c.nth_hottest_server(0), Some(ServerId(0)));
        assert!((0..42)
            .filter_map(|r| c.nth_hottest_server(r))
            .all(|s| s != ServerId(1)));
        c.check_invariants().unwrap();
        // Restoring one GPU re-enters the server at zero load.
        c.restore_gpu(c.topology().gpus_on(ServerId(1))[0]);
        assert_eq!(c.server_serving_bytes(ServerId(1)), 0);
        assert!((0..42)
            .filter_map(|r| c.nth_hottest_server(r))
            .any(|s| s == ServerId(1)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn gpus_with_free_excludes_revoked() {
        let mut c = small();
        c.revoke_gpu(GpuId(5));
        assert!(!c.gpus_with_free(0).any(|g| g == GpuId(5)));
    }

    #[test]
    fn gpus_with_free_filters() {
        let mut c = small();
        let cap = c.gpu_mem_capacity();
        c.set_background(GpuId(0), cap, 0.9, 4);
        let free: Vec<_> = c.gpus_with_free(cap / 2).collect();
        assert!(!free.contains(&GpuId(0)));
        assert_eq!(free.len(), c.topology().gpu_count() - 1);
    }
}
