//! Request routing: a consistent-hash ring over engine shards, plus the
//! cross-shard spillover hook.
//!
//! The ring is the deterministic half of routing: shard membership of a
//! request id depends only on `(shards, vnodes)`, never on arrival
//! order or load, so any two runs of the same stream route identically.
//! Spillover is the deliberately *non*-deterministic half — it may read
//! racy live queue depths — which is why the recording stores the final
//! post-spillover assignment: replay re-executes placements, it never
//! re-decides them.

pub use flexpipe_sim::mix64;
use serde::{Deserialize, Serialize};

/// A consistent-hash ring: `vnodes` points per shard on a `u64` circle.
///
/// Consistent hashing (rather than `id % shards`) keeps most request →
/// shard assignments stable when the shard count changes, the property
/// that makes cross-shard-count comparisons meaningful: going 1 → 2 → 4
/// shards re-routes a bounded slice of the stream instead of
/// reshuffling everything.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashRing {
    shards: u32,
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Builds the ring. Both counts must be positive.
    pub fn new(shards: u32, vnodes: u32) -> HashRing {
        assert!(shards > 0, "ring needs at least one shard");
        assert!(vnodes > 0, "ring needs at least one vnode per shard");
        let mut points: Vec<(u64, u32)> = (0..shards)
            .flat_map(|s| (0..vnodes).map(move |v| (mix64((u64::from(s) << 32) | u64::from(v)), s)))
            .collect();
        points.sort_unstable();
        HashRing { shards, points }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Routes a key to its home shard: the first ring point at or after
    /// the key's hash, wrapping around.
    pub fn route(&self, key: u64) -> u32 {
        let h = mix64(key);
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[i % self.points.len()].1
    }
}

/// Cross-shard spillover: the control hook consulted after the ring.
///
/// `place` sees the home shard and a snapshot of per-shard outstanding
/// queue depths and returns the final shard. Depths are sampled live and
/// therefore racy — implementations must treat them as hints. The
/// returned shard is what gets recorded, so replay is deterministic
/// whatever a policy does here.
pub trait SpilloverPolicy: Sync {
    /// Policy name, for logs and artifacts.
    fn name(&self) -> &'static str;

    /// Final placement for a request homed at `home`. The default keeps
    /// every request on its home shard.
    fn place(&self, home: u32, depths: &[usize]) -> u32 {
        let _ = depths;
        home
    }
}

/// The default policy: no spillover, requests stay on their home shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpillover;

impl SpilloverPolicy for NoSpillover {
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Depth-triggered spillover: when the home shard's outstanding depth
/// exceeds the shallowest shard's by more than `threshold`, the request
/// spills to that shallowest shard (lowest index wins ties).
#[derive(Debug, Clone, Copy)]
pub struct LeastLoadedSpillover {
    /// Depth gap (requests) that triggers a spill.
    pub threshold: usize,
}

impl SpilloverPolicy for LeastLoadedSpillover {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(&self, home: u32, depths: &[usize]) -> u32 {
        let (min_shard, &min_depth) = match depths.iter().enumerate().min_by_key(|&(i, d)| (*d, i))
        {
            Some(m) => m,
            None => return home,
        };
        let home_depth = depths.get(home as usize).copied().unwrap_or(0);
        if home_depth > min_depth + self.threshold {
            min_shard as u32
        } else {
            home
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_deterministically_and_covers_all_shards() {
        let ring = HashRing::new(4, 64);
        let mut hit = [false; 4];
        for key in 0..10_000u64 {
            let s = ring.route(key);
            assert!(s < 4);
            assert_eq!(s, ring.route(key), "routing must be a pure function");
            hit[s as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "every shard should receive load");
    }

    #[test]
    fn ring_growth_moves_only_a_slice_of_keys() {
        let two = HashRing::new(2, 64);
        let four = HashRing::new(4, 64);
        let n = 10_000u64;
        let moved = (0..n).filter(|&k| two.route(k) != four.route(k)).count();
        // Consistent hashing moves roughly the newcomers' share (~1/2
        // here), never close to everything.
        assert!(moved < (n as usize) * 3 / 4, "moved {moved} of {n}");
    }

    #[test]
    fn spillover_defaults_keep_home_and_least_loaded_spills() {
        assert_eq!(NoSpillover.place(1, &[100, 0]), 1);
        let policy = LeastLoadedSpillover { threshold: 8 };
        assert_eq!(policy.place(0, &[20, 5, 30]), 1, "gap 15 > 8 spills");
        assert_eq!(policy.place(0, &[10, 5, 30]), 0, "gap 5 <= 8 stays");
        assert_eq!(policy.place(2, &[0, 0, 0]), 2, "balanced stays home");
    }
}
