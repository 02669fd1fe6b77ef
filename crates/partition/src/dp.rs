//! The constrained dynamic-programming partitioner of §5.
//!
//! Given legal cut positions and the Eq. (2) stage objective, the DP finds,
//! for a requested stage count `K`, the contiguous partition minimising the
//! *bottleneck* stage cost with the *sum* of costs as tie-breaker. The
//! bottleneck criterion is what makes stage execution times balanced (the
//! property the paper calls out below Eq. (2)): total compute is invariant
//! across partitions, so a pure sum objective cannot discriminate balance —
//! only the slack, regulariser and bottleneck terms do.

use serde::{Deserialize, Serialize};

use flexpipe_model::{validate_partition, CostModel, ModelGraph, OpRange};

use crate::objective::{CutPolicy, Objective, PartitionParams, StageCost};

/// Why partitioning failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// Requested more stages than legal cut positions allow.
    TooManyStages {
        /// Requested stage count.
        requested: u32,
        /// Number of available cut positions.
        available: u32,
    },
    /// No partition satisfies the per-stage memory constraint.
    Infeasible {
        /// Stage count that was requested.
        stages: u32,
    },
    /// A zero stage count was requested.
    ZeroStages,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::TooManyStages {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} stages but only {available} cuts exist"
            ),
            PartitionError::Infeasible { stages } => {
                write!(f, "no memory-feasible {stages}-stage partition exists")
            }
            PartitionError::ZeroStages => write!(f, "stage count must be at least 1"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A complete partition with per-stage cost breakdowns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// The stage ranges, in pipeline order.
    pub ranges: Vec<OpRange>,
    /// Cost breakdown of each stage.
    pub stage_costs: Vec<StageCost>,
    /// The bottleneck (max) scalar stage cost, seconds.
    pub bottleneck_secs: f64,
    /// Sum of scalar stage costs, seconds.
    pub total_secs: f64,
}

impl Partition {
    /// Number of stages.
    pub fn stages(&self) -> u32 {
        self.ranges.len() as u32
    }

    /// Balance ratio: max stage compute / mean stage compute (1.0 = ideal).
    pub fn balance_ratio(&self) -> f64 {
        if self.stage_costs.is_empty() {
            return 1.0;
        }
        let times: Vec<f64> = self
            .stage_costs
            .iter()
            .map(|c| c.compute.as_secs_f64())
            .collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// The §5 partitioner.
#[derive(Debug, Clone)]
pub struct Partitioner {
    params: PartitionParams,
    cost_model: CostModel,
    policy: CutPolicy,
}

impl Partitioner {
    /// Creates a partitioner with the paper's default block-boundary policy.
    pub fn new(params: PartitionParams, cost_model: CostModel) -> Self {
        Partitioner {
            params,
            cost_model,
            policy: CutPolicy::BlockBoundary,
        }
    }

    /// Overrides the cut policy (ablation).
    pub fn with_policy(mut self, policy: CutPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The objective parameters.
    pub fn params(&self) -> &PartitionParams {
        &self.params
    }

    /// Partitions `g` into exactly `k` stages.
    pub fn partition(&self, g: &ModelGraph, k: u32) -> Result<Partition, PartitionError> {
        if k == 0 {
            return Err(PartitionError::ZeroStages);
        }
        let objective = Objective::new(self.params, &self.cost_model);
        let cuts = objective.cut_positions(g, self.policy);
        if (cuts.len() as u32) < k {
            return Err(PartitionError::TooManyStages {
                requested: k,
                available: cuts.len() as u32,
            });
        }

        // Positions: 0 plus every legal cut (the last cut is op_count).
        let mut pos = Vec::with_capacity(cuts.len() + 1);
        pos.push(0u32);
        pos.extend(cuts.iter().copied());
        debug_assert_eq!(*pos.last().unwrap(), g.op_count());
        let m = pos.len();

        // Precompute stage costs for all (i, j) position pairs.
        // m ≤ ops+1 (≤ ~500); O(m²) cost evaluations are cheap because the
        // graph exposes O(1)-amortisable prefix sums through range queries.
        let mut cost = vec![vec![None::<StageCost>; m]; m];
        for i in 0..m {
            for j in (i + 1)..m {
                let r = OpRange::new(pos[i], pos[j]);
                let c = objective.stage_cost(g, r);
                if c.feasible {
                    cost[i][j] = Some(c);
                }
            }
        }

        // DP over (position, stages used): minimise (bottleneck, sum).
        const INF: f64 = f64::INFINITY;
        let k = k as usize;
        let mut best = vec![vec![(INF, INF); k + 1]; m];
        let mut back = vec![vec![usize::MAX; k + 1]; m];
        best[0][0] = (0.0, 0.0);
        for s in 1..=k {
            for j in s..m {
                for i in (s - 1)..j {
                    let Some(c) = &cost[i][j] else { continue };
                    let (pb, ps) = best[i][s - 1];
                    if pb.is_infinite() {
                        continue;
                    }
                    let scalar = c.scalar(self.params.lambda);
                    let cand = (pb.max(scalar), ps + scalar);
                    if cand < best[j][s] {
                        best[j][s] = cand;
                        back[j][s] = i;
                    }
                }
            }
        }

        let (bottleneck_secs, total_secs) = best[m - 1][k];
        if bottleneck_secs.is_infinite() {
            return Err(PartitionError::Infeasible { stages: k as u32 });
        }

        // Reconstruct ranges.
        let mut bounds = vec![m - 1];
        let mut j = m - 1;
        for s in (1..=k).rev() {
            j = back[j][s];
            bounds.push(j);
        }
        bounds.reverse();
        let ranges: Vec<OpRange> = bounds
            .windows(2)
            .map(|w| OpRange::new(pos[w[0]], pos[w[1]]))
            .collect();
        debug_assert!(validate_partition(g, &ranges).is_ok());
        let stage_costs: Vec<StageCost> =
            ranges.iter().map(|&r| objective.stage_cost(g, r)).collect();
        Ok(Partition {
            ranges,
            stage_costs,
            bottleneck_secs,
            total_secs,
        })
    }

    /// The largest stage count for which a feasible partition exists
    /// (bounded by legal cuts), or `None` if even that fails.
    pub fn max_feasible_stages(&self, g: &ModelGraph) -> Option<u32> {
        let objective = Objective::new(self.params, &self.cost_model);
        let cuts = objective.cut_positions(g, self.policy).len() as u32;
        (1..=cuts).rev().find(|&k| self.partition(g, k).is_ok())
    }

    /// The smallest stage count whose partition is memory-feasible.
    pub fn min_feasible_stages(&self, g: &ModelGraph) -> Option<u32> {
        let objective = Objective::new(self.params, &self.cost_model);
        let cuts = objective.cut_positions(g, self.policy).len() as u32;
        (1..=cuts).find(|&k| self.partition(g, k).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpipe_model::{even_layer_ranges, zoo, OpId};

    fn partitioner() -> Partitioner {
        Partitioner::new(PartitionParams::default(), CostModel::default())
    }

    #[test]
    fn produces_valid_balanced_partitions() {
        let g = zoo::opt_66b();
        let p = partitioner();
        for k in [4, 8, 16, 32] {
            let part = p.partition(&g, k).unwrap();
            assert_eq!(part.stages(), k);
            validate_partition(&g, &part.ranges).unwrap();
            assert!(
                part.balance_ratio() < 1.35,
                "{k} stages unbalanced: {}",
                part.balance_ratio()
            );
        }
    }

    #[test]
    fn dp_beats_or_matches_even_split_on_bottleneck() {
        let g = zoo::opt_66b();
        let p = partitioner();
        let cm = CostModel::default();
        let obj = Objective::new(PartitionParams::default(), &cm);
        for k in [4, 8, 16] {
            let dp = p.partition(&g, k).unwrap();
            let even = even_layer_ranges(&g, k);
            let even_bottleneck = even
                .iter()
                .map(|&r| obj.stage_cost(&g, r).scalar(p.params().lambda))
                .fold(0.0f64, f64::max);
            assert!(
                dp.bottleneck_secs <= even_bottleneck + 1e-9,
                "k={k}: dp {} > even {even_bottleneck}",
                dp.bottleneck_secs
            );
        }
    }

    #[test]
    fn memory_constraint_rules_out_tiny_stage_counts() {
        let g = zoo::opt_66b(); // 123 GiB of parameters
        let p = partitioner();
        // One stage can never fit 123 GiB in 80 GiB.
        assert_eq!(
            p.partition(&g, 1),
            Err(PartitionError::Infeasible { stages: 1 })
        );
        // Two stages fit (≈62 GiB each).
        assert!(p.partition(&g, 2).is_ok());
        assert_eq!(p.min_feasible_stages(&g), Some(2));
    }

    #[test]
    fn cuts_respect_block_policy() {
        let g = zoo::llama2_7b();
        let p = partitioner();
        let part = p.partition(&g, 8).unwrap();
        for r in &part.ranges[..part.ranges.len() - 1] {
            assert!(g.is_block_boundary(OpId(r.end - 1)));
        }
    }

    #[test]
    fn any_op_policy_allows_more_stages() {
        let g = zoo::llama2_7b();
        let block = partitioner();
        let any = partitioner().with_policy(CutPolicy::AnyOp);
        let max_block = block.max_feasible_stages(&g).unwrap();
        let max_any = any.max_feasible_stages(&g).unwrap();
        assert!(max_any > max_block);
    }

    #[test]
    fn error_cases() {
        let g = zoo::llama2_7b();
        let p = partitioner();
        assert_eq!(p.partition(&g, 0), Err(PartitionError::ZeroStages));
        let err = p.partition(&g, 1000).unwrap_err();
        assert!(matches!(err, PartitionError::TooManyStages { .. }));
    }

    #[test]
    fn small_models_partition_down_to_one_stage() {
        let g = zoo::llama2_7b(); // ~13 GiB
        let p = partitioner();
        let part = p.partition(&g, 1).unwrap();
        assert_eq!(part.stages(), 1);
        assert_eq!(part.ranges[0], OpRange::new(0, g.op_count()));
    }

    #[test]
    fn deterministic_output() {
        let g = zoo::opt_66b();
        let p = partitioner();
        let a = p.partition(&g, 8).unwrap();
        let b = p.partition(&g, 8).unwrap();
        assert_eq!(a, b);
    }
}
