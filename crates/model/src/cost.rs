//! Analytic cost model calibrated to the paper's Table 2.
//!
//! Table 2 profiles OPT-66B at sequence length 4096 on A100s and fixes four
//! calibration constants:
//!
//! | quantity | paper value | constant here |
//! |---|---|---|
//! | per-stage compute, 16 layers | 69.94 ms | `eff_flops` = 1.95e15 |
//! | per-stage overhead (solve 4 vs 32 stages) | ≈1.06 ms | `stage_overhead` |
//! | stage load, 33 GB | 47.14 s | storage bw 0.7 GB/s (cluster crate) |
//! | max batch 128 → ~1000 as stages go 4 → 32 | — | `kv_token_budget`, `per_request_workspace` |
//!
//! `eff_flops` is an *effective* rate: it folds batching efficiency and
//! kernel overlap into one constant so that simulated stage durations land
//! on the paper's measurements. Only relative shape matters downstream.

use std::cell::RefCell;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use flexpipe_sim::SimDuration;

use crate::graph::{ModelGraph, OpRange};
use crate::ops::OpId;

/// Cost model constants (see module docs for calibration provenance).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Effective sustained FLOP/s of one GPU for these workloads.
    pub eff_flops: f64,
    /// Fixed per-stage launch overhead per pass.
    pub stage_overhead: SimDuration,
    /// KV tokens budgeted per admitted request (drives max batch).
    pub kv_token_budget: u32,
    /// Per-request activation workspace bytes.
    pub per_request_workspace: u64,
    /// Per-GPU runtime reserve (CUDA context, fragmentation slack).
    pub runtime_reserve: u64,
    /// Device memory bandwidth, bytes/s. Every pass reads the stage's
    /// weights once, so pass time is floored at `param_bytes / hbm_bw` —
    /// the memory-bound regime that makes small-batch decode inefficient
    /// and large batches (Table 2's max-batch column) pay off.
    pub hbm_bandwidth: f64,
    /// Fixed per-stage load setup (file opens, allocator and runtime
    /// init) paid once per parameter load regardless of size.
    pub load_setup: SimDuration,
    /// Partition size at which a load streams at the tier's face
    /// bandwidth. Smaller partitions fetch in parallel chunks and reuse
    /// the page cache, so their *effective* bandwidth rises toward
    /// `load_peak_gain ×` face rate — the layout effect behind Table 2's
    /// non-linear load column (0.7–1.26 GB/s effective on the same disk).
    pub load_ref_bytes: u64,
    /// Cap on the chunked-fetch/page-cache bandwidth gain.
    pub load_peak_gain: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            eff_flops: 1.95e15,
            stage_overhead: SimDuration::from_micros(1060),
            kv_token_budget: 568,
            per_request_workspace: 32 << 20,
            runtime_reserve: 2 << 30,
            hbm_bandwidth: 2.0e12,
            load_setup: SimDuration::from_secs_f64(1.8),
            load_ref_bytes: 33_000_000_000,
            load_peak_gain: 1.85,
        }
    }
}

impl CostModel {
    /// Compute time for one pass of `tokens` tokens through stage `r`.
    ///
    /// `tokens` is the number of *processed* tokens in the pass: prompt
    /// length × batch for prefill, batch size for one decode iteration.
    pub fn stage_compute(&self, g: &ModelGraph, r: OpRange, tokens: u64) -> SimDuration {
        let flops_secs = g.range_flops_per_token(r) * tokens as f64 / self.eff_flops;
        let weight_read_secs = g.range_param_bytes(r) as f64 / self.hbm_bandwidth;
        self.stage_overhead + SimDuration::from_secs_f64(flops_secs.max(weight_read_secs))
    }

    /// Device memory needed by stage `r` at a given admitted batch size.
    pub fn stage_mem_bytes(&self, g: &ModelGraph, r: OpRange, batch: u32) -> u64 {
        let kv_per_req = g.range_kv_bytes_per_token(r) * u64::from(self.kv_token_budget)
            + self.per_request_workspace;
        g.range_param_bytes(r) + self.runtime_reserve + kv_per_req * u64::from(batch)
    }

    /// Largest batch admissible on a stage given `gpu_mem` bytes of device
    /// memory (Table 2's "Max Batch" column).
    pub fn max_batch(&self, g: &ModelGraph, r: OpRange, gpu_mem: u64) -> u32 {
        let fixed = g.range_param_bytes(r) + self.runtime_reserve;
        if fixed >= gpu_mem {
            return 0;
        }
        let kv_per_req = g.range_kv_bytes_per_token(r) * u64::from(self.kv_token_budget)
            + self.per_request_workspace;
        if kv_per_req == 0 {
            return u32::MAX;
        }
        ((gpu_mem - fixed) / kv_per_req).min(u32::MAX as u64) as u32
    }

    /// Bytes crossing the cut after `boundary` when `tokens` tokens flow.
    pub fn hop_bytes(&self, g: &ModelGraph, boundary: OpId, tokens: u64) -> u64 {
        g.cut_act_bytes_per_token(boundary) * tokens
    }

    /// Load time of stage `r` from a tier with the given read bandwidth
    /// (bytes/s): a fixed setup plus the layout-aware streaming time.
    ///
    /// The streaming term is *not* linear in partition size: below
    /// `load_ref_bytes`, effective bandwidth rises (parallel chunked
    /// fetch, page-cache reuse) up to `load_peak_gain ×` the face rate,
    /// while the constant `load_setup` dominates very small stages —
    /// together reproducing Table 2's measured load column, where a
    /// strictly linear model overshoots the 8-stage row by ~80%.
    pub fn stage_load(&self, g: &ModelGraph, r: OpRange, bandwidth: f64) -> SimDuration {
        let bytes = g.range_param_bytes(r) as f64;
        let gain = (self.load_ref_bytes as f64 / bytes).clamp(1.0, self.load_peak_gain);
        self.load_setup + SimDuration::from_secs_f64(bytes / (bandwidth * gain))
    }

    /// An empty memoized Table-2 row cache bound to this cost model's
    /// constants (see [`MaxBatchTable`]).
    pub fn max_batch_table(&self) -> MaxBatchTable {
        MaxBatchTable::new(*self)
    }
}

/// One memoized Table-2 row: the per-range constants every memory query
/// reduces to. `max_batch` and `stage_mem_bytes` are pure arithmetic over
/// these two numbers; only deriving them walks the operator slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RangeRow {
    /// Parameter bytes the range must hold resident.
    param_bytes: u64,
    /// KV-cache bytes per cached token across the range.
    kv_bytes_per_token: u64,
}

/// Memoized Table-2 partition table: caches the per-range profile sums
/// behind [`CostModel::max_batch`] / [`CostModel::stage_mem_bytes`] so
/// refactor-time recomputation reuses prior rows instead of re-walking the
/// operator slice (O(range length) per call → O(1) after first touch).
///
/// Purity contract: rows are *derived constants*, so every query returns
/// bit-identical results to the uncached [`CostModel`] methods — asserted
/// in debug builds on every lookup. Rows are keyed on the range alone and
/// stay valid as long as callers query the same graph the rows were
/// derived from; [`MaxBatchTable::invalidate`] is the explicit reset for
/// callers that swap graphs (the serving engine never does — graph and
/// cost model are fixed per scenario).
///
/// Interior mutability (a `RefCell` over the row map) keeps the query API
/// `&self`, matching the uncached methods it shadows; the table is `Send`
/// (not `Sync`), which is all the fleet's per-engine ownership needs.
#[derive(Debug)]
pub struct MaxBatchTable {
    cost: CostModel,
    rows: RefCell<HashMap<(u32, u32), RangeRow>>,
}

impl MaxBatchTable {
    /// An empty table bound to `cost`'s calibration constants.
    pub fn new(cost: CostModel) -> Self {
        MaxBatchTable {
            cost,
            rows: RefCell::new(HashMap::new()),
        }
    }

    /// The memoized per-range row, deriving (and caching) it on first
    /// touch. Debug builds re-derive and compare on every hit, so a stale
    /// row can never survive a test run silently.
    fn row(&self, g: &ModelGraph, r: OpRange) -> RangeRow {
        let key = (r.start, r.end);
        if let Some(&row) = self.rows.borrow().get(&key) {
            debug_assert_eq!(
                row,
                RangeRow {
                    param_bytes: g.range_param_bytes(r),
                    kv_bytes_per_token: g.range_kv_bytes_per_token(r),
                },
                "memoized Table-2 row diverged from the graph for {r:?}"
            );
            return row;
        }
        let row = RangeRow {
            param_bytes: g.range_param_bytes(r),
            kv_bytes_per_token: g.range_kv_bytes_per_token(r),
        };
        self.rows.borrow_mut().insert(key, row);
        row
    }

    /// Memoized [`CostModel::max_batch`]: bit-identical, O(1) after the
    /// first query of a range.
    pub fn max_batch(&self, g: &ModelGraph, r: OpRange, gpu_mem: u64) -> u32 {
        let row = self.row(g, r);
        let fixed = row.param_bytes + self.cost.runtime_reserve;
        if fixed >= gpu_mem {
            return 0;
        }
        let kv_per_req = row.kv_bytes_per_token * u64::from(self.cost.kv_token_budget)
            + self.cost.per_request_workspace;
        if kv_per_req == 0 {
            return u32::MAX;
        }
        let batch = ((gpu_mem - fixed) / kv_per_req).min(u32::MAX as u64) as u32;
        debug_assert_eq!(batch, self.cost.max_batch(g, r, gpu_mem));
        batch
    }

    /// Memoized [`CostModel::stage_mem_bytes`]: bit-identical, O(1) after
    /// the first query of a range.
    pub fn stage_mem_bytes(&self, g: &ModelGraph, r: OpRange, batch: u32) -> u64 {
        let row = self.row(g, r);
        let kv_per_req = row.kv_bytes_per_token * u64::from(self.cost.kv_token_budget)
            + self.cost.per_request_workspace;
        let bytes = row.param_bytes + self.cost.runtime_reserve + kv_per_req * u64::from(batch);
        debug_assert_eq!(bytes, self.cost.stage_mem_bytes(g, r, batch));
        bytes
    }

    /// Drops every memoized row. Call when the graph the table was queried
    /// against is replaced; rows rebuild lazily on the next query.
    pub fn invalidate(&self) {
        self.rows.borrow_mut().clear();
    }

    /// Number of memoized rows (diagnostics and tests).
    pub fn rows_cached(&self) -> usize {
        self.rows.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning_helpers::even_layer_ranges;
    use crate::zoo;

    const GIB: u64 = 1 << 30;

    /// Table 2 reference: (stages, load s, compute ms, max batch).
    const TABLE2: [(u32, f64, f64, u32); 4] = [
        (4, 47.14, 69.94, 128),
        (8, 13.05, 36.63, 256),
        (16, 9.19, 18.67, 512),
        (32, 5.43, 9.67, 1024),
    ];

    #[test]
    fn table2_compute_column_reproduces() {
        let g = zoo::opt_66b();
        let cm = CostModel::default();
        for (stages, _, compute_ms, _) in TABLE2 {
            let ranges = even_layer_ranges(&g, stages);
            // Interior stage (pure layers, no embed/head) at seq 4096.
            let mid = ranges[ranges.len() / 2];
            let t = cm.stage_compute(&g, mid, 4096).as_millis_f64();
            let err = (t - compute_ms).abs() / compute_ms;
            assert!(
                err < 0.08,
                "{stages} stages: computed {t:.2} ms vs paper {compute_ms} ms"
            );
        }
    }

    #[test]
    fn table2_load_column_reproduces() {
        let g = zoo::opt_66b();
        let cm = CostModel::default();
        let storage_bw = 0.7e9;
        let mut worst = 0.0f64;
        for (stages, load_s, _, _) in TABLE2 {
            let ranges = even_layer_ranges(&g, stages);
            let mid = ranges[ranges.len() / 2];
            let t = cm.stage_load(&g, mid, storage_bw).as_secs_f64();
            // The paper's column is not linear in stage size (effective
            // bandwidth swings 0.7–1.26 GB/s with layout); the setup +
            // capped-gain model lands every row within 15% — down from
            // ~80% error on the 8-stage row under a strictly linear model.
            let ratio = t / load_s;
            assert!(
                (0.85..1.15).contains(&ratio),
                "{stages} stages: load {t:.2} s vs paper {load_s} s"
            );
            worst = worst.max((ratio - 1.0).abs());
        }
        assert!(worst > 0.0, "rows must be real measurements, not exact");
        let r4 = even_layer_ranges(&g, 4);
        let r32 = even_layer_ranges(&g, 32);
        let t4 = cm.stage_load(&g, r4[2], storage_bw).as_secs_f64();
        let t32 = cm.stage_load(&g, r32[16], storage_bw).as_secs_f64();
        assert!(
            (t4 / t32 - 8.7).abs() < 1.5,
            "load ratio {:.2} vs paper 8.7x",
            t4 / t32
        );
    }

    #[test]
    fn table2_max_batch_column_shape() {
        let g = zoo::opt_66b();
        let cm = CostModel::default();
        let mut got = Vec::new();
        for (stages, _, _, _) in TABLE2 {
            let ranges = even_layer_ranges(&g, stages);
            let mid = ranges[ranges.len() / 2];
            got.push(cm.max_batch(&g, mid, 80 * GIB));
        }
        // Paper: 128 / 256 / 512 / 1024. Require monotone growth, a 4-stage
        // value near 128 and an overall ratio near 8x.
        assert!(got.windows(2).all(|w| w[1] > w[0]), "{got:?}");
        assert!((100..160).contains(&got[0]), "4-stage max batch {}", got[0]);
        let ratio = got[3] as f64 / got[0] as f64;
        assert!((6.5..10.5).contains(&ratio), "ratio {ratio} ({got:?})");
    }

    #[test]
    fn decode_hits_the_weight_read_floor() {
        let g = zoo::opt_66b();
        let cm = CostModel::default();
        let r = even_layer_ranges(&g, 4)[1];
        // Prefill at 4096 tokens is flops-bound and far above the floor.
        let prefill = cm.stage_compute(&g, r, 4096);
        // Decode passes are weight-read-bound: batch 1 and batch 512 cost
        // the same (the Table 2 batching-amortisation effect).
        let d1 = cm.stage_compute(&g, r, 1);
        let d512 = cm.stage_compute(&g, r, 512);
        assert_eq!(d1, d512, "floor-bound passes are batch-invariant");
        assert!(prefill > d1 * 3);
        // The floor equals stage params / HBM bandwidth (+ overhead).
        let expect = g.range_param_bytes(r) as f64 / cm.hbm_bandwidth;
        let got = d1.as_secs_f64() - cm.stage_overhead.as_secs_f64();
        assert!((got - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn stage_mem_accounts_for_batch() {
        let g = zoo::opt_66b();
        let cm = CostModel::default();
        let r = even_layer_ranges(&g, 8)[3];
        let m0 = cm.stage_mem_bytes(&g, r, 0);
        let m64 = cm.stage_mem_bytes(&g, r, 64);
        assert!(m64 > m0);
        assert_eq!(m0, g.range_param_bytes(r) + cm.runtime_reserve);
        // The computed max batch indeed fits.
        let mb = cm.max_batch(&g, r, 80 * GIB);
        assert!(cm.stage_mem_bytes(&g, r, mb) <= 80 * GIB);
        assert!(cm.stage_mem_bytes(&g, r, mb + 1) > 80 * GIB);
    }

    #[test]
    fn max_batch_zero_when_params_do_not_fit() {
        let g = zoo::opt_66b();
        let cm = CostModel::default();
        let whole = OpRange::new(0, g.op_count());
        // 123 GiB of parameters cannot fit an 80 GiB device.
        assert_eq!(cm.max_batch(&g, whole, 80 * GIB), 0);
    }

    #[test]
    fn max_batch_table_matches_uncached_model_exactly() {
        let g = zoo::opt_66b();
        let cm = CostModel::default();
        let table = cm.max_batch_table();
        assert_eq!(table.rows_cached(), 0);
        for stages in [4u32, 8, 16, 32] {
            for r in even_layer_ranges(&g, stages) {
                for mem in [GIB, 40 * GIB, 80 * GIB, 81 * GIB] {
                    assert_eq!(table.max_batch(&g, r, mem), cm.max_batch(&g, r, mem));
                }
                for batch in [0u32, 1, 64, 1024] {
                    assert_eq!(
                        table.stage_mem_bytes(&g, r, batch),
                        cm.stage_mem_bytes(&g, r, batch)
                    );
                }
            }
        }
        // 4+8+16+32 distinct ranges memoized, each derived exactly once.
        assert_eq!(table.rows_cached(), 60);
        // Repeat queries hit the memo (row count stays put) and agree.
        let r = even_layer_ranges(&g, 8)[3];
        assert_eq!(
            table.max_batch(&g, r, 80 * GIB),
            cm.max_batch(&g, r, 80 * GIB)
        );
        assert_eq!(table.rows_cached(), 60);
        // Explicit invalidation drops the rows; queries still agree.
        table.invalidate();
        assert_eq!(table.rows_cached(), 0);
        assert_eq!(
            table.max_batch(&g, r, 80 * GIB),
            cm.max_batch(&g, r, 80 * GIB)
        );
        assert_eq!(table.rows_cached(), 1);
    }

    #[test]
    fn hop_bytes_track_boundary_choice() {
        let g = zoo::opt_66b();
        let cm = CostModel::default();
        let boundaries = g.block_boundaries();
        let tail = boundaries[1]; // end of layer 0
        let tokens = 1280;
        let tail_bytes = cm.hop_bytes(&g, tail, tokens);
        // Block-tail hop carries the single residual stream: d_model fp16
        // elements per token.
        assert_eq!(tail_bytes, 9216 * 2 * tokens);
    }
}
