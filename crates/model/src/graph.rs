//! Linearised computation graphs and the profile queries the partitioner
//! consumes.
//!
//! Decoder LLM inference is a chain of operators; pipeline stages are
//! contiguous operator ranges. The graph records block structure so the §5
//! partitioner can (a) price the activation traffic of any cut exactly and
//! (b) prefer cuts on block boundaries, which keep future merge/split
//! refactoring cheap.

use serde::{Deserialize, Serialize};

use crate::ops::{BlockId, OpId, Operator};

/// Architectural metadata of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model name as used in the paper's evaluation.
    pub name: String,
    /// Hidden dimension.
    pub d_model: u32,
    /// Number of transformer layers (encoder+decoder combined for
    /// encoder-decoder models).
    pub n_layers: u32,
    /// Attention heads.
    pub n_heads: u32,
    /// MLP inner dimension.
    pub d_ffn: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// Bytes per weight (2 for fp16).
    pub weight_bytes: u32,
    /// Whether the model generates autoregressively (decoder present).
    pub generative: bool,
}

/// A linearised operator graph plus block structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelGraph {
    config: ModelConfig,
    ops: Vec<Operator>,
}

/// A contiguous operator range `[start, end)` forming one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpRange {
    /// First operator index (inclusive).
    pub start: u32,
    /// One past the last operator index.
    pub end: u32,
}

impl OpRange {
    /// Builds a range, panicking on inversion.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "inverted OpRange {start}..{end}");
        OpRange { start, end }
    }

    /// Number of operators covered.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `self` immediately precedes `other`.
    pub fn adjacent_to(&self, other: &OpRange) -> bool {
        self.end == other.start
    }

    /// The union of two adjacent ranges.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are not adjacent.
    pub fn merge(&self, other: &OpRange) -> OpRange {
        assert!(
            self.adjacent_to(other),
            "cannot merge non-adjacent ranges {self:?} and {other:?}"
        );
        OpRange::new(self.start, other.end)
    }
}

impl ModelGraph {
    /// Builds a graph from explicit parts (the zoo uses this).
    pub fn from_parts(config: ModelConfig, ops: Vec<Operator>) -> Self {
        debug_assert!(ops
            .iter()
            .enumerate()
            .all(|(i, op)| op.id == OpId(i as u32)));
        ModelGraph { config, ops }
    }

    /// Architectural metadata.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// All operators in execution order.
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// Number of operators.
    pub fn op_count(&self) -> u32 {
        self.ops.len() as u32
    }

    /// One operator by id.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn op(&self, id: OpId) -> &Operator {
        &self.ops[id.0 as usize]
    }

    /// Total parameter bytes of the model.
    pub fn total_param_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.param_bytes).sum()
    }

    /// Total parameter count (approximate, derived from bytes).
    pub fn total_params(&self) -> u64 {
        self.total_param_bytes() / u64::from(self.config.weight_bytes)
    }

    /// Sum of parameter bytes over a stage range.
    pub fn range_param_bytes(&self, r: OpRange) -> u64 {
        self.ops[r.start as usize..r.end as usize]
            .iter()
            .map(|o| o.param_bytes)
            .sum()
    }

    /// Sum of FLOPs per token over a stage range.
    pub fn range_flops_per_token(&self, r: OpRange) -> f64 {
        self.ops[r.start as usize..r.end as usize]
            .iter()
            .map(|o| o.flops_per_token)
            .sum()
    }

    /// KV-cache bytes per cached token held by a stage range.
    pub fn range_kv_bytes_per_token(&self, r: OpRange) -> u64 {
        self.ops[r.start as usize..r.end as usize]
            .iter()
            .map(|o| o.kv_bytes_per_token)
            .sum()
    }

    /// Activation bytes per token crossing the cut after operator
    /// `boundary` (i.e. between `boundary` and `boundary + 1`).
    ///
    /// A cut after the final operator carries only the token logits and is
    /// priced as zero here (the response path is not pipelined).
    pub fn cut_act_bytes_per_token(&self, boundary: OpId) -> u64 {
        let idx = boundary.0 as usize;
        if idx + 1 >= self.ops.len() {
            0
        } else {
            self.ops[idx].act_out_bytes_per_token
        }
    }

    /// Whether the cut after `boundary` lands on a block boundary.
    pub fn is_block_boundary(&self, boundary: OpId) -> bool {
        let idx = boundary.0 as usize;
        match self.ops.get(idx + 1) {
            Some(next) => next.block != self.ops[idx].block,
            None => true,
        }
    }

    /// All cut positions (operator ids after which a cut is on a block
    /// boundary). These are the natural breakpoints of §5.
    pub fn block_boundaries(&self) -> Vec<OpId> {
        (0..self.ops.len())
            .filter(|&i| self.is_block_boundary(OpId(i as u32)))
            .map(|i| OpId(i as u32))
            .collect()
    }

    /// Number of distinct blocks.
    pub fn block_count(&self) -> u32 {
        self.ops
            .iter()
            .map(|o| o.block)
            .collect::<std::collections::HashSet<BlockId>>()
            .len() as u32
    }

    /// Validates structural invariants; returns a description on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.is_empty() {
            return Err("empty op list".into());
        }
        for (i, op) in self.ops.iter().enumerate() {
            if op.id.0 as usize != i {
                return Err(format!("op {i} has id {:?}", op.id));
            }
            if !op.flops_per_token.is_finite() || op.flops_per_token < 0.0 {
                return Err(format!("op {i} has bad flops {}", op.flops_per_token));
            }
        }
        // Blocks must be contiguous runs.
        let mut seen = std::collections::HashSet::new();
        let mut prev = None;
        for op in &self.ops {
            if Some(op.block) != prev {
                if !seen.insert(op.block) {
                    return Err(format!("block {:?} is not contiguous", op.block));
                }
                prev = Some(op.block);
            }
        }
        // Generative models must carry KV somewhere.
        if self.config.generative && self.ops.iter().all(|o| o.kv_bytes_per_token == 0) {
            return Err("generative model without KV-bearing ops".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpKind;
    use crate::zoo;

    #[test]
    fn op_range_basics() {
        let a = OpRange::new(0, 4);
        let b = OpRange::new(4, 9);
        assert!(a.adjacent_to(&b));
        assert_eq!(a.merge(&b), OpRange::new(0, 9));
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert!(OpRange::new(3, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn merging_gap_panics() {
        let _ = OpRange::new(0, 2).merge(&OpRange::new(5, 6));
    }

    #[test]
    fn zoo_graphs_validate() {
        for g in [
            zoo::opt_66b(),
            zoo::llama2_7b(),
            zoo::bert_21b(),
            zoo::whisper_9b(),
        ] {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        }
    }

    #[test]
    fn block_boundaries_are_layer_edges() {
        let g = zoo::llama2_7b();
        let boundaries = g.block_boundaries();
        // embedding block + 32 layers + head block = 34 blocks → 34 boundaries
        // (the final op is always a boundary).
        assert_eq!(boundaries.len() as u32, g.block_count());
        for b in &boundaries {
            assert!(g.is_block_boundary(*b));
        }
    }

    #[test]
    fn range_queries_are_additive() {
        let g = zoo::opt_66b();
        let n = g.op_count();
        let whole = OpRange::new(0, n);
        let left = OpRange::new(0, n / 2);
        let right = OpRange::new(n / 2, n);
        assert_eq!(
            g.range_param_bytes(whole),
            g.range_param_bytes(left) + g.range_param_bytes(right)
        );
        let f = g.range_flops_per_token(left) + g.range_flops_per_token(right);
        assert!((f - g.range_flops_per_token(whole)).abs() / f < 1e-12);
        assert_eq!(
            g.range_kv_bytes_per_token(whole),
            g.range_kv_bytes_per_token(left) + g.range_kv_bytes_per_token(right)
        );
    }

    #[test]
    fn mid_block_cuts_cost_more_activation() {
        let g = zoo::opt_66b();
        // Find a mid-block cut and a block-boundary cut in layer territory.
        let mut mid = None;
        let mut edge = None;
        for i in 0..g.op_count() - 1 {
            let id = OpId(i);
            if g.is_block_boundary(id) {
                if edge.is_none() && g.op(id).layer.is_some() {
                    edge = Some(id);
                }
            } else if mid.is_none() && g.op(id).kind == OpKind::QkvProj {
                mid = Some(id);
            }
        }
        let (mid, edge) = (mid.unwrap(), edge.unwrap());
        assert!(
            g.cut_act_bytes_per_token(mid) > g.cut_act_bytes_per_token(edge),
            "qkv cut {} should exceed boundary cut {}",
            g.cut_act_bytes_per_token(mid),
            g.cut_act_bytes_per_token(edge)
        );
    }
}
