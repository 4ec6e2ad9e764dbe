//! KV-cache sharding across a multi-chip deployment.
//!
//! Tensor parallelism splits attention heads across chips (each chip
//! caches only its heads' K/V), and pipeline parallelism splits layers
//! into stages (each chip caches only its stage's layers). A
//! [`KvShardPlan`] captures both splits plus the per-rank
//! [`KvGeometry`], so capacity questions — "does a 70B-class cache fit,
//! and on how many devices?" — are answerable without instantiating the
//! allocator.

use neupims_types::{DataType, LlmConfig, MemConfig, SimError};

use crate::geometry::KvGeometry;

/// Splits `total` items into `parts` contiguous groups whose sizes sum to
/// `total` and differ by at most one (larger groups first). Empty when
/// `parts` is zero.
pub fn split_evenly(total: u32, parts: u32) -> Vec<u32> {
    if parts == 0 {
        return Vec::new();
    }
    let base = total / parts;
    let rem = total % parts;
    (0..parts).map(|i| base + u32::from(i < rem)).collect()
}

/// The KV-cache placement of one model deployed at `(tp, pp)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvShardPlan {
    /// Attention heads cached by each tensor-parallel rank (sums to the
    /// model's head count; balanced within one head).
    pub heads_per_chip: Vec<u32>,
    /// Decoder layers cached by each pipeline stage (sums to the model's
    /// layer count; balanced within one layer).
    pub layers_per_stage: Vec<u32>,
    /// Per-rank K/V layout (one geometry per tensor-parallel rank, with
    /// that rank's exact head count).
    pub geometries: Vec<KvGeometry>,
    dtype: DataType,
}

impl KvShardPlan {
    /// Plans the KV placement of `model` at tensor parallelism `tp` and
    /// pipeline parallelism `pp` on `mem`-organized chips.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero degrees or `tp`
    /// exceeding the model's head count.
    pub fn new(model: &LlmConfig, mem: &MemConfig, tp: u32, pp: u32) -> Result<Self, SimError> {
        if tp == 0 || pp == 0 {
            return Err(SimError::InvalidConfig("zero parallel degree".into()));
        }
        if tp > model.num_heads {
            return Err(SimError::InvalidConfig(format!(
                "TP={tp} exceeds {} attention heads",
                model.num_heads
            )));
        }
        if pp > model.num_layers {
            return Err(SimError::InvalidConfig(format!(
                "PP={pp} exceeds {} layers",
                model.num_layers
            )));
        }
        let heads_per_chip = split_evenly(model.num_heads, tp);
        let layers_per_stage = split_evenly(model.num_layers, pp);
        let d_head = (model.d_model / model.num_heads) as u64;
        let geometries = heads_per_chip
            .iter()
            .map(|&h| KvGeometry {
                embed: h as u64 * d_head,
                heads: h as u64,
                page_elems: mem.page_elems(model.dtype),
                banks: mem.banks_per_channel as u64,
                elem_bytes: model.dtype.size_bytes(),
            })
            .collect();
        Ok(Self {
            heads_per_chip,
            layers_per_stage,
            geometries,
            dtype: model.dtype,
        })
    }

    /// Chips in the deployment (`tp * pp`).
    pub fn devices(&self) -> u32 {
        self.heads_per_chip.len() as u32 * self.layers_per_stage.len() as u32
    }

    /// The model dtype the plan was built for.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_conserving_and_balanced() {
        for (total, parts) in [(56u32, 8u32), (96, 7), (5, 8), (0, 3), (13, 1)] {
            let s = split_evenly(total, parts);
            assert_eq!(s.len(), parts as usize);
            assert_eq!(s.iter().sum::<u32>(), total, "{total}/{parts}");
            let (min, max) = (s.iter().min().unwrap(), s.iter().max().unwrap());
            assert!(max - min <= 1, "{total}/{parts}: {s:?}");
        }
        assert!(split_evenly(8, 0).is_empty());
    }

    #[test]
    fn plan_covers_every_head_and_layer() {
        let model = LlmConfig::gpt3_30b();
        let plan = KvShardPlan::new(&model, &MemConfig::table2(), 8, 4).unwrap();
        assert_eq!(plan.devices(), 32);
        assert_eq!(plan.heads_per_chip.iter().sum::<u32>(), model.num_heads);
        assert_eq!(plan.layers_per_stage.iter().sum::<u32>(), model.num_layers);
        // Per-rank geometry carries exactly that rank's heads.
        for (h, g) in plan.heads_per_chip.iter().zip(&plan.geometries) {
            assert_eq!(g.heads, *h as u64);
        }
    }

    #[test]
    fn uneven_heads_balance_within_one() {
        // 96 heads over 7 ranks: 14/14/14/14/14/13/13.
        let model = LlmConfig::gpt3_175b();
        let plan = KvShardPlan::new(&model, &MemConfig::table2(), 7, 1).unwrap();
        assert_eq!(plan.heads_per_chip.iter().sum::<u32>(), 96);
        let (min, max) = (
            plan.heads_per_chip.iter().min().unwrap(),
            plan.heads_per_chip.iter().max().unwrap(),
        );
        assert!(max - min <= 1);
    }

    #[test]
    fn big_model_cache_spans_devices() {
        // A 70B-class model (the 175B config is the shipped stand-in for
        // "bigger than one chip"): sharding 8 ways pools 8 chips' KV.
        let model = LlmConfig::gpt3_175b();
        let mem = MemConfig::table2();
        let single = KvShardPlan::new(&model, &mem, 1, 1).unwrap();
        let sharded = KvShardPlan::new(&model, &mem, 4, 2).unwrap();
        assert_eq!(sharded.devices(), 8 * single.devices());
    }

    #[test]
    fn invalid_plans_rejected() {
        let model = LlmConfig::gpt3_7b(); // 32 heads, 32 layers
        let mem = MemConfig::table2();
        assert!(KvShardPlan::new(&model, &mem, 0, 1).is_err());
        assert!(KvShardPlan::new(&model, &mem, 1, 0).is_err());
        assert!(KvShardPlan::new(&model, &mem, 33, 1).is_err());
        assert!(KvShardPlan::new(&model, &mem, 1, 33).is_err());
    }
}
