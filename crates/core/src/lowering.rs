//! The NPU side of one decoder block, lowered once per model shape.
//!
//! [`lower_batch`](neupims_llm::lower_batch) plans every GEMM of a block
//! at one GEMM row count `m`. All it derives from a GEMM's `(k, n)` shape
//! does not depend on `m`: the tile counts, the rounds over the systolic
//! arrays, the edge tile's K extent and the weight bytes. So
//! [`BlockLowering`] keeps those and prices any row count in O(1)
//! arithmetic. Compute cycles are not linear in `m`: each tile costs
//! `max(m, k) + sync`, and the slowest array bounds a pass. They are exact
//! all the same. [`BlockMemo`] holds the lowering of the shape a pricer
//! serves, so the accelerator device and the GPU roofline lower a block
//! once per (model shape, TP) rather than once per call. The device
//! prices its decode sub-batches and its prefill chunks from it.

use std::borrow::Cow;
use std::sync::OnceLock;

use neupims_npu::{SystolicCost, VectorCost};
use neupims_types::{DataType, Divisor, LlmConfig, NpuConfig, SimError};

/// One GEMM of the block, tiled once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GemmTiles {
    /// Weight tiles of full K extent: every K tile but the last, per N
    /// tile.
    interior: u64,
    /// Weight tiles of the last K tile, one per N tile.
    edge: u64,
    /// The K extent of an edge tile.
    k_edge: u64,
    /// Weight tiles per array, rounded up: the rounds of the busiest
    /// array.
    rounds: u64,
    /// FLOPs per GEMM row (`2·k·n`).
    flops_per_row: u64,
    /// Weight bytes (`k·n` elements), read once whatever the row count.
    weight_bytes: u64,
}

impl GemmTiles {
    fn new(sa: &SystolicCost, k: u64, n: u64, dtype: DataType) -> Result<Self, SimError> {
        if k == 0 || n == 0 {
            return Err(SimError::InvalidShape(format!(
                "GEMM with zero dimension: {k}x{n} weights"
            )));
        }
        let k_tiles = k.div_ceil(sa.rows());
        let n_tiles = n.div_ceil(sa.cols());
        Ok(Self {
            interior: (k_tiles - 1) * n_tiles,
            edge: n_tiles,
            k_edge: if k.is_multiple_of(sa.rows()) {
                sa.rows()
            } else {
                k % sa.rows()
            },
            rounds: (k_tiles * n_tiles).div_ceil(sa.arrays()),
            flops_per_row: 2 * k * n,
            weight_bytes: k * n * dtype.size_bytes(),
        })
    }

    /// Cluster cycles at `m` rows: the busiest array's rounds, or the
    /// serial work spread over every array when that is longer, plus one
    /// pipeline fill and drain.
    fn compute_cycles(&self, sa: &SystolicCost, arrays: Divisor, m: u64) -> u64 {
        let per_interior = sa.tile_cycles(m, sa.rows());
        let per_edge = sa.tile_cycles(m, self.k_edge);
        let serial = self.interior * per_interior + self.edge * per_edge;
        let per_round = if self.interior > 0 {
            per_interior
        } else {
            per_edge
        };
        (self.rounds * per_round).max(arrays.div(serial)) + sa.pass_overhead()
    }
}

/// The NPU cost of one decoder block at one GEMM row count: what
/// [`lower_batch`](neupims_llm::lower_batch) reports at that count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockCost {
    /// Systolic cycles of the QKV generation GEMM.
    pub(crate) qkv_cycles: u64,
    /// Systolic cycles of the projection and both FFN GEMMs.
    pub(crate) rest_cycles: u64,
    /// Weight bytes of the QKV generation GEMM.
    pub(crate) qkv_weight_bytes: u64,
    /// Weight bytes of the projection and both FFN GEMMs.
    pub(crate) rest_weight_bytes: u64,
    /// GEMM FLOPs.
    pub(crate) gemm_flops: u64,
    /// Vector-unit cycles outside MHA.
    pub(crate) vector_cycles: u64,
    /// Bytes each tensor-parallel all-reduce moves per device.
    pub(crate) allreduce_bytes: u64,
    /// All-reduces per block (2 with TP > 1, else 0).
    pub(crate) allreduces: u32,
}

/// One decoder block's batch-size-dependent operators, lowered for one
/// model shape and TP degree and priced at any row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockLowering {
    /// QKV generation, attention projection, FFN1, FFN2.
    gemms: [GemmTiles; 4],
    sa: SystolicCost,
    arrays: Divisor,
    vc: VectorCost,
    d_model: u64,
    d_ff: u64,
    tp: Divisor,
    /// Bytes one all-reduce moves per GEMM row (`d·es`; 0 without TP).
    allreduce_bytes_per_row: u64,
    allreduces: u32,
}

impl BlockLowering {
    /// Lowers `model`'s block at tensor parallelism `tp` on `npu`, with
    /// the GEMM shapes of [`lower_batch`](neupims_llm::lower_batch).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidShape`] when a GEMM's weight shape has a
    /// zero dimension.
    pub(crate) fn new(npu: &NpuConfig, model: &LlmConfig, tp: u32) -> Result<Self, SimError> {
        let sa = SystolicCost::new(npu);
        let d = model.d_model as u64;
        let d_ff = model.d_ff as u64;
        let shards = tp.max(1) as u64;
        let gemm = |k, n| GemmTiles::new(&sa, k, n, model.dtype);
        let sharded = tp > 1;
        Ok(Self {
            gemms: [
                gemm(d, 3 * d / shards)?,
                gemm(d / shards, d)?,
                gemm(d, d_ff / shards)?,
                gemm(d_ff / shards, d)?,
            ],
            sa,
            arrays: Divisor::new(sa.arrays()),
            vc: VectorCost::new(npu),
            d_model: d,
            d_ff,
            tp: Divisor::new(shards),
            allreduce_bytes_per_row: if sharded {
                d * model.dtype.size_bytes()
            } else {
                0
            },
            allreduces: if sharded { 2 } else { 0 },
        })
    }

    /// Weight bytes of the block's GEMMs.
    pub(crate) fn weight_bytes(&self) -> u64 {
        self.gemms.iter().map(|g| g.weight_bytes).sum()
    }

    /// GEMM FLOPs at `m` rows (lowering clamps the row count to one).
    pub(crate) fn gemm_flops(&self, m: u64) -> u64 {
        m.max(1) * self.gemms.iter().map(|g| g.flops_per_row).sum::<u64>()
    }

    /// Bytes each all-reduce moves per device at `m` rows.
    pub(crate) fn allreduce_bytes(&self, m: u64) -> u64 {
        m.max(1) * self.allreduce_bytes_per_row
    }

    /// All-reduces per block.
    pub(crate) fn allreduces(&self) -> u32 {
        self.allreduces
    }

    /// The block's cost at `m` GEMM rows (clamped to one, as lowering
    /// clamps it).
    pub(crate) fn at(&self, m: u64) -> BlockCost {
        let m = m.max(1);
        let [qkv, rest @ ..] = &self.gemms;
        let cycles = |g: &GemmTiles| g.compute_cycles(&self.sa, self.arrays, m);
        // Two layernorms and two residual adds over `m x d`, and the GeLU
        // over the `m x d_ff / tp` FFN activations.
        let vc = &self.vc;
        let d = self.d_model;
        let vector_cycles =
            2 * vc.layernorm(m, d) + 2 * vc.add(m * d) + vc.gelu(self.tp.div(m * self.d_ff));
        BlockCost {
            qkv_cycles: cycles(qkv),
            rest_cycles: rest.iter().map(cycles).sum(),
            qkv_weight_bytes: qkv.weight_bytes,
            rest_weight_bytes: rest.iter().map(|g| g.weight_bytes).sum(),
            gemm_flops: self.gemm_flops(m),
            vector_cycles,
            allreduce_bytes: self.allreduce_bytes(m),
            allreduces: self.allreduces,
        }
    }
}

/// The model fields a block lowering reads (heads, `d_model`, `d_ff`,
/// dtype), plus the TP degree.
type ShapeKey = (u32, u32, u32, DataType, u32);

/// The block lowering of the first model shape a pricer priced, kept for
/// every later call of that shape; a call that brings another shape
/// lowers afresh (a backend usually serves one). A memo serves one NPU
/// configuration.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockMemo(OnceLock<(ShapeKey, BlockLowering)>);

impl BlockMemo {
    /// The lowering of `model`'s block at `tp` on `npu`.
    ///
    /// # Errors
    ///
    /// Propagates [`BlockLowering::new`]'s errors.
    pub(crate) fn get(
        &self,
        npu: &NpuConfig,
        model: &LlmConfig,
        tp: u32,
    ) -> Result<Cow<'_, BlockLowering>, SimError> {
        let key = (model.num_heads, model.d_model, model.d_ff, model.dtype, tp);
        if let Some((_, lowering)) = self.0.get().filter(|(k, _)| *k == key) {
            return Ok(Cow::Borrowed(lowering));
        }
        let lowering = BlockLowering::new(npu, model, tp)?;
        let _ = self.0.set((key, lowering.clone()));
        Ok(Cow::Owned(lowering))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_llm::lower_batch;

    /// Every preset model, and a small one whose sharded GEMMs have a
    /// single, partial K tile: the presets' K extents all exceed one tile,
    /// where the busiest array's full-K rounds bound every pass and the
    /// edge tile's K never shows.
    fn models() -> [LlmConfig; 9] {
        [
            LlmConfig::gpt3_7b(),
            LlmConfig::gpt3_13b(),
            LlmConfig::gpt3_30b(),
            LlmConfig::gpt3_175b(),
            LlmConfig::gpt_neox_20b(),
            LlmConfig::llama2_13b(),
            LlmConfig::opt_30b(),
            LlmConfig::mpt_30b(),
            LlmConfig {
                name: "tiny".into(),
                num_heads: 8,
                d_model: 200,
                d_ff: 800,
                ..LlmConfig::gpt3_7b()
            },
        ]
    }

    /// The block cost `lower_batch` reports at `m` rows.
    fn lowered(npu: &NpuConfig, model: &LlmConfig, tp: u32, m: u64) -> BlockCost {
        let lb = lower_batch(npu, model, tp, m).unwrap();
        BlockCost {
            qkv_cycles: lb.gemms[0].compute_cycles,
            rest_cycles: lb.gemms[1..].iter().map(|g| g.compute_cycles).sum(),
            qkv_weight_bytes: lb.gemms[0].weight_bytes,
            rest_weight_bytes: lb.gemms[1..].iter().map(|g| g.weight_bytes).sum(),
            gemm_flops: lb.gemm_flops(),
            vector_cycles: lb.vector_cycles,
            allreduce_bytes: lb.allreduce_bytes,
            allreduces: lb.allreduces,
        }
    }

    /// The lowering of one shape prices every row count as lowering the
    /// block at that count does: compute cycles, weight bytes, FLOPs,
    /// vector cycles and all-reduces, for every preset model (and a small
    /// one), TP 1, 2, 3, 4 and 8, and m from 0 to 4096.
    #[test]
    fn one_lowering_per_shape_prices_every_row_count() {
        let npu = NpuConfig::table2();
        for model in models() {
            for tp in [1, 2, 3, 4, 8] {
                let block = BlockLowering::new(&npu, &model, tp).unwrap();
                let at_one = lower_batch(&npu, &model, tp, 1).unwrap();
                assert_eq!(block.weight_bytes(), at_one.weight_bytes());
                for m in 0..=4096 {
                    let name = &model.name;
                    assert_eq!(
                        block.at(m),
                        lowered(&npu, &model, tp, m),
                        "{name} tp {tp} m {m}"
                    );
                }
            }
        }
    }

    /// The mutation that prices edge tiles at the full K extent is caught
    /// by the comparison above: some row count of the small model's
    /// sharded block then differs from lowering.
    #[test]
    fn edge_tiles_are_priced_at_their_own_k() {
        let npu = NpuConfig::table2();
        let model = &models()[8];
        let mut block = BlockLowering::new(&npu, model, 8).unwrap();
        let full_k = block.sa.rows();
        for gemm in &mut block.gemms {
            gemm.k_edge = full_k;
        }
        assert!((0..=4096).any(|m| block.at(m) != lowered(&npu, model, 8, m)));
    }

    /// The same at systolic and vector geometries that are not powers of
    /// two, where every K extent leaves an edge tile.
    #[test]
    fn lowering_holds_on_odd_npu_geometries() {
        let npu = NpuConfig {
            sa_rows: 96,
            sa_cols: 80,
            systolic_arrays: 6,
            vu_lanes: 100,
            ..NpuConfig::table2()
        };
        for model in [
            LlmConfig::gpt3_7b(),
            LlmConfig::llama2_13b(),
            models()[8].clone(),
        ] {
            for tp in [1, 2, 4] {
                let block = BlockLowering::new(&npu, &model, tp).unwrap();
                for m in (0..=600).chain([1000, 2047, 4096]) {
                    let name = &model.name;
                    assert_eq!(
                        block.at(m),
                        lowered(&npu, &model, tp, m),
                        "{name} tp {tp} m {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn memo_keeps_the_first_shape_and_lowers_others_afresh() {
        let npu = NpuConfig::table2();
        let memo = BlockMemo::default();
        let (a, b) = (LlmConfig::gpt3_7b(), LlmConfig::gpt3_13b());
        assert!(matches!(memo.get(&npu, &a, 4).unwrap(), Cow::Owned(_)));
        assert!(matches!(memo.get(&npu, &a, 4).unwrap(), Cow::Borrowed(_)));
        let other = memo.get(&npu, &b, 4).unwrap();
        assert!(matches!(other, Cow::Owned(_)));
        assert_eq!(*other, BlockLowering::new(&npu, &b, 4).unwrap());
        assert!(matches!(memo.get(&npu, &a, 2).unwrap(), Cow::Owned(_)));
    }
}
