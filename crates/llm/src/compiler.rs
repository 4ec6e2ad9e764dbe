//! The NeuPIMs compiler's IR lowering.
//!
//! Mirrors Section 4's compiler framework: the compiler lowers the
//! decoder-block IR of a model (an [`LlmConfig`], one of the presets or a
//! suite's model key) into cost-annotated execution passes —
//! [`neupims_npu::GemmPlan`]s for the systolic cluster, vector-unit cycle
//! totals and interconnect payloads. The per-request MHA shapes the PIM
//! scheduler consumes come from the context lengths themselves.

use neupims_npu::{plan_gemm, GemmPlan, VectorCost};
use neupims_types::{LlmConfig, NpuConfig, SimError};

use crate::block::batch_ops;
use crate::ops::OpKind;

/// Cost-annotated lowering of the part of one decoder block that depends
/// only on the GEMM row count `m` (the batch size in generation, the prompt
/// tokens in summarization): everything but the per-request MHA.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLowering {
    /// GEMM passes in execution order: QKV, attention projection, FFN1, FFN2.
    pub gemms: [GemmPlan; 4],
    /// Vector-unit cycles outside MHA (layernorms, GeLU, residual adds).
    pub vector_cycles: u64,
    /// Bytes each tensor-parallel all-reduce moves per device.
    pub allreduce_bytes: u64,
    /// Number of all-reduces per block (2 with TP > 1, else 0).
    pub allreduces: u32,
}

impl BatchLowering {
    /// Weight bytes streamed per block execution.
    pub fn weight_bytes(&self) -> u64 {
        self.gemms.iter().map(|g| g.weight_bytes).sum()
    }

    /// Useful GEMM FLOPs of the block.
    pub fn gemm_flops(&self) -> u64 {
        self.gemms.iter().map(|g| g.flops).sum()
    }
}

/// Lowers the batch-size-dependent operators of one decoder block (all
/// but the per-request MHA) for `model` at tensor parallelism `tp` and `m`
/// GEMM rows. Builds no operator list and reads no context lengths. The
/// device pricers lower a block once per model shape and price any row
/// count from that; tests hold them to this function at every row count.
///
/// The model is not validated here: callers check
/// [`LlmConfig::validate`] once per pricing call.
///
/// # Errors
///
/// Returns [`SimError::InvalidShape`] when a derived GEMM shape has a zero
/// dimension.
pub fn lower_batch(
    npu: &NpuConfig,
    model: &LlmConfig,
    tp: u32,
    m: u64,
) -> Result<BatchLowering, SimError> {
    let vc = VectorCost::new(npu);
    let mut gemms = [None; 4];
    let mut next_gemm = gemms.iter_mut();
    let mut vector_cycles = 0u64;
    let mut allreduce_bytes = 0u64;
    let mut allreduces = 0u32;

    for op in &batch_ops(model, tp, m) {
        match op.kind {
            OpKind::Gemm { m, k, n } => {
                *next_gemm.next().expect("a block has four GEMMs") =
                    Some(plan_gemm(npu, m, k, n, model.dtype)?);
            }
            OpKind::LayerNorm { rows, width } => vector_cycles += vc.layernorm(rows, width),
            OpKind::Gelu { elems } => vector_cycles += vc.gelu(elems),
            OpKind::Add { elems } => vector_cycles += vc.add(elems),
            OpKind::AllReduce { bytes } => {
                if tp > 1 {
                    allreduce_bytes = allreduce_bytes.max(bytes);
                    allreduces += 1;
                }
            }
        }
    }

    Ok(BatchLowering {
        gemms: gemms.map(|g| g.expect("a block has four GEMMs")),
        vector_cycles,
        allreduce_bytes,
        allreduces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::weight_bytes_per_layer_dev;
    use neupims_types::ParallelismConfig;

    #[test]
    fn lower_gpt3_block() {
        let npu = NpuConfig::table2();
        let model = LlmConfig::gpt3_7b();
        let lowered = lower_batch(&npu, &model, 4, 64).unwrap();
        // QKV shapes: m=64, k=4096, n=3*4096/4.
        assert_eq!(lowered.gemms[0].m, 64);
        assert_eq!(lowered.gemms[0].k, 4096);
        assert_eq!(lowered.gemms[0].n, 3 * 4096 / 4);
        assert!(lowered.vector_cycles > 0);
        assert_eq!(lowered.allreduces, 2);
        assert_eq!(lowered.allreduce_bytes, 64 * 4096 * 2);
        // Weight bytes per block match the model's sharded accounting.
        assert_eq!(
            lowered.weight_bytes(),
            weight_bytes_per_layer_dev(&model, 4)
        );
    }

    #[test]
    fn no_allreduce_without_tp() {
        let npu = NpuConfig::table2();
        let mut model = LlmConfig::gpt3_7b();
        model.parallelism = ParallelismConfig::new(1, 1);
        let lowered = lower_batch(&npu, &model, 1, 8).unwrap();
        assert_eq!(lowered.allreduces, 0);
        assert_eq!(lowered.allreduce_bytes, 0);
    }

    #[test]
    fn zero_rows_lower_like_one() {
        // The operator list clamps the row count.
        let npu = NpuConfig::table2();
        let model = LlmConfig::gpt3_13b();
        assert_eq!(
            lower_batch(&npu, &model, 4, 0).unwrap(),
            lower_batch(&npu, &model, 4, 1).unwrap()
        );
    }
}
