//! GPU-only baseline (roofline model of an A100-class part).
//!
//! The paper's GPU-only baseline is a real A100 running PyTorch; Figure 12
//! shows it within a hair of the NPU-only simulator baseline (both execute
//! the full decoder, including bandwidth-bound MHA, on one homogeneous
//! device). We model it the same way the motivation study models GPUs: each
//! layer costs `max(flops / peak, bytes / bandwidth)`, with every K/V and
//! weight byte crossing the memory bus once per iteration.

use neupims_types::{Cycle, GpuSpec, LlmConfig, NpuConfig, SimError};

use crate::interconnect::{Interconnect, PcieLink};
use crate::lowering::BlockMemo;
use crate::metrics::IterationBreakdown;

/// What the roofline reads from one decoder block's lowering at some GEMM
/// row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RooflineCost {
    weight_bytes: u64,
    gemm_flops: u64,
    allreduce_bytes: u64,
    allreduces: u32,
}

impl RooflineCost {
    /// The cost of `model`'s block at `tp` and `rows` GEMM rows, from its
    /// lowering in `memo` on the NPU whose GEMM shapes the roofline
    /// reuses: weight bytes do not depend on the row count, and GEMM
    /// FLOPs (`2·m·k·n` per GEMM) and all-reduce bytes (`m·d` elements)
    /// scale with it.
    fn at(memo: &BlockMemo, model: &LlmConfig, tp: u32, rows: u64) -> Result<Self, SimError> {
        let block = memo.get(&NpuConfig::table2(), model, tp)?;
        Ok(Self {
            weight_bytes: block.weight_bytes(),
            gemm_flops: block.gemm_flops(rows),
            allreduce_bytes: block.allreduce_bytes(rows),
            allreduces: block.allreduces(),
        })
    }
}

/// Prices one decode iteration on a GPU-only system (one GPU worth of a
/// tensor-parallel group; divide model shards accordingly via `tp`) for
/// [`crate::backend::GpuRooflineBackend`]. Tensor-parallel all-reduces
/// cost the same ring traffic the accelerator devices pay (Section 8.1's
/// equivalent-system fairness rule).
///
/// Returns a breakdown in *device cycles at 1 GHz* so results compare
/// directly with the accelerator devices.
///
/// # Errors
///
/// Propagates model validation/compilation errors; rejects empty batches.
pub(crate) fn decode_impl(
    gpu: &GpuSpec,
    block: &BlockMemo,
    model: &LlmConfig,
    tp: u32,
    layers: u32,
    seq_lens: &[u64],
) -> Result<IterationBreakdown, SimError> {
    if seq_lens.is_empty() {
        return Err(SimError::InvalidShape("empty batch".into()));
    }
    if layers == 0 {
        return Err(SimError::InvalidShape("zero resident layers".into()));
    }
    model.validate()?;
    // Reuse the operator lowering for shapes; GPU peaks price the math.
    let cost = RooflineCost::at(block, model, tp, seq_lens.len() as u64)?;
    Ok(price_decode(gpu, model, tp, layers, seq_lens, cost))
}

/// [`decode_impl`] over a validated, non-empty batch whose block lowers
/// to `cost`.
fn price_decode(
    gpu: &GpuSpec,
    model: &LlmConfig,
    tp: u32,
    layers: u32,
    seq_lens: &[u64],
    cost: RooflineCost,
) -> IterationBreakdown {
    let es = model.dtype.size_bytes();
    let heads = (model.num_heads / tp.max(1)).max(1) as u64;
    let d_head = (model.d_model / model.num_heads) as u64;
    let embed = heads * d_head;

    let RooflineCost {
        weight_bytes,
        gemm_flops,
        allreduce_bytes,
        allreduces,
    } = cost;
    let (mut kv_bytes, mut mha_flops) = (0u64, 0u64);
    for &s in seq_lens {
        kv_bytes += 2 * s * embed * es;
        mha_flops += 4 * s * embed;
    }

    // Stage-level roofline: the GEMM kernels overlap weight streaming with
    // compute, but the bandwidth-bound MHA kernels serialize after them
    // (the dependency of Figure 11(a) applies to GPUs just as much). This
    // reproduces the paper's observation that GPU-only and NPU-only differ
    // only marginally.
    let t_gemm = (gemm_flops as f64 / gpu.peak_fp16_flops)
        .max(weight_bytes as f64 / gpu.mem_bw_bytes_per_sec);
    let t_mha =
        (kv_bytes as f64 / gpu.mem_bw_bytes_per_sec).max(mha_flops as f64 / gpu.peak_fp16_flops);
    // Ring all-reduce over the same interconnect class (cycles = ns). A
    // TP > 1 block lowers each of its `allreduces` from `m·d` elements
    // with `m` and `d` positive, so zero bytes come only with zero
    // all-reduces, where the link's free empty collective changes nothing.
    let allreduce = PcieLink::default().all_reduce_cycles(allreduce_bytes, tp) * allreduces as u64;
    let layer_secs = t_gemm + t_mha + allreduce as f64 * 1e-9;
    let total = (layer_secs * layers as f64 * 1e9).ceil() as Cycle;
    let t_compute = (gemm_flops + mha_flops) as f64 / gpu.peak_fp16_flops;

    IterationBreakdown {
        total_cycles: total.max(1),
        npu_flops: (gemm_flops + mha_flops) * layers as u64,
        npu_busy: (t_compute * layers as f64 * 1e9) as Cycle,
        bus_bytes: (weight_bytes + kv_bytes) * layers as u64,
        tokens: seq_lens.len() as u64,
        pim_busy: Vec::new(),
        allreduce_cycles: allreduce * layers as u64,
        ..Default::default()
    }
}

/// Prices the summarization (prefill) phase on the GPU roofline: the GEMMs
/// and the batched attention run at whichever of compute or bandwidth
/// binds, exactly like the motivation study's Figure 4 analysis. Returns
/// device cycles at 1 GHz.
pub(crate) fn prefill_impl(
    gpu: &GpuSpec,
    block: &BlockMemo,
    model: &LlmConfig,
    tp: u32,
    layers: u32,
    prompt_lens: &[u64],
) -> Result<Cycle, SimError> {
    if prompt_lens.is_empty() {
        return Err(SimError::InvalidShape("empty prompt batch".into()));
    }
    if layers == 0 {
        return Err(SimError::InvalidShape("zero resident layers".into()));
    }
    model.validate()?;
    // Every prompt token is a GEMM row.
    let cost = RooflineCost::at(block, model, tp, prompt_lens.iter().sum())?;
    Ok(price_prefill(gpu, model, tp, layers, prompt_lens, cost))
}

/// [`prefill_impl`] over a validated, non-empty prompt batch whose block
/// lowers to `cost`.
fn price_prefill(
    gpu: &GpuSpec,
    model: &LlmConfig,
    tp: u32,
    layers: u32,
    prompt_lens: &[u64],
    cost: RooflineCost,
) -> Cycle {
    // Summarization attention is a batched activation-activation GEMM over
    // each prompt: 4 * s^2 * d_dev FLOPs with full reuse (compute-bound).
    let attn_flops: u64 = prompt_lens
        .iter()
        .map(|&s| 4 * s * s * (model.d_model as u64 / tp.max(1) as u64))
        .sum();
    let t_gemm = (cost.gemm_flops as f64 / gpu.peak_fp16_flops)
        .max(cost.weight_bytes as f64 / gpu.mem_bw_bytes_per_sec);
    let t_attn = attn_flops as f64 / gpu.peak_fp16_flops;
    let layer_secs = t_gemm + t_attn;
    ((layer_secs * layers as f64 * 1e9).ceil() as Cycle).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_llm::compiler::lower_batch;

    #[test]
    fn decode_is_memory_bound() {
        let gpu = GpuSpec::a100();
        let model = LlmConfig::gpt3_7b();
        let b = decode_impl(
            &gpu,
            &BlockMemo::default(),
            &model,
            4,
            model.num_layers,
            &[376; 256],
        )
        .unwrap();
        // At decode batch sizes an A100 iteration is bandwidth-limited:
        // busy compute well below the makespan.
        assert!(b.npu_busy < b.total_cycles);
        assert_eq!(b.tokens, 256);
    }

    #[test]
    fn errors_on_degenerate_input() {
        let gpu = GpuSpec::a100();
        let model = LlmConfig::gpt3_7b();
        assert!(decode_impl(&gpu, &BlockMemo::default(), &model, 4, 32, &[]).is_err());
        assert!(decode_impl(&gpu, &BlockMemo::default(), &model, 4, 0, &[3]).is_err());
    }

    #[test]
    fn longer_contexts_cost_more() {
        let gpu = GpuSpec::a100();
        let model = LlmConfig::gpt3_13b();
        let short = decode_impl(&gpu, &BlockMemo::default(), &model, 4, 40, &[64; 128]).unwrap();
        let long = decode_impl(&gpu, &BlockMemo::default(), &model, 4, 40, &[1024; 128]).unwrap();
        assert!(long.total_cycles > short.total_cycles);
    }

    /// The memoized block constants price every call exactly as lowering
    /// the block at the call's row count does: decode breakdowns and
    /// prefill cycles of one backend, across every preset model and
    /// several TP degrees (3 does not divide every dimension), equal a
    /// reference that lowers on every call.
    #[test]
    fn block_constants_match_lowering_every_call() {
        use crate::backend::{Backend, GpuRooflineBackend};

        let backend = GpuRooflineBackend::a100();
        let gpu = backend.gpu().clone();
        let models = [
            LlmConfig::gpt3_7b(),
            LlmConfig::gpt3_13b(),
            LlmConfig::gpt3_30b(),
            LlmConfig::gpt3_175b(),
            LlmConfig::gpt_neox_20b(),
            LlmConfig::llama2_13b(),
            LlmConfig::opt_30b(),
            LlmConfig::mpt_30b(),
        ];
        let seqs: Vec<u64> = (0..1024u64).map(|i| 1 + 37 * i % 2048).collect();
        let lowered = |model: &LlmConfig, tp: u32, rows: u64| {
            let lb = lower_batch(&NpuConfig::table2(), model, tp, rows).unwrap();
            RooflineCost {
                weight_bytes: lb.weight_bytes(),
                gemm_flops: lb.gemm_flops(),
                allreduce_bytes: lb.allreduce_bytes,
                allreduces: lb.allreduces,
            }
        };
        for model in &models {
            for tp in [1, 2, 3, 4, 8] {
                let layers = model.num_layers;
                for rows in 1..=1024 {
                    let batch = &seqs[..rows];
                    let rows = rows as u64;
                    assert_eq!(
                        backend
                            .decode_iteration(model, tp, layers, batch)
                            .unwrap()
                            .into_breakdown(),
                        price_decode(&gpu, model, tp, layers, batch, lowered(model, tp, rows)),
                        "decode {} tp {tp} rows {rows}",
                        model.name
                    );
                    let prompts = [rows / 2, rows - rows / 2];
                    assert_eq!(
                        backend.prefill_cycles(model, tp, layers, &prompts).unwrap(),
                        price_prefill(&gpu, model, tp, layers, &prompts, lowered(model, tp, rows)),
                        "prefill {} tp {tp} rows {rows}",
                        model.name
                    );
                }
            }
        }
    }
}
