//! Decoder-block IR construction.
//!
//! One decoder block (Figure 1a / Figure 2) lowers to:
//!
//! 1. layernorm → **QKV generation** GEMM (`m x d x 3d/tp`)
//! 2. **multi-head attention**: per-request logit GEMV, softmax, attend
//!    GEMV (the selective-batching split of Orca: GEMMs batch, MHA cannot)
//! 3. **output projection** GEMM (`m x d/tp x d`) + residual add
//! 4. layernorm → **FFN** GEMMs (`m x d x d_ff/tp`, GeLU,
//!    `m x d_ff/tp x d`) + residual add
//! 5. two tensor-parallel all-reduces (after projection and after FFN2)
//!
//! In the generation phase `m` equals the number of batched requests (one
//! token each); in summarization `m` is the total prompt tokens. MHA
//! operates per request at its context length either way, so the IR holds
//! every operator but MHA, and the pricers cost MHA per request.

use neupims_types::LlmConfig;

use crate::ops::{Op, OpKind};

/// The operators of one decoder block whose shapes depend only on the GEMM
/// row count `m` (clamped to at least 1), in execution order: every
/// operator except the per-request MHA GEMVs and softmax, which run after
/// `qkv_gen`. Builds no `Vec`.
pub(crate) fn batch_ops(model: &LlmConfig, tp: u32, m: u64) -> [Op; 11] {
    let d = model.d_model as u64;
    let d_ff = model.d_ff as u64;
    let tp = tp.max(1) as u64;
    let m = m.max(1);
    let es = model.dtype.size_bytes();
    let op = |name, kind| Op { name, kind };
    [
        op("ln_attn", OpKind::LayerNorm { rows: m, width: d }),
        op(
            "qkv_gen",
            OpKind::Gemm {
                m,
                k: d,
                n: 3 * d / tp,
            },
        ),
        op("attn_proj", OpKind::Gemm { m, k: d / tp, n: d }),
        op("allreduce_attn", OpKind::AllReduce { bytes: m * d * es }),
        op("add_attn", OpKind::Add { elems: m * d }),
        op("ln_ffn", OpKind::LayerNorm { rows: m, width: d }),
        op(
            "ffn1",
            OpKind::Gemm {
                m,
                k: d,
                n: d_ff / tp,
            },
        ),
        op(
            "gelu",
            OpKind::Gelu {
                elems: m * d_ff / tp,
            },
        ),
        op(
            "ffn2",
            OpKind::Gemm {
                m,
                k: d_ff / tp,
                n: d,
            },
        ),
        op("allreduce_ffn", OpKind::AllReduce { bytes: m * d * es }),
        op("add_ffn", OpKind::Add { elems: m * d }),
    ]
}

/// Attention heads resident on one device at `tp` (at least one): the row
/// multiplier of each request's softmax.
pub fn heads_per_device(model: &LlmConfig, tp: u32) -> u64 {
    (model.num_heads as u64 / tp.max(1) as u64).max(1)
}

/// Per-layer GEMM weight bytes resident on one device at `tp`.
pub fn weight_bytes_per_layer_dev(model: &LlmConfig, tp: u32) -> u64 {
    let d = model.d_model as u64;
    let d_ff = model.d_ff as u64;
    let tp = tp.max(1) as u64;
    let es = model.dtype.size_bytes();
    // QKV (d x 3d) + proj (d x d) + FFN (2 * d * d_ff), all sharded by tp.
    ((3 * d * d) + (d * d) + (2 * d * d_ff)) / tp * es
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_rows_equal_the_row_count() {
        let model = LlmConfig::gpt3_7b();
        let ops = batch_ops(&model, 4, 3);
        let qkv = ops.iter().find(|o| o.name == "qkv_gen").unwrap();
        match qkv.kind {
            OpKind::Gemm { m, k, n } => {
                assert_eq!(m, 3);
                assert_eq!(k, 4096);
                assert_eq!(n, 3 * 4096 / 4);
            }
            _ => panic!("qkv_gen must be a GEMM"),
        }
    }

    #[test]
    fn block_has_every_batch_stage() {
        let model = LlmConfig::gpt3_13b();
        let ops = batch_ops(&model, 4, 8);
        let names: Vec<&str> = ops.iter().map(|o| o.name).collect();
        // Every stage but the per-request MHA, in execution order.
        assert_eq!(
            names,
            [
                "ln_attn",
                "qkv_gen",
                "attn_proj",
                "allreduce_attn",
                "add_attn",
                "ln_ffn",
                "ffn1",
                "gelu",
                "ffn2",
                "allreduce_ffn",
                "add_ffn",
            ]
        );
        // QKV, projection, FFN1, FFN2.
        let gemms = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Gemm { .. }))
            .count();
        assert_eq!(gemms, 4);
    }

    #[test]
    fn weight_bytes_match_model_accounting() {
        let model = LlmConfig::gpt3_7b();
        assert_eq!(
            weight_bytes_per_layer_dev(&model, 1),
            model.weight_bytes_per_layer()
        );
        assert_eq!(
            weight_bytes_per_layer_dev(&model, 4),
            model.weight_bytes_per_layer() / 4
        );
    }

    #[test]
    fn empty_batch_degenerates_to_unit_rows() {
        let model = LlmConfig::gpt3_7b();
        let ops = batch_ops(&model, 4, 0);
        let qkv = ops.iter().find(|o| o.name == "qkv_gen").unwrap();
        match qkv.kind {
            OpKind::Gemm { m, .. } => assert_eq!(m, 1),
            _ => panic!(),
        }
    }
}
