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
//! operates per request at its context length either way.

use neupims_types::{LlmConfig, Phase};

use crate::ops::{Op, OpKind};

/// Builds the operator list of one decoder block.
///
/// `tp` is the tensor-parallel degree actually deployed (may differ from
/// the model's Table 3 default); `seq_lens` carries each batched request's
/// current context length. For [`Phase::Summarization`] the GEMM row count
/// is the sum of prompt lengths; for [`Phase::Generation`] it is the number
/// of requests.
pub fn decoder_block_ops(model: &LlmConfig, tp: u32, seq_lens: &[u64], phase: Phase) -> Vec<Op> {
    let m: u64 = match phase {
        Phase::Summarization => seq_lens.iter().sum(),
        Phase::Generation => seq_lens.len() as u64,
    };
    let [ln_attn, qkv_gen, rest @ ..] = batch_ops(model, tp, m);
    let mut ops = Vec::with_capacity(13);
    ops.extend([
        ln_attn,
        qkv_gen,
        Op {
            name: "mha",
            kind: OpKind::MhaGemv {
                seq_lens: seq_lens.to_vec(),
            },
        },
        Op {
            name: "softmax",
            kind: OpKind::Softmax {
                seq_lens: seq_lens.to_vec(),
                heads: heads_per_device(model, tp),
            },
        },
    ]);
    ops.extend(rest);
    ops
}

/// The operators of one decoder block whose shapes depend only on the GEMM
/// row count `m` (clamped to at least 1), in execution order: every
/// operator except the per-request MHA GEMVs and softmax, which
/// [`decoder_block_ops`] inserts after `qkv_gen`. Builds no `Vec`.
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
    use crate::ops::Engine;

    #[test]
    fn generation_rows_equal_batch() {
        let model = LlmConfig::gpt3_7b();
        let ops = decoder_block_ops(&model, 4, &[100, 200, 300], Phase::Generation);
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
    fn summarization_rows_equal_total_tokens() {
        let model = LlmConfig::gpt3_7b();
        let ops = decoder_block_ops(&model, 4, &[100, 200, 300], Phase::Summarization);
        let qkv = ops.iter().find(|o| o.name == "qkv_gen").unwrap();
        match qkv.kind {
            OpKind::Gemm { m, .. } => assert_eq!(m, 600),
            _ => panic!(),
        }
    }

    #[test]
    fn block_has_every_stage() {
        let model = LlmConfig::gpt3_13b();
        let ops = decoder_block_ops(&model, 4, &[64; 8], Phase::Generation);
        let names: Vec<&str> = ops.iter().map(|o| o.name).collect();
        // Every stage, in execution order.
        assert_eq!(
            names,
            [
                "ln_attn",
                "qkv_gen",
                "mha",
                "softmax",
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
        // Exactly three GEMMs... QKV, projection, FFN1, FFN2 = four.
        let gemms = ops
            .iter()
            .filter(|o| o.engine() == Engine::NpuSystolic)
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
        let ops = decoder_block_ops(&model, 4, &[], Phase::Generation);
        let qkv = ops.iter().find(|o| o.name == "qkv_gen").unwrap();
        match qkv.kind {
            OpKind::Gemm { m, .. } => assert_eq!(m, 1),
            _ => panic!(),
        }
    }
}
