//! The NeuPIMs compiler frontend and IR lowering.
//!
//! Mirrors Section 4's compiler framework: the system admin supplies an LLM
//! specification ([`parse_spec`] accepts a small `key = value` format in the
//! spirit of the paper's ONNX-like syntax), and the compiler lowers the
//! decoder-block IR into cost-annotated execution passes —
//! [`neupims_npu::GemmPlan`]s for the systolic cluster, vector-unit cycle
//! totals, interconnect payloads, and the per-request MHA shapes the PIM
//! scheduler consumes.

use neupims_npu::{plan_gemm, GemmPlan, VectorCost};
use neupims_types::{DataType, LlmConfig, NpuConfig, ParallelismConfig, Phase, SimError};

use crate::block::{batch_ops, heads_per_device};
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
    /// Total NPU systolic cycles of the block's GEMMs.
    pub fn gemm_cycles(&self) -> u64 {
        self.gemms.iter().map(|g| g.compute_cycles).sum()
    }

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
/// [`LlmConfig::validate`] once per pricing call ([`compile_block`] does).
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
            // Per-request MHA is priced by the caller.
            OpKind::MhaGemv { .. } | OpKind::Softmax { .. } => {}
        }
    }

    Ok(BatchLowering {
        gemms: gemms.map(|g| g.expect("a block has four GEMMs")),
        vector_cycles,
        allreduce_bytes,
        allreduces,
    })
}

/// Cost-annotated lowering of one decoder block.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledBlock {
    /// The batch-size-dependent passes: GEMMs, vector ops, all-reduces.
    pub batch: BatchLowering,
    /// Vector-unit cycles of the MHA softmax (overlappable with PIM, Fig. 10).
    pub softmax_cycles: u64,
    /// Per-request context lengths (the PIM job shapes derive from these).
    pub seq_lens: Vec<u64>,
}

/// Lowers one decoder block for `model` at tensor parallelism `tp`: the
/// [`lower_batch`] passes at the phase's GEMM row count (requests in
/// generation, prompt tokens in summarization) plus each request's
/// softmax.
///
/// # Errors
///
/// Returns [`SimError::InvalidShape`]/[`SimError::InvalidConfig`] when the
/// model or the derived GEMM shapes are malformed.
pub fn compile_block(
    npu: &NpuConfig,
    model: &LlmConfig,
    tp: u32,
    seq_lens: &[u64],
    phase: Phase,
) -> Result<CompiledBlock, SimError> {
    model.validate()?;
    let m = match phase {
        Phase::Summarization => seq_lens.iter().sum(),
        Phase::Generation => seq_lens.len() as u64,
    };
    let batch = lower_batch(npu, model, tp, m)?;
    let vc = VectorCost::new(npu);
    let heads = heads_per_device(model, tp);
    Ok(CompiledBlock {
        batch,
        softmax_cycles: seq_lens.iter().map(|&s| vc.softmax(heads, s.max(1))).sum(),
        seq_lens: seq_lens.to_vec(),
    })
}

/// Parses the textual LLM specification format:
///
/// ```text
/// name = my-model
/// layers = 32
/// heads = 32
/// d_model = 4096
/// d_ff = 16384      # optional, defaults to 4 * d_model
/// tp = 4            # optional, defaults to 1
/// pp = 1            # optional, defaults to 1
/// dtype = fp16      # optional: fp16 | fp32 | int8
/// ```
///
/// Lines may carry `#` comments; blank lines are ignored.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] on unknown keys, unparsable values,
/// missing required keys, or a spec that fails [`LlmConfig::validate`].
pub fn parse_spec(text: &str) -> Result<LlmConfig, SimError> {
    let mut name = None;
    let mut layers = None;
    let mut heads = None;
    let mut d_model = None;
    let mut d_ff = None;
    let mut tp = 1u32;
    let mut pp = 1u32;
    let mut dtype = DataType::Fp16;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            SimError::InvalidConfig(format!("line {}: expected key = value", lineno + 1))
        })?;
        let key = key.trim();
        let value = value.trim();
        let parse_u32 = |v: &str| {
            v.parse::<u32>().map_err(|_| {
                SimError::InvalidConfig(format!("line {}: bad number {v:?}", lineno + 1))
            })
        };
        match key {
            "name" => name = Some(value.to_owned()),
            "layers" => layers = Some(parse_u32(value)?),
            "heads" => heads = Some(parse_u32(value)?),
            "d_model" => d_model = Some(parse_u32(value)?),
            "d_ff" => d_ff = Some(parse_u32(value)?),
            "tp" => tp = parse_u32(value)?,
            "pp" => pp = parse_u32(value)?,
            "dtype" => {
                dtype = match value {
                    "fp16" => DataType::Fp16,
                    "fp32" => DataType::Fp32,
                    "int8" => DataType::Int8,
                    other => {
                        return Err(SimError::InvalidConfig(format!(
                            "line {}: unknown dtype {other:?}",
                            lineno + 1
                        )))
                    }
                }
            }
            other => {
                return Err(SimError::InvalidConfig(format!(
                    "line {}: unknown key {other:?}",
                    lineno + 1
                )))
            }
        }
    }

    let require = |opt: Option<u32>, what: &str| {
        opt.ok_or_else(|| SimError::InvalidConfig(format!("missing required key {what:?}")))
    };
    let d_model = require(d_model, "d_model")?;
    let model = LlmConfig {
        name: name
            .ok_or_else(|| SimError::InvalidConfig("missing required key \"name\"".into()))?,
        num_layers: require(layers, "layers")?,
        num_heads: require(heads, "heads")?,
        d_model,
        d_ff: d_ff.unwrap_or(4 * d_model),
        parallelism: ParallelismConfig::new(tp, pp),
        dtype,
    };
    model.validate()?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_gpt3_block() {
        let npu = NpuConfig::table2();
        let model = LlmConfig::gpt3_7b();
        let seqs = vec![128u64; 64];
        let cb = compile_block(&npu, &model, 4, &seqs, Phase::Generation).unwrap();
        // QKV shapes: m=64, k=4096, n=3*4096/4.
        assert_eq!(cb.batch.gemms[0].m, 64);
        assert_eq!(cb.batch.gemms[0].k, 4096);
        assert_eq!(cb.batch.gemms[0].n, 3 * 4096 / 4);
        assert!(cb.batch.vector_cycles > 0);
        assert!(cb.softmax_cycles > 0);
        assert_eq!(cb.batch.allreduces, 2);
        assert_eq!(cb.batch.allreduce_bytes, 64 * 4096 * 2);
        // Weight bytes per block match the model's sharded accounting.
        assert_eq!(
            cb.batch.weight_bytes(),
            crate::block::weight_bytes_per_layer_dev(&model, 4)
        );
    }

    #[test]
    fn no_allreduce_without_tp() {
        let npu = NpuConfig::table2();
        let mut model = LlmConfig::gpt3_7b();
        model.parallelism = ParallelismConfig::new(1, 1);
        let cb = compile_block(&npu, &model, 1, &[64; 8], Phase::Generation).unwrap();
        assert_eq!(cb.batch.allreduces, 0);
        assert_eq!(cb.batch.allreduce_bytes, 0);
    }

    #[test]
    fn softmax_scales_with_context() {
        let npu = NpuConfig::table2();
        let model = LlmConfig::gpt3_7b();
        let short = compile_block(&npu, &model, 4, &[64; 16], Phase::Generation).unwrap();
        let long = compile_block(&npu, &model, 4, &[4096; 16], Phase::Generation).unwrap();
        // Short contexts are dominated by per-row reduction overhead; very
        // long ones by the element sweeps, which scale linearly.
        assert!(
            long.softmax_cycles > 2 * short.softmax_cycles,
            "{} vs {}",
            long.softmax_cycles,
            short.softmax_cycles
        );
    }

    #[test]
    fn batch_lowering_depends_only_on_the_row_count() {
        let npu = NpuConfig::table2();
        let model = LlmConfig::gpt3_13b();
        for tp in [1, 2, 4] {
            let at_16 = lower_batch(&npu, &model, tp, 16).unwrap();
            for seqs in [[64u64; 16], [4096; 16]] {
                let cb = compile_block(&npu, &model, tp, &seqs, Phase::Generation).unwrap();
                assert_eq!(cb.batch, at_16);
            }
            let prefill = compile_block(&npu, &model, tp, &[100, 28], Phase::Summarization);
            assert_eq!(
                prefill.unwrap().batch,
                lower_batch(&npu, &model, tp, 128).unwrap()
            );
        }
        // Zero rows lower like one, as the operator list clamps them.
        assert_eq!(
            lower_batch(&npu, &model, 4, 0).unwrap(),
            lower_batch(&npu, &model, 4, 1).unwrap()
        );
    }

    #[test]
    fn parse_roundtrip() {
        let spec = r#"
            # a comment
            name = custom-6b
            layers = 28
            heads = 16
            d_model = 4096
            tp = 2
            dtype = fp16
        "#;
        let m = parse_spec(spec).unwrap();
        assert_eq!(m.name, "custom-6b");
        assert_eq!(m.num_layers, 28);
        assert_eq!(m.d_ff, 4 * 4096);
        assert_eq!(m.parallelism.tp, 2);
        assert_eq!(m.parallelism.pp, 1);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_spec("layers = 2").is_err()); // missing keys
        assert!(parse_spec("name = x\nlayers = two\nheads = 1\nd_model = 64").is_err());
        assert!(parse_spec("name = x\nbogus_key = 4").is_err());
        assert!(parse_spec("name = x\nlayers 4").is_err()); // no '='
        assert!(parse_spec("name = x\nlayers = 4\nheads = 3\nd_model = 64\ndtype = fp8").is_err());
        // heads not dividing d_model fails validation.
        assert!(parse_spec("name = x\nlayers = 4\nheads = 5\nd_model = 64").is_err());
    }

    #[test]
    fn spec_matches_preset() {
        let spec = "name = GPT3-13B\nlayers = 40\nheads = 40\nd_model = 5120\ntp = 4\npp = 1";
        let parsed = parse_spec(spec).unwrap();
        let preset = LlmConfig::gpt3_13b();
        assert_eq!(parsed, preset);
    }
}
