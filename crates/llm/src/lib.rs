//! LLM decoder-block IR, the NeuPIMs compiler's lowering, and roofline
//! analytics.
//!
//! The paper's compiler framework (Section 4, part 4) takes an LLM
//! specification and a system specification and lowers them to per-engine
//! instruction streams. This crate mirrors that stack:
//!
//! * [`ops`] — the operator IR of one decoder block: GEMMs (QKV generation,
//!   attention output projection, FFNs), per-request MHA GEMVs (logit and
//!   attend), vector operators (softmax, layernorm, GeLU, residual adds),
//!   and tensor-parallel all-reduces;
//! * [`block`] — builds the IR for a model at a given batch size and phase
//!   (summarization vs generation), sharded for tensor parallelism;
//! * [`compiler`] — lowering from IR to cost-annotated execution passes:
//!   [`lower_batch`] lowers the batch-size-dependent ones (NPU tile plans,
//!   vector cycles, all-reduces), which is all a decode pricer needs
//!   besides per-request MHA;
//! * [`roofline`] — arithmetic-intensity and roofline analytics behind the
//!   motivation figures (Figures 4 and 5).
//!
//! # Example
//!
//! ```
//! use neupims_llm::block::decoder_block_ops;
//! use neupims_llm::ops::OpKind;
//! use neupims_types::{LlmConfig, Phase};
//!
//! let ops = decoder_block_ops(&LlmConfig::gpt3_7b(), 4, &[128; 16], Phase::Generation);
//! assert!(ops.iter().any(|op| matches!(op.kind, OpKind::Gemm { .. })));
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod compiler;
pub mod ops;
pub mod roofline;

pub use block::{decoder_block_ops, heads_per_device};
pub use compiler::{lower_batch, BatchLowering};
pub use ops::{Op, OpKind};
pub use roofline::{gpu_utilization, operator_intensity, roofline_tflops, GpuUtilization};
