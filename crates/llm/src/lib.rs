//! LLM decoder-block IR, the NeuPIMs compiler's lowering, and roofline
//! analytics.
//!
//! The paper's compiler framework (Section 4, part 4) takes an LLM
//! specification and a system specification and lowers them to per-engine
//! instruction streams. This crate mirrors that stack:
//!
//! * [`ops`] — the operator IR of one decoder block: GEMMs (QKV generation,
//!   attention output projection, FFNs), vector operators (layernorm,
//!   GeLU, residual adds), and tensor-parallel all-reduces; the
//!   per-request MHA (logit and attend GEMVs, softmax) is priced per
//!   request from its context length, outside the IR;
//! * [`block`] — builds the IR for a model at a given GEMM row count,
//!   sharded for tensor parallelism;
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
//! use neupims_llm::lower_batch;
//! use neupims_types::{LlmConfig, NpuConfig};
//!
//! // One decode step of 16 requests at TP 4: 16 GEMM rows.
//! let block = lower_batch(&NpuConfig::table2(), &LlmConfig::gpt3_7b(), 4, 16).unwrap();
//! assert_eq!(block.gemms[0].m, 16);
//! assert_eq!(block.allreduces, 2);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod compiler;
pub mod ops;
pub mod roofline;

pub use block::heads_per_device;
pub use compiler::{lower_batch, BatchLowering};
pub use ops::{Op, OpKind};
pub use roofline::{gpu_utilization, operator_intensity, roofline_tflops, GpuUtilization};
