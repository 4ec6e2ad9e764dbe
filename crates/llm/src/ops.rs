//! Operator IR of one LLM decoder block.
//!
//! Each [`Op`] names one logical operator with enough shape information to
//! cost it on the NPU (GEMMs, vector ops) or the interconnect
//! (all-reduces). The per-request MHA GEMVs and softmax are not in the IR:
//! their shapes are the requests' context lengths, and the pricers cost
//! them per request. The IR deliberately stays at operator granularity:
//! lowering to tiles and command streams happens in [`crate::compiler`].

use neupims_types::Bytes;

/// One operator of the decoder block.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Human-readable name (e.g. `"qkv_gen"`).
    pub name: &'static str,
    /// Shape-bearing kind.
    pub kind: OpKind,
}

/// Operator kinds with their shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Batched weight-activation GEMM `m x k x n`.
    Gemm {
        /// Activation rows (batch/tokens).
        m: u64,
        /// Contraction dim.
        k: u64,
        /// Output dim.
        n: u64,
    },
    /// Layer normalization over `rows` rows of `width` elements.
    LayerNorm {
        /// Row count.
        rows: u64,
        /// Row width.
        width: u64,
    },
    /// GeLU over `elems` elements.
    Gelu {
        /// Element count.
        elems: u64,
    },
    /// Residual addition over `elems` elements.
    Add {
        /// Element count.
        elems: u64,
    },
    /// Tensor-parallel all-reduce of `bytes` per device.
    AllReduce {
        /// Payload bytes per device.
        bytes: Bytes,
    },
}
