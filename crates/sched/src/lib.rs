//! NeuPIMs scheduling: Algorithms 1–3 plus iteration-level serving.
//!
//! The paper's algorithmic contribution is a three-piece scheduler:
//!
//! * [`estimator::MhaLatencyEstimator`] — **Algorithm 1**: estimates a
//!   request's MHA latency on the PIM from its context length and the K/V
//!   memory layout (`L_GWRITE`, `L_tile` calibrated from the cycle model);
//! * [`cost`] — the [`MhaCostModel`] trait unifying MHA pricing: the
//!   Algorithm 1 closed form (the estimator itself) and a trace-driven
//!   cycle-level model ([`TraceDrivenCostModel`]) that replays the real
//!   GEMV command streams through `neupims-dram`, plus the
//!   [`calibration_drift`] check between them;
//! * [`binpack`] — **Algorithm 2**: greedy min-load bin packing of requests
//!   onto PIM channels ([`MinLoadPacker`]), balancing the per-channel MHA
//!   latency (the paper's GMLBP ablation knob);
//! * [`partition`] — **Algorithm 3**: splitting each channel's requests
//!   into two sub-batches of near-equal size for interleaved execution,
//!   in one pass from per-channel counts ([`SubBatchSides`]);
//! * [`pool::RequestPool`] — the request pool table of Figure 7 with
//!   Orca-style iteration-level scheduling: requests join and leave the
//!   running batch only at iteration boundaries, each with the caller's
//!   per-request record beside it.
//!
//! # Example
//!
//! ```
//! use neupims_kvcache::KvGeometry;
//! use neupims_sched::{MhaLatencyEstimator, MinLoadPacker};
//! use neupims_types::{LlmConfig, MemConfig};
//!
//! let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &MemConfig::table2(), 4);
//! let est = MhaLatencyEstimator::new(geo, 280.0, 50.0);
//! let seqs = vec![900, 40, 700, 100, 50, 300];
//! let costs: Vec<f64> = seqs.iter().map(|&s| est.estimate(s)).collect();
//! let mut assignment = Vec::new();
//! MinLoadPacker::new().assign(&seqs, &costs, 4, &mut assignment);
//! assert_eq!(assignment.len(), seqs.len());
//! ```

#![warn(missing_docs)]

pub mod binpack;
pub mod cost;
pub mod estimator;
pub mod partition;
pub mod pool;

pub use binpack::{total_order_bits, MinLoadPacker};
pub use cost::{
    calibration_drift, CostModelKind, DriftPoint, DriftReport, MhaCostModel, TraceDrivenCostModel,
    TraceHardware, TraceMemo, TraceSnapshot, COST_MODEL_NAMES, DEFAULT_DRIFT_TOLERANCE,
};
pub use estimator::MhaLatencyEstimator;
pub use partition::SubBatchSides;
pub use pool::RequestPool;
