//! Workload synthesis: ShareGPT/Alpaca length distributions and the
//! paper's batch warm-up methodology.
//!
//! The evaluation (Section 8.1) draws request input/output lengths from two
//! real datasets — ShareGPT (mean input 80, mean output 296 tokens) and
//! Alpaca (mean input 12, mean output 56) — and, because cycle simulation
//! of full serving runs is infeasible, samples *warmed* batches: batches
//! whose requests sit at random points of their generation progress. This
//! crate reproduces both pieces synthetically with seeded RNGs:
//!
//! * [`dataset::Dataset`] — log-normal length distributions matched to the
//!   published means;
//! * [`batch::warm_batch`] — the warm-batch sampler, and
//!   [`batch::warm_seq_lens`] its context lengths (the experiments seed it
//!   from [`DEFAULT_SEED`]);
//! * [`pressure::kv_pressure_burst`] — KV-pressure burst traces (modest
//!   prompts, long decode tails, bursty arrivals) that oversubscribe the
//!   paged KV cache and exercise the preemption policies;
//! * [`scenario`] — declarative scenario generators (Poisson / bursty /
//!   diurnal / heavy-tailed arrival processes, sampled as a fixed request
//!   count by [`scenario::arrival_times`], and per-tenant length
//!   distributions) behind the eval harness's TOML suite specs.

#![warn(missing_docs)]

pub mod batch;
pub mod dataset;
pub mod pressure;
pub mod scenario;

pub use batch::{request_buffer, warm_batch, warm_seq_lens, WarmRequest, DEFAULT_SEED};
pub use dataset::Dataset;
pub use pressure::{kv_pressure_burst, PressureRequest, PressureSpec};
pub use scenario::{
    arrival_times, ArrivalProcess, GeneratedRequest, LengthDistribution, ScenarioWorkload,
    TenantClass, TenantMix,
};
