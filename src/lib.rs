//! NeuPIMs simulator facade: one crate that re-exports the whole workspace.
//!
//! Depend on `neupims` to get every layer of the simulator — the shared
//! [`types`], the hardware substrate ([`dram`], [`npu`], [`pim`]), the
//! serving machinery ([`kvcache`], [`sched`], [`workload`]), the [`power`]
//! models, and the [`core`] system simulator with its [`core::backend`]
//! trait, its [`core::simulation::Simulation`] warm-batch pricer, and its
//! [`core::system::SystemSpec`] builder of serving replicas and fleets.
//!
//! # Quickstart
//!
//! ```
//! use neupims::core::device::Device;
//! use neupims::core::simulation::Simulation;
//! use neupims::workload::Dataset;
//!
//! let sim = Simulation::builder()
//!     .model(neupims::types::LlmConfig::gpt3_7b())
//!     .backend(Device::table2().unwrap())
//!     .dataset(Dataset::ShareGpt)
//!     .batch(64)
//!     .build()
//!     .unwrap();
//! let tokens_per_sec = sim.throughput().unwrap();
//! assert!(tokens_per_sec > 0.0);
//! ```

#![warn(missing_docs)]

pub use neupims_core as core;
pub use neupims_dram as dram;
pub use neupims_kvcache as kvcache;
pub use neupims_llm as llm;
pub use neupims_npu as npu;
pub use neupims_pim as pim;
pub use neupims_power as power;
pub use neupims_sched as sched;
pub use neupims_types as types;
pub use neupims_workload as workload;

/// The README's Rust examples, built and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
