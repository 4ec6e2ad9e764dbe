//! NeuPIMs simulator facade: one crate that re-exports the whole workspace.
//!
//! Depend on `neupims` to get every layer of the simulator — the shared
//! [`types`], the hardware substrate ([`dram`], [`npu`], [`pim`]), the
//! serving machinery ([`kvcache`], [`sched`], [`workload`]), the [`power`]
//! models, and the [`core`] system simulator with its [`core::backend`]
//! trait, and its [`core::system::SystemSpec`]: the one description of a
//! system under test, which prices warm batches and builds serving
//! replicas and fleets.
//!
//! # Quickstart
//!
//! ```
//! use neupims::core::system::SystemSpec;
//! use neupims::workload::{Dataset, DEFAULT_SEED};
//!
//! let (tokens_per_sec, _) = SystemSpec::default()
//!     .warm_means(Dataset::ShareGpt, 64, DEFAULT_SEED, 10, None)
//!     .unwrap();
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
