//! Paged KV-cache management and the PIM-aware K/V layout (vLLM substitute).
//!
//! NeuPIMs adopts vLLM's page-based KV-cache allocation (Section 2.2) so
//! memory is committed as sequences actually grow, which "effectively
//! increases the batch size significantly". This crate provides:
//!
//! * [`geometry::KvGeometry`] — the Section 6.3 memory layout: how K rows
//!   and transposed V runs map onto banks and pages, and the exact tile /
//!   GWRITE counts Algorithm 1's latency estimator consumes;
//! * [`cache::PagedKvCache`] — count-based per-channel accounting used by
//!   the system simulator (admission, per-token growth, release,
//!   out-of-memory signaling, and the vLLM preempt/restore lifecycle —
//!   see [`cache::PagedKvCache::preempt`]).
//!
//! # Example
//!
//! ```
//! use neupims_kvcache::{KvGeometry, PagedKvCache};
//! use neupims_types::{ChannelId, LlmConfig, MemConfig};
//!
//! let model = LlmConfig::gpt3_7b();
//! let geo = KvGeometry::with_tp(&model, &MemConfig::table2(), model.parallelism.tp);
//! let mut kv = PagedKvCache::new(&MemConfig::table2(), geo, model.num_layers);
//! let mut alloc = kv.admit(ChannelId::new(3), 80).unwrap();
//! kv.append_token(&mut alloc).unwrap();
//! assert!(kv.utilization() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod geometry;

pub use cache::{KvAlloc, PagedKvCache, PreemptedKv};
pub use geometry::{KvCounts, KvGeometry};
