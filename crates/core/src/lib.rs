//! The NeuPIMs system simulator: heterogeneous NPU-PIM device, baselines,
//! multi-device scaling, and end-to-end serving behind one backend API.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * [`backend`] — the unified [`Backend`] trait every simulated system
//!   implements ([`Device`] in all three device modes,
//!   [`GpuRooflineBackend`], [`TransPimBackend`]), with structured
//!   [`IterationResult`] / [`BackendError`] types and a name registry for
//!   CLI selection;
//! * [`device`] — one accelerator executing batched decode iterations
//!   under a [`device::DeviceMode`]: `NpuOnly`, `NaiveNpuPim` (blocked-mode
//!   PIM, round-robin channels), or `NeuPims` (dual row buffers, optional
//!   greedy min-load bin packing and sub-batch interleaving) — the ablation
//!   axes of Figure 13;
//! * [`gpu`] — the GPU-only roofline baseline (A100-class);
//! * [`transpim`] — the TransPIM comparator (PIM-only, single-request
//!   token dataflow) for Figure 15;
//! * [`interconnect`] — the [`Interconnect`] trait pricing chip-to-chip
//!   collectives (ring all-reduce/all-gather, point-to-point hops) with
//!   PCIe/CXL-style links, IANUS-style unified-memory fabrics, and
//!   LEAP-style 2D-mesh NoCs as shipped implementations;
//! * [`sharding`] — first-class multi-chip model parallelism:
//!   [`ShardedBackend`] wraps any backend, splitting attention heads and
//!   FFN columns across a TP group and pipelining layer stages (a round
//!   costs `pp` beats, its fill/drain bubble included), re-pricing every
//!   collective on an [`Interconnect`] — the one home of (TP, PP)
//!   throughput, Figure 14 included;
//! * [`event`] — the discrete-event spine: a global-clock [`EventQueue`]
//!   of typed [`SimEvent`]s (arrival, iteration-complete,
//!   restore-complete, replica-idle) that lets the serving loop jump its
//!   clock and the fleet merge per-replica event streams;
//! * [`scheduler`] — the iteration-level serving scheduler behind the
//!   [`SchedulerPolicy`] trait: one [`PrefillScheduler`] whose three modes
//!   are lump prefill (standalone-NPU delegation), Orca/vLLM-style chunked
//!   prefill, and NeuPIMs-style NPU/PIM sub-batch interleaving
//!   (Algorithms 1 and 3 in the serving path);
//! * [`preempt`] — preemption-aware KV memory management behind one
//!   [`PreemptionPolicy`] trait: drop-only (the historical baseline),
//!   vLLM-style recompute of the newest admissions, and LRU swap over a
//!   PCIe-style link ([`SwapConfig`]);
//! * [`serving`] — Orca-style iteration-level serving with paged KV cache,
//!   charged prefill (TTFT), per-request latency metrics, per-iteration
//!   occupancy/overlap accounting, and preempt/restore of requests blocked
//!   on KV pages, generic over any backend, scheduler, and preemption
//!   policy;
//! * [`fleet`] — SLO-aware multi-replica serving: N [`ServingSim`]
//!   replicas behind a pluggable [`DispatchPolicy`] (round-robin,
//!   join-shortest-queue, KV-pressure-aware) over live
//!   [`ReplicaSnapshot`]s, with fleet-wide TTFT/TPOT percentiles, SLO
//!   attainment, and goodput;
//! * [`orchestrator`] — the capability-aware meta-serving layer above the
//!   fleet: per-backend [`CapabilityProfile`] descriptors with warmup
//!   priced on the event spine, [`TenantClass`] SLO classes with
//!   per-tenant goodput, admission control, pluggable
//!   [`AutoscalePolicy`] (static / reactive / EWMA-predictive) and
//!   [`RoutePolicy`] (load-only / capability-aware), which reads the same
//!   snapshots ([`RouteCandidate`] is their other name) and, like a
//!   dispatch policy, answers a position among them — graded on goodput
//!   per replica-cycle paid;
//! * [`system`] — one [`SystemSpec`] (what CLI flags and eval
//!   `[[scenario]]` keys both parse into, hardware included), the single constructor of
//!   serving replicas ([`SystemSpec::replica`]), the builder turning
//!   the spec into a fleet or an orchestrator of them, and the warm-batch
//!   pricer behind throughput sweeps ([`SystemSpec::warm_means`]);
//! * [`metrics`] — iteration breakdowns, utilization, and the DRAM
//!   activity bridge into the power model.
//!
//! # Example
//!
//! ```
//! use neupims_core::backend::Backend;
//! use neupims_core::device::Device;
//! use neupims_core::system::SystemSpec;
//! use neupims_types::LlmConfig;
//! use neupims_workload::{Dataset, DEFAULT_SEED};
//!
//! let model = LlmConfig::gpt3_7b();
//! let device: Box<dyn Backend> = Box::new(Device::table2().unwrap());
//! let iter = device
//!     .decode_iteration(&model, model.parallelism.tp, model.num_layers, &[256; 64])
//!     .unwrap();
//! assert_eq!(iter.backend, "NeuPIMs");
//! assert!(iter.total_cycles() > 0);
//! let (tokens_per_sec, _) = SystemSpec::default()
//!     .warm_means(Dataset::ShareGpt, 64, DEFAULT_SEED, 2, None)
//!     .unwrap();
//! assert!(tokens_per_sec > 0.0);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod device;
pub mod event;
pub mod experiments;
pub mod fleet;
pub mod gpu;
pub mod interconnect;
mod lowering;
pub mod metrics;
pub mod orchestrator;
pub mod preempt;
pub mod scheduler;
mod scratch;
pub mod serving;
pub mod sharding;
pub mod system;
#[cfg(test)]
pub(crate) mod testsupport;
pub mod transpim;

pub use backend::{
    backend_from_name, backend_from_name_with_cost, Backend, BackendCaps, BackendError,
    CapabilityProfile, GpuRooflineBackend, IterationResult, TransPimBackend, BACKEND_NAMES,
};
pub use device::{Device, DeviceMode, SbiPolicy};
pub use event::{EventQueue, SimEvent};
pub use fleet::{
    policy_from_name, DispatchPolicy, FleetOutcome, FleetRequest, FleetSim, JoinShortestQueue,
    KvLeastLoaded, ReplicaSnapshot, RoundRobin, POLICY_NAMES,
};
pub use interconnect::{
    interconnect_from_name, IdealLink, Interconnect, NocLink, PcieLink, UnifiedMemoryLink,
    INTERCONNECT_NAMES,
};
pub use metrics::{IterationBreakdown, Utilization};
pub use orchestrator::{
    autoscale_from_name, router_from_name, AdmissionConfig, AutoscaleObservation, AutoscalePolicy,
    CapabilityAware, EwmaPredictive, LoadOnly, OrchRequest, Orchestrator, OrchestratorConfig,
    OrchestratorOutcome, ReactiveQueueDepth, RouteCandidate, RoutePolicy, SlotStats, StaticScale,
    TenantClass, TenantOutcome, AUTOSCALE_NAMES, ROUTER_NAMES,
};
pub use preempt::{
    preemption_from_name, DropOnly, PreemptionPolicy, RecomputeLastAdmitted, RestoreMode,
    SwapConfig, SwapLru, VictimCandidate, PREEMPTION_NAMES,
};
pub use scheduler::{
    scheduler_from_name, IterationOccupancy, PrefillScheduler, SchedulerPolicy, SCHEDULER_NAMES,
};
pub use serving::{
    RequestMetrics, Samples, ServingConfig, ServingOutcome, ServingSim, SloTargets, StepEvent,
};
pub use sharding::{ClusterSpec, ShardedBackend, ShardedIteration};
pub use system::{System, SystemSpec};
