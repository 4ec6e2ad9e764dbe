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
//! * [`simulation`] — the [`Simulation`] builder tying a backend to a
//!   model, dataset, and batch geometry: the warm-batch pricer behind
//!   iteration pricing, throughput sweeps, and (TP, PP) scaling;
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
//!   FFN columns across a TP group and pipelining layer stages with
//!   explicit bubble accounting, re-pricing every collective on an
//!   [`Interconnect`] — the one home of (TP, PP) throughput, Figure 14
//!   included; [`KvShardPlan`] spans the KV cache across the
//!   deployment's devices;
//! * [`event`] — the discrete-event spine: a global-clock [`EventQueue`]
//!   of typed [`SimEvent`]s (arrival, iteration-complete,
//!   restore-complete, replica-idle) that lets the serving loop jump its
//!   clock and the fleet merge per-replica event streams;
//! * [`scheduler`] — iteration-level serving schedulers behind one
//!   [`SchedulerPolicy`] trait: lump prefill (standalone-NPU delegation),
//!   Orca/vLLM-style chunked prefill, and NeuPIMs-style NPU/PIM sub-batch
//!   interleaving (Algorithms 1 and 3 in the serving path);
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
//!   `[[scenario]]` keys both parse into), the single constructor of
//!   serving replicas ([`SystemSpec::replica`]), and the builder turning
//!   the spec into a fleet or an orchestrator of them;
//! * [`metrics`] — iteration breakdowns, utilization, and the DRAM
//!   activity bridge into the power model.
//!
//! # Example
//!
//! ```
//! use neupims_core::device::Device;
//! use neupims_core::simulation::Simulation;
//! use neupims_types::LlmConfig;
//! use neupims_workload::Dataset;
//!
//! let model = LlmConfig::gpt3_7b();
//! let sim = Simulation::builder()
//!     .model(model)
//!     .backend(Device::table2().unwrap())
//!     .dataset(Dataset::ShareGpt)
//!     .batch(64)
//!     .build()
//!     .unwrap();
//! let iter = sim.decode_iteration(&[256; 64]).unwrap();
//! assert_eq!(iter.backend, "NeuPIMs");
//! assert!(iter.total_cycles() > 0);
//! assert!(sim.throughput().unwrap() > 0.0);
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
pub mod simulation;
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
pub use experiments::ExperimentContext;
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
    scheduler_from_name, ChunkedPrefill, IterationOccupancy, LumpPrefill, SchedulerPolicy,
    SubBatchInterleaved, SCHEDULER_NAMES,
};
pub use serving::{
    RequestMetrics, ServingConfig, ServingOutcome, ServingSim, SloTargets, StepEvent,
};
pub use sharding::{
    pipeline_schedule, split_evenly, ClusterSpec, KvShardPlan, PipelineTiming, ShardPlan,
    ShardedBackend, ShardedIteration,
};
pub use simulation::{Simulation, SimulationBuilder};
pub use system::{System, SystemSpec};
