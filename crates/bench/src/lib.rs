//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one paper table/figure: it prints the
//! rows (so `cargo bench` output doubles as the reproduction artifact) and
//! then measures the simulator kernels behind them with Criterion.

use std::time::Duration;

use criterion::Criterion;
use neupims_core::backend::{GpuRooflineBackend, NeuPimsBackend};
use neupims_core::cluster::ClusterSpec;
use neupims_core::device::{Device, DeviceMode};
use neupims_core::experiments::ExperimentContext;
use neupims_core::fleet::{policy_from_name, FleetRequest, FleetSim};
use neupims_core::interconnect::PcieLink;
use neupims_core::orchestrator::{
    CapabilityAware, OrchRequest, Orchestrator, OrchestratorConfig, StaticScale, TenantClass,
};
use neupims_core::scheduler::scheduler_from_name;
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_core::sharding::ShardedBackend;
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};

/// Short Criterion configuration: the sims are deterministic, so a handful
/// of samples suffices and the whole suite stays minutes-scale.
pub fn short_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

/// Calibrated context with reduced workload sampling for bench iterations.
pub fn bench_context() -> ExperimentContext {
    ExperimentContext::table2()
        .expect("Table 2 configuration calibrates")
        .with_samples(2)
}

/// Requests submitted per replica by [`fleet_scale_sim`] — the
/// `bench-snapshot fleet` trajectory scales the workload with the fleet
/// so per-replica load stays constant.
pub const FLEET_SCALE_REQUESTS_PER_REPLICA: usize = 1000;

/// The warm batch priced by the `bench-snapshot sharding` trajectory: 64
/// decode requests deep into a
/// ShareGPT-scale context, matching the `scaling` eval suite's shape.
pub fn sharding_scale_batch() -> Vec<u64> {
    vec![376; 64]
}

/// Builds the sharded-deployment benchmark fixture: Table 2 NeuPIMs
/// chips at `tp`-way tensor parallelism over the default PCIe fabric
/// (the `--interconnect pcie` CLI deployment).
pub fn sharded_deployment(tp: u32) -> ShardedBackend<NeuPimsBackend> {
    sharded_deployment_pp(tp, 1)
}

/// [`sharded_deployment`] with an explicit pipeline degree, for the
/// stage-hop and bubble pricing paths.
pub fn sharded_deployment_pp(tp: u32, pp: u32) -> ShardedBackend<NeuPimsBackend> {
    ShardedBackend::new(
        NeuPimsBackend::table2().expect("Table 2 configuration calibrates"),
        ClusterSpec::new(tp, pp),
        Box::new(PcieLink::default()),
    )
    .expect("valid deployment shape")
}

/// Requests submitted per replica by [`trace_fleet_sim`] — small enough
/// that a cold per-replica-memo build stays seconds-scale at 256
/// replicas, large enough that pricing dominates dispatch overhead.
pub const TRACE_FLEET_REQUESTS_PER_REPLICA: usize = 25;

/// Builds the trace-pricing fleet fixture: `replicas` Table 2 NeuPIMs
/// devices under the NPU/PIM-interleaved scheduler (the path that prices
/// MHA sub-batches through the cost model every overlapped iteration)
/// behind round-robin dispatch, priced by `kind`. Request lengths spread
/// over a dozen context-bucket octaves (arithmetic, no RNG) so a
/// trace-priced build replays a meaningful but bounded bucket set;
/// outputs are long enough that decode batches persist while later
/// prompts prefill, keeping the overlap pricing hot. The
/// `bench-snapshot trace-fleet` trajectory prices this fixture cold,
/// with one fleet-shared memo, and from a persistent replay cache.
pub fn trace_fleet_sim(
    replicas: usize,
    requests: usize,
    kind: neupims_sched::CostModelKind,
) -> FleetSim<Device> {
    let hw = NeuPimsConfig::table2();
    let cal = calibrate(&hw).expect("Table 2 configuration calibrates");
    let model = LlmConfig::gpt3_7b();
    let cfg = ServingConfig {
        max_batch: 32,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        slo: None,
    };
    let sims: Vec<ServingSim<Device>> = (0..replicas)
        .map(|_| {
            ServingSim::with_scheduler(
                Device::new(hw, cal, DeviceMode::neupims()),
                model.clone(),
                cfg.clone(),
                scheduler_from_name("interleaved", 128).expect("shipped scheduler"),
            )
            .with_cost_model(kind)
        })
        .collect();
    let mut fleet = FleetSim::new(
        sims,
        policy_from_name("round-robin").expect("shipped policy"),
    )
    .expect("non-empty fleet");
    for i in 0..requests {
        fleet
            .submit(FleetRequest {
                id: i as u32,
                input_len: 64 + (i % 13) as u32 * 113,
                output_len: 8 + (i % 5) as u32 * 4,
                arrival: i as u64 * 2_000,
            })
            .expect("unique ids");
    }
    fleet
}

/// Builds the meta-orchestrator benchmark fixture: the same arithmetic
/// workload as [`fleet_scale_sim`] submitted through the
/// [`Orchestrator`] — two tenant classes alternating request-by-request,
/// the capability-aware router, and a full static commit with a warm
/// start, so the `bench-snapshot orchestrator` trajectory prices the
/// dispatch + admission + routing machinery itself (not warmups or
/// autoscale churn) against the load-only [`fleet_scale_sim`] baseline
/// at the same scale.
pub fn orchestrator_scale_sim(
    replicas: usize,
    requests: usize,
) -> Orchestrator<GpuRooflineBackend> {
    let model = LlmConfig::gpt3_7b();
    let cfg = ServingConfig {
        max_batch: 32,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        slo: None,
    };
    let sims: Vec<ServingSim<GpuRooflineBackend>> = (0..replicas)
        .map(|_| ServingSim::new(GpuRooflineBackend::a100(), model.clone(), cfg.clone()))
        .collect();
    let loose = SloTargets {
        ttft: neupims_types::Cycle::MAX,
        tpot: f64::INFINITY,
    };
    let tenants = vec![
        TenantClass::new("chat", loose, 220, 0.5),
        TenantClass::new("batch", loose, 40, 0.5),
    ];
    let mut ocfg = OrchestratorConfig::default_for(replicas);
    ocfg.warm_start = true;
    let mut orch = Orchestrator::new(
        sims,
        tenants,
        Box::new(CapabilityAware::default()),
        Box::new(StaticScale::full()),
        ocfg,
    )
    .expect("non-empty orchestrator");
    for i in 0..requests {
        orch.submit(OrchRequest {
            req: FleetRequest {
                id: i as u32,
                input_len: 16 + (i % 5) as u32 * 8,
                output_len: 1 + (i % 2) as u32,
                arrival: i as u64 * 2_000,
            },
            tenant: i % 2,
        })
        .expect("unique ids");
    }
    orch
}

/// Builds the fleet-scale benchmark fixture: `replicas` GPU-roofline
/// replicas behind round-robin dispatch with `requests` tiny requests at
/// a fixed arrival cadence. Lengths and arrivals are arithmetic (no RNG),
/// so every build is identical — the bench measures the engine, not the
/// workload sampler. Requests are deliberately small: wall-clock is then
/// dominated by dispatch/advancement overhead, which is exactly what the
/// event-driven spine is supposed to remove.
pub fn fleet_scale_sim(replicas: usize, requests: usize) -> FleetSim<GpuRooflineBackend> {
    let model = LlmConfig::gpt3_7b();
    let cfg = ServingConfig {
        max_batch: 32,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        slo: None,
    };
    let sims: Vec<ServingSim<GpuRooflineBackend>> = (0..replicas)
        .map(|_| ServingSim::new(GpuRooflineBackend::a100(), model.clone(), cfg.clone()))
        .collect();
    let mut fleet = FleetSim::new(
        sims,
        policy_from_name("round-robin").expect("shipped policy"),
    )
    .expect("non-empty fleet");
    for i in 0..requests {
        fleet
            .submit(FleetRequest {
                id: i as u32,
                input_len: 16 + (i % 5) as u32 * 8,
                output_len: 1 + (i % 2) as u32,
                arrival: i as u64 * 2_000,
            })
            .expect("unique ids");
    }
    fleet
}
