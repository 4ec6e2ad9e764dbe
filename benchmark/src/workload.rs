//! The benchmark's three seeded workloads, built through the library's
//! public API.
//!
//! Each workload is set up (calibration, replica construction, workload
//! generation, `submit`) and then run (`warm_replay` plus `run()`). With
//! a [`Trace`], every replica's backend, MHA cost model, scheduler and
//! preemption policy, and the fleet's dispatch, routing and autoscaling
//! policies, are wrapped in the pass-through decorators of
//! [`crate::trace`]; without one, the system is built from the bare
//! library types.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::backend::{backend_from_name_with_cost, Backend};
use neupims_core::device::{Device, DeviceMode};
use neupims_core::fleet::{policy_from_name, FleetOutcome, FleetRequest, FleetSim};
use neupims_core::orchestrator::{
    autoscale_from_name, router_from_name, OrchRequest, Orchestrator, OrchestratorConfig,
    OrchestratorOutcome, TenantClass,
};
use neupims_core::preempt::{preemption_from_name, PreemptionPolicy};
use neupims_core::scheduler::{scheduler_from_name, SchedulerPolicy};
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_pim::calibrate;
use neupims_sched::{CostModelKind, TraceMemo};
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::scenario::{LengthDistribution, TenantClass as TenantShape};
use neupims_workload::{ArrivalProcess, Dataset, GeneratedRequest, ScenarioWorkload, TenantMix};

use crate::trace::{
    front_span, ReplicaCounters, Trace, TracedAutoscale, TracedBackend, TracedDispatch,
    TracedPreemption, TracedRoute, TracedScheduler,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256 GPU-roofline replicas behind JSQ dispatch: the fleet engine.
    FleetJsq256,
    /// A diurnal two-tenant trace through the meta-orchestrator.
    OrchDiurnal256,
    /// 16 NeuPIMs devices with trace-driven MHA pricing and tight KV.
    PimTraceTightKv,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetJsq256,
        Workload::OrchDiurnal256,
        Workload::PimTraceTightKv,
    ];

    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetJsq256 => "fleet-jsq-256",
            Workload::OrchDiurnal256 => "orch-diurnal-256",
            Workload::PimTraceTightKv => "pim-trace-tight-kv",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload at benchmark size.
    pub fn spec(self) -> Spec {
        let (replicas, requests) = match self {
            Workload::FleetJsq256 => (256, 16_000),
            Workload::OrchDiurnal256 => (256, 16_000),
            Workload::PimTraceTightKv => (16, 20_000),
        };
        Spec {
            workload: self,
            replicas,
            requests,
        }
    }
}

/// One workload at a given size. Arrival rates scale with the replica
/// count, so a smaller spec keeps the per-replica load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Replicas (fleet) or slots (orchestrator).
    pub replicas: usize,
    /// Requests generated per run.
    pub requests: usize,
}

/// The modelled LLM of every workload.
fn model() -> LlmConfig {
    LlmConfig::gpt3_7b()
}

/// The serving SLO of the fleet workloads (the CLI's defaults: 50 ms
/// TTFT, 10 ms TPOT).
const FLEET_SLO: SloTargets = SloTargets {
    ttft: 50_000_000,
    tpot: 10_000_000.0,
};

/// Output lengths are capped like the CLI's `fleet` command does.
const OUTPUT_CAP: u32 = 128;

/// KV capacity per channel of the tight-memory workload (Table 2 has
/// 1 GiB).
const TIGHT_KV_BYTES_PER_CHANNEL: u64 = 128 << 20;

fn serving_config(max_batch: usize, slo: SloTargets) -> ServingConfig {
    let m = model();
    ServingConfig {
        max_batch,
        tp: m.parallelism.tp,
        layers: m.num_layers / m.parallelism.pp,
        target_completions: 0,
        slo: Some(slo),
    }
}

impl Spec {
    /// The arrival process and tenant mix of this spec.
    fn scenario(&self) -> ScenarioWorkload {
        let scale = self.replicas as f64;
        let (arrival, tenants) = match self.workload {
            Workload::FleetJsq256 => (
                ArrivalProcess::Poisson {
                    rate: 12.0 * scale / 256.0,
                },
                TenantMix::single(Dataset::ShareGpt),
            ),
            Workload::OrchDiurnal256 => (
                ArrivalProcess::Diurnal {
                    rate: 12.0 * scale / 256.0,
                    amplitude: 0.95,
                    period: 360_000_000,
                },
                TenantMix::new(vec![
                    TenantShape {
                        name: "chat".into(),
                        weight: 2.0,
                        input: LengthDistribution::LogNormal {
                            mean: 60.0,
                            sigma: 0.5,
                        },
                        output: LengthDistribution::Fixed(8),
                    },
                    TenantShape {
                        name: "batch".into(),
                        weight: 1.0,
                        input: LengthDistribution::Uniform { lo: 2200, hi: 3000 },
                        output: LengthDistribution::Fixed(8),
                    },
                ]),
            ),
            Workload::PimTraceTightKv => (
                ArrivalProcess::Poisson {
                    rate: 1.5 * scale / 16.0,
                },
                TenantMix::single(Dataset::ShareGpt),
            ),
        };
        ScenarioWorkload {
            arrival,
            tenants,
            requests: self.requests,
        }
    }

    /// The generated requests for `seed`, output lengths capped.
    pub fn generate(&self, seed: u64) -> Vec<GeneratedRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reqs = self.scenario().generate(&mut rng);
        if self.workload != Workload::OrchDiurnal256 {
            for r in &mut reqs {
                r.output_len = r.output_len.min(OUTPUT_CAP);
            }
        }
        reqs
    }
}

/// The system under test, set up and submitted.
pub enum System {
    /// A load-only fleet.
    Fleet(FleetSim<Box<dyn Backend>>),
    /// The meta-orchestrator.
    Orchestrator(Box<Orchestrator<Box<dyn Backend>>>),
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A fleet run.
    Fleet(FleetOutcome),
    /// An orchestrated run.
    Orchestrator(OrchestratorOutcome),
}

/// Wraps the layers of one replica when tracing.
struct Layers(Option<Arc<ReplicaCounters>>);

impl Layers {
    fn backend(&self, b: Box<dyn Backend>) -> Box<dyn Backend> {
        match &self.0 {
            Some(c) => Box::new(TracedBackend::new(b, Arc::clone(c))),
            None => b,
        }
    }

    fn scheduler(&self, s: Box<dyn SchedulerPolicy>) -> Box<dyn SchedulerPolicy> {
        match &self.0 {
            Some(c) => Box::new(TracedScheduler::new(s, Arc::clone(c))),
            None => s,
        }
    }

    fn preemption(&self, p: Box<dyn PreemptionPolicy>) -> Box<dyn PreemptionPolicy> {
        match &self.0 {
            Some(c) => Box::new(TracedPreemption::new(p, Arc::clone(c))),
            None => p,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn request_id(i: usize) -> Result<u32, String> {
    u32::try_from(i).map_err(|_| format!("request index {i} does not fit a u32 id"))
}

/// One replica: backend, scheduler and preemption policy, each wrapped
/// when tracing.
fn replica(
    trace: Option<&Arc<Trace>>,
    backend: Box<dyn Backend>,
    scheduler: &str,
    preemption: &str,
    cfg: &ServingConfig,
    kind: CostModelKind,
) -> Result<ServingSim<Box<dyn Backend>>, String> {
    let layers = Layers(trace.map(|t| t.replica()));
    Ok(ServingSim::with_scheduler(
        layers.backend(backend),
        model(),
        cfg.clone(),
        layers.scheduler(scheduler_from_name(scheduler, 256).map_err(err)?),
    )
    .with_cost_model(kind)
    .with_preemption(layers.preemption(preemption_from_name(preemption).map_err(err)?)))
}

/// Sets up `spec` for `seed`: calibration, replica construction,
/// workload generation and `submit`. With `trace`, every layer is
/// decorated and `submit` is timed.
///
/// # Errors
///
/// Returns a message when the library rejects the configuration.
pub fn setup(spec: &Spec, seed: u64, trace: Option<&Arc<Trace>>) -> Result<System, String> {
    let reqs = spec.generate(seed);
    let mut system = match spec.workload {
        Workload::FleetJsq256 => {
            let hw = NeuPimsConfig::table2();
            let cal = calibrate(&hw).map_err(err)?;
            let cfg = serving_config(64, FLEET_SLO);
            let replicas = (0..spec.replicas)
                .map(|_| {
                    let b = backend_from_name_with_cost("gpu", &hw, &cal, CostModelKind::Analytic)
                        .map_err(err)?;
                    replica(trace, b, "lump", "drop", &cfg, CostModelKind::Analytic)
                })
                .collect::<Result<Vec<_>, _>>()?;
            System::Fleet(fleet(trace, replicas)?)
        }
        Workload::PimTraceTightKv => {
            let mut hw = NeuPimsConfig::table2();
            hw.mem.capacity_per_channel = TIGHT_KV_BYTES_PER_CHANNEL;
            let cal = calibrate(&hw).map_err(err)?;
            let cfg = serving_config(256, FLEET_SLO);
            let kind = CostModelKind::TraceDriven;
            let replicas = (0..spec.replicas)
                .map(|_| {
                    let b: Box<dyn Backend> =
                        Box::new(Device::new(hw, cal, DeviceMode::neupims()).with_cost_model(kind));
                    replica(trace, b, "interleaved", "swap", &cfg, kind)
                })
                .collect::<Result<Vec<_>, _>>()?;
            // One fresh fleet-shared replay memo per run: cold replays
            // and memo hits both fall inside the timed region.
            System::Fleet(fleet(trace, replicas)?.with_shared_trace_memo(&TraceMemo::new()))
        }
        Workload::OrchDiurnal256 => {
            let hw = NeuPimsConfig::table2();
            let cal = calibrate(&hw).map_err(err)?;
            let cfg = serving_config(
                8,
                SloTargets {
                    ttft: 50_000_000,
                    tpot: 50_000_000.0,
                },
            );
            let kind = CostModelKind::Analytic;
            let slots = (0..spec.replicas)
                .map(|i| {
                    let name = if i % 2 == 0 { "gpu" } else { "neupims" };
                    let b = backend_from_name_with_cost(name, &hw, &cal, kind).map_err(err)?;
                    replica(trace, b, "lump", "drop", &cfg, kind)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let tenant = |name: &str, ttft_ms: u64, priority: u8, share: f64| {
                TenantClass::new(
                    name,
                    SloTargets {
                        ttft: ttft_ms * 1_000_000,
                        tpot: 50_000_000.0,
                    },
                    priority,
                    share,
                )
            };
            let tenants = vec![
                tenant("chat", 30, 220, 2.0 / 3.0),
                tenant("batch", 150, 40, 1.0 / 3.0),
            ];
            let mut route = router_from_name("capability").map_err(err)?;
            let mut autoscale = autoscale_from_name("predictive").map_err(err)?;
            if let Some(t) = trace {
                route = Box::new(TracedRoute::new(route, Arc::clone(t)));
                autoscale = Box::new(TracedAutoscale::new(autoscale, Arc::clone(t)));
            }
            let mut ocfg = OrchestratorConfig::default_for(spec.replicas);
            ocfg.min_replicas = 1;
            System::Orchestrator(Box::new(
                Orchestrator::new(slots, tenants, route, autoscale, ocfg)
                    .map_err(err)?
                    .with_jobs(1),
            ))
        }
    };
    front_span(trace, "submit", |c| &c.submit, || system.submit_all(&reqs))?;
    Ok(system)
}

/// Clears the replay-memo identities in the replicas' trace snapshots.
/// An identity is derived from the memo's allocation, so it differs
/// between runs by construction; every simulated counter is kept.
fn forget_memo_ids(out: &mut FleetOutcome) {
    for r in &mut out.replicas {
        if let Some(t) = &mut r.pim_trace {
            t.memo_id = 0;
        }
    }
}

/// A JSQ fleet over `replicas`, one worker thread.
fn fleet(
    trace: Option<&Arc<Trace>>,
    replicas: Vec<ServingSim<Box<dyn Backend>>>,
) -> Result<FleetSim<Box<dyn Backend>>, String> {
    let mut policy = policy_from_name("jsq").map_err(err)?;
    if let Some(t) = trace {
        policy = Box::new(TracedDispatch::new(policy, Arc::clone(t)));
    }
    Ok(FleetSim::new(replicas, policy).map_err(err)?.with_jobs(1))
}

impl System {
    fn submit_all(&mut self, reqs: &[GeneratedRequest]) -> Result<(), String> {
        for (i, r) in reqs.iter().enumerate() {
            let req = FleetRequest {
                id: request_id(i)?,
                input_len: r.input_len,
                output_len: r.output_len,
                arrival: r.arrival,
            };
            match self {
                System::Fleet(f) => f.submit(req),
                System::Orchestrator(o) => o.submit(OrchRequest {
                    req,
                    tenant: r.tenant,
                }),
            }
            .map_err(err)?;
        }
        Ok(())
    }

    /// The timed region: `warm_replay` (fleets) plus `run()`. Returns
    /// the outcome and the number of cold buckets `warm_replay` replayed.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run(&mut self, trace: Option<&Arc<Trace>>) -> Result<(Outcome, u64), String> {
        match self {
            System::Fleet(f) => {
                let warmed = front_span(
                    trace,
                    "fleet.warm_replay",
                    |c| &c.warm_replay,
                    || f.warm_replay(),
                );
                let mut out =
                    front_span(trace, "fleet.run", |c| &c.run, || f.run()).map_err(err)?;
                forget_memo_ids(&mut out);
                Ok((Outcome::Fleet(out), warmed))
            }
            System::Orchestrator(o) => {
                let mut out =
                    front_span(trace, "orchestrator.run", |c| &c.run, || o.run()).map_err(err)?;
                forget_memo_ids(&mut out.fleet);
                Ok((Outcome::Orchestrator(out), 0))
            }
        }
    }

    /// `ServingSim::step` calls over the fleet's replicas (`None` for the
    /// orchestrator, whose slots are private).
    pub fn steps(&self) -> Option<u64> {
        match self {
            System::Fleet(f) => Some(f.replicas().iter().map(ServingSim::steps).sum()),
            System::Orchestrator(_) => None,
        }
    }
}
