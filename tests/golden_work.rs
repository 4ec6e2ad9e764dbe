//! Exact work counts of three small seeded runs, each shaped like one of
//! the benchmark's workloads (`benchmark/`).
//!
//! Counting-only decorators over `Backend`, `SchedulerPolicy`,
//! `DispatchPolicy` and `RoutePolicy` tally how often each layer is
//! called and how many items it is handed; the shared replay memo's
//! snapshot adds its lookups and replays. A keyed dispatch or route
//! policy is answered from the engine's slot index and never called. Unlike host time, these counts
//! are the same on every machine, every run and every `--jobs`, so they
//! are pinned exactly under the benchmark's metric names. A change that
//! makes a layer do more work fails here; one that makes it do less must
//! lower the pin.
//!
//! The decorators live here rather than in `benchmark/src/trace.rs`
//! because the benchmark is its own workspace.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use neupims_core::backend::{
    backend_from_name_with_cost, Backend, BackendCaps, BackendError, CapabilityProfile,
    IterationResult,
};
use neupims_core::device::{Device, DeviceMode};
use neupims_core::fleet::{
    policy_from_name, DispatchPolicy, FleetOutcome, FleetRequest, FleetSim, ReplicaSnapshot,
};
use neupims_core::orchestrator::{
    autoscale_from_name, router_from_name, OrchRequest, Orchestrator, OrchestratorConfig,
    OrchestratorOutcome, RouteCandidate, RoutePolicy, TenantClass,
};
use neupims_core::preempt::preemption_from_name;
use neupims_core::scheduler::{
    scheduler_from_name, IterationDemand, IterationPlan, PrefillCharge, SchedulerPolicy,
};
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_pim::calibrate;
use neupims_sched::{CostModelKind, MhaCostModel, TraceMemo};
use neupims_types::{config::InterconnectConfig, Cycle, LlmConfig, MemConfig, NeuPimsConfig};
use neupims_workload::scenario::{LengthDistribution, TenantClass as TenantShape};
use neupims_workload::{ArrivalProcess, Dataset, GeneratedRequest, ScenarioWorkload, TenantMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Calls and items of every decorated layer, summed over all replicas.
/// Relaxed atomics: sums do not depend on which worker thread adds.
#[derive(Debug, Default)]
struct Counters {
    decode_calls: AtomicU64,
    decode_seqs: AtomicU64,
    prefill_calls: AtomicU64,
    plan_calls: AtomicU64,
    dispatch_calls: AtomicU64,
    route_calls: AtomicU64,
    route_candidates: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Relaxed);
}

/// A [`Backend`] counting decode iterations, decoded sequences and
/// prefill calls.
struct CountingBackend {
    inner: Box<dyn Backend>,
    counters: Arc<Counters>,
}

impl Backend for CountingBackend {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }

    fn capability_profile(&self) -> CapabilityProfile {
        self.inner.capability_profile()
    }

    fn peak_compute(&self) -> f64 {
        self.inner.peak_compute()
    }

    fn mem_config(&self) -> MemConfig {
        self.inner.mem_config()
    }

    fn interconnect(&self) -> InterconnectConfig {
        self.inner.interconnect()
    }

    fn preferred_cost_model(&self) -> CostModelKind {
        self.inner.preferred_cost_model()
    }

    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: CostModelKind,
    ) -> Option<Box<dyn MhaCostModel>> {
        self.inner.mha_cost_model(model, tp, kind)
    }

    fn attach_trace_memo(&mut self, memo: &TraceMemo) -> bool {
        self.inner.attach_trace_memo(memo)
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        bump(&self.counters.prefill_calls, 1);
        self.inner.prefill_cycles(model, tp, layers, prompt_lens)
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        bump(&self.counters.decode_calls, 1);
        bump(&self.counters.decode_seqs, seq_lens.len() as u64);
        self.inner.decode_iteration(model, tp, layers, seq_lens)
    }
}

/// A [`SchedulerPolicy`] counting iteration plans.
#[derive(Debug)]
struct CountingScheduler {
    inner: Box<dyn SchedulerPolicy>,
    counters: Arc<Counters>,
}

impl SchedulerPolicy for CountingScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(CountingScheduler {
            inner: self.inner.clone_box(),
            counters: Arc::clone(&self.counters),
        })
    }

    fn admission_charge(
        &self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_len: u64,
    ) -> Result<PrefillCharge, BackendError> {
        self.inner
            .admission_charge(backend, model, tp, layers, prompt_len)
    }

    fn plan(
        &mut self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        demand: &IterationDemand<'_>,
    ) -> Result<IterationPlan, BackendError> {
        bump(&self.counters.plan_calls, 1);
        self.inner.plan(backend, model, tp, layers, demand)
    }
}

/// A [`DispatchPolicy`] counting replica choices. It forwards the order
/// key, so a keyed policy runs on the engine's slot index, as it does
/// undecorated, and `choose` is never called.
struct CountingDispatch {
    inner: Box<dyn DispatchPolicy>,
    counters: Arc<Counters>,
}

impl DispatchPolicy for CountingDispatch {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&mut self, snapshots: &[ReplicaSnapshot], req: &FleetRequest) -> usize {
        bump(&self.counters.dispatch_calls, 1);
        self.inner.choose(snapshots, req)
    }

    fn order_key(&self, snapshot: &ReplicaSnapshot) -> Option<(u64, u64)> {
        self.inner.order_key(snapshot)
    }
}

/// A [`DispatchPolicy`] hiding its inner policy's order key, so every
/// dispatch scans the snapshots through `choose`.
struct ScanOnly(Box<dyn DispatchPolicy>);

impl DispatchPolicy for ScanOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn choose(&mut self, snapshots: &[ReplicaSnapshot], req: &FleetRequest) -> usize {
        self.0.choose(snapshots, req)
    }
}

/// A [`RoutePolicy`] counting slot choices and the candidates offered.
struct CountingRoute {
    inner: Box<dyn RoutePolicy>,
    counters: Arc<Counters>,
}

impl RoutePolicy for CountingRoute {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(
        &mut self,
        candidates: &[RouteCandidate],
        req: &FleetRequest,
        tenant: &TenantClass,
    ) -> usize {
        bump(&self.counters.route_calls, 1);
        bump(&self.counters.route_candidates, candidates.len() as u64);
        self.inner.route(candidates, req, tenant)
    }

    fn order_key(&self, candidate: &RouteCandidate) -> Option<(u64, u64)> {
        self.inner.order_key(candidate)
    }
}

/// The counts one run is pinned to, in this order.
const NAMES: [&str; 14] = [
    "serving.steps",
    "serving.step_calls",
    "backend.decode.calls",
    "backend.decode.seqs",
    "backend.prefill.calls",
    "scheduler.plan.calls",
    "fleet.dispatch.calls",
    "orchestrator.route.calls",
    "orchestrator.route.candidates",
    "orchestrator.warmups",
    "orchestrator.scale_downs",
    "cost.memo_lookups",
    "cost.replays",
    "preemptions",
];

type Work = [u64; NAMES.len()];

/// `steps` is Σ executed iterations and `step_calls` Σ
/// [`ServingSim::steps`] (every visit to a replica, waits included);
/// `memo` is the shared replay memo of a trace-priced run and `orch` the
/// outcome of an orchestrated one (its warmups and parks).
fn work(
    c: &Counters,
    steps: u64,
    step_calls: u64,
    memo: Option<&TraceMemo>,
    orch: Option<&OrchestratorOutcome>,
    preemptions: u64,
) -> Work {
    let memo = memo.map(TraceMemo::snapshot).unwrap_or_default();
    let (warmups, scale_downs) = orch.map_or((0, 0), |o| (o.warmups, o.scale_downs));
    let get = |a: &AtomicU64| a.load(Relaxed);
    [
        steps,
        step_calls,
        get(&c.decode_calls),
        get(&c.decode_seqs),
        get(&c.prefill_calls),
        get(&c.plan_calls),
        get(&c.dispatch_calls),
        get(&c.route_calls),
        get(&c.route_candidates),
        warmups,
        scale_downs,
        memo.replays + memo.memo_hits + memo.disk_hits,
        memo.replays,
        preemptions,
    ]
}

fn fleet_work<B: Backend>(
    c: &Counters,
    out: &FleetOutcome,
    orch: Option<&OrchestratorOutcome>,
    slots: &[ServingSim<B>],
) -> Work {
    let steps = out.replicas.iter().map(|r| r.iterations).sum();
    let step_calls = slots.iter().map(ServingSim::steps).sum();
    work(c, steps, step_calls, None, orch, out.preemptions)
}

/// Fails with the recorded counts, named, so a deliberate change can
/// re-pin them from the message.
fn assert_work(label: &str, got: Work, want: Work) {
    let table: String = NAMES
        .iter()
        .zip(got)
        .map(|(name, n)| format!("    {n}, // {name}\n"))
        .collect();
    assert_eq!(got, want, "{label}: recorded work counts:\n{table}");
}

fn model() -> LlmConfig {
    LlmConfig::gpt3_7b()
}

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

/// One replica with its backend and scheduler counted.
fn replica(
    counters: &Arc<Counters>,
    backend: Box<dyn Backend>,
    scheduler: &str,
    preemption: &str,
    cfg: ServingConfig,
    kind: CostModelKind,
) -> ServingSim<Box<dyn Backend>> {
    let backend: Box<dyn Backend> = Box::new(CountingBackend {
        inner: backend,
        counters: Arc::clone(counters),
    });
    let scheduler = Box::new(CountingScheduler {
        inner: scheduler_from_name(scheduler, 256).unwrap(),
        counters: Arc::clone(counters),
    });
    ServingSim::with_scheduler(backend, model(), cfg, scheduler)
        .with_cost_model(kind)
        .with_preemption(preemption_from_name(preemption).unwrap())
}

fn generate(workload: ScenarioWorkload, seed: u64, output_cap: u32) -> Vec<GeneratedRequest> {
    let mut reqs = workload.generate(&mut StdRng::seed_from_u64(seed));
    for r in &mut reqs {
        r.output_len = r.output_len.min(output_cap);
    }
    reqs
}

fn fleet_request(id: usize, r: &GeneratedRequest) -> FleetRequest {
    FleetRequest {
        id: u32::try_from(id).unwrap(),
        input_len: r.input_len,
        output_len: r.output_len,
        arrival: r.arrival,
    }
}

const FLEET_SLO: SloTargets = SloTargets {
    ttft: 50_000_000,
    tpot: 10_000_000.0,
};

/// `fleet-jsq-256` at 16 replicas: GPU-roofline replicas behind JSQ
/// dispatch, ShareGPT at the benchmark's per-replica Poisson rate. With
/// `scan`, JSQ's order key is hidden, so every dispatch calls `choose`.
fn fleet_jsq(jobs: usize, scan: bool) -> Work {
    let replicas = 16;
    let hw = NeuPimsConfig::table2();
    let cal = calibrate(&hw).unwrap();
    let counters = Arc::new(Counters::default());
    let kind = CostModelKind::Analytic;
    let cfg = serving_config(64, FLEET_SLO);
    let slots = (0..replicas)
        .map(|_| {
            let b = backend_from_name_with_cost("gpu", &hw, &cal, kind).unwrap();
            replica(&counters, b, "lump", "drop", cfg.clone(), kind)
        })
        .collect();
    let mut jsq = policy_from_name("jsq").unwrap();
    if scan {
        jsq = Box::new(ScanOnly(jsq));
    }
    let dispatch = Box::new(CountingDispatch {
        inner: jsq,
        counters: Arc::clone(&counters),
    });
    let mut fleet = FleetSim::new(slots, dispatch).unwrap().with_jobs(jobs);
    let workload = ScenarioWorkload {
        arrival: ArrivalProcess::Poisson {
            rate: 12.0 * replicas as f64 / 256.0,
        },
        tenants: TenantMix::single(Dataset::ShareGpt),
        requests: 600,
    };
    for (i, r) in generate(workload, 1, 128).iter().enumerate() {
        fleet.submit(fleet_request(i, r)).unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.completed + out.dropped, out.submitted);
    fleet_work(&counters, &out, None, fleet.replicas())
}

/// `orch-diurnal-256` at 16 slots: a diurnal chat/batch trace through
/// the meta-orchestrator with predictive autoscaling and the capability
/// router, over alternating GPU and NeuPIMs slots.
fn orch_diurnal(jobs: usize) -> Work {
    let slots = 16;
    let hw = NeuPimsConfig::table2();
    let cal = calibrate(&hw).unwrap();
    let counters = Arc::new(Counters::default());
    let kind = CostModelKind::Analytic;
    let cfg = serving_config(
        8,
        SloTargets {
            ttft: 50_000_000,
            tpot: 50_000_000.0,
        },
    );
    let table = (0..slots)
        .map(|i| {
            let name = if i % 2 == 0 { "gpu" } else { "neupims" };
            let b = backend_from_name_with_cost(name, &hw, &cal, kind).unwrap();
            replica(&counters, b, "lump", "drop", cfg.clone(), kind)
        })
        .collect();
    let tenant = |name: &str, ttft_ms: u64, priority: u8, share: f64| {
        let slo = SloTargets {
            ttft: ttft_ms * 1_000_000,
            tpot: 50_000_000.0,
        };
        TenantClass::new(name, slo, priority, share)
    };
    let tenants = vec![
        tenant("chat", 30, 220, 2.0 / 3.0),
        tenant("batch", 150, 40, 1.0 / 3.0),
    ];
    let route = Box::new(CountingRoute {
        inner: router_from_name("capability").unwrap(),
        counters: Arc::clone(&counters),
    });
    let autoscale = autoscale_from_name("predictive").unwrap();
    let mut ocfg = OrchestratorConfig::default_for(slots);
    ocfg.min_replicas = 1;
    let mut orch = Orchestrator::new(table, tenants, route, autoscale, ocfg)
        .unwrap()
        .with_jobs(jobs);
    let shape = |name: &str, weight: f64, input: LengthDistribution| TenantShape {
        name: name.into(),
        weight,
        input,
        output: LengthDistribution::Fixed(8),
    };
    let workload = ScenarioWorkload {
        arrival: ArrivalProcess::Diurnal {
            rate: 12.0 * slots as f64 / 256.0,
            amplitude: 0.95,
            period: 360_000_000,
        },
        tenants: TenantMix::new(vec![
            shape(
                "chat",
                2.0,
                LengthDistribution::LogNormal {
                    mean: 60.0,
                    sigma: 0.5,
                },
            ),
            shape(
                "batch",
                1.0,
                LengthDistribution::Uniform { lo: 2200, hi: 3000 },
            ),
        ]),
        requests: 600,
    };
    for (i, r) in generate(workload, 1, u32::MAX).iter().enumerate() {
        let req = fleet_request(i, r);
        orch.submit(OrchRequest {
            req,
            tenant: r.tenant,
        })
        .unwrap();
    }
    let out = orch.run().unwrap();
    // The cost denominator: a slot parked early or late moves it.
    assert_eq!(out.replica_cycles_on, 7_333_787_123, "replica_cycles_on");
    fleet_work(&counters, &out.fleet, Some(&out), orch.slots())
}

/// `pim-trace-tight-kv` at one replica: a NeuPIMs device priced by
/// trace replay through a fresh shared memo, with KV capacity cut to
/// 128 MiB per channel and recompute preemption.
fn pim_trace_tight_kv() -> Work {
    let mut hw = NeuPimsConfig::table2();
    hw.mem.capacity_per_channel = 128 << 20;
    let cal = calibrate(&hw).unwrap();
    let counters = Arc::new(Counters::default());
    let kind = CostModelKind::TraceDriven;
    let device = Box::new(Device::new(hw, cal, DeviceMode::neupims()).with_cost_model(kind));
    let memo = TraceMemo::new();
    let cfg = serving_config(256, FLEET_SLO);
    let mut sim =
        replica(&counters, device, "interleaved", "recompute", cfg, kind).with_trace_memo(&memo);
    let workload = ScenarioWorkload {
        arrival: ArrivalProcess::Poisson { rate: 1.5 },
        tenants: TenantMix::single(Dataset::ShareGpt),
        requests: 150,
    };
    for (i, r) in generate(workload, 1, 128).iter().enumerate() {
        let id = u32::try_from(i).unwrap();
        sim.submit(id, r.input_len, r.output_len, r.arrival)
            .unwrap();
    }
    let out = sim.run().unwrap();
    assert_eq!(out.completed + out.dropped, out.submitted);
    work(
        &counters,
        out.iterations,
        sim.steps(),
        Some(&memo),
        None,
        out.preemptions,
    )
}

/// JSQ is answered from the engine's slot index: no `choose` calls.
const FLEET_JSQ: Work = [
    4234,  // serving.steps
    4300,  // serving.step_calls
    4234,  // backend.decode.calls
    67496, // backend.decode.seqs
    600,   // backend.prefill.calls
    4234,  // scheduler.plan.calls
    0,     // fleet.dispatch.calls
    0,     // orchestrator.route.calls
    0,     // orchestrator.route.candidates
    0,     // orchestrator.warmups
    0,     // orchestrator.scale_downs
    0,     // cost.memo_lookups
    0,     // cost.replays
    0,     // preemptions
];

/// The same run on the scan path: one `choose` per request, and the same
/// work everywhere else.
const FLEET_JSQ_SCAN: Work = [
    4234,  // serving.steps
    4300,  // serving.step_calls
    4234,  // backend.decode.calls
    67496, // backend.decode.seqs
    600,   // backend.prefill.calls
    4234,  // scheduler.plan.calls
    600,   // fleet.dispatch.calls
    0,     // orchestrator.route.calls
    0,     // orchestrator.route.candidates
    0,     // orchestrator.warmups
    0,     // orchestrator.scale_downs
    0,     // cost.memo_lookups
    0,     // cost.replays
    0,     // preemptions
];

const ORCH_DIURNAL: Work = [
    1087, // serving.steps
    1292, // serving.step_calls
    1087, // backend.decode.calls
    4800, // backend.decode.seqs
    600,  // backend.prefill.calls
    1087, // scheduler.plan.calls
    0,    // fleet.dispatch.calls
    600,  // orchestrator.route.calls
    4441, // orchestrator.route.candidates
    31,   // orchestrator.warmups
    24,   // orchestrator.scale_downs
    0,    // cost.memo_lookups
    0,    // cost.replays
    0,    // preemptions
];

const PIM_TRACE_TIGHT_KV: Work = [
    177,   // serving.steps
    179,   // serving.step_calls
    176,   // backend.decode.calls
    16714, // backend.decode.seqs
    214,   // backend.prefill.calls
    177,   // scheduler.plan.calls
    0,     // fleet.dispatch.calls
    0,     // orchestrator.route.calls
    0,     // orchestrator.route.candidates
    0,     // orchestrator.warmups
    0,     // orchestrator.scale_downs
    21694, // cost.memo_lookups
    26,    // cost.replays
    8,     // preemptions
];

#[test]
fn fleet_jsq_work_is_pinned_at_every_job_count() {
    let serial = fleet_jsq(1, false);
    assert_work("fleet-jsq at --jobs 1", serial, FLEET_JSQ);
    assert_work("fleet-jsq at --jobs 4", fleet_jsq(4, false), serial);
}

#[test]
fn fleet_jsq_work_on_the_scan_path_is_pinned() {
    assert_work("fleet-jsq, scanned", fleet_jsq(1, true), FLEET_JSQ_SCAN);
}

#[test]
fn orch_diurnal_work_is_pinned_at_every_job_count() {
    let serial = orch_diurnal(1);
    assert_work("orch-diurnal at --jobs 1", serial, ORCH_DIURNAL);
    assert_work("orch-diurnal at --jobs 4", orch_diurnal(4), serial);
}

#[test]
fn pim_trace_tight_kv_work_is_pinned() {
    assert_work(
        "pim-trace-tight-kv",
        pim_trace_tight_kv(),
        PIM_TRACE_TIGHT_KV,
    );
}
