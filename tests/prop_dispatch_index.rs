//! The engine answers a keyed dispatch or route policy (one whose
//! `order_key` is `Some`) from its slot index instead of calling the
//! policy. This suite holds that answer to the policy's own scan: every
//! run here is repeated behind a wrapper that hides the key, which keeps
//! every dispatch on `choose`/`route`, and the two outcomes must be
//! equal.
//!
//! * Fleets of 1–64 identical GPU replicas under `jsq` and `kv-aware`,
//!   fed bursts of identical requests, so that equal keys are common and
//!   the tie-break (the lowest slot) decides.
//! * Orchestrated runs with the `load` router over the same policies,
//!   under reactive and predictive autoscaling, so that slots warm up,
//!   drain and park, entering and leaving the index mid-run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use neupims_core::backend::GpuRooflineBackend;
use neupims_core::fleet::{
    policy_from_name, DispatchPolicy, FleetOutcome, FleetRequest, FleetSim, ReplicaSnapshot,
};
use neupims_core::orchestrator::{
    autoscale_from_name, EwmaPredictive, LoadOnly, OrchRequest, Orchestrator, OrchestratorConfig,
    OrchestratorOutcome, RouteCandidate, RoutePolicy, TenantClass,
};
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_types::LlmConfig;

/// The keyed dispatch policies.
const KEYED: [&str; 2] = ["jsq", "kv-aware"];

/// A [`DispatchPolicy`] hiding its inner policy's order key.
struct ScanDispatch(Box<dyn DispatchPolicy>);

impl DispatchPolicy for ScanDispatch {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn choose(&mut self, snapshots: &[ReplicaSnapshot], req: &FleetRequest) -> usize {
        self.0.choose(snapshots, req)
    }
}

/// A [`RoutePolicy`] hiding its inner policy's order key.
struct ScanRoute(Box<dyn RoutePolicy>);

impl RoutePolicy for ScanRoute {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn route(
        &mut self,
        candidates: &[RouteCandidate],
        req: &FleetRequest,
        tenant: &TenantClass,
    ) -> usize {
        self.0.route(candidates, req, tenant)
    }
}

fn slots(n: usize) -> Vec<ServingSim<GpuRooflineBackend>> {
    let model = LlmConfig::gpt3_7b();
    let cfg = ServingConfig {
        max_batch: 4,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        slo: None,
    };
    (0..n)
        .map(|_| ServingSim::new(GpuRooflineBackend::a100(), model.clone(), cfg.clone()))
        .collect()
}

/// `requests` requests in bursts: each arrives at one of `instants`
/// instants 2 Mcycles apart, with one of two prompt lengths and one of
/// three output lengths, so that many slots carry equal keys.
fn bursts(seed: u64, requests: usize, instants: u64) -> Vec<FleetRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests)
        .map(|i| FleetRequest {
            id: u32::try_from(i).unwrap(),
            input_len: if rng.random_range(0..2u32) == 0 {
                32
            } else {
                256
            },
            output_len: rng.random_range(1..4u32),
            arrival: rng.random_range(0..instants) * 2_000_000,
        })
        .collect()
}

fn fleet_run(n: usize, policy: &str, hide_key: bool, reqs: &[FleetRequest]) -> FleetOutcome {
    let mut policy = policy_from_name(policy).unwrap();
    if hide_key {
        policy = Box::new(ScanDispatch(policy));
    }
    let mut fleet = FleetSim::new(slots(n), policy).unwrap().with_jobs(1);
    for &r in reqs {
        fleet.submit(r).unwrap();
    }
    fleet.run().unwrap()
}

/// A premium tenant that bypasses admission and a batch tenant that
/// admission may defer or shed.
fn tenants() -> Vec<TenantClass> {
    let slo = SloTargets {
        ttft: 5_000_000,
        tpot: f64::INFINITY,
    };
    vec![
        TenantClass::new("premium", slo, 200, 0.5),
        TenantClass::new("batch", slo, 40, 0.5),
    ]
}

/// An orchestrated run of `reqs` over `n` slots behind `load` routing
/// through `policy`, autoscaled reactively or predictively.
fn orchestrated(
    n: usize,
    policy: &str,
    predictive: bool,
    hide_key: bool,
    reqs: &[FleetRequest],
) -> OrchestratorOutcome {
    let mut route: Box<dyn RoutePolicy> =
        Box::new(LoadOnly::new(policy_from_name(policy).unwrap()));
    if hide_key {
        route = Box::new(ScanRoute(route));
    }
    let autoscale = if predictive {
        Box::new(EwmaPredictive::new(0.5))
    } else {
        autoscale_from_name("reactive").unwrap()
    };
    let mut cfg = OrchestratorConfig::default_for(n);
    cfg.min_replicas = 1;
    cfg.admission.defer_pressure = 0.05;
    cfg.admission.shed_pressure = 0.5;
    let mut orch = Orchestrator::new(slots(n), tenants(), route, autoscale, cfg)
        .unwrap()
        .with_jobs(1);
    for (i, &req) in reqs.iter().enumerate() {
        orch.submit(OrchRequest { req, tenant: i % 2 }).unwrap();
    }
    orch.run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A fleet answers a keyed policy from its index exactly as the
    /// policy's scan would: the same slot for every request, so the same
    /// outcome.
    #[test]
    fn fleet_index_answers_like_the_scan(
        seed in 0u64..10_000,
        n in 1usize..65,
        requests in 1usize..120,
        instants in 1u64..12,
        policy in 0usize..2,
    ) {
        let reqs = bursts(seed, requests, instants);
        let indexed = fleet_run(n, KEYED[policy], false, &reqs);
        let scanned = fleet_run(n, KEYED[policy], true, &reqs);
        prop_assert_eq!(indexed, scanned);
    }

    /// The same holds while the autoscaler moves slots in and out of the
    /// dispatchable set.
    #[test]
    fn orchestrated_index_answers_like_the_scan(
        seed in 0u64..10_000,
        n in 1usize..17,
        requests in 1usize..80,
        instants in 1u64..24,
        policy in 0usize..2,
        predictive in any::<bool>(),
    ) {
        let reqs = bursts(seed, requests, instants);
        let indexed = orchestrated(n, KEYED[policy], predictive, false, &reqs);
        let scanned = orchestrated(n, KEYED[policy], predictive, true, &reqs);
        prop_assert_eq!(indexed, scanned);
    }
}

/// The orchestrated property exercises slot transitions: on a fixed
/// trace, both autoscalers warm slots up and park them, and every request
/// is accounted for.
#[test]
fn orchestrated_runs_move_slots_in_and_out_of_the_index() {
    let reqs = bursts(7, 80, 24);
    for policy in KEYED {
        for predictive in [false, true] {
            let out = orchestrated(12, policy, predictive, false, &reqs);
            let label = format!("{policy}, predictive {predictive}");
            assert!(out.warmups > 0, "{label}: no slot warmed up");
            assert!(out.scale_downs > 0, "{label}: no slot parked");
            let labelled: u64 = (out.tenants.iter())
                .map(|t| t.admitted + t.deferred + t.shed)
                .sum();
            assert_eq!(labelled, reqs.len() as u64, "{label}");
            assert_eq!(out, orchestrated(12, policy, predictive, true, &reqs));
        }
    }
}
