//! Property suite for the meta-orchestrator invariants that must hold on
//! *any* trace, policy mix, and admission tuning — not just the curated
//! eval scenarios:
//!
//! * conservation — every submitted request is labelled exactly once per
//!   tenant: `admitted + deferred + shed == submitted`;
//! * the committed replica count never exceeds `max_replicas`, even when
//!   the autoscale policy demands absurd fleet sizes;
//! * a warmup-pending replica never receives dispatch — every request a
//!   slot served arrived inside one of its dispatchability windows;
//! * priority monotonicity — raising a tenant's priority never lowers its
//!   goodput on the same seeded trace.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::backend::GpuRooflineBackend;
use neupims_core::fleet::{FleetRequest, JoinShortestQueue};
use neupims_core::orchestrator::{
    AdmissionConfig, AutoscaleObservation, AutoscalePolicy, CapabilityAware, EwmaPredictive,
    LoadOnly, OrchRequest, Orchestrator, OrchestratorConfig, OrchestratorOutcome,
    ReactiveQueueDepth, RoutePolicy, StaticScale, TenantClass,
};
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_types::{Cycle, LlmConfig};
use neupims_workload::{ArrivalProcess, Dataset, ScenarioWorkload, TenantMix};

/// `n` GPU slots that keep their records, so a test can read the instant
/// each request was dispatched at.
fn slots(n: usize, max_batch: usize) -> Vec<ServingSim<GpuRooflineBackend>> {
    let model = LlmConfig::gpt3_7b();
    let cfg = ServingConfig {
        max_batch,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        slo: None,
    };
    (0..n)
        .map(|_| {
            ServingSim::new(GpuRooflineBackend::a100(), model.clone(), cfg.clone()).with_records()
        })
        .collect()
}

fn loose_slo() -> SloTargets {
    SloTargets {
        ttft: Cycle::MAX,
        tpot: f64::INFINITY,
    }
}

/// A diurnal trace shaped by the shared scenario engine, tagged
/// round-robin across `tenants`.
fn diurnal_trace(seed: u64, requests: usize, tenants: usize) -> Vec<OrchRequest> {
    let workload = ScenarioWorkload {
        arrival: ArrivalProcess::Diurnal {
            rate: 6.0,
            amplitude: 0.9,
            period: 4_000_000,
        },
        tenants: TenantMix::single(Dataset::ShareGpt),
        requests,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    workload
        .generate(&mut rng)
        .iter()
        .enumerate()
        .map(|(i, r)| OrchRequest {
            req: FleetRequest {
                id: i as u32,
                input_len: r.input_len,
                output_len: r.output_len.min(8),
                arrival: r.arrival,
            },
            tenant: i % tenants,
        })
        .collect()
}

fn autoscaler(idx: usize) -> Box<dyn AutoscalePolicy> {
    match idx % 3 {
        0 => Box::new(StaticScale::full()),
        1 => Box::new(ReactiveQueueDepth { target_queue: 2.0 }),
        _ => Box::new(EwmaPredictive::new(0.02)),
    }
}

fn router(idx: usize) -> Box<dyn RoutePolicy> {
    match idx % 2 {
        0 => Box::new(LoadOnly::new(Box::new(JoinShortestQueue))),
        _ => Box::new(CapabilityAware::default()),
    }
}

fn run_orchestrated(
    trace: &[OrchRequest],
    tenants: Vec<TenantClass>,
    route: Box<dyn RoutePolicy>,
    autoscale: Box<dyn AutoscalePolicy>,
    cfg: OrchestratorConfig,
) -> OrchestratorOutcome {
    let mut orch = Orchestrator::new(slots(cfg.max_replicas, 4), tenants, route, autoscale, cfg)
        .expect("valid config");
    for &r in trace {
        orch.submit(r).expect("unique ids");
    }
    orch.run().expect("run succeeds")
}

/// Demands an absurd fleet at every observation: the clamp, not the
/// policy, must keep the committed count inside the slot table.
#[derive(Debug, Clone, Copy)]
struct Greedy;

impl AutoscalePolicy for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn desired(&mut self, _obs: &AutoscaleObservation) -> usize {
        usize::MAX
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: every submitted request lands in exactly one of
    /// {admitted, deferred, shed} for its tenant, whatever the admission
    /// thresholds, autoscaler, and router.
    #[test]
    fn admission_labels_conserve_submissions(
        seed in 0u64..1_000,
        requests in 1usize..40,
        max_replicas in 1usize..5,
        scaler_idx in 0usize..3,
        router_idx in 0usize..2,
        defer_pressure in 0.0f64..1.5,
        shed_gap in 0.0f64..1.5,
        low_priority in 0u8..100,
    ) {
        let trace = diurnal_trace(seed, requests, 2);
        let tenants = vec![
            TenantClass::new("premium", loose_slo(), 200, 0.5),
            TenantClass::new("batch", loose_slo(), low_priority, 0.5),
        ];
        let mut cfg = OrchestratorConfig::default_for(max_replicas);
        cfg.min_replicas = 1;
        cfg.admission = AdmissionConfig {
            priority_floor: 100,
            defer_pressure,
            shed_pressure: defer_pressure + shed_gap,
            defer_cycles: 500_000,
        };
        let out = run_orchestrated(
            &trace,
            tenants,
            router(router_idx),
            autoscaler(scaler_idx),
            cfg,
        );
        let mut dispatched = 0;
        for (i, t) in out.tenants.iter().enumerate() {
            let submitted = trace.iter().filter(|r| r.tenant == i).count() as u64;
            prop_assert_eq!(t.submitted, submitted);
            prop_assert_eq!(
                t.admitted + t.deferred + t.shed,
                t.submitted,
                "conservation broke for tenant {}",
                i
            );
            dispatched += t.admitted + t.deferred;
        }
        // Everything dispatched reached the fleet; sheds never did.
        prop_assert_eq!(out.fleet.submitted, dispatched);
        prop_assert_eq!(out.fleet.completed + out.fleet.dropped, dispatched);
    }

    /// The committed replica count is clamped to the slot table even when
    /// the policy demands `usize::MAX` replicas at every arrival.
    #[test]
    fn autoscale_never_exceeds_max_replicas(
        seed in 0u64..1_000,
        requests in 1usize..40,
        max_replicas in 1usize..6,
    ) {
        let trace = diurnal_trace(seed, requests, 1);
        let tenants = vec![TenantClass::new("only", loose_slo(), 200, 1.0)];
        let mut cfg = OrchestratorConfig::default_for(max_replicas);
        cfg.min_replicas = 1;
        let out = run_orchestrated(
            &trace,
            tenants,
            Box::new(LoadOnly::new(Box::new(JoinShortestQueue))),
            Box::new(Greedy),
            cfg,
        );
        prop_assert!(
            out.peak_replicas <= max_replicas,
            "peak {} exceeded the {}-slot table",
            out.peak_replicas,
            max_replicas
        );
        prop_assert_eq!(out.slots.len(), max_replicas);
        prop_assert_eq!(out.fleet.completed + out.fleet.dropped, trace.len() as u64);
    }

    /// A warmup-pending replica never receives dispatch: every request a
    /// slot served arrived (at its effective dispatch instant) inside one
    /// of the slot's dispatchability windows.
    #[test]
    fn warming_slots_never_serve(
        seed in 0u64..1_000,
        requests in 1usize..40,
        max_replicas in 2usize..6,
        scaler_idx in 1usize..3, // reactive / predictive: real spin-ups
        warm_start_bit in 0usize..2,
    ) {
        let trace = diurnal_trace(seed, requests, 1);
        let tenants = vec![TenantClass::new("only", loose_slo(), 200, 1.0)];
        let mut cfg = OrchestratorConfig::default_for(max_replicas);
        cfg.min_replicas = 1;
        cfg.warm_start = warm_start_bit == 1;
        let out = run_orchestrated(
            &trace,
            tenants,
            Box::new(LoadOnly::new(Box::new(JoinShortestQueue))),
            autoscaler(scaler_idx),
            cfg,
        );
        for (slot, replica) in out.slots.iter().zip(&out.fleet.replicas) {
            for rec in replica.records.iter() {
                prop_assert!(
                    slot.windows
                        .iter()
                        .any(|&(lo, hi)| rec.arrival >= lo && rec.arrival < hi),
                    "slot {} served a request dispatched at {} outside windows {:?}",
                    slot.index,
                    rec.arrival,
                    slot.windows
                );
            }
        }
    }

    /// Priority monotonicity: raising the batch tenant's priority (all
    /// else equal, same seeded trace) never lowers its goodput. With the
    /// loose SLO, goodput counts every completed token, so bypassing
    /// admission can only ever add served work for that tenant.
    #[test]
    fn raising_priority_never_lowers_goodput(
        seed in 0u64..1_000,
        requests in 1usize..40,
        low_priority in 0u8..100,
    ) {
        let trace = diurnal_trace(seed, requests, 2);
        let run_with = |batch_priority: u8| {
            let tenants = vec![
                TenantClass::new("premium", loose_slo(), 200, 0.5),
                TenantClass::new("batch", loose_slo(), batch_priority, 0.5),
            ];
            let mut cfg = OrchestratorConfig::default_for(2);
            cfg.min_replicas = 1;
            // Aggressive thresholds so admission actually bites at the
            // low setting; the high setting bypasses it entirely.
            cfg.admission = AdmissionConfig {
                priority_floor: 100,
                defer_pressure: 0.05,
                shed_pressure: 0.4,
                defer_cycles: 500_000,
            };
            run_orchestrated(
                &trace,
                tenants,
                Box::new(LoadOnly::new(Box::new(JoinShortestQueue))),
                Box::new(ReactiveQueueDepth { target_queue: 2.0 }),
                cfg,
            )
        };
        let low = run_with(low_priority);
        let high = run_with(255);
        prop_assert!(
            high.tenants[1].goodput_tokens >= low.tenants[1].goodput_tokens,
            "raising batch priority {} -> 255 dropped its goodput {} -> {}",
            low_priority,
            low.tenants[1].goodput_tokens,
            high.tenants[1].goodput_tokens
        );
    }
}
