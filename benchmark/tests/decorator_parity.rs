//! The tracing decorators must be invisible to the simulation: a system
//! built with every decorator produces the same outcome, bit for bit, as
//! one built from the bare library types. A trait method a decorator
//! fails to forward (`attach_trace_memo`, `capability_profile`,
//! `trace_snapshot`, `warm_replay`, `clone_box`, ...) shows up here as a
//! differing outcome or a layer that recorded nothing.

use std::sync::Arc;

use neupims_benchmark::metrics::{check_conservation, digest};
use neupims_benchmark::trace::{
    Trace, TracedAutoscale, TracedBackend, TracedPreemption, TracedRoute,
};
use neupims_benchmark::workload::{setup, Outcome, Spec, Workload};
use neupims_core::backend::{
    Backend, BackendCaps, BackendError, CapabilityProfile, GpuRooflineBackend, IterationResult,
};
use neupims_core::device::{Device, DeviceMode};
use neupims_core::fleet::{FleetRequest, FleetSim, JoinShortestQueue};
use neupims_core::orchestrator::{
    CapabilityAware, OrchRequest, Orchestrator, OrchestratorConfig, ReactiveQueueDepth, TenantClass,
};
use neupims_core::preempt::SwapLru;
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_pim::calibrate;
use neupims_types::{Cycle, LlmConfig, NeuPimsConfig};

fn small(workload: Workload) -> Spec {
    Spec {
        workload,
        replicas: 4,
        requests: 160,
    }
}

fn run(spec: &Spec, seed: u64, trace: Option<&Arc<Trace>>) -> (Outcome, u64) {
    let mut system = setup(spec, seed, trace).expect("the workload sets up");
    let (out, warmed) = system.run(trace).expect("the workload runs");
    check_conservation(&out, spec.requests as u64).expect("requests are conserved");
    (out, warmed)
}

#[test]
fn every_workload_is_unchanged_by_the_decorators() {
    for workload in Workload::ALL {
        let spec = small(workload);
        let (plain, plain_warmed) = run(&spec, 7, None);
        let trace = Trace::new();
        let (traced, traced_warmed) = run(&spec, 7, Some(&trace));
        assert_eq!(plain, traced, "{}", workload.name());
        assert_eq!(digest(&plain), digest(&traced), "{}", workload.name());
        assert_eq!(
            plain_warmed,
            traced_warmed,
            "{}: warm_replay",
            workload.name()
        );

        let r = trace.replica_totals();
        assert!(r.decode.calls() > 0, "{}: decode", workload.name());
        assert!(r.plan.calls() > 0, "{}: plan", workload.name());
        assert!(r.admission.calls() > 0, "{}: admission", workload.name());
        assert_eq!(trace.front.run.calls(), 1);
        assert_eq!(trace.front.submit.calls(), 1);
        match workload {
            Workload::OrchDiurnal256 => {
                assert_eq!(trace.front.route.calls(), spec.requests as u64);
                assert!(trace.front.autoscale.calls() >= spec.requests as u64);
            }
            Workload::FleetJsq256 | Workload::PimTraceTightKv => {
                assert_eq!(trace.front.dispatch.calls(), spec.requests as u64);
                assert_eq!(trace.front.warm_replay.calls(), 1);
            }
        }
        if workload == Workload::PimTraceTightKv {
            assert!(plain_warmed > 0, "the shared memo is warmed before the run");
            assert!(r.estimate.calls() > 0, "cost-model estimates are traced");
            let Outcome::Fleet(f) = &traced else {
                panic!("a fleet workload")
            };
            assert!(f.pim_trace.is_some(), "trace snapshots are forwarded");
        }
    }
}

#[test]
fn a_different_seed_changes_the_outcome() {
    let spec = small(Workload::FleetJsq256);
    assert_ne!(
        digest(&run(&spec, 1, None).0),
        digest(&run(&spec, 2, None).0)
    );
}

/// A backend with a calibrated capability envelope, unlike every shipped
/// backend (which derive theirs from their flags).
struct Envelope<B>(B);

impl<B: Backend> Backend for Envelope<B> {
    fn label(&self) -> &str {
        self.0.label()
    }

    fn caps(&self) -> BackendCaps {
        self.0.caps()
    }

    fn capability_profile(&self) -> CapabilityProfile {
        let mut p = self.0.capability_profile();
        p.warmup_cycles = 345_678;
        p.max_context = 96;
        p
    }

    fn peak_compute(&self) -> f64 {
        self.0.peak_compute()
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        self.0.prefill_cycles(model, tp, layers, prompt_lens)
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        self.0.decode_iteration(model, tp, layers, seq_lens)
    }
}

fn cfg(max_batch: usize) -> ServingConfig {
    let m = LlmConfig::gpt3_7b();
    ServingConfig {
        max_batch,
        tp: m.parallelism.tp,
        layers: m.num_layers / m.parallelism.pp,
        target_completions: 0,
        slo: Some(SloTargets {
            ttft: 20_000_000,
            tpot: 5_000_000.0,
        }),
    }
}

fn orchestrated(trace: Option<&Arc<Trace>>) -> Outcome {
    let slots: Vec<ServingSim<Box<dyn Backend>>> = (0..4)
        .map(|_| {
            let b: Box<dyn Backend> = Box::new(Envelope(GpuRooflineBackend::a100()));
            let b: Box<dyn Backend> = match trace {
                Some(t) => Box::new(TracedBackend::new(b, t.replica())),
                None => b,
            };
            ServingSim::new(b, LlmConfig::gpt3_7b(), cfg(4))
        })
        .collect();
    let tenants = vec![TenantClass::new(
        "chat",
        SloTargets {
            ttft: 20_000_000,
            tpot: 5_000_000.0,
        },
        200,
        1.0,
    )];
    let mut route: Box<dyn neupims_core::orchestrator::RoutePolicy> =
        Box::new(CapabilityAware::default());
    let mut autoscale: Box<dyn neupims_core::orchestrator::AutoscalePolicy> =
        Box::new(ReactiveQueueDepth::default());
    if let Some(t) = trace {
        route = Box::new(TracedRoute::new(route, Arc::clone(t)));
        autoscale = Box::new(TracedAutoscale::new(autoscale, Arc::clone(t)));
    }
    let mut ocfg = OrchestratorConfig::default_for(4);
    ocfg.min_replicas = 1;
    ocfg.warm_start = false;
    let mut orch = Orchestrator::new(slots, tenants, route, autoscale, ocfg)
        .expect("a valid orchestrator")
        .with_jobs(1);
    for i in 0..48u32 {
        orch.submit(OrchRequest {
            req: FleetRequest {
                id: i,
                input_len: 32 + (i % 7) * 16,
                output_len: 4 + i % 3,
                arrival: u64::from(i) * 150_000,
            },
            tenant: 0,
        })
        .expect("unique ids");
    }
    Outcome::Orchestrator(orch.run().expect("the orchestrator runs"))
}

#[test]
fn calibrated_capability_profiles_are_forwarded() {
    let plain = orchestrated(None);
    let traced = orchestrated(Some(&Trace::new()));
    let Outcome::Orchestrator(o) = &plain else {
        panic!("an orchestrated run")
    };
    assert!(
        o.warmups > 0,
        "the run pays warmups, so the profile matters"
    );
    assert_eq!(plain, traced);
}

fn preempting_fleet(trace: Option<&Arc<Trace>>) -> Outcome {
    let mut hw = NeuPimsConfig::table2();
    // The shipped `pressure` suite's tight cache.
    hw.mem.channels = 4;
    hw.mem.capacity_per_channel = 80 << 20;
    let cal = calibrate(&hw).expect("the tight configuration calibrates");
    let replicas: Vec<ServingSim<Box<dyn Backend>>> = (0..2)
        .map(|_| {
            let b: Box<dyn Backend> = Box::new(Device::new(hw, cal, DeviceMode::neupims()));
            let b: Box<dyn Backend> = match trace {
                Some(t) => Box::new(TracedBackend::new(b, t.replica())),
                None => b,
            };
            ServingSim::new(b, LlmConfig::gpt3_7b(), cfg(16))
        })
        .collect();
    // One policy installed fleet-wide is cloned into every replica, so
    // the decorator's `clone_box` is on the path.
    let policy: Box<dyn neupims_core::preempt::PreemptionPolicy> = match trace {
        Some(t) => Box::new(TracedPreemption::new(Box::new(SwapLru), t.replica())),
        None => Box::new(SwapLru),
    };
    let mut fleet = FleetSim::new(replicas, Box::new(JoinShortestQueue))
        .expect("a valid fleet")
        .with_jobs(1)
        .with_preemption(policy);
    // Bursts of short prompts with long decodes: contexts outgrow the
    // cache after admission.
    for i in 0..48u32 {
        fleet
            .submit(FleetRequest {
                id: i,
                input_len: 64 + (i % 5) * 8,
                output_len: 200,
                arrival: u64::from(i / 8) * 2_000_000,
            })
            .expect("unique ids");
    }
    Outcome::Fleet(fleet.run().expect("the fleet runs"))
}

#[test]
fn cloned_preemption_policies_keep_their_decorator() {
    let plain = preempting_fleet(None);
    let trace = Trace::new();
    let traced = preempting_fleet(Some(&trace));
    let Outcome::Fleet(f) = &plain else {
        panic!("a fleet run")
    };
    assert!(f.preemptions > 0, "the run preempts, so the policy matters");
    assert_eq!(plain, traced);
    assert!(
        trace.replica_totals().select.calls() > 0,
        "victim selection runs through the cloned decorator"
    );
}
