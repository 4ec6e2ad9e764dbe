//! Orchestrator-vs-fleet parity: the degenerate orchestrator
//! configuration — single tenant above the admission floor, static
//! autoscale holding every slot on, warm start, load-only routing — must
//! reproduce the fleet's `FleetOutcome` bit for bit: same requests, same
//! dispatch decisions, same event order, same aggregate. `FleetSim::run`
//! runs on the orchestrator's own engine, so the independent reference
//! is `FleetSim::run_lockstep`, which steps every replica to each arrival
//! and rebuilds every snapshot from scratch. The capability/tenant/
//! autoscale layers are strictly additive, across every scheduler x
//! preemption x dispatch combination and every `--jobs` worker count.

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::device::{Device, DeviceMode};
use neupims_core::fleet::{policy_from_name, FleetRequest, FleetSim, POLICY_NAMES};
use neupims_core::orchestrator::{
    LoadOnly, OrchRequest, Orchestrator, OrchestratorConfig, StaticScale, TenantClass,
};
use neupims_core::preempt::{preemption_from_name, SwapConfig, PREEMPTION_NAMES};
use neupims_core::scheduler::{scheduler_from_name, SCHEDULER_NAMES};
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{kv_pressure_burst, PressureSpec};

fn serving_cfg(max_batch: usize) -> ServingConfig {
    let model = LlmConfig::gpt3_7b();
    ServingConfig {
        max_batch,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        slo: Some(SloTargets {
            ttft: 50_000_000,
            tpot: 5_000_000.0,
        }),
    }
}

/// The same deliberately tight replicas as the event-driven parity suite
/// (4 channels of 80 MiB), so parity is checked on the hard paths —
/// preempt, restore, drop — not just clean decode.
fn tight_replicas(replicas: usize, scheduler: &str, preemption: &str) -> Vec<ServingSim<Device>> {
    let mut hw = NeuPimsConfig::table2();
    hw.mem.channels = 4;
    hw.mem.capacity_per_channel = 80 << 20;
    let cal = calibrate(&hw).unwrap();
    (0..replicas)
        .map(|_| {
            ServingSim::with_scheduler(
                Device::new(hw, cal, DeviceMode::neupims()),
                LlmConfig::gpt3_7b(),
                serving_cfg(8),
                scheduler_from_name(scheduler, 128).unwrap(),
            )
            .with_preemption(preemption_from_name(preemption).unwrap())
            .with_swap(SwapConfig { gb_per_sec: 32.0 })
            .with_records()
        })
        .collect()
}

fn pressure_requests(seed: u64) -> Vec<FleetRequest> {
    let spec = PressureSpec {
        burst_size: 6,
        bursts: 2,
        output_len: 96,
        ..PressureSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    kv_pressure_burst(&mut rng, &spec)
        .iter()
        .enumerate()
        .map(|(i, r)| FleetRequest {
            id: i as u32,
            input_len: r.input_len,
            output_len: r.output_len,
            arrival: r.arrival,
        })
        .collect()
}

/// The degenerate orchestrator over the same replicas: one tenant at
/// priority 255 (above the admission floor), every slot statically on
/// from cycle 0, and the fleet's own dispatch policy behind the load-only
/// router.
fn degenerate_orchestrator(
    replicas: usize,
    scheduler: &str,
    preemption: &str,
    dispatch: &str,
) -> Orchestrator<Device> {
    let tenants = vec![TenantClass::new(
        "only",
        SloTargets {
            ttft: 50_000_000,
            tpot: 5_000_000.0,
        },
        255,
        1.0,
    )];
    Orchestrator::new(
        tight_replicas(replicas, scheduler, preemption),
        tenants,
        Box::new(LoadOnly::new(policy_from_name(dispatch).unwrap())),
        Box::new(StaticScale::full()),
        OrchestratorConfig::default_for(replicas),
    )
    .unwrap()
}

fn fleet(replicas: usize, scheduler: &str, preemption: &str, dispatch: &str) -> FleetSim<Device> {
    FleetSim::new(
        tight_replicas(replicas, scheduler, preemption),
        policy_from_name(dispatch).unwrap(),
    )
    .unwrap()
}

#[test]
fn degenerate_orchestrator_matches_fleet_across_the_full_policy_grid() {
    let requests = pressure_requests(11);
    let mut grid_preemptions = 0;
    for scheduler in SCHEDULER_NAMES {
        for preemption in PREEMPTION_NAMES {
            for dispatch in POLICY_NAMES {
                let tag = format!("{scheduler}/{preemption}/{dispatch}");
                let mut legacy = fleet(2, scheduler, preemption, dispatch);
                let mut lockstep = fleet(2, scheduler, preemption, dispatch);
                let mut orch = degenerate_orchestrator(2, scheduler, preemption, dispatch);
                for &req in &requests {
                    legacy.submit(req).unwrap();
                    lockstep.submit(req).unwrap();
                    orch.submit(OrchRequest { req, tenant: 0 }).unwrap();
                }
                let reference = lockstep.run_lockstep().unwrap();
                let want = legacy.run().unwrap();
                let got = orch.run().unwrap();
                assert_eq!(want, reference, "{tag}: fleet diverged from lockstep");
                assert_eq!(got.fleet, want, "{tag}: orchestrator diverged from fleet");
                // The meta layers must all have been inert.
                assert_eq!(got.warmups, 0, "{tag}: static warm start paid warmup");
                assert_eq!(got.shed, 0, "{tag}: priority 255 was shed");
                assert_eq!(got.deferred, 0, "{tag}: full fleet deferred an arrival");
                assert_eq!(got.tenants[0].admitted, want.submitted, "{tag}");
                grid_preemptions += want.preemptions;
            }
        }
    }
    assert!(grid_preemptions > 0, "pressure trace never preempted");
}

#[test]
fn degenerate_orchestrator_is_jobs_deterministic() {
    // 16 slots and a long arrival tail: jobs 1/4/16 must agree bit for
    // bit with each other, with the fleet and with lockstep.
    let requests: Vec<FleetRequest> = (0..64u32)
        .map(|i| FleetRequest {
            id: i,
            input_len: 32 + (i % 11) * 40,
            output_len: 2 + i % 7,
            arrival: i as u64 * 150_000,
        })
        .collect();
    let mut legacy = fleet(16, "interleaved", "swap", "jsq");
    let mut lockstep = fleet(16, "interleaved", "swap", "jsq");
    for &req in &requests {
        legacy.submit(req).unwrap();
        lockstep.submit(req).unwrap();
    }
    let want = legacy.run().unwrap();
    assert_eq!(
        want,
        lockstep.run_lockstep().unwrap(),
        "fleet diverged from lockstep"
    );
    for jobs in [1usize, 4, 16] {
        let mut orch = degenerate_orchestrator(16, "interleaved", "swap", "jsq").with_jobs(jobs);
        for &req in &requests {
            orch.submit(OrchRequest { req, tenant: 0 }).unwrap();
        }
        let got = orch.run().unwrap();
        assert_eq!(got.fleet, want, "--jobs {jobs} changed the outcome");
    }
}
