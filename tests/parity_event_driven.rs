//! Lockstep-vs-event-driven parity: `FleetSim::run` (event-driven, the
//! shipping path) must reproduce `FleetSim::run_lockstep` (the original
//! cycle-by-cycle loop, kept as the golden reference) bit for bit — same
//! seed, same `FleetOutcome` — across every scheduler x preemption x
//! dispatch combination, under random scenario workloads, and for any
//! `--jobs` worker count. Also pins the event-queue regression that a
//! finished replica is never re-stepped.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::backend::GpuRooflineBackend;
use neupims_core::device::{Device, DeviceMode};
use neupims_core::fleet::{
    policy_from_name, DispatchPolicy, FleetRequest, FleetSim, ReplicaSnapshot, POLICY_NAMES,
};
use neupims_core::preempt::{preemption_from_name, SwapConfig, PREEMPTION_NAMES};
use neupims_core::scheduler::{scheduler_from_name, SCHEDULER_NAMES};
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{
    kv_pressure_burst, ArrivalProcess, Dataset, PressureSpec, ScenarioWorkload, TenantMix,
};

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

/// A deliberately tight fleet (4 channels of 80 MiB per replica) so the
/// pressure trace actually preempts and restores — parity must hold on
/// the hard paths (park, restore, drop), not just clean decode.
fn tight_fleet(
    replicas: usize,
    scheduler: &str,
    preemption: &str,
    dispatch: &str,
) -> FleetSim<Device> {
    let sims = tight_replicas(replicas, scheduler, preemption);
    FleetSim::new(sims, policy_from_name(dispatch).unwrap()).unwrap()
}

/// The replicas of [`tight_fleet`].
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

/// A compact KV-pressure burst: small enough for a 27-combination grid,
/// hot enough to trigger preemption on the tight fleet.
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

#[test]
fn event_driven_matches_lockstep_across_the_full_policy_grid() {
    let requests = pressure_requests(11);
    let mut grid_preemptions = 0;
    let mut grid_restores = 0;
    for scheduler in SCHEDULER_NAMES {
        for preemption in PREEMPTION_NAMES {
            for dispatch in POLICY_NAMES {
                let tag = format!("{scheduler}/{preemption}/{dispatch}");
                let mut event = tight_fleet(2, scheduler, preemption, dispatch);
                let mut lockstep = tight_fleet(2, scheduler, preemption, dispatch);
                for &req in &requests {
                    event.submit(req).unwrap();
                    lockstep.submit(req).unwrap();
                }
                let a = event.run().unwrap();
                let b = lockstep.run_lockstep().unwrap();
                assert_eq!(a, b, "{tag}: event-driven diverged from lockstep");
                grid_preemptions += a.preemptions;
                grid_restores += a.restores;
            }
        }
    }
    // The grid must exercise the hard paths, or the parity claim is
    // hollow: the tight fleet has to preempt somewhere, and the
    // restoring policies (recompute/swap) have to restore somewhere.
    assert!(grid_preemptions > 0, "pressure trace never preempted");
    assert!(grid_restores > 0, "pressure trace never restored");
}

#[test]
fn jobs_count_is_bit_deterministic() {
    // 16 replicas so the drain phase crosses the parallel fan-out
    // threshold: jobs=1 (serial), jobs=4, and jobs=16 must agree bit for
    // bit with each other and with the lockstep reference.
    let model = LlmConfig::gpt3_7b();
    let requests: Vec<FleetRequest> = (0..64u32)
        .map(|i| FleetRequest {
            id: i,
            input_len: 32 + (i % 11) * 40,
            output_len: 2 + i % 7,
            arrival: i as u64 * 150_000,
        })
        .collect();
    let build = || {
        let sims: Vec<ServingSim<GpuRooflineBackend>> = (0..16)
            .map(|_| {
                ServingSim::new(GpuRooflineBackend::a100(), model.clone(), serving_cfg(4))
                    .with_records()
            })
            .collect();
        let mut fleet = FleetSim::new(sims, policy_from_name("round-robin").unwrap()).unwrap();
        for &req in &requests {
            fleet.submit(req).unwrap();
        }
        fleet
    };
    let reference = build().run_lockstep().unwrap();
    for jobs in [1, 4, 16] {
        let mut fleet = build().with_jobs(jobs);
        assert_eq!(fleet.jobs(), jobs);
        let out = fleet.run().unwrap();
        assert_eq!(out, reference, "--jobs {jobs} changed the outcome");
    }
}

/// Pins every request onto replica 0, leaving replica 1 permanently idle.
#[derive(Debug, Clone, Copy, Default)]
struct PinToZero;

impl DispatchPolicy for PinToZero {
    fn name(&self) -> &'static str {
        "pin-zero"
    }

    fn choose(&mut self, _snapshots: &[ReplicaSnapshot], _req: &FleetRequest) -> usize {
        0
    }
}

#[test]
fn finished_replica_is_never_re_stepped() {
    // Regression for the old O(replicas) linear scan: the lockstep loop
    // re-stepped every replica (including drained ones) at each dispatch
    // point; the event-driven merge queue only ever pops replicas with
    // outstanding work. With all requests pinned to replica 0, replica 1
    // must finish the run without a single `step()` call.
    let model = LlmConfig::gpt3_7b();
    let sims: Vec<ServingSim<GpuRooflineBackend>> = (0..2)
        .map(|_| {
            ServingSim::new(GpuRooflineBackend::a100(), model.clone(), serving_cfg(4))
                .with_records()
        })
        .collect();
    let mut fleet = FleetSim::new(sims, Box::new(PinToZero)).unwrap();
    for i in 0..12u32 {
        fleet
            .submit(FleetRequest {
                id: i,
                input_len: 64,
                output_len: 4,
                arrival: i as u64 * 400_000,
            })
            .unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.completed, 12);
    assert!(
        fleet.replicas()[0].steps() > 0,
        "replica 0 did all the work"
    );
    assert_eq!(
        fleet.replicas()[1].steps(),
        0,
        "idle replica was stepped by the event-driven run"
    );
}

/// A trace-priced tight fleet: every replica prices MHA by command-stream
/// replay, so memo sharing and warmup are actually on the critical path.
fn trace_fleet(replicas: usize) -> FleetSim<Device> {
    let sims = tight_replicas(replicas, "interleaved", "swap")
        .into_iter()
        .map(|r| r.with_cost_model(neupims_sched::CostModelKind::TraceDriven))
        .collect();
    FleetSim::new(sims, policy_from_name("jsq").unwrap()).unwrap()
}

/// Memo ids are `Arc` pointers, unique per memo instance — zero them (on
/// the fleet merge and every replica outcome) so runs over *distinct but
/// equivalent* memos compare equal when all counters agree.
fn normalize_memo_ids(out: &mut neupims_core::fleet::FleetOutcome) {
    if let Some(t) = out.pim_trace.as_mut() {
        t.memo_id = 0;
    }
    for r in &mut out.replicas {
        if let Some(t) = r.pim_trace.as_mut() {
            t.memo_id = 0;
        }
    }
}

/// Drops trace snapshots entirely — for shared-vs-private memo
/// comparisons, where hit/replay counters legitimately differ but every
/// serving metric must stay bit-identical.
fn strip_traces(out: &mut neupims_core::fleet::FleetOutcome) {
    out.pim_trace = None;
    for r in &mut out.replicas {
        r.pim_trace = None;
    }
}

/// Trace pricing parity: per-replica memos, one fleet-shared memo, a
/// pre-warmed shared memo, and a disk-cache-restored memo must all serve
/// the exact same outcome, for every `--jobs` worker count — sharing and
/// persistence are pure performance, never policy.
#[test]
fn trace_pricing_parity_across_jobs_sharing_warmup_and_disk() {
    use neupims_sched::TraceMemo;

    let requests = pressure_requests(23);
    let submit_all = |fleet: &mut FleetSim<Device>| {
        for &req in &requests {
            fleet.submit(req).unwrap();
        }
    };

    // Golden reference: private per-replica memos, lockstep engine.
    let mut reference = {
        let mut fleet = trace_fleet(2);
        submit_all(&mut fleet);
        fleet.run_lockstep().unwrap()
    };
    assert!(
        reference.pim_trace.is_some(),
        "trace pricing must surface channel statistics"
    );
    normalize_memo_ids(&mut reference);

    // Private memos, event-driven, every jobs count.
    for jobs in [1usize, 4, 16] {
        let mut fleet = trace_fleet(2).with_jobs(jobs);
        submit_all(&mut fleet);
        let mut out = fleet.run().unwrap();
        normalize_memo_ids(&mut out);
        assert_eq!(out, reference, "--jobs {jobs} changed a trace-priced run");
    }

    let mut stripped_reference = reference.clone();
    strip_traces(&mut stripped_reference);

    // One fleet-shared memo: counters differ (buckets replay once
    // fleet-wide), serving metrics must not.
    let shared_replays = {
        let memo = TraceMemo::new();
        let mut fleet = trace_fleet(2).with_shared_trace_memo(&memo);
        submit_all(&mut fleet);
        let mut out = fleet.run().unwrap();
        let snap = memo.snapshot();
        assert!(snap.replays > 0, "shared memo never replayed a bucket");
        strip_traces(&mut out);
        assert_eq!(out, stripped_reference, "memo sharing changed the outcome");
        snap.replays
    };
    let private_replays = reference.pim_trace.unwrap().replays;
    assert!(
        shared_replays <= private_replays,
        "sharing cannot replay more than private memos ({shared_replays} vs {private_replays})"
    );

    // Shared memo with explicit parallel warmup before serving starts.
    {
        let memo = TraceMemo::new();
        let mut fleet = trace_fleet(2).with_shared_trace_memo(&memo).with_jobs(4);
        submit_all(&mut fleet);
        let warmed = fleet.warm_replay();
        assert!(warmed > 0, "pending requests must warm some buckets");
        assert_eq!(fleet.warm_replay(), 0, "a second warmup finds nothing cold");
        let mut out = fleet.run().unwrap();
        strip_traces(&mut out);
        assert_eq!(out, stripped_reference, "warm replay changed the outcome");
    }

    // Disk round trip: populate a cache dir, then serve from a fresh
    // memo restored from it — zero replays, identical outcome.
    {
        let dir = std::env::temp_dir().join(format!("neupims-parity-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let memo = TraceMemo::with_cache_dir(&dir).unwrap();
        let mut fleet = trace_fleet(2).with_shared_trace_memo(&memo);
        submit_all(&mut fleet);
        fleet.run().unwrap();

        let restored = TraceMemo::with_cache_dir(&dir).unwrap();
        let mut fleet = trace_fleet(2).with_shared_trace_memo(&restored);
        submit_all(&mut fleet);
        let mut out = fleet.run().unwrap();
        let snap = restored.snapshot();
        assert_eq!(snap.replays, 0, "a warm cache dir must skip every replay");
        assert!(
            (snap.disk_hit_rate() - 1.0).abs() < 1e-12,
            "every first touch must come from disk (rate {})",
            snap.disk_hit_rate()
        );
        strip_traces(&mut out);
        assert_eq!(out, stripped_reference, "disk cache changed the outcome");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn arrival_process(idx: usize, rate: f64) -> ArrivalProcess {
    match idx % 4 {
        0 => ArrivalProcess::Poisson { rate },
        1 => ArrivalProcess::Bursty {
            rate,
            burst_size: 3,
        },
        2 => ArrivalProcess::Diurnal {
            rate,
            amplitude: 0.8,
            period: 2_000_000,
        },
        _ => ArrivalProcess::HeavyTailed { rate, alpha: 1.5 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parity holds on random scenario workloads (every arrival-process
    /// shape the scenario engine ships), not just hand-picked traces.
    #[test]
    fn event_driven_matches_lockstep_on_random_scenarios(
        seed in 0u64..1_000,
        process_idx in 0usize..4,
        rate in 1.0f64..12.0,
        requests in 1usize..16,
        replicas in 1usize..4,
        policy_idx in 0usize..3,
    ) {
        let workload = ScenarioWorkload {
            arrival: arrival_process(process_idx, rate),
            tenants: TenantMix::single(Dataset::ShareGpt),
            requests,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let generated = workload.generate(&mut rng);
        let model = LlmConfig::gpt3_7b();
        let build = || {
            let sims: Vec<ServingSim<GpuRooflineBackend>> = (0..replicas)
                .map(|_| ServingSim::new(GpuRooflineBackend::a100(), model.clone(), serving_cfg(4)).with_records())
                .collect();
            let policy = policy_from_name(POLICY_NAMES[policy_idx]).unwrap();
            let mut fleet = FleetSim::new(sims, policy).unwrap();
            for (i, req) in generated.iter().enumerate() {
                fleet.submit(FleetRequest {
                    id: i as u32,
                    input_len: req.input_len,
                    output_len: req.output_len.min(8),
                    arrival: req.arrival,
                }).unwrap();
            }
            fleet
        };
        let event = build().run().unwrap();
        let lockstep = build().run_lockstep().unwrap();
        prop_assert_eq!(event, lockstep);
    }
}
