//! Integration tests for preemption-aware KV-cache memory management:
//! drop-only parity against the pre-preemption golden numbers, the
//! KV-pressure burst trace where recompute preemption completes strictly
//! more requests than drop-only, conservation through preempt/restore
//! cycles, and the threading through `SystemSpec` and `FleetSim`.

use neupims_core::backend::Backend;
use neupims_core::fleet::{FleetRequest, FleetSim, JoinShortestQueue};
use neupims_core::preempt::{
    preemption_from_name, DropOnly, PreemptionPolicy, RecomputeLastAdmitted, SwapConfig, SwapLru,
    PREEMPTION_NAMES,
};
use neupims_core::serving::{ServingConfig, ServingSim};
use neupims_core::system::SystemSpec;
use neupims_core::{Device, DeviceMode};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{kv_pressure_burst, PressureSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(max_batch: usize) -> ServingConfig {
    ServingConfig {
        max_batch,
        tp: 4,
        layers: 32,
        target_completions: 0,
        slo: None,
    }
}

/// A deliberately tight serving replica: 4 channels of 80 MiB, so a few
/// hundred tokens of context per request crowd a channel mid-decode.
fn tight_replica() -> ServingSim {
    let mut hw = NeuPimsConfig::table2();
    hw.mem.channels = 4;
    hw.mem.capacity_per_channel = 80 << 20;
    let cal = calibrate(&hw).unwrap();
    ServingSim::new(
        Device::new(hw, cal, DeviceMode::neupims()),
        LlmConfig::gpt3_7b(),
        cfg(16),
    )
}

/// The default KV-pressure burst trace, submitted with sequential ids.
fn submit_burst<B: Backend>(sim: &mut ServingSim<B>, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = kv_pressure_burst(&mut rng, &PressureSpec::default());
    for (i, r) in trace.iter().enumerate() {
        sim.submit(i as u32, r.input_len, r.output_len, r.arrival)
            .unwrap();
    }
    trace.len() as u64
}

/// The PR-2 golden trace from `integration_scheduler.rs`.
fn golden_trace(sim: &mut ServingSim<Device>) {
    for i in 0..24u32 {
        sim.submit(i, 64 + (i % 7) * 100, 4 + i % 9, (i as u64) * 300_000)
            .unwrap();
    }
}

#[test]
fn drop_only_reproduces_the_golden_numbers_exactly() {
    // Drop-only is the default; pin both the implicit default and an
    // explicit `with_preemption(DropOnly)` against the PR-2/PR-3 golden
    // serving numbers — preemption support must not move a single cycle
    // of the no-pressure path.
    for explicit in [false, true] {
        let mut sim = ServingSim::new(Device::table2().unwrap(), LlmConfig::gpt3_7b(), cfg(16))
            .with_records();
        if explicit {
            let policy = Box::new(DropOnly);
            assert_eq!(policy.name(), "drop");
            sim = sim.with_preemption(policy);
        }
        golden_trace(&mut sim);
        let out = sim.run().unwrap();
        assert_eq!(out.total_cycles, 104_832_448);
        assert_eq!(out.completed, 24);
        assert_eq!(out.tokens, 183);
        assert_eq!(out.iterations, 19);
        assert_eq!(out.mean_latency(), 60_269_692.0);
        assert_eq!(out.latency_percentile(50.0), 56_383_712);
        assert_eq!(out.ttft_percentile(50.0), 15_030_944);
        assert_eq!(out.preemptions, 0);
        assert_eq!(out.restores, 0);
        assert_eq!(out.preemption_stall_cycles, 0);
        assert_eq!(out.restore_overhead_cycles, 0);
        assert!(out.records.iter().all(|r| r.preemptions == 0));
    }
}

#[test]
fn recompute_completes_strictly_more_than_drop_on_the_pressure_trace() {
    // The acceptance criterion: on a KV-pressure burst trace, recompute
    // preemption completes strictly more requests (fewer drops) than
    // drop-only, which sheds requests whose growth hits a crowded
    // channel.
    let mut drop = tight_replica();
    let submitted = submit_burst(&mut drop, 0xBEE5);
    let drop_out = drop.run().unwrap();
    assert_eq!(drop_out.submitted, submitted);
    assert_eq!(drop_out.completed + drop_out.dropped, submitted);
    assert!(
        drop_out.dropped > 0,
        "the trace must actually apply pressure"
    );
    assert_eq!(drop_out.preemptions, 0);

    let mut rec = tight_replica().with_preemption(Box::new(RecomputeLastAdmitted));
    submit_burst(&mut rec, 0xBEE5);
    let rec_out = rec.run().unwrap();
    assert_eq!(rec_out.completed + rec_out.dropped, submitted);
    assert!(
        rec_out.completed > drop_out.completed,
        "recompute ({} completed, {} dropped) must beat drop-only ({} completed, {} dropped)",
        rec_out.completed,
        rec_out.dropped,
        drop_out.completed,
        drop_out.dropped
    );
    assert!(rec_out.dropped < drop_out.dropped);
    assert!(
        rec_out.preemptions > 0,
        "survival must come from preemption"
    );
    assert!(rec_out.restores > 0);
    assert!(rec_out.preemption_stall_cycles > 0);
    assert!(rec_out.restore_overhead_cycles > 0);
}

#[test]
fn conservation_holds_through_preempt_restore_cycles_for_every_policy() {
    for name in PREEMPTION_NAMES {
        let mut sim =
            (tight_replica().with_records()).with_preemption(preemption_from_name(name).unwrap());
        let submitted = submit_burst(&mut sim, 0xCAFE);
        let out = sim.run().unwrap();
        assert_eq!(
            out.completed + out.dropped,
            submitted,
            "{name}: no request may vanish through preempt/restore"
        );
        assert!(
            out.restores <= out.preemptions,
            "{name}: every restore needs a prior preemption"
        );
        // A preempted-then-restored request counts each token once; shed
        // requests may leave partial (unrecorded) output behind, so the
        // record sum never exceeds the generated total — and matches it
        // exactly when nothing was shed mid-flight.
        let record_tokens: u64 = out.records.iter().map(|r| u64::from(r.tokens)).sum();
        assert!(record_tokens <= out.tokens, "{name}");
        if out.dropped == 0 {
            assert_eq!(out.tokens, record_tokens, "{name}");
        }
        let record_preempts: u64 = out.records.iter().map(|r| u64::from(r.preemptions)).sum();
        assert!(record_preempts <= out.preemptions, "{name}");
    }
}

#[test]
fn swap_completes_the_pressure_trace_with_cheaper_restores() {
    let mut swap = tight_replica()
        .with_preemption(Box::new(SwapLru))
        .with_swap(SwapConfig { gb_per_sec: 32.0 });
    let submitted = submit_burst(&mut swap, 0xBEE5);
    let swap_out = swap.run().unwrap();
    assert_eq!(swap_out.completed + swap_out.dropped, submitted);
    assert!(swap_out.preemptions > 0);

    let mut rec = tight_replica().with_preemption(Box::new(RecomputeLastAdmitted));
    submit_burst(&mut rec, 0xBEE5);
    let rec_out = rec.run().unwrap();
    assert!(
        swap_out.completed >= rec_out.completed,
        "swap must not lose requests recompute saves"
    );
    // Swap-in of a few-hundred-token context over 32 GB/s is orders
    // cheaper than re-running its prefill.
    assert!(
        swap_out.restore_overhead_cycles < rec_out.restore_overhead_cycles,
        "swap overhead {} vs recompute {}",
        swap_out.restore_overhead_cycles,
        rec_out.restore_overhead_cycles
    );
}

/// The system spec's preemption policy reaches the replica it builds:
/// on the tight device under the burst trace, a `recompute` replica
/// preempts and completes more than a `drop` one, which never preempts,
/// and without pressure neither preempts.
#[test]
fn simulation_builder_threads_the_preemption_policy() {
    let mut tight = NeuPimsConfig::table2();
    tight.mem.channels = 4;
    tight.mem.capacity_per_channel = 80 << 20;
    let replica = |preemption: &str, hardware: NeuPimsConfig| {
        let spec = SystemSpec {
            hardware,
            preemption: preemption.into(),
            swap_gbps: 8.0,
            max_batch: 16,
            ..SystemSpec::default()
        };
        spec.replica(0, None).unwrap()
    };
    let burst = |preemption: &str| {
        let mut sim = replica(preemption, tight);
        let submitted = submit_burst(&mut sim, 0xBEE5);
        let out = sim.run().unwrap();
        assert_eq!(out.completed + out.dropped, submitted, "{preemption}");
        out
    };
    let (drop, rec) = (burst("drop"), burst("recompute"));
    assert_eq!(drop.preemptions, 0, "drop-only never preempts");
    assert!(rec.preemptions > 0, "recompute preempts under pressure");
    assert!(rec.completed > drop.completed);

    let mut serving = replica("recompute", NeuPimsConfig::table2());
    for i in 0..4 {
        serving.submit(i, 64, 4, 0).unwrap();
    }
    let out = serving.run().unwrap();
    assert_eq!(out.completed, 4);
    assert_eq!(out.preemptions, 0, "no pressure, no preemption");
}

#[test]
fn fleet_aggregates_preemption_stats_across_replicas() {
    let replicas = vec![tight_replica(), tight_replica()]
        .into_iter()
        .map(|r| r.with_preemption(Box::new(RecomputeLastAdmitted)))
        .collect();
    let mut fleet = FleetSim::new(replicas, Box::new(JoinShortestQueue)).unwrap();
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    // Double the default burst so both replicas see pressure.
    let spec = PressureSpec {
        burst_size: 16,
        ..PressureSpec::default()
    };
    let trace = kv_pressure_burst(&mut rng, &spec);
    for (i, r) in trace.iter().enumerate() {
        fleet
            .submit(FleetRequest {
                id: i as u32,
                input_len: r.input_len,
                output_len: r.output_len,
                arrival: r.arrival,
            })
            .unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.submitted, trace.len() as u64);
    assert_eq!(out.completed + out.dropped, out.submitted);
    assert!(out.preemptions > 0, "tight replicas must preempt");
    let per_replica: u64 = out.replicas.iter().map(|r| r.preemptions).sum();
    assert_eq!(out.preemptions, per_replica);
    let per_replica_restores: u64 = out.replicas.iter().map(|r| r.restores).sum();
    assert_eq!(out.restores, per_replica_restores);
    let per_replica_stall: u64 = out.replicas.iter().map(|r| r.preemption_stall_cycles).sum();
    assert_eq!(out.preemption_stall_cycles, per_replica_stall);
}
