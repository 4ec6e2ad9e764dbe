//! Integration tests for the iteration-level scheduler policies: exact
//! PR-2 parity of the default lump-prefill path, the NPU/PIM interleaving
//! win on a mixed prefill+decode trace, conservation under every policy
//! and backend, and the scheduler threading through `SystemSpec` and
//! `FleetSim`.

use neupims_core::backend::backend_from_name;
use neupims_core::device::Device;
use neupims_core::fleet::{FleetRequest, FleetSim, JoinShortestQueue};
use neupims_core::scheduler::{
    scheduler_from_name, PrefillScheduler, SchedulerPolicy, SCHEDULER_NAMES,
};
use neupims_core::serving::{ServingConfig, ServingSim, StepEvent};
use neupims_core::system::SystemSpec;
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};

fn cfg(max_batch: usize) -> ServingConfig {
    ServingConfig {
        max_batch,
        tp: 4,
        layers: 32,
        target_completions: 0,
        slo: None,
    }
}

fn neupims_sim(max_batch: usize, scheduler: Box<dyn SchedulerPolicy>) -> ServingSim<Device> {
    ServingSim::with_scheduler(
        Device::table2().unwrap(),
        LlmConfig::gpt3_7b(),
        cfg(max_batch),
        scheduler,
    )
}

/// The PR-2 golden trace: 24 staggered mixed-length requests through the
/// full NeuPIMs backend at max_batch 16.
fn golden_trace(sim: &mut ServingSim<Device>) {
    for i in 0..24u32 {
        sim.submit(i, 64 + (i % 7) * 100, 4 + i % 9, (i as u64) * 300_000)
            .unwrap();
    }
}

#[test]
fn lump_prefill_reproduces_pr2_numbers_exactly() {
    // Golden numbers captured from the PR-2 serving path (commit 25113d8)
    // before the scheduler refactor. The default lump-prefill mode must
    // reproduce them bit-for-bit.
    let mut sim = ServingSim::new(Device::table2().unwrap(), LlmConfig::gpt3_7b(), cfg(16));
    golden_trace(&mut sim);
    let out = sim.run().unwrap();
    assert_eq!(out.total_cycles, 104_832_448);
    assert_eq!(out.completed, 24);
    assert_eq!(out.tokens, 183);
    assert_eq!(out.iterations, 19);
    assert_eq!(out.mean_latency(), 60_269_692.0);
    assert_eq!(out.latency_percentile(50.0), 56_383_712);
    assert_eq!(out.latency_percentile(99.0), 99_732_448);
    assert_eq!(out.ttft_percentile(50.0), 15_030_944);
    assert_eq!(out.tpot_percentile(50.0), 5_316_984.888888889);
    assert!((out.peak_kv_utilization - 0.0252532958984375).abs() < 1e-15);
    // Lump prefill never puts prompt encoding on-device.
    assert_eq!(out.prefill_cycles_on_device, 0);
    assert_eq!(out.overlap_hidden_cycles, 0);
    assert_eq!(out.overlap_efficiency(), 0.0);
}

#[test]
fn default_scheduler_equals_explicit_lump() {
    let mut default_sim = ServingSim::new(Device::table2().unwrap(), LlmConfig::gpt3_7b(), cfg(16));
    golden_trace(&mut default_sim);
    let mut lump_sim = neupims_sim(16, Box::new(PrefillScheduler::Lump));
    golden_trace(&mut lump_sim);
    assert_eq!(default_sim.run().unwrap(), lump_sim.run().unwrap());
}

/// The paper's interleaving claim at the serving layer: on a mixed
/// prefill+decode trace (each huge prompt's chunked encoding overlaps the
/// previous requests' decode tails), the interleaved mode hides prefill
/// GEMM work under decode PIM GEMV phases and finishes strictly sooner
/// than lump prefill — even though the lump model runs prompts on free
/// standalone NPUs. Every hidden cycle is wall clock removed from the
/// serving makespan.
#[test]
fn interleaved_beats_lump_on_mixed_prefill_decode_trace() {
    let submit = |sim: &mut ServingSim<Device>| {
        for i in 0..12u32 {
            sim.submit(i, 8192, 64, i as u64 * 200_000_000).unwrap();
        }
    };
    let mut lump = neupims_sim(32, Box::new(PrefillScheduler::Lump));
    submit(&mut lump);
    let lump_out = lump.run().unwrap();

    let mut sbi = neupims_sim(32, scheduler_from_name("interleaved", 4096).unwrap());
    submit(&mut sbi);
    let sbi_out = sbi.run().unwrap();

    assert_eq!(lump_out.completed, 12);
    assert_eq!(sbi_out.completed, 12);
    assert_eq!(lump_out.tokens, sbi_out.tokens, "same trace, same tokens");
    assert!(
        sbi_out.overlap_hidden_cycles > 0,
        "interleaving must hide prefill under PIM phases"
    );
    assert!(
        sbi_out.tokens_per_sec() > lump_out.tokens_per_sec(),
        "interleaved ({:.1} tokens/s, {} cycles) must beat lump \
         ({:.1} tokens/s, {} cycles)",
        sbi_out.tokens_per_sec(),
        sbi_out.total_cycles,
        lump_out.tokens_per_sec(),
        lump_out.total_cycles,
    );

    // And it must strictly beat serial chunked prefill on the same trace:
    // identical chunk schedule, minus the overlap.
    let mut chunked = neupims_sim(32, scheduler_from_name("chunked", 4096).unwrap());
    submit(&mut chunked);
    let chunked_out = chunked.run().unwrap();
    assert_eq!(chunked_out.overlap_hidden_cycles, 0);
    assert!(
        sbi_out.total_cycles < chunked_out.total_cycles,
        "overlap must shorten the serial chunked run: {} vs {}",
        sbi_out.total_cycles,
        chunked_out.total_cycles
    );
}

#[test]
fn every_scheduler_conserves_requests_on_every_backend() {
    let cfg_hw = NeuPimsConfig::table2();
    let cal = calibrate(&cfg_hw).unwrap();
    for backend_name in ["gpu", "npu-only", "naive", "neupims", "transpim"] {
        for sched_name in SCHEDULER_NAMES {
            let backend = backend_from_name(backend_name, &cfg_hw, &cal).unwrap();
            let mut sim = ServingSim::with_scheduler(
                backend,
                LlmConfig::gpt3_7b(),
                cfg(8),
                scheduler_from_name(sched_name, 256).unwrap(),
            );
            for i in 0..12u32 {
                sim.submit(i, 100 + i * 37, 2 + i % 5, i as u64 * 500_000)
                    .unwrap();
            }
            // Step the run, checking every iteration's cycle split as it
            // executes and summing what the outcome reports in aggregate.
            let (mut iterations, mut cycles, mut decode_batch, mut prefill, mut hidden) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            loop {
                match sim.step().unwrap() {
                    StepEvent::Finished => break,
                    StepEvent::Iteration => {
                        let s = *sim.last_iteration().expect("an iteration ran");
                        assert_eq!(
                            s.cycles,
                            s.decode_cycles + s.prefill_cycles - s.hidden_cycles,
                            "{backend_name}/{sched_name}: {s:?}"
                        );
                        assert_eq!(s.start + s.cycles, sim.now(), "{s:?}");
                        iterations += 1;
                        cycles += s.cycles;
                        decode_batch += s.decode_requests as u64;
                        prefill += s.prefill_cycles;
                        hidden += s.hidden_cycles;
                    }
                    StepEvent::Waited | StepEvent::Dropped(_) => {}
                }
            }
            let out = sim.outcome();
            assert_eq!(iterations, out.iterations, "{backend_name}/{sched_name}");
            assert!(cycles <= out.total_cycles, "{backend_name}/{sched_name}");
            assert_eq!(decode_batch, out.decode_batch_sum);
            assert_eq!(prefill, out.prefill_cycles_on_device);
            assert_eq!(hidden, out.overlap_hidden_cycles);
            assert_eq!(
                out.completed + out.dropped,
                out.submitted,
                "{backend_name}/{sched_name}"
            );
            assert_eq!(out.completed, 12, "{backend_name}/{sched_name}");
            let expected: u64 = (0..12u32).map(|i| (2 + i % 5) as u64).sum();
            assert_eq!(out.tokens, expected, "{backend_name}/{sched_name}");
            let samples = &out.samples;
            assert_eq!(samples.ttfts.len(), 12);
            for (&ttft, &latency) in samples.ttfts.iter().zip(&samples.latencies) {
                assert!(ttft > 0, "{backend_name}/{sched_name}: {ttft}");
                assert!(
                    ttft <= latency,
                    "{backend_name}/{sched_name}: {ttft} {latency}"
                );
            }
        }
    }
}

#[test]
fn chunked_ttft_includes_the_whole_prompt_encoding() {
    // A single request on an idle device: chunked prefill costs exactly
    // the telescoped lump prefill, so TTFT must be at least the lump
    // delay plus one decode iteration.
    let backend = Device::table2().unwrap();
    let model = LlmConfig::gpt3_7b();
    let lump_prefill = backend.prefill_cycles(&model, 4, 32, &[2000]).unwrap();
    let mut sim = neupims_sim(8, scheduler_from_name("chunked", 256).unwrap());
    sim.submit(0, 2000, 4, 0).unwrap();
    let out = sim.run().unwrap();
    assert_eq!(out.completed, 1);
    assert_eq!(out.prefill_cycles_on_device, lump_prefill);
    assert!(out.samples.ttfts[0] >= lump_prefill);
    assert_eq!(out.overlap_hidden_cycles, 0, "nothing to hide when idle");
}

/// The system spec's scheduler name reaches the replica it builds.
#[test]
fn simulation_builder_threads_the_scheduler() {
    let run = |scheduler: &str| {
        let spec = SystemSpec {
            scheduler: scheduler.to_owned(),
            chunk_tokens: 512,
            max_batch: 16,
            ..SystemSpec::default()
        };
        let mut serving = spec.replica(0, None).unwrap();
        for i in 0..8u32 {
            serving.submit(i, 1024, 4, 0).unwrap();
        }
        let out = serving.run().unwrap();
        (
            out.completed,
            out.prefill_cycles_on_device,
            out.overlap_hidden_cycles,
        )
    };
    let (completed, on_device, hidden) = run("lump");
    assert_eq!(completed, 8);
    assert_eq!(on_device, 0);
    assert_eq!(hidden, 0, "lump prefill hides nothing");

    let (completed, on_device, hidden) = run("interleaved");
    assert_eq!(completed, 8);
    assert!(on_device > 0, "chunked policies encode prompts on-device");
    assert!(hidden > 0, "only interleaving hides prefill under decode");
}

#[test]
fn fleet_supports_per_replica_schedulers() {
    let model = LlmConfig::gpt3_7b();
    let replicas = vec![
        ServingSim::with_scheduler(
            Device::table2().unwrap(),
            model.clone(),
            cfg(8),
            Box::new(PrefillScheduler::Lump),
        ),
        ServingSim::with_scheduler(
            Device::table2().unwrap(),
            model.clone(),
            cfg(8),
            scheduler_from_name("interleaved", 512).unwrap(),
        ),
    ];
    let mut fleet = FleetSim::new(replicas, Box::new(JoinShortestQueue)).unwrap();
    for i in 0..16u32 {
        fleet
            .submit(FleetRequest {
                id: i,
                input_len: 1500,
                output_len: 3 + i % 3,
                arrival: i as u64 * 2_000_000,
            })
            .unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.completed + out.dropped, 16);
    assert_eq!(out.dropped, 0);
    // Only the interleaved replica encodes prompts on-device; the fleet
    // aggregate reflects it.
    let on_device: Vec<u64> = out
        .replicas
        .iter()
        .map(|r| r.prefill_cycles_on_device)
        .collect();
    assert_eq!(on_device[0], 0, "lump replica keeps prefill off-device");
    assert!(on_device[1] > 0, "interleaved replica encodes on-device");
    assert_eq!(out.prefill_cycles_on_device, on_device.iter().sum::<u64>());
    assert!(out.overlap_efficiency() >= 0.0 && out.overlap_efficiency() <= 1.0);
}

#[test]
fn overlap_metrics_are_ordered_across_policies() {
    let submit = |sim: &mut ServingSim<Device>| {
        for i in 0..12u32 {
            sim.submit(i, 3000, 24, i as u64 * 30_000_000).unwrap();
        }
    };
    let mut lump = neupims_sim(16, Box::new(PrefillScheduler::Lump));
    submit(&mut lump);
    let lump_out = lump.run().unwrap();
    let mut chunked = neupims_sim(16, scheduler_from_name("chunked", 1024).unwrap());
    submit(&mut chunked);
    let chunked_out = chunked.run().unwrap();
    let mut sbi = neupims_sim(16, scheduler_from_name("interleaved", 1024).unwrap());
    submit(&mut sbi);
    let sbi_out = sbi.run().unwrap();

    assert_eq!(lump_out.overlap_efficiency(), 0.0);
    assert_eq!(chunked_out.overlap_efficiency(), 0.0);
    assert!(chunked_out.prefill_cycles_on_device > 0);
    assert!(sbi_out.overlap_efficiency() > 0.0);
    assert!(sbi_out.overlap_efficiency() <= 1.0);
    assert!(lump_out.mean_decode_batch() > 0.0);
    // The interleaved run never takes longer than the serial chunked run.
    assert!(sbi_out.total_cycles <= chunked_out.total_cycles);
}
