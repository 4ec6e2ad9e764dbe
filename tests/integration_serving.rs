//! Cross-crate integration: the full serving loop (request pool + paged
//! KV cache + device) under streaming arrivals.

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::device::{Device, DeviceMode};
use neupims_core::serving::{ServingConfig, ServingSim};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{arrival_times, ArrivalProcess, Dataset};

fn make_sim(mode: DeviceMode, max_batch: usize) -> ServingSim {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    ServingSim::new(
        Device::new(cfg, cal, mode),
        model,
        ServingConfig {
            max_batch,
            tp: 4,
            layers: 32,
            target_completions: 0,
            slo: None,
        },
    )
}

#[test]
fn streaming_workload_drains_completely() {
    let mut sim = make_sim(DeviceMode::neupims(), 32);
    let mut rng = StdRng::seed_from_u64(11);
    let n = 48;
    let arrivals = arrival_times(&mut rng, &ArrivalProcess::Poisson { rate: 5.0 }, n).unwrap();
    let mut expected_tokens = 0u64;
    for (i, &at) in arrivals.iter().enumerate() {
        let input = Dataset::ShareGpt.sample_input(&mut rng);
        let output = Dataset::ShareGpt.sample_output(&mut rng).min(32);
        expected_tokens += output as u64;
        sim.submit(i as u32, input, output, at).unwrap();
    }
    let out = sim.run().unwrap();
    assert_eq!(out.completed, n as u64);
    assert_eq!(out.submitted, n as u64);
    assert_eq!(out.dropped, 0);
    assert_eq!(out.tokens, expected_tokens);
    assert!(out.mean_latency() > 0.0);
    assert!(out.iterations > 0);
    assert!(out.peak_kv_utilization > 0.0 && out.peak_kv_utilization <= 1.0);
    // Prefill is charged: every request's first token arrives strictly
    // after arrival, no later than completion.
    let samples = &out.samples;
    assert_eq!(samples.ttfts.len(), n);
    for (&ttft, &latency) in samples.ttfts.iter().zip(&samples.latencies) {
        assert!(ttft > 0 && ttft <= latency, "{ttft} {latency}");
    }
}

#[test]
fn neupims_beats_naive_on_the_same_stream() {
    let submit = |sim: &mut ServingSim| {
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..64u32 {
            let input = Dataset::ShareGpt.sample_input(&mut rng);
            let output = Dataset::ShareGpt.sample_output(&mut rng).min(24);
            sim.submit(i, input, output, 0).unwrap();
        }
    };
    let mut a = make_sim(DeviceMode::neupims(), 64);
    submit(&mut a);
    let fast = a.run().unwrap();
    let mut b = make_sim(DeviceMode::NaiveNpuPim, 64);
    submit(&mut b);
    let slow = b.run().unwrap();
    assert_eq!(fast.tokens, slow.tokens, "same work done");
    assert!(
        fast.total_cycles < slow.total_cycles,
        "neupims {} vs naive {}",
        fast.total_cycles,
        slow.total_cycles
    );
    assert!(fast.tokens_per_sec() > slow.tokens_per_sec());
}

#[test]
fn batch_cap_enforces_admission_waves() {
    let mut sim = make_sim(DeviceMode::neupims(), 4);
    for i in 0..12u32 {
        sim.submit(i, 64, 4, 0).unwrap();
    }
    let out = sim.run().unwrap();
    assert_eq!(out.completed, 12);
    // 12 requests through a 4-slot batch, 4 tokens each: at least 12
    // iterations (3 waves x 4 tokens).
    assert!(out.iterations >= 12, "iterations {}", out.iterations);
}

#[test]
fn kv_pressure_defers_admission_without_deadlock() {
    // Four channels, each just large enough for ONE 512-token context
    // (~64 MiB of KV across 32 layers): eight requests must be admitted
    // in waves as earlier ones finish and release their pages.
    let mut cfg = NeuPimsConfig::table2();
    cfg.mem.channels = 4;
    cfg.mem.capacity_per_channel = 80 << 20;
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let mut sim = ServingSim::new(
        Device::new(cfg, cal, DeviceMode::neupims()),
        model,
        ServingConfig {
            max_batch: 16,
            tp: 4,
            layers: 32,
            target_completions: 0,
            slo: None,
        },
    );
    for i in 0..8u32 {
        sim.submit(i, 512, 4, 0).unwrap();
    }
    let out = sim.run().unwrap();
    assert_eq!(out.completed, 8, "tight memory must defer, not deadlock");
    assert!(out.peak_kv_utilization > 0.5, "{}", out.peak_kv_utilization);
    // Two admission waves of 4 tokens each: at least 8 iterations.
    assert!(out.iterations >= 8, "iterations {}", out.iterations);
}
