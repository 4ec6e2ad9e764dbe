//! Cross-crate integration: the SLO-aware multi-replica fleet simulator
//! (dispatch policies x backends, heterogeneous fleets, drop accounting).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::backend::{backend_from_name, Backend, GpuRooflineBackend};
use neupims_core::device::{Device, DeviceMode};
use neupims_core::fleet::{
    policy_from_name, FleetOutcome, FleetRequest, FleetSim, JoinShortestQueue, RoundRobin,
    POLICY_NAMES,
};
use neupims_core::serving::{Samples, ServingConfig, ServingSim, SloTargets};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{arrival_times, ArrivalProcess, Dataset};

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

fn sampled_workload(n: usize, seed: u64) -> Vec<FleetRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = Dataset::ShareGpt;
    arrival_times(&mut rng, &ArrivalProcess::Poisson { rate: 8.0 }, n)
        .unwrap()
        .iter()
        .enumerate()
        .map(|(i, &at)| FleetRequest {
            id: i as u32,
            input_len: dataset.sample_input(&mut rng),
            output_len: dataset.sample_output(&mut rng).min(16),
            arrival: at,
        })
        .collect()
}

#[test]
fn every_policy_runs_every_backend_at_four_replicas() {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let requests = sampled_workload(16, 21);
    let expected_tokens: u64 = requests.iter().map(|r| r.output_len as u64).sum();
    for backend_name in ["neupims", "gpu", "naive"] {
        for policy in POLICY_NAMES {
            let replicas: Vec<ServingSim<Box<dyn Backend>>> = (0..4)
                .map(|_| {
                    ServingSim::new(
                        backend_from_name(backend_name, &cfg, &cal).unwrap(),
                        model.clone(),
                        serving_cfg(8),
                    )
                })
                .collect();
            let mut fleet = FleetSim::new(replicas, policy_from_name(policy).unwrap()).unwrap();
            for &req in &requests {
                fleet.submit(req).unwrap();
            }
            let out = fleet.run().unwrap();
            let tag = format!("{backend_name}/{policy}");
            assert_eq!(out.submitted, 16, "{tag}");
            assert_eq!(out.completed + out.dropped, out.submitted, "{tag}");
            assert_eq!(out.dropped, 0, "{tag}");
            assert_eq!(out.tokens, expected_tokens, "{tag}");
            assert!(out.makespan > 0 && out.tokens_per_sec() > 0.0, "{tag}");
            assert!(out.ttft_percentile(50.0) > 0, "{tag}: prefill charged");
            assert_eq!(out.latencies.len(), 16, "{tag}");
        }
    }
}

#[test]
fn jsq_beats_round_robin_under_skewed_arrivals() {
    // Every fourth request is heavy (long prompt, long generation), the
    // rest are tiny. Round-robin over four replicas pins every heavy
    // request onto replica 0; JSQ sees the live queue depth and spreads
    // them, so fleet throughput (tokens over makespan) must not regress.
    let model = LlmConfig::gpt3_7b();
    let requests: Vec<FleetRequest> = (0..24u32)
        .map(|i| {
            let heavy = i % 4 == 0;
            FleetRequest {
                id: i,
                input_len: if heavy { 512 } else { 32 },
                output_len: if heavy { 48 } else { 2 },
                arrival: i as u64 * 200_000,
            }
        })
        .collect();
    let run = |policy: Box<dyn neupims_core::fleet::DispatchPolicy>| {
        let replicas: Vec<ServingSim<GpuRooflineBackend>> = (0..4)
            .map(|_| ServingSim::new(GpuRooflineBackend::a100(), model.clone(), serving_cfg(4)))
            .collect();
        let mut fleet = FleetSim::new(replicas, policy).unwrap();
        for &req in &requests {
            fleet.submit(req).unwrap();
        }
        fleet.run().unwrap()
    };
    let rr = run(Box::<RoundRobin>::default());
    let jsq = run(Box::new(JoinShortestQueue));
    assert_eq!(rr.completed, 24);
    assert_eq!(jsq.completed, 24);
    assert!(
        jsq.tokens_per_sec() >= rr.tokens_per_sec(),
        "JSQ {:.0} tok/s must not trail round-robin {:.0} tok/s",
        jsq.tokens_per_sec(),
        rr.tokens_per_sec()
    );
    assert!(
        jsq.makespan <= rr.makespan,
        "JSQ makespan {} vs RR {}",
        jsq.makespan,
        rr.makespan
    );
}

#[test]
fn heterogeneous_fleet_mixes_backends() {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let replicas: Vec<ServingSim<Box<dyn Backend>>> = ["neupims", "neupims", "gpu", "gpu"]
        .iter()
        .map(|name| {
            ServingSim::new(
                backend_from_name(name, &cfg, &cal).unwrap(),
                model.clone(),
                serving_cfg(8),
            )
        })
        .collect();
    let labels: Vec<String> = replicas
        .iter()
        .map(|r| r.backend().label().to_owned())
        .collect();
    assert!(labels.contains(&"NeuPIMs".to_owned()) && labels.contains(&"GPU-only".to_owned()));
    let mut fleet = FleetSim::new(replicas, policy_from_name("kv-aware").unwrap()).unwrap();
    for &req in &sampled_workload(20, 5) {
        fleet.submit(req).unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.completed, 20);
    assert_eq!(out.replicas.len(), 4);
    // KV-aware dispatch over an all-idle start spreads work beyond one
    // replica.
    assert!(out.replicas.iter().filter(|r| r.completed > 0).count() >= 2);
}

#[test]
fn fleet_aggregates_drops() {
    // Two tight-memory replicas: a request whose context can never fit an
    // empty channel is dropped by its replica and surfaces in the fleet
    // total instead of vanishing.
    let mut cfg = NeuPimsConfig::table2();
    cfg.mem.channels = 4;
    cfg.mem.capacity_per_channel = 80 << 20;
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let replicas: Vec<ServingSim<Device>> = (0..2)
        .map(|_| {
            ServingSim::new(
                Device::new(cfg, cal, DeviceMode::neupims()),
                model.clone(),
                ServingConfig {
                    max_batch: 8,
                    tp: 4,
                    layers: 32,
                    target_completions: 0,
                    slo: None,
                },
            )
        })
        .collect();
    let mut fleet = FleetSim::new(replicas, policy_from_name("jsq").unwrap()).unwrap();
    fleet
        .submit(FleetRequest {
            id: 0,
            input_len: 8192, // exceeds an empty channel: must drop
            output_len: 4,
            arrival: 0,
        })
        .unwrap();
    for i in 1..6u32 {
        fleet
            .submit(FleetRequest {
                id: i,
                input_len: 256,
                output_len: 4,
                arrival: i as u64 * 1_000,
            })
            .unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.dropped, 1, "oversized request must be counted");
    assert_eq!(out.completed, 5);
    assert_eq!(out.completed + out.dropped, out.submitted);
}

#[test]
fn an_outcome_keeps_its_records_across_a_later_round() {
    // Outcomes share their replicas' samples and record lists
    // copy-on-write: taking one copies neither, and an outcome taken after
    // one round reads exactly its own samples, records and percentiles
    // after a second round has completed more requests on the same
    // replicas, whose next outcome aggregates both rounds.
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let replicas: Vec<ServingSim<Box<dyn Backend>>> = (0..2)
        .map(|_| {
            ServingSim::new(
                backend_from_name("gpu", &cfg, &cal).unwrap(),
                model.clone(),
                serving_cfg(8),
            )
            .with_records()
        })
        .collect();
    let mut fleet = FleetSim::new(replicas, policy_from_name("jsq").unwrap()).unwrap();
    let requests = sampled_workload(24, 9);
    let (first, second) = requests.split_at(12);
    for &req in first {
        fleet.submit(req).unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.completed, 12);
    for (replica, taken) in fleet.replicas().iter().zip(&out.replicas) {
        let now = replica.outcome();
        assert!(
            Arc::ptr_eq(&now.samples, &taken.samples),
            "an outcome shares its replica's samples"
        );
        assert!(
            Arc::ptr_eq(&now.records, &taken.records),
            "an outcome shares its replica's records"
        );
    }
    let records: Vec<Vec<_>> = out.replicas.iter().map(|r| r.records.to_vec()).collect();
    let samples: Vec<Samples> = out.replicas.iter().map(|r| (*r.samples).clone()).collect();
    let percentiles = |o: &FleetOutcome| {
        (
            o.latency_percentile(50.0),
            o.latency_percentile(99.0),
            o.ttft_percentile(99.0),
            o.tpot_percentile(99.0),
        )
    };
    let before = percentiles(&out);

    for &req in second {
        fleet
            .submit(FleetRequest {
                arrival: req.arrival + out.makespan,
                ..req
            })
            .unwrap();
    }
    let again = fleet.run().unwrap();
    assert_eq!(again.completed, 24);
    for ((kept, taken), grown) in records.iter().zip(&out.replicas).zip(&again.replicas) {
        assert_eq!(&**taken.records, kept, "the first outcome's records moved");
        assert_eq!(&grown.records[..kept.len()], &kept[..]);
    }
    for ((kept, taken), grown) in samples.iter().zip(&out.replicas).zip(&again.replicas) {
        assert_eq!(&*taken.samples, kept, "the first outcome's samples moved");
        let n = kept.latencies.len();
        assert_eq!(grown.samples.latencies[..n], kept.latencies[..]);
        assert_eq!(grown.samples.ttfts[..n], kept.ttfts[..]);
    }
    let both_rounds: usize = again
        .replicas
        .iter()
        .map(|r| r.samples.latencies.len())
        .sum();
    assert_eq!((again.latencies.len(), both_rounds), (24, 24));
    assert_eq!(percentiles(&out), before);
    assert_ne!(
        percentiles(&again),
        before,
        "the second round changed the fleet's samples"
    );
}
